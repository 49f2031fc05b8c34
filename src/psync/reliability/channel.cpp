#include "psync/reliability/channel.hpp"

#include <algorithm>
#include <bit>

#include "psync/common/check.hpp"
#include "psync/reliability/framing.hpp"

namespace psync::reliability {

ReliabilityPolicy policy_from_string(const std::string& s) {
  if (s == "off") return ReliabilityPolicy::kOff;
  if (s == "detect" || s == "detect-only") return ReliabilityPolicy::kDetectOnly;
  if (s == "correct" || s == "correct+retry" || s == "retry") {
    return ReliabilityPolicy::kCorrectRetry;
  }
  throw ConfigError("unknown reliability policy: " + s);
}

void ReliabilityParams::validate() const {
  if (block_words == 0) {
    throw ConfigError("ReliabilityParams: block_words must be > 0");
  }
  if (policy == ReliabilityPolicy::kCorrectRetry && training_words == 0) {
    throw ConfigError(
        "ReliabilityParams: correct+retry needs a training burst");
  }
}

void RetryReport::merge(const RetryReport& o) {
  blocks_total += o.blocks_total;
  blocks_retried += o.blocks_retried;
  retries += o.retries;
  slots_replayed += o.slots_replayed;
  backoff_slots += o.backoff_slots;
  corrected_bits += o.corrected_bits;
  double_errors += o.double_errors;
  crc_failures += o.crc_failures;
  detected_errors += o.detected_errors;
  residual_errors += o.residual_errors;
}

ProtectedChannel::ProtectedChannel(FaultModel fault, ReliabilityParams params)
    : params_(params), fault_(std::move(fault)), stream_(fault_) {
  params_.validate();
  if (params_.policy != ReliabilityPolicy::kOff) calibrate();
}

void ProtectedChannel::calibrate() {
  // Drive an all-ones training burst and scan for stuck-at-0 columns. A
  // dead lane reads 0 on every training word (random flips can light it
  // occasionally, so "dead" tolerates up to a quarter of the burst).
  const std::size_t T = params_.training_words;
  if (T == 0) return;
  std::vector<std::uint32_t> ones_seen(64, 0);
  for (std::size_t t = 0; t < T; ++t) {
    const std::uint64_t got = stream_.corrupt(~std::uint64_t{0});
    for (int b = 0; b < 64; ++b) {
      if ((got >> b) & 1U) ++ones_seen[static_cast<std::size_t>(b)];
    }
  }
  calibration_slots_ = T;
  for (std::uint32_t b = 0; b < 64; ++b) {
    if (ones_seen[b] <= T / 4) lanes_.dead_lanes.push_back(b);
  }

  if (params_.policy != ReliabilityPolicy::kCorrectRetry) return;

  // Failover: remap dead lanes onto spares; serialize over the survivors
  // once spares run out. Either way the stuck-at columns carry no traffic,
  // so the silenced mask drops to the lanes the scan missed (none, for a
  // deterministic stuck-at fault).
  const std::size_t dead = lanes_.dead_lanes.size();
  lanes_.spares_used = std::min(dead, params_.spare_lanes);
  lanes_.residual_dead = dead - lanes_.spares_used;
  const std::size_t usable = 64 - lanes_.residual_dead;
  if (usable == 0) {
    // Every lane is dead and the spare pool could not restore even one:
    // there is no width left to serialize over. Before this check the
    // degraded-width division below hit zero and the channel carried on as
    // if traffic still flowed. Fail-stop with a typed error instead so the
    // campaign layer can classify the point.
    throw LaneExhaustionError(
        "ProtectedChannel: all 64 lanes dead and spares exhausted (" +
        std::to_string(params_.spare_lanes) +
        " spare(s)); the channel cannot carry traffic");
  }
  lanes_.slots_per_word = usable >= 64 ? 1 : (64 + usable - 1) / usable;

  std::uint64_t detected_mask = 0;
  for (std::uint32_t b : lanes_.dead_lanes) {
    detected_mask |= (std::uint64_t{1} << b);
  }
  stream_.set_silenced_mask(stream_.silenced_mask() & ~detected_mask);
}

ProtectedChannel::Transmission ProtectedChannel::transmit(
    const std::vector<std::uint64_t>& payload,
    const std::vector<std::int64_t>* corrupted_slots,
    std::vector<std::uint64_t> storage) {
  Transmission tx;
  tx.payload_slots = payload.size();
  tx.words = std::move(storage);
  tx.words.clear();
  tx.words.reserve(payload.size());

  if (params_.policy == ReliabilityPolicy::kOff) {
    tx.words.resize(payload.size());
    stream_.corrupt_words(payload.data(), tx.words.data(), payload.size(),
                          &tx.fault);
    tx.wire_slots = tx.wire_words = payload.size();
    for (std::size_t i = 0; i < payload.size(); ++i) {
      if (tx.words[i] != payload[i]) ++tx.retry.residual_errors;
    }
    return tx;
  }

  const std::size_t spw = lanes_.slots_per_word;
  const std::size_t B = params_.block_words;
  std::size_t next_flagged = 0;  // cursor into corrupted_slots (sorted)
  std::vector<std::int64_t> flagged;
  if (corrupted_slots != nullptr) {
    flagged = *corrupted_slots;
    std::sort(flagged.begin(), flagged.end());
  }

  std::vector<std::uint64_t> wire;
  std::vector<std::uint64_t> received;
  BlockDecode dec;  // payload buffer reused across blocks and attempts
  for (std::size_t off = 0; off < payload.size(); off += B) {
    const std::size_t n = std::min(B, payload.size() - off);
    ++tx.retry.blocks_total;

    wire.clear();
    encode_block(payload.data() + off, n, &wire);

    // Collision-flagged slots inside this block force a replay even when
    // the coding checks pass (the checker saw overlapping energy).
    bool collision_flagged = false;
    while (next_flagged < flagged.size() &&
           flagged[next_flagged] < static_cast<std::int64_t>(off + n)) {
      if (flagged[next_flagged] >= static_cast<std::int64_t>(off)) {
        collision_flagged = true;
      }
      ++next_flagged;
    }

    const bool correct =
        params_.policy == ReliabilityPolicy::kCorrectRetry;
    const std::size_t max_retries = correct ? params_.max_retries : 0;
    for (std::size_t attempt = 0;; ++attempt) {
      received.resize(wire.size());
      stream_.corrupt_words(wire.data(), received.data(), wire.size(),
                            &tx.fault);
      tx.wire_words += wire.size();
      tx.wire_slots += wire.size() * spw;
      if (attempt > 0) {
        tx.retry.slots_replayed += wire.size() * spw;
        tx.retry.backoff_slots += params_.retry_backoff_slots;
        tx.backoff_slots += params_.retry_backoff_slots;
        ++tx.retry.retries;
      }

      decode_block_into(received.data(), n, correct, &dec);
      tx.retry.corrected_bits += dec.corrected_bits;
      tx.retry.double_errors += dec.double_errors;
      tx.retry.detected_errors += dec.flagged_words;
      if (!dec.crc_ok) {
        ++tx.retry.crc_failures;
        ++tx.retry.detected_errors;
      }

      const bool bad = !dec.good() || (attempt == 0 && collision_flagged);
      if (!bad || attempt == max_retries) {
        if (attempt > 0) ++tx.retry.blocks_retried;
        break;
      }
    }

    tx.words.insert(tx.words.end(), dec.payload.begin(), dec.payload.end());
  }

  PSYNC_CHECK(tx.words.size() == payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (tx.words[i] != payload[i]) ++tx.retry.residual_errors;
  }
  return tx;
}

}  // namespace psync::reliability
