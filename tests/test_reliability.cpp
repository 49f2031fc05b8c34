// Unit tests for the reliability layer: SECDED(72,64), CRC-32, block
// framing, and the ProtectedChannel policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "oracle/codec.hpp"
#include "psync/common/check.hpp"
#include "psync/common/rng.hpp"
#include "psync/reliability/channel.hpp"
#include "psync/reliability/crc32.hpp"
#include "psync/reliability/fault_model.hpp"
#include "psync/reliability/framing.hpp"
#include "psync/reliability/secded.hpp"

namespace psync::reliability {
namespace {

// One-shot CRC of a byte buffer.
std::uint32_t crc32(const void* data, std::size_t len) {
  return crc32_finalize(crc32_update(kCrc32Init, data, len));
}

// Wire words for a `payload_words`-word stream framed in blocks of
// `block_words` (the last block may be short).
std::size_t coded_stream_words(std::size_t payload_words,
                               std::size_t block_words) {
  std::size_t total = 0;
  for (std::size_t off = 0; off < payload_words; off += block_words) {
    total += coded_block_words(std::min(block_words, payload_words - off));
  }
  return total;
}

BlockDecode decode_block(const std::uint64_t* wire, std::size_t n,
                         bool correct) {
  BlockDecode out;
  decode_block_into(wire, n, correct, &out);
  return out;
}

TEST(Secded, CleanRoundTrip) {
  for (std::uint64_t w :
       {0ULL, 1ULL, 0xFFFFFFFFFFFFFFFFULL, 0xDEADBEEFCAFEF00DULL}) {
    const auto check = secded_encode(w);
    const auto r = secded_decode(w, check);
    EXPECT_TRUE(r.clean());
    EXPECT_EQ(r.data, w);
  }
}

TEST(Secded, EverySingleDataBitCorrected) {
  const std::uint64_t w = 0x0123456789ABCDEFULL;
  const auto check = secded_encode(w);
  for (int bit = 0; bit < 64; ++bit) {
    const auto r = secded_decode(w ^ (1ULL << bit), check);
    EXPECT_EQ(r.status, SecdedStatus::kCorrectedData) << "bit " << bit;
    EXPECT_EQ(r.data, w) << "bit " << bit;
    EXPECT_EQ(r.corrected_bit, bit);
  }
}

TEST(Secded, EverySingleCheckBitCorrected) {
  const std::uint64_t w = 0x0123456789ABCDEFULL;
  const auto check = secded_encode(w);
  for (int bit = 0; bit < 8; ++bit) {
    const auto r = secded_decode(
        w, static_cast<std::uint8_t>(check ^ (1U << bit)));
    EXPECT_EQ(r.status, SecdedStatus::kCorrectedCheck) << "check bit " << bit;
    EXPECT_EQ(r.data, w) << "check bit " << bit;
  }
}

TEST(Secded, DoubleDataErrorsDetected) {
  const std::uint64_t w = 0xA5A5A5A5A5A5A5A5ULL;
  const auto check = secded_encode(w);
  for (int a = 0; a < 64; a += 7) {
    for (int b = a + 1; b < 64; b += 11) {
      const auto r = secded_decode(w ^ (1ULL << a) ^ (1ULL << b), check);
      EXPECT_EQ(r.status, SecdedStatus::kDoubleError)
          << "bits " << a << "," << b;
    }
  }
}

TEST(Secded, DataPlusCheckErrorDetected) {
  const std::uint64_t w = 0x00FF00FF00FF00FFULL;
  const auto check = secded_encode(w);
  const auto r =
      secded_decode(w ^ (1ULL << 13), static_cast<std::uint8_t>(check ^ 0x04));
  EXPECT_EQ(r.status, SecdedStatus::kDoubleError);
}

TEST(Crc32, KnownVector) {
  // The standard IEEE CRC-32 check value for the ASCII digits "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926U);
}

TEST(Crc32, WordsMatchByteFold) {
  const std::vector<std::uint64_t> words = {0x0807060504030201ULL,
                                            0x100F0E0D0C0B0A09ULL};
  const std::uint8_t bytes[16] = {1, 2,  3,  4,  5,  6,  7,  8,
                                  9, 10, 11, 12, 13, 14, 15, 16};
  EXPECT_EQ(crc32_words(words.data(), words.size()), crc32(bytes, 16));
}

TEST(Crc32, DetectsSingleBitChange) {
  std::vector<std::uint64_t> words(32);
  std::iota(words.begin(), words.end(), 0x1000);
  const auto ref = crc32_words(words.data(), words.size());
  words[17] ^= 1ULL << 42;
  EXPECT_NE(crc32_words(words.data(), words.size()), ref);
}

std::vector<std::uint64_t> ramp(std::size_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 0x1111111111111111ULL * (i % 7);
  return v;
}

TEST(Framing, SlotAccounting) {
  // 64 payload words -> 64 + 1 CRC + ceil(65/8)=9 check words.
  EXPECT_EQ(coded_block_words(64), 74u);
  // Short tail block: 5 payload -> 5 + 1 + 1.
  EXPECT_EQ(coded_block_words(5), 7u);
  EXPECT_EQ(coded_stream_words(64 + 5, 64), 74u + 7u);
  EXPECT_EQ(coded_stream_words(0, 64), 0u);
}

TEST(Framing, CleanRoundTrip) {
  const auto payload = ramp(64);
  std::vector<std::uint64_t> wire;
  encode_block(payload.data(), payload.size(), &wire);
  ASSERT_EQ(wire.size(), coded_block_words(payload.size()));
  const auto dec = decode_block(wire.data(), payload.size(), true);
  EXPECT_TRUE(dec.good());
  EXPECT_EQ(dec.payload, payload);
  EXPECT_EQ(dec.corrected_bits, 0u);
  EXPECT_EQ(dec.flagged_words, 0u);
}

TEST(Framing, SingleBitPayloadFlipCorrected) {
  const auto payload = ramp(64);
  std::vector<std::uint64_t> wire;
  encode_block(payload.data(), payload.size(), &wire);
  wire[23] ^= 1ULL << 55;
  const auto dec = decode_block(wire.data(), payload.size(), true);
  EXPECT_TRUE(dec.good());
  EXPECT_EQ(dec.payload, payload);
  EXPECT_EQ(dec.corrected_bits, 1u);
}

TEST(Framing, CrcWordFlipCorrected) {
  const auto payload = ramp(16);
  std::vector<std::uint64_t> wire;
  encode_block(payload.data(), payload.size(), &wire);
  wire[16] ^= 1ULL << 3;  // the CRC word is SECDED-protected too
  const auto dec = decode_block(wire.data(), payload.size(), true);
  EXPECT_TRUE(dec.good());
  EXPECT_EQ(dec.payload, payload);
}

TEST(Framing, CheckWordFlipHarmless) {
  const auto payload = ramp(16);
  std::vector<std::uint64_t> wire;
  encode_block(payload.data(), payload.size(), &wire);
  wire.back() ^= 1ULL << 9;  // a check byte absorbs the hit
  const auto dec = decode_block(wire.data(), payload.size(), true);
  EXPECT_TRUE(dec.good());
  EXPECT_EQ(dec.payload, payload);
}

TEST(Framing, DoubleErrorFailsBlock) {
  const auto payload = ramp(32);
  std::vector<std::uint64_t> wire;
  encode_block(payload.data(), payload.size(), &wire);
  wire[7] ^= (1ULL << 2) | (1ULL << 61);
  const auto dec = decode_block(wire.data(), payload.size(), true);
  EXPECT_FALSE(dec.good());
  EXPECT_EQ(dec.double_errors, 1u);
}

TEST(Framing, DetectOnlyLeavesPayloadRaw) {
  const auto payload = ramp(32);
  std::vector<std::uint64_t> wire;
  encode_block(payload.data(), payload.size(), &wire);
  wire[4] ^= 1ULL << 17;
  const auto dec = decode_block(wire.data(), payload.size(), false);
  EXPECT_EQ(dec.payload[4], payload[4] ^ (1ULL << 17));
  EXPECT_GE(dec.flagged_words, 1u);
  EXPECT_FALSE(dec.crc_ok);
}

TEST(Policy, StringRoundTrip) {
  EXPECT_EQ(policy_from_string("off"), ReliabilityPolicy::kOff);
  EXPECT_EQ(policy_from_string("detect"), ReliabilityPolicy::kDetectOnly);
  EXPECT_EQ(policy_from_string("correct"), ReliabilityPolicy::kCorrectRetry);
  EXPECT_THROW(policy_from_string("bogus"), SimulationError);
}

TEST(Policy, ParamsValidate) {
  ReliabilityParams p;
  p.block_words = 0;
  EXPECT_THROW(p.validate(), SimulationError);
}

FaultModel faulty(double ber, std::vector<std::uint32_t> dead = {},
                  std::uint64_t seed = 11) {
  FaultModel f;
  f.random_ber = ber;
  f.dead_wavelengths = std::move(dead);
  f.seed = seed;
  return f;
}

TEST(Channel, OffPolicyIsRawTransport) {
  ProtectedChannel ch(faulty(0.0), ReliabilityParams{});
  const auto payload = ramp(100);
  const auto tx = ch.transmit(payload);
  EXPECT_EQ(tx.words, payload);
  EXPECT_EQ(tx.overhead_slots(), 0u);
  EXPECT_EQ(tx.wire_slots, 100u);
  EXPECT_EQ(ch.calibration_slots(), 0u);
}

TEST(Channel, OffPolicyLetsFaultsThrough) {
  ProtectedChannel ch(faulty(0.0, {5}), ReliabilityParams{});
  const std::vector<std::uint64_t> payload(64, ~0ULL);
  const auto tx = ch.transmit(payload);
  for (const auto w : tx.words) EXPECT_EQ(w, ~0ULL & ~(1ULL << 5));
  EXPECT_EQ(tx.fault.bits_silenced, 64u);
  EXPECT_GT(tx.retry.residual_errors, 0u);
}

TEST(Channel, CorrectPolicyChargesFramingOverhead) {
  ReliabilityParams p;
  p.policy = ReliabilityPolicy::kCorrectRetry;
  p.block_words = 64;
  ProtectedChannel ch(faulty(0.0), p);
  const auto payload = ramp(128);
  const auto tx = ch.transmit(payload);
  EXPECT_EQ(tx.words, payload);
  EXPECT_EQ(tx.wire_slots, coded_stream_words(128, 64));
  EXPECT_EQ(tx.overhead_slots(), coded_stream_words(128, 64) - 128);
  EXPECT_EQ(tx.retry.blocks_total, 2u);
  EXPECT_EQ(tx.retry.residual_errors, 0u);
  EXPECT_EQ(ch.calibration_slots(), p.training_words);
}

TEST(Channel, CorrectPolicySurvivesModerateBer) {
  ReliabilityParams p;
  p.policy = ReliabilityPolicy::kCorrectRetry;
  ProtectedChannel ch(faulty(1e-4), p);
  const auto payload = ramp(4096);
  const auto tx = ch.transmit(payload);
  EXPECT_EQ(tx.words, payload);
  EXPECT_EQ(tx.retry.residual_errors, 0u);
  EXPECT_GT(tx.retry.corrected_bits + tx.retry.retries, 0u);
}

TEST(Channel, DetectOnlyCountsButDoesNotFix) {
  ReliabilityParams p;
  p.policy = ReliabilityPolicy::kDetectOnly;
  ProtectedChannel ch(faulty(1e-3), p);
  const auto payload = ramp(4096);
  const auto tx = ch.transmit(payload);
  EXPECT_GT(tx.retry.detected_errors, 0u);
  EXPECT_GT(tx.retry.residual_errors, 0u);  // delivered corrupted
  EXPECT_EQ(tx.retry.retries, 0u);
  EXPECT_NE(tx.words, payload);
  // Framing slots are still spent even though nothing is repaired.
  EXPECT_GT(tx.overhead_slots(), 0u);
}

TEST(Channel, DeadLanesFailOverToSpares) {
  ReliabilityParams p;
  p.policy = ReliabilityPolicy::kCorrectRetry;
  p.spare_lanes = 4;
  ProtectedChannel ch(faulty(0.0, {3, 57}), p);
  EXPECT_EQ(ch.lanes().dead_lanes, (std::vector<std::uint32_t>{3, 57}));
  EXPECT_EQ(ch.lanes().spares_used, 2u);
  EXPECT_EQ(ch.lanes().residual_dead, 0u);
  EXPECT_EQ(ch.lanes().slots_per_word, 1u);

  const std::vector<std::uint64_t> payload(256, ~0ULL);
  const auto tx = ch.transmit(payload);
  EXPECT_EQ(tx.words, payload);  // bit-exact despite two dead lanes
  EXPECT_EQ(tx.retry.residual_errors, 0u);
}

TEST(Channel, DegradesWhenSparesExhausted) {
  ReliabilityParams p;
  p.policy = ReliabilityPolicy::kCorrectRetry;
  p.spare_lanes = 1;
  ProtectedChannel ch(faulty(0.0, {0, 1, 2}), p);
  EXPECT_EQ(ch.lanes().spares_used, 1u);
  EXPECT_EQ(ch.lanes().residual_dead, 2u);
  EXPECT_TRUE(ch.lanes().degraded());
  // 62 usable lanes -> ceil(64/62) = 2 slots per word.
  EXPECT_EQ(ch.lanes().slots_per_word, 2u);

  const auto payload = ramp(64);
  const auto tx = ch.transmit(payload);
  EXPECT_EQ(tx.words, payload);  // slower, not wrong
  EXPECT_EQ(tx.retry.residual_errors, 0u);
  EXPECT_GE(tx.wire_slots, 2 * coded_stream_words(64, p.block_words));
}

TEST(Channel, DetectOnlyDoesNotRemapLanes) {
  ReliabilityParams p;
  p.policy = ReliabilityPolicy::kDetectOnly;
  ProtectedChannel ch(faulty(0.0, {9}), p);
  EXPECT_EQ(ch.lanes().dead_lanes, (std::vector<std::uint32_t>{9}));
  EXPECT_EQ(ch.lanes().spares_used, 0u);
  const std::vector<std::uint64_t> payload(64, ~0ULL);
  const auto tx = ch.transmit(payload);
  EXPECT_GT(tx.retry.residual_errors, 0u);
}

TEST(Channel, CollisionFlaggedBlocksReplayed) {
  ReliabilityParams p;
  p.policy = ReliabilityPolicy::kCorrectRetry;
  p.block_words = 32;
  ProtectedChannel ch(faulty(0.0), p);
  const auto payload = ramp(96);
  const std::vector<std::int64_t> flagged = {40};  // second block
  const auto tx = ch.transmit(payload, &flagged);
  EXPECT_EQ(tx.words, payload);
  EXPECT_EQ(tx.retry.blocks_retried, 1u);
  EXPECT_GE(tx.retry.retries, 1u);
  EXPECT_GT(tx.retry.slots_replayed, 0u);
  EXPECT_GT(tx.backoff_slots, 0u);
}

TEST(Channel, TransmissionsAreDeterministic) {
  ReliabilityParams p;
  p.policy = ReliabilityPolicy::kCorrectRetry;
  const auto payload = ramp(2048);
  ProtectedChannel a(faulty(1e-4, {7}, 99), p);
  ProtectedChannel b(faulty(1e-4, {7}, 99), p);
  const auto ta = a.transmit(payload);
  const auto tb = b.transmit(payload);
  EXPECT_EQ(ta.words, tb.words);
  EXPECT_EQ(ta.wire_slots, tb.wire_slots);
  EXPECT_EQ(ta.retry.retries, tb.retry.retries);
  EXPECT_EQ(ta.fault.bits_flipped, tb.fault.bits_flipped);
}

TEST(FaultStreamTest, MatchesLegacyApplyFaultMask) {
  const auto model = faulty(0.0, {1, 63});
  FaultStream stream(model);
  Rng rng(model.seed);
  FaultReport a, b;
  for (int i = 0; i < 100; ++i) {
    const auto w = 0xFFFFFFFFFFFFFFFFULL - static_cast<std::uint64_t>(i);
    EXPECT_EQ(stream.corrupt(w, &a), oracle::apply_fault(model, w, rng, &b));
  }
  EXPECT_EQ(a.bits_silenced, b.bits_silenced);
}

TEST(FaultStreamTest, GapSamplingMatchesExpectedRate) {
  const double ber = 1e-3;
  FaultStream stream(faulty(ber, {}, 5));
  FaultReport rep;
  const std::uint64_t words = 200000;
  for (std::uint64_t i = 0; i < words; ++i) stream.corrupt(0, &rep);
  const double expected = ber * static_cast<double>(words) * 64.0;
  EXPECT_NEAR(static_cast<double>(rep.bits_flipped), expected,
              5.0 * std::sqrt(expected));  // 5 sigma
}

TEST(FaultStreamTest, ValidationRejectsBadModels) {
  EXPECT_THROW(faulty(0.0, {64}).validate(), SimulationError);
  EXPECT_THROW(faulty(1.5).validate(), SimulationError);
  EXPECT_THROW(faulty(-0.1).validate(), SimulationError);
  EXPECT_NO_THROW(faulty(1e-9, {0, 63}).validate());
  // Time-varying profile fields validate too (and as ConfigError, so the
  // campaign taxonomy files them under config_invalid).
  FaultModel bad_drift = faulty(1e-9);
  bad_drift.drift_ber_per_mword = -1e-6;
  EXPECT_THROW(bad_drift.validate(), ConfigError);
  FaultModel bad_brownout = faulty(1e-9);
  bad_brownout.brownout_ber = 1.5;
  EXPECT_THROW(bad_brownout.validate(), ConfigError);
}

// --- time-varying BER profile (thermal drift + brownout) ---------------

FaultModel drifting(double base, double drift, std::uint64_t seed = 11) {
  FaultModel f = faulty(base, {}, seed);
  f.drift_ber_per_mword = drift;
  return f;
}

TEST(TimeVaryingProfile, FlagsAndTrivial) {
  EXPECT_FALSE(faulty(0.0).time_varying());
  EXPECT_TRUE(faulty(0.0).trivial());
  EXPECT_TRUE(drifting(0.0, 1e-3).time_varying());
  EXPECT_FALSE(drifting(0.0, 1e-3).trivial());

  // A brownout needs both a window and a rate to count.
  FaultModel window_only = faulty(0.0);
  window_only.brownout_words = 100;
  EXPECT_FALSE(window_only.time_varying());
  window_only.brownout_ber = 0.1;
  EXPECT_TRUE(window_only.time_varying());
  EXPECT_FALSE(window_only.trivial());
}

TEST(TimeVaryingProfile, BerAtWordQuantizesDriftAndClamps) {
  const auto f = drifting(1e-6, 0.5);
  constexpr auto kStep = FaultModel::kProfileStepWords;
  // Constant within a quantization segment...
  EXPECT_DOUBLE_EQ(f.ber_at_word(0), 1e-6);
  EXPECT_DOUBLE_EQ(f.ber_at_word(kStep - 1), 1e-6);
  // ...steps at the boundary by drift * step/1e6...
  EXPECT_DOUBLE_EQ(f.ber_at_word(kStep),
                   1e-6 + 0.5 * static_cast<double>(kStep) * 1e-6);
  // ...and clamps at 1.
  EXPECT_DOUBLE_EQ(f.ber_at_word(1u << 30), 1.0);
}

TEST(TimeVaryingProfile, BrownoutOverridesWhenWorse) {
  FaultModel f = faulty(1e-6);
  f.brownout_start_word = 1000;
  f.brownout_words = 500;
  f.brownout_ber = 0.25;
  EXPECT_DOUBLE_EQ(f.ber_at_word(999), 1e-6);
  EXPECT_DOUBLE_EQ(f.ber_at_word(1000), 0.25);
  EXPECT_DOUBLE_EQ(f.ber_at_word(1499), 0.25);
  EXPECT_DOUBLE_EQ(f.ber_at_word(1500), 1e-6);
  EXPECT_EQ(f.next_profile_change(0), 1000u);
  EXPECT_EQ(f.next_profile_change(1200), 1500u);
  EXPECT_EQ(f.next_profile_change(2000),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(TimeVaryingProfile, BrownoutFlipsOnlyInsideTheWindow) {
  FaultModel f = faulty(0.0);
  f.brownout_start_word = 1000;
  f.brownout_words = 500;
  f.brownout_ber = 0.05;
  FaultStream stream(f);
  std::size_t first_flip = 0, last_flip = 0, flips = 0;
  for (std::size_t i = 0; i < 3000; ++i) {
    if (stream.corrupt(~0ULL) != ~0ULL) {
      if (flips == 0) first_flip = i;
      last_flip = i;
      ++flips;
    }
  }
  ASSERT_GT(flips, 0u);  // 500 words * 64 bits * 5% can't all stay clean
  EXPECT_GE(first_flip, 1000u);
  EXPECT_LT(last_flip, 1500u);
}

TEST(TimeVaryingProfile, DriftRampsTheFlipRate) {
  const std::uint64_t words = 1u << 16;
  FaultReport flat_rep, drift_rep;
  FaultStream flat(faulty(1e-6, {}, 3));
  FaultStream drifted(drifting(1e-6, 10.0, 3));  // +10 BER/Mword ramp
  for (std::uint64_t i = 0; i < words; ++i) {
    flat.corrupt(~0ULL, &flat_rep);
    drifted.corrupt(~0ULL, &drift_rep);
  }
  // By word 2^16 the drifted BER is ~0.65 vs 1e-6 flat: orders more flips.
  EXPECT_GT(drift_rep.bits_flipped, 100 * (flat_rep.bits_flipped + 1));
}

TEST(TimeVaryingProfile, BulkCorruptWordsMatchesPerWord) {
  FaultModel f = drifting(1e-5, 50.0, 17);
  f.brownout_start_word = 3000;
  f.brownout_words = 2000;
  f.brownout_ber = 0.02;

  Rng rng(23);
  std::vector<std::uint64_t> in(10000);
  for (auto& w : in) w = rng.next_u64();

  FaultStream batch_stream(f);
  FaultStream word_stream(f);
  std::vector<std::uint64_t> batch_out(in.size());
  std::vector<std::uint64_t> word_out(in.size());
  FaultReport batch_rep, word_rep;

  // Chunk sizes chosen to straddle segment boundaries (4096-word drift
  // steps, brownout edges at 3000/5000) mid-call.
  std::size_t off = 0;
  for (std::size_t s : {1u, 100u, 2500u, 1399u, 3000u, 2000u, 1000u}) {
    batch_stream.corrupt_words(in.data() + off, batch_out.data() + off, s,
                               &batch_rep);
    off += s;
  }
  ASSERT_EQ(off, in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    word_out[i] = word_stream.corrupt(in[i], &word_rep);
  }

  EXPECT_EQ(batch_out, word_out);
  EXPECT_EQ(batch_rep.words_total, word_rep.words_total);
  EXPECT_EQ(batch_rep.words_corrupted, word_rep.words_corrupted);
  EXPECT_EQ(batch_rep.bits_flipped, word_rep.bits_flipped);
  EXPECT_EQ(batch_rep.bits_silenced, word_rep.bits_silenced);
}

// --- lane exhaustion (all 64 lanes dead) -------------------------------

std::vector<std::uint32_t> all_lanes() {
  std::vector<std::uint32_t> lanes(64);
  std::iota(lanes.begin(), lanes.end(), 0);
  return lanes;
}

TEST(Channel, AllLanesDeadThrowsTypedError) {
  ReliabilityParams p;
  p.policy = ReliabilityPolicy::kCorrectRetry;
  p.spare_lanes = 0;
  // Before the typed error this divided by zero in the degraded-width
  // computation (SIGFPE). Now the channel fail-stops with an error the
  // campaign taxonomy files under sim_diverged.
  EXPECT_THROW(ProtectedChannel(faulty(0.0, all_lanes()), p),
               LaneExhaustionError);
  EXPECT_THROW(ProtectedChannel(faulty(0.0, all_lanes()), p),
               SimulationError);  // derived: existing handlers still catch
}

TEST(Channel, AllLanesDeadWithSparesStillDegrades) {
  ReliabilityParams p;
  p.policy = ReliabilityPolicy::kCorrectRetry;
  p.spare_lanes = 4;
  ProtectedChannel ch(faulty(0.0, all_lanes()), p);
  EXPECT_EQ(ch.lanes().spares_used, 4u);
  EXPECT_EQ(ch.lanes().residual_dead, 60u);
  // 4 usable lanes -> ceil(64/4) = 16 slots per word; slow but alive.
  EXPECT_EQ(ch.lanes().slots_per_word, 16u);
  const auto payload = ramp(32);
  const auto tx = ch.transmit(payload);
  EXPECT_EQ(tx.words, payload);
  EXPECT_EQ(tx.retry.residual_errors, 0u);
}

}  // namespace
}  // namespace psync::reliability
