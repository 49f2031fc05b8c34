#include "oracle/codec.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "psync/common/check.hpp"
#include "psync/reliability/crc32.hpp"

namespace psync::oracle {
namespace {

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? (0xEDB88320U ^ (c >> 1)) : (c >> 1);
    }
    t[i] = c;
  }
  return t;
}
constexpr std::array<std::uint32_t, 256> kTable = make_table();

// Folds n words into a running CRC, each serialized little-endian.
std::uint32_t crc_words(std::uint32_t crc, const std::uint64_t* words,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    unsigned char bytes[8];
    for (int b = 0; b < 8; ++b) {
      bytes[b] = static_cast<unsigned char>(words[i] >> (8 * b));
    }
    crc = crc32_update(crc, bytes, 8);
  }
  return crc;
}

// Gap to the next flipped bit at flip probability `ber`:
// floor(log(1-u) / log(1-ber)) with u uniform in [0,1).
std::uint64_t geometric_gap(double ber, Rng& rng) {
  if (ber >= 1.0) return 0;
  const double u = rng.next_double();
  const double gap = std::floor(std::log1p(-u) / std::log1p(-ber));
  if (gap >= 1.8e19) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(gap);
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFFU] ^ (crc >> 8);
  }
  return crc;
}

void secded_encode_words(const std::uint64_t* data, std::size_t count,
                         std::uint8_t* checks) {
  for (std::size_t i = 0; i < count; ++i) {
    checks[i] = reliability::secded_encode(data[i]);
  }
}

void secded_decode_words(const std::uint64_t* data, const std::uint8_t* checks,
                         std::size_t count, bool correct, std::uint64_t* out,
                         reliability::SecdedWordStats* stats) {
  for (std::size_t i = 0; i < count; ++i) {
    const reliability::SecdedResult dec =
        reliability::secded_decode(data[i], checks[i]);
    if (!dec.clean()) ++stats->flagged_words;
    if (correct && dec.status == reliability::SecdedStatus::kCorrectedData) {
      ++stats->corrected_bits;
    }
    if (dec.double_error()) ++stats->double_errors;
    out[i] = correct ? dec.data : data[i];
  }
}

void encode_block(const std::uint64_t* payload, std::size_t n,
                  std::vector<std::uint64_t>* wire) {
  PSYNC_CHECK(wire != nullptr && n > 0);
  const std::size_t base = wire->size();
  wire->insert(wire->end(), payload, payload + n);
  const std::uint32_t crc = crc_words(reliability::kCrc32Init, payload, n);
  wire->push_back(static_cast<std::uint64_t>(reliability::crc32_finalize(crc)));

  const std::size_t data_words = n + 1;
  std::vector<std::uint64_t> checks(reliability::check_words_for(data_words),
                                    0);
  for (std::size_t i = 0; i < data_words; ++i) {
    const std::uint8_t c = reliability::secded_encode((*wire)[base + i]);
    checks[i / 8] |= static_cast<std::uint64_t>(c) << (8 * (i % 8));
  }
  wire->insert(wire->end(), checks.begin(), checks.end());
}

reliability::BlockDecode decode_block(const std::uint64_t* wire,
                                      std::size_t n, bool correct) {
  PSYNC_CHECK(wire != nullptr && n > 0);
  const std::size_t data_words = n + 1;
  const std::uint64_t* checks = wire + data_words;

  reliability::BlockDecode out;
  out.payload.reserve(n);
  std::uint64_t crc_word = 0;
  for (std::size_t i = 0; i < data_words; ++i) {
    const auto check = static_cast<std::uint8_t>(
        (checks[i / 8] >> (8 * (i % 8))) & 0xFFU);
    const reliability::SecdedResult dec =
        reliability::secded_decode(wire[i], check);
    if (!dec.clean()) ++out.flagged_words;
    // A repair only counts when it is actually applied; in detect-only
    // decoding a correctable word is just a flagged word.
    if (correct && dec.status == reliability::SecdedStatus::kCorrectedData) {
      ++out.corrected_bits;
    }
    if (dec.double_error()) ++out.double_errors;
    const std::uint64_t w = correct ? dec.data : wire[i];
    if (i < n) {
      out.payload.push_back(w);
    } else {
      crc_word = w;
    }
  }
  const std::uint32_t crc =
      crc_words(reliability::kCrc32Init, out.payload.data(), n);
  out.crc_ok = reliability::crc32_finalize(crc) ==
               static_cast<std::uint32_t>(crc_word & 0xFFFFFFFFU);
  return out;
}

std::uint64_t apply_fault(const reliability::FaultModel& fault,
                          std::uint64_t w, Rng& rng,
                          reliability::FaultReport* report) {
  const std::uint64_t mask = fault.silenced_mask();
  const std::uint64_t before = w;
  const std::uint64_t silenced_bits = w & mask;
  w &= ~mask;
  std::uint64_t flipped = 0;
  if (fault.random_ber > 0.0) {
    std::uint64_t bit = geometric_gap(fault.random_ber, rng);
    while (bit < 64) {
      flipped |= (std::uint64_t{1} << bit);
      const std::uint64_t skip = geometric_gap(fault.random_ber, rng);
      if (skip >= std::numeric_limits<std::uint64_t>::max() - 64) break;
      bit += 1 + skip;
    }
    w ^= flipped;
  }
  if (report != nullptr) {
    ++report->words_total;
    if (w != before) ++report->words_corrupted;
    report->bits_flipped += static_cast<std::uint64_t>(std::popcount(flipped));
    report->bits_silenced +=
        static_cast<std::uint64_t>(std::popcount(silenced_bits));
  }
  return w;
}

}  // namespace psync::oracle
