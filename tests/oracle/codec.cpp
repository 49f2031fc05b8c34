#include "oracle/codec.hpp"

#include <array>

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

}  // namespace psync::oracle
