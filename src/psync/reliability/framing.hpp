// Block framing for protected PSCAN streams: SECDED(72,64) on every wire
// word plus one CRC-32 word per block.
//
// Wire layout of one block of n payload words:
//
//   [ payload word 0 .. n-1 ][ CRC word ][ check word 0 .. ceil((n+1)/8)-1 ]
//
// The CRC word carries crc32 over the n payload words (low 32 bits) and is
// itself SECDED-protected like the payload. Check word j packs the 8-bit
// SECDED check bytes of data words 8j..8j+7 (byte i at bits 8i..8i+7), so
// eight payload slots cost one extra check slot — the 72/64 code expressed
// in whole slots, which is what the slot-exact timing model charges.
//
// Check words travel unprotected: a flipped bit there surfaces as a check-
// byte error on the corresponding data word, which SECDED classifies as a
// correctable check-bit error (data untouched).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace psync::reliability {

/// SECDED check words needed for `data_words` 8-bit check bytes.
inline std::size_t check_words_for(std::size_t data_words) {
  return (data_words + 7) / 8;
}

/// Wire words for one block of `payload_words` words.
inline std::size_t coded_block_words(std::size_t payload_words) {
  return payload_words + 1 + check_words_for(payload_words + 1);
}

/// Append the wire encoding of one block to `wire`.
void encode_block(const std::uint64_t* payload, std::size_t n,
                  std::vector<std::uint64_t>* wire);

struct BlockDecode {
  /// Recovered payload: SECDED-corrected when decoding with `correct`,
  /// otherwise the raw received words.
  std::vector<std::uint64_t> payload;
  std::uint64_t corrected_bits = 0;  // single-bit SECDED repairs applied
  std::uint64_t double_errors = 0;   // SECDED double-detects
  std::uint64_t flagged_words = 0;   // data words with any nonzero syndrome
  bool crc_ok = false;

  /// Block verified end-to-end: every word clean or corrected, CRC matches.
  bool good() const { return crc_ok && double_errors == 0; }
};

/// Decode one received block (`wire` holds coded_block_words(n) words) into
/// a caller-owned result whose payload buffer is reused across calls, so a
/// channel decoding a long stream (or retrying) allocates nothing per block.
/// With `correct` set, single-bit errors are repaired before the CRC check;
/// without it the decoder only counts what it saw (detect-only policy).
void decode_block_into(const std::uint64_t* wire, std::size_t n, bool correct,
                       BlockDecode* out);

}  // namespace psync::reliability
