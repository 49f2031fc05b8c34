#include "psync/reliability/framing.hpp"

#include <algorithm>
#include <bit>

#include "psync/common/check.hpp"
#include "psync/reliability/crc32.hpp"
#include "psync/reliability/secded.hpp"

namespace psync::reliability {
namespace {

// The wire packs check byte i into bits 8i..8i+7 of check word i/8 — which
// is exactly the little-endian byte layout of the check-word array. On LE
// hosts the batched SECDED calls therefore read/write the packed region
// directly; BE hosts take the explicit shift loops below.
constexpr bool kHostLittleEndian = std::endian::native == std::endian::little;

void pack_check_bytes(const std::uint8_t* bytes, std::size_t count,
                      std::uint64_t* words) {
  for (std::size_t i = 0; i < count; ++i) {
    words[i / 8] |= static_cast<std::uint64_t>(bytes[i]) << (8 * (i % 8));
  }
}

void unpack_check_bytes(const std::uint64_t* words, std::size_t count,
                        std::uint8_t* bytes) {
  for (std::size_t i = 0; i < count; ++i) {
    bytes[i] = static_cast<std::uint8_t>((words[i / 8] >> (8 * (i % 8))) &
                                         0xFFU);
  }
}

}  // namespace

void encode_block(const std::uint64_t* payload, std::size_t n,
                  std::vector<std::uint64_t>* wire) {
  PSYNC_CHECK(wire != nullptr && n > 0);
  const std::size_t base = wire->size();
  const std::size_t data_words = n + 1;
  const std::size_t check_words = check_words_for(data_words);
  wire->resize(base + data_words + check_words, 0);

  std::uint64_t* dst = wire->data() + base;
  std::copy(payload, payload + n, dst);
  dst[n] = static_cast<std::uint64_t>(crc32_words(payload, n));

  // resize() zero-filled the check region; bytes past data_words stay zero.
  std::uint64_t* checks = dst + data_words;
  if constexpr (kHostLittleEndian) {
    secded_encode_words(dst, data_words,
                        reinterpret_cast<std::uint8_t*>(checks));
  } else {
    std::uint8_t bytes[8 * ((64 + 1 + 7) / 8)];
    std::vector<std::uint8_t> heap;
    std::uint8_t* b = bytes;
    if (data_words > sizeof(bytes)) {
      heap.resize(data_words);
      b = heap.data();
    }
    secded_encode_words(dst, data_words, b);
    pack_check_bytes(b, data_words, checks);
  }
}

void decode_block_into(const std::uint64_t* wire, std::size_t n, bool correct,
                       BlockDecode* out) {
  PSYNC_CHECK(wire != nullptr && n > 0 && out != nullptr);
  const std::size_t data_words = n + 1;
  const std::uint64_t* checks = wire + data_words;

  out->payload.clear();
  out->payload.resize(data_words);  // payload + CRC word, trimmed below
  out->corrected_bits = 0;
  out->double_errors = 0;
  out->flagged_words = 0;

  SecdedWordStats stats;
  if constexpr (kHostLittleEndian) {
    secded_decode_words(wire, reinterpret_cast<const std::uint8_t*>(checks),
                        data_words, correct, out->payload.data(), &stats);
  } else {
    std::vector<std::uint8_t> bytes(data_words);
    unpack_check_bytes(checks, data_words, bytes.data());
    secded_decode_words(wire, bytes.data(), data_words, correct,
                        out->payload.data(), &stats);
  }
  out->corrected_bits = stats.corrected_bits;
  out->double_errors = stats.double_errors;
  out->flagged_words = stats.flagged_words;

  const std::uint64_t crc_word = out->payload[n];
  out->payload.resize(n);
  out->crc_ok = crc32_words(out->payload.data(), n) ==
                static_cast<std::uint32_t>(crc_word & 0xFFFFFFFFU);
}

}  // namespace psync::reliability
