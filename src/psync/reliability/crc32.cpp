#include "psync/reliability/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "psync/reliability/reliability_kernels.hpp"

namespace psync::reliability {
namespace {

// Slice-by-8 CRC-32: eight 256-entry tables let the hot loop fold eight
// message bytes per iteration with eight independent lookups instead of
// eight serial table steps. kTables[0] is the classic byte-at-a-time table;
// kTables[k][i] advances kTables[k-1][i] by one more zero byte, so XOR-ing
// one lookup per input byte position yields exactly the same remainder the
// byte-wise loop computes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? (0xEDB88320U ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFU] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}
constexpr std::array<std::array<std::uint32_t, 256>, 8> kTables = make_tables();

inline std::uint32_t update_bytewise(std::uint32_t crc,
                                     const unsigned char* p, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    crc = kTables[0][(crc ^ p[i]) & 0xFFU] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  // Long buffers fold 64 bytes per round with carry-less multiplies when
  // the CPU has PCLMULQDQ; the remainder is identical to the table loops'.
  if (len >= 64 && detail::crc32_pclmul_available()) {
    std::size_t consumed = 0;
    crc = detail::crc32_fold_pclmul(crc, p, len, &consumed);
    p += consumed;
    len -= consumed;
  }
  // Eight bytes per iteration. The 64-bit gather below assembles the bytes
  // little-endian regardless of host order, so the result always matches
  // the byte-wise loop.
  while (len >= 8) {
    std::uint64_t w;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&w, p, 8);
    } else {
      w = 0;
      for (int b = 0; b < 8; ++b) {
        w |= static_cast<std::uint64_t>(p[b]) << (8 * b);
      }
    }
    w ^= crc;
    crc = kTables[7][w & 0xFFU] ^ kTables[6][(w >> 8) & 0xFFU] ^
          kTables[5][(w >> 16) & 0xFFU] ^ kTables[4][(w >> 24) & 0xFFU] ^
          kTables[3][(w >> 32) & 0xFFU] ^ kTables[2][(w >> 40) & 0xFFU] ^
          kTables[1][(w >> 48) & 0xFFU] ^ kTables[0][(w >> 56) & 0xFFU];
    p += 8;
    len -= 8;
  }
  return update_bytewise(crc, p, len);
}

std::uint32_t crc32_words(const std::uint64_t* words, std::size_t count) {
  std::uint32_t crc = kCrc32Init;
  if constexpr (std::endian::native == std::endian::little) {
    // Each word is folded little-endian, which on a little-endian host is
    // the array's own byte layout: fold the whole span in one call.
    crc = crc32_update(crc, words, count * 8);
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      unsigned char bytes[8];
      for (int b = 0; b < 8; ++b) {
        bytes[b] = static_cast<unsigned char>(words[i] >> (8 * b));
      }
      crc = crc32_update(crc, bytes, 8);
    }
  }
  return crc32_finalize(crc);
}

}  // namespace psync::reliability
