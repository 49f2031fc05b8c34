// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) for per-block
// framing of PSCAN streams.
//
// SECDED corrects the common case (one flipped bit per word); the CRC is
// the backstop that catches what the code cannot — miscorrections under
// multi-bit upsets, double errors, and whole-word losses — and is what
// arms the head node's retry machinery (channel.hpp). One CRC word per
// block keeps the framing overhead at a single extra slot per block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace psync::reliability {

inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFU;

/// Fold `len` bytes into a running CRC (pass kCrc32Init to start; the
/// return value is NOT finalized — call crc32_finalize when done).
/// Implemented slice-by-8: eight bytes fold per table round, same remainder
/// as the classic byte-at-a-time loop for every input.
std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t len);

inline std::uint32_t crc32_finalize(std::uint32_t crc) { return ~crc; }

/// CRC of a span of 64-bit words, each folded little-endian (byte order is
/// fixed so the framing is portable across hosts).
std::uint32_t crc32_words(const std::uint64_t* words, std::size_t count);

}  // namespace psync::reliability
