// Test oracle for the reliability codecs: the byte-at-a-time CRC-32 loop
// and the per-word SECDED block encode/decode that the production paths
// (slice-by-8 / PCLMUL CRC folding, batched and AVX2 SECDED) are tested and
// benchmarked against. Built only from the public secded_encode /
// secded_decode calls and a local CRC table, so it shares no kernel code
// with what it checks. Also the per-word fault injector that
// reliability::FaultStream is checked against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "psync/common/rng.hpp"
#include "psync/reliability/fault_model.hpp"
#include "psync/reliability/framing.hpp"
#include "psync/reliability/secded.hpp"

namespace psync::oracle {

/// Byte-wise CRC-32 (IEEE 802.3, reflected, 0xEDB88320): same running value
/// as reliability::crc32_update for every input.
std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t len);

/// Per-word reference of reliability::secded_encode_words.
void secded_encode_words(const std::uint64_t* data, std::size_t count,
                         std::uint8_t* checks);

/// Per-word reference of reliability::secded_decode_words.
void secded_decode_words(const std::uint64_t* data, const std::uint8_t* checks,
                         std::size_t count, bool correct, std::uint64_t* out,
                         reliability::SecdedWordStats* stats);

/// Per-word reference of reliability::encode_block.
void encode_block(const std::uint64_t* payload, std::size_t n,
                  std::vector<std::uint64_t>* wire);

/// Per-word reference of reliability::decode_block_into.
reliability::BlockDecode decode_block(const std::uint64_t* wire,
                                      std::size_t n, bool correct);

/// Corrupt one word under `fault`, deterministic given the rng state: the
/// silenced lanes, then geometric-gap bit flips started afresh at bit 0.
/// Rebuilds the mask per call, where FaultStream builds it once.
std::uint64_t apply_fault(const reliability::FaultModel& fault,
                          std::uint64_t w, Rng& rng,
                          reliability::FaultReport* report = nullptr);

}  // namespace psync::oracle
