#include "psync/reliability/secded.hpp"

#include <bit>

#include "psync/reliability/reliability_kernels.hpp"
#include "psync/reliability/secded_tables.hpp"

namespace psync::reliability {
namespace {

// Construction tables (kDataPos / kPosToBit / kSynMask) live in
// secded_tables.hpp, shared with the AVX2 syndrome kernel.
using detail::kPosToBit;
using detail::kSynMask;

// Syndrome contribution of the data bits alone.
unsigned data_syndrome(std::uint64_t d) {
  unsigned syn = 0;
  for (int i = 0; i < 7; ++i) {
    syn |= static_cast<unsigned>(
               std::popcount(d & kSynMask[static_cast<std::size_t>(i)]) & 1)
           << i;
  }
  return syn;
}

}  // namespace

std::uint8_t secded_encode(std::uint64_t data) {
  const unsigned syn = data_syndrome(data);
  // Parity bit p_i sits at position 2^i and is chosen so the syndrome of
  // the whole codeword is zero, i.e. p_i = bit i of the data syndrome.
  const unsigned overall =
      static_cast<unsigned>((std::popcount(data) + std::popcount(syn)) & 1);
  return static_cast<std::uint8_t>(syn | (overall << 7));
}

void secded_encode_words(const std::uint64_t* data, std::size_t count,
                         std::uint8_t* checks) {
  std::size_t i = 0;
  if (detail::secded_avx2_available()) {
    for (; i + 4 <= count; i += 4) {
      detail::secded_encode4_avx2(data + i, checks + i);
    }
  }
  for (; i < count; ++i) {
    const std::uint64_t d = data[i];
    const unsigned syn = data_syndrome(d);
    const unsigned overall =
        static_cast<unsigned>((std::popcount(d) + std::popcount(syn)) & 1);
    checks[i] = static_cast<std::uint8_t>(syn | (overall << 7));
  }
}

void secded_decode_words(const std::uint64_t* data, const std::uint8_t* checks,
                         std::size_t count, bool correct, std::uint64_t* out,
                         SecdedWordStats* stats) {
  // Decode one word exactly as the scalar loop always has; the vector path
  // below only pre-screens groups of four for the all-clean common case.
  const auto decode_one = [&](std::size_t i) {
    const std::uint64_t d = data[i];
    const std::uint8_t check = checks[i];
    const unsigned syn = data_syndrome(d) ^ (check & 0x7FU);
    const unsigned parity = static_cast<unsigned>(
        (std::popcount(d) + std::popcount(static_cast<unsigned>(check))) & 1);
    if (syn == 0 && parity == 0) {  // clean: no classification needed
      out[i] = d;
      return;
    }
    const SecdedResult dec = secded_decode(d, check);
    ++stats->flagged_words;
    if (correct && dec.status == SecdedStatus::kCorrectedData) {
      ++stats->corrected_bits;
    }
    if (dec.double_error()) ++stats->double_errors;
    out[i] = correct ? dec.data : d;
  };

  std::size_t i = 0;
  if (detail::secded_avx2_available()) {
    for (; i + 4 <= count; i += 4) {
      if (detail::secded_flagged4_avx2(data + i, checks + i) == 0) {
        out[i] = data[i];
        out[i + 1] = data[i + 1];
        out[i + 2] = data[i + 2];
        out[i + 3] = data[i + 3];
        continue;
      }
      for (std::size_t k = i; k < i + 4; ++k) decode_one(k);
    }
  }
  for (; i < count; ++i) decode_one(i);
}

SecdedResult secded_decode(std::uint64_t data, std::uint8_t check) {
  SecdedResult out;
  out.data = data;

  const unsigned stored = check & 0x7FU;
  const unsigned syn = data_syndrome(data) ^ stored;
  const unsigned parity = static_cast<unsigned>(
      (std::popcount(data) + std::popcount(static_cast<unsigned>(check))) & 1);

  if (syn == 0 && parity == 0) return out;  // clean

  if (parity == 1) {
    // Odd number of flips observed -> assume a single error at `syn`.
    if (syn == 0) {
      out.status = SecdedStatus::kCorrectedCheck;  // overall-parity bit itself
      return out;
    }
    if ((syn & (syn - 1)) == 0) {
      out.status = SecdedStatus::kCorrectedCheck;  // parity bit p_log2(syn)
      return out;
    }
    const int bit = syn < 128 ? kPosToBit[syn] : -1;
    if (bit >= 0) {
      out.data = data ^ (std::uint64_t{1} << bit);
      out.status = SecdedStatus::kCorrectedData;
      out.corrected_bit = bit;
      return out;
    }
    // Syndrome points outside the codeword: more than one flip after all.
    out.status = SecdedStatus::kDoubleError;
    return out;
  }

  // Even parity with a nonzero syndrome: two flips, not correctable.
  out.status = SecdedStatus::kDoubleError;
  return out;
}

}  // namespace psync::reliability
