// Bit-identity of the runtime-dispatched kernels against the test oracles
// (tests/oracle/): FFT stages vs the strided radix-2 loop, CRC-32 vs the
// byte-wise loop, batched SECDED vs per-word encode/decode, including every
// 1-bit and every 2-bit error position in the 72-bit codeword. The
// dispatched path is the vector one (AVX2/PCLMUL/NEON) on hosts that have
// the ISA and the scalar one under PSYNC_FORCE_SCALAR=1; ctest runs this
// suite once each way, so both arms are checked against the same oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "oracle/codec.hpp"
#include "oracle/fft_stages.hpp"
#include "psync/common/rng.hpp"
#include "psync/common/simd_dispatch.hpp"
#include "psync/fft/fft.hpp"
#include "psync/reliability/crc32.hpp"
#include "psync/reliability/secded.hpp"

namespace {

using psync::Rng;

std::vector<psync::fft::Complex> random_signal(std::size_t n,
                                               std::uint64_t seed) {
  std::vector<psync::fft::Complex> x(n);
  Rng rng(seed);
  for (auto& v : x) {
    v = {rng.next_double() - 0.5, rng.next_double() - 0.5};
  }
  return x;
}

bool bits_equal(const std::vector<psync::fft::Complex>& a,
                const std::vector<psync::fft::Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(psync::fft::Complex)) == 0;
}

TEST(SimdKernels, FftForwardBitIdenticalAcrossAllThreePaths) {
  for (std::size_t n : {1u, 2u, 4u, 8u, 16u, 64u, 512u, 4096u, 8192u}) {
    psync::fft::FftPlan plan(n);
    const psync::oracle::StridedFft strided(n);
    for (std::uint64_t seed : {3u, 17u}) {
      const auto input = random_signal(n, seed);
      auto ref = input, got = input;
      strided.forward(ref);
      plan.forward(got);
      EXPECT_TRUE(bits_equal(ref, got)) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(SimdKernels, FftBlockedBitIdentical) {
  const std::size_t n = 2048;
  psync::fft::FftPlan plan(n);
  const auto input = random_signal(n, 23);
  const psync::oracle::StridedFft strided(n);
  for (std::size_t k : {1u, 4u, 16u, 128u}) {
    auto ref = input, got = input;
    strided.forward_blocked(ref, k);
    plan.forward_blocked(got, k);
    EXPECT_TRUE(bits_equal(ref, got)) << "k=" << k;
  }
}

TEST(SimdKernels, FftOpCountsUnchangedByVectorKernel) {
  const std::size_t n = 1024;
  psync::fft::FftPlan plan(n);
  const auto input = random_signal(n, 5);
  auto a = input, b = input;
  const auto ops_ref = psync::oracle::StridedFft(n).forward(a);
  const auto ops_got = plan.forward(b);
  EXPECT_EQ(ops_ref.butterflies, ops_got.butterflies);
  EXPECT_EQ(ops_ref.real_mults, ops_got.real_mults);
  EXPECT_EQ(ops_ref.real_adds, ops_got.real_adds);
  EXPECT_EQ(ops_got.real_mults, psync::fft::full_fft_mults(n));
}

TEST(SimdKernels, Crc32FoldMatchesTablesAtEveryLengthAndAlignment) {
  std::vector<unsigned char> buf(2048 + 7);
  Rng rng(31);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next_u64());
  for (std::size_t off : {0u, 1u, 7u}) {
    // Every length through four 64-byte fold rounds, then sparse large ones.
    std::vector<std::size_t> lens;
    for (std::size_t len = 0; len <= 260; ++len) lens.push_back(len);
    lens.insert(lens.end(), {511, 512, 513, 1024, 2000, 2048});
    for (std::size_t len : lens) {
      const auto got = psync::reliability::crc32_update(
          psync::reliability::kCrc32Init, buf.data() + off, len);
      const auto ref = psync::oracle::crc32_update(
          psync::reliability::kCrc32Init, buf.data() + off, len);
      ASSERT_EQ(got, ref) << "len=" << len << " off=" << off;
    }
  }
}

TEST(SimdKernels, Crc32RunningUpdatesCompose) {
  // Split updates must equal one-shot updates.
  std::vector<unsigned char> buf(777);
  Rng rng(41);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next_u64());
  const auto whole = psync::reliability::crc32_update(
      psync::reliability::kCrc32Init, buf.data(), buf.size());
  for (std::size_t cut : {1u, 63u, 64u, 65u, 300u, 776u}) {
    auto crc = psync::reliability::crc32_update(psync::reliability::kCrc32Init,
                                                buf.data(), cut);
    crc = psync::reliability::crc32_update(crc, buf.data() + cut,
                                           buf.size() - cut);
    ASSERT_EQ(crc, whole) << "cut=" << cut;
  }
}

TEST(SimdKernels, SecdedEncodeBatchesMatchScalar) {
  // Counts around the 4-word vector groups, plus the scalar per-word API.
  Rng rng(53);
  for (std::size_t count : {1u, 3u, 4u, 5u, 8u, 63u, 256u, 1021u}) {
    std::vector<std::uint64_t> data(count);
    for (auto& d : data) d = rng.next_u64();
    std::vector<std::uint8_t> got(count), ref(count);
    psync::reliability::secded_encode_words(data.data(), count, got.data());
    psync::oracle::secded_encode_words(data.data(), count, ref.data());
    ASSERT_EQ(got, ref) << "count=" << count;
  }
}

// Flip codeword bit `pos` (0..63 = data bits, 64..71 = check bits) of a
// (data, check) pair.
void flip(std::uint64_t* data, std::uint8_t* check, int pos) {
  if (pos < 64) {
    *data ^= std::uint64_t{1} << pos;
  } else {
    *check = static_cast<std::uint8_t>(*check ^ (1u << (pos - 64)));
  }
}

void expect_decode_words_identical(const std::vector<std::uint64_t>& data,
                                   const std::vector<std::uint8_t>& checks,
                                   bool correct) {
  std::vector<std::uint64_t> out_got(data.size()), out_ref(data.size());
  psync::reliability::SecdedWordStats sg, sr;
  psync::reliability::secded_decode_words(data.data(), checks.data(),
                                          data.size(), correct,
                                          out_got.data(), &sg);
  psync::oracle::secded_decode_words(data.data(), checks.data(), data.size(),
                                     correct, out_ref.data(), &sr);
  ASSERT_EQ(out_got, out_ref);
  ASSERT_EQ(sg.flagged_words, sr.flagged_words);
  ASSERT_EQ(sg.corrected_bits, sr.corrected_bits);
  ASSERT_EQ(sg.double_errors, sr.double_errors);
}

TEST(SimdKernels, SecdedDecodeIdenticalForAllSingleBitErrors) {
  Rng rng(67);
  const std::uint64_t words[] = {0ull, ~0ull, rng.next_u64(), rng.next_u64()};
  for (std::uint64_t word : words) {
    const std::uint8_t check = psync::reliability::secded_encode(word);
    std::vector<std::uint64_t> data(72);
    std::vector<std::uint8_t> checks(72);
    for (int pos = 0; pos < 72; ++pos) {
      data[static_cast<std::size_t>(pos)] = word;
      checks[static_cast<std::size_t>(pos)] = check;
      flip(&data[static_cast<std::size_t>(pos)],
           &checks[static_cast<std::size_t>(pos)], pos);
      // Every single flip must be corrected back to the original word.
      const auto dec = psync::reliability::secded_decode(
          data[static_cast<std::size_t>(pos)],
          checks[static_cast<std::size_t>(pos)]);
      ASSERT_TRUE(dec.corrected()) << "pos=" << pos;
      ASSERT_EQ(dec.data, word) << "pos=" << pos;
    }
    expect_decode_words_identical(data, checks, true);
    expect_decode_words_identical(data, checks, false);
  }
}

TEST(SimdKernels, SecdedDecodeIdenticalForAllDoubleBitErrors) {
  Rng rng(71);
  const std::uint64_t word = rng.next_u64();
  const std::uint8_t check = psync::reliability::secded_encode(word);
  std::vector<std::uint64_t> data;
  std::vector<std::uint8_t> checks;
  data.reserve(72 * 71 / 2);
  checks.reserve(72 * 71 / 2);
  for (int p1 = 0; p1 < 72; ++p1) {
    for (int p2 = p1 + 1; p2 < 72; ++p2) {
      std::uint64_t d = word;
      std::uint8_t c = check;
      flip(&d, &c, p1);
      flip(&d, &c, p2);
      // Any two flips must be detected, never miscorrected into silence.
      const auto dec = psync::reliability::secded_decode(d, c);
      ASSERT_TRUE(dec.double_error()) << "p1=" << p1 << " p2=" << p2;
      data.push_back(d);
      checks.push_back(c);
    }
  }
  expect_decode_words_identical(data, checks, true);
  expect_decode_words_identical(data, checks, false);
}

TEST(SimdKernels, SecdedDecodeMixedCleanAndErroredBatches) {
  Rng rng(83);
  const std::size_t count = 4099;  // exercises the tail after vector groups
  std::vector<std::uint64_t> data(count);
  std::vector<std::uint8_t> checks(count);
  for (std::size_t i = 0; i < count; ++i) {
    data[i] = rng.next_u64();
    checks[i] = psync::reliability::secded_encode(data[i]);
    const std::uint64_t roll = rng.next_u64() % 10;
    if (roll == 0) {
      flip(&data[i], &checks[i], static_cast<int>(rng.next_u64() % 72));
    } else if (roll == 1) {
      const int p1 = static_cast<int>(rng.next_u64() % 72);
      const int p2 = static_cast<int>((p1 + 1 + rng.next_u64() % 71) % 72);
      flip(&data[i], &checks[i], p1);
      flip(&data[i], &checks[i], p2);
    }
  }
  expect_decode_words_identical(data, checks, true);
  expect_decode_words_identical(data, checks, false);
}

TEST(SimdKernels, ForceScalarEnvironmentIsRespectedByDetection) {
  // The detection layer itself is cached at first query; this only checks
  // coherence between the predicates and the FFT kernel's dispatch.
  if (psync::simd::force_scalar()) {
    EXPECT_FALSE(psync::simd::have_avx2());
    EXPECT_FALSE(psync::simd::have_pclmul());
    EXPECT_FALSE(psync::simd::have_neon());
    EXPECT_FALSE(psync::fft::vector_kernel());
  } else if (psync::simd::have_avx2()) {
    EXPECT_TRUE(psync::fft::vector_kernel());
  }
}

}  // namespace
