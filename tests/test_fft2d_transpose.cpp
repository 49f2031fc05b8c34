#include "psync/fft/fft2d.hpp"
#include "psync/fft/transpose.hpp"

#include <gtest/gtest.h>

#include "oracle/naive_dft.hpp"
#include "psync/common/rng.hpp"

namespace psync::fft {
namespace {

std::vector<Complex> random_matrix(std::size_t rows, std::size_t cols,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> m(rows * cols);
  for (auto& v : m) {
    v = Complex(rng.next_double() * 2.0 - 1.0, rng.next_double() * 2.0 - 1.0);
  }
  return m;
}

TEST(Transpose, OutOfPlaceCorrect) {
  const std::size_t rows = 3, cols = 5;
  std::vector<Complex> in(rows * cols), out(rows * cols);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = {double(i), 0.0};
  transpose(in, out, rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(out[c * rows + r], in[r * cols + c]);
    }
  }
}

TEST(Transpose, DoubleTransposeIsIdentity) {
  const auto m = random_matrix(8, 16, 1);
  std::vector<Complex> t(m.size()), back(m.size());
  transpose(m, t, 8, 16);
  transpose(t, back, 16, 8);
  EXPECT_EQ(max_abs_diff(back, m), 0.0);
}

TEST(Transpose, SquareInPlaceMatchesOutOfPlace) {
  // One tile, several, and a ragged last tile.
  for (std::size_t n : {16, 64, 37}) {
    auto m = random_matrix(n, n, 2);
    std::vector<Complex> expect(m.size());
    transpose(m, expect, n, n);
    transpose_square_inplace(m, n);
    EXPECT_EQ(max_abs_diff(m, expect), 0.0) << n;
  }
}

TEST(Transpose, IndexMapMatchesDataMovement) {
  const std::size_t rows = 6, cols = 10;
  const auto m = random_matrix(rows, cols, 4);
  std::vector<Complex> t(m.size());
  transpose(m, t, rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(t[transpose_index(i, rows, cols)], m[i]);
  }
}

class Fft2dShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(Fft2dShapes, MatchesNaive2dDft) {
  const auto [rows, cols] = GetParam();
  auto m = random_matrix(rows, cols, rows * 100 + cols);
  const auto ref = oracle::naive_dft2d(m, rows, cols);
  fft2d(m, rows, cols, /*restore_layout=*/true);
  EXPECT_LT(max_abs_diff(m, ref),
            1e-8 * static_cast<double>(rows * cols));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Fft2dShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{4, 4},
                      std::pair<std::size_t, std::size_t>{8, 16},
                      std::pair<std::size_t, std::size_t>{16, 8},
                      std::pair<std::size_t, std::size_t>{32, 32}));

TEST(Fft2d, TransposedLayoutIsTransposeOfNatural) {
  auto natural = random_matrix(8, 32, 9);
  auto trans = natural;
  fft2d(natural, 8, 32, /*restore_layout=*/true);
  fft2d(trans, 8, 32, /*restore_layout=*/false);
  std::vector<Complex> check(natural.size());
  transpose(natural, check, 8, 32);
  EXPECT_LT(max_abs_diff(trans, check), 1e-12);
}

TEST(Fft2d, OpCountMatchesFormula) {
  auto m = random_matrix(16, 64, 10);
  const auto ops = fft2d(m, 16, 64);
  // Row pass: 16 FFTs of 64 points; col pass: 64 FFTs of 16 points.
  EXPECT_EQ(ops.row_pass.real_mults, 16 * full_fft_mults(64));
  EXPECT_EQ(ops.col_pass.real_mults, 64 * full_fft_mults(16));
  EXPECT_EQ(ops.total().real_mults,
            16 * full_fft_mults(64) + 64 * full_fft_mults(16));
}

TEST(Fft2d, SeparabilityRowsThenColumns) {
  // 2D of a rank-1 separable signal is the outer product of 1D transforms.
  const std::size_t rows = 8, cols = 8;
  auto row_sig = random_matrix(1, cols, 11);
  auto col_sig = random_matrix(1, rows, 12);
  std::vector<Complex> m(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m[r * cols + c] = col_sig[r] * row_sig[c];
    }
  }
  fft2d(m, rows, cols);
  FftPlan pr(cols), pc(rows);
  pr.forward(row_sig);
  pc.forward(col_sig);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      EXPECT_NEAR(std::abs(m[r * cols + c] - col_sig[r] * row_sig[c]), 0.0,
                  1e-8);
    }
  }
}

}  // namespace
}  // namespace psync::fft
