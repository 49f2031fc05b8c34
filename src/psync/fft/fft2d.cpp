#include "psync/fft/fft2d.hpp"

#include <algorithm>
#include <vector>

#include "psync/common/check.hpp"
#include "psync/fft/plan_cache.hpp"
#include "psync/fft/transpose.hpp"

namespace psync::fft {

Fft2dOps fft2d(std::span<Complex> data, std::size_t rows, std::size_t cols,
               bool restore_layout, std::vector<Complex>* scratch) {
  PSYNC_CHECK(data.size() == rows * cols);
  Fft2dOps ops;

  const FftPlan& row_plan = shared_plan(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    ops.row_pass += row_plan.forward(data.subspan(r * cols, cols));
  }

  // The column pass runs on the cols x rows transpose.
  std::span<Complex> t = data;
  if (rows == cols) {
    transpose_square_inplace(data, rows);
  } else {
    scratch->resize(data.size());
    t = *scratch;
    transpose(data, t, rows, cols);
  }

  const FftPlan& col_plan = shared_plan(rows);
  for (std::size_t c = 0; c < cols; ++c) {
    ops.col_pass += col_plan.forward(t.subspan(c * rows, rows));
  }

  if (rows == cols) {
    if (restore_layout) transpose_square_inplace(data, rows);
  } else if (restore_layout) {
    transpose(t, data, cols, rows);
  } else {
    std::copy(t.begin(), t.end(), data.begin());
  }
  return ops;
}

Fft2dOps fft2d(std::span<Complex> data, std::size_t rows, std::size_t cols,
               bool restore_layout) {
  std::vector<Complex> scratch;
  return fft2d(data, rows, cols, restore_layout, &scratch);
}

}  // namespace psync::fft
