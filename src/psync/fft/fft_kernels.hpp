// Vectorized bodies for the FFT stage kernel. Each ISA-specific
// translation unit (fft_kernels_avx2.cpp, fft_kernels_neon.cpp) performs
// the exact real multiplies and adds of the scalar loops in
// FftPlan::run_stages, in the same order per element, so the transforms
// stay bit-identical whichever path runs. The wrappers below pick the ISA
// that matches the build target; availability is still a *runtime*
// question (CPUID + PSYNC_FORCE_SCALAR), answered by
// vector_kernel_available().
//
// `d` points at the interleaved re/im doubles of the whole row;
// [begin, end) are complex-element indices covering whole butterfly groups.
// Callers only dispatch here for half >= 2 (the AVX2 path consumes two
// complexes per 256-bit vector).
#pragma once

#include <cstddef>

namespace psync::fft::detail {

#if defined(__x86_64__) || defined(__i386__)

bool fft_avx2_available();
void fused_pair_avx2(double* d, const double* w1r, const double* w1i,
                     const double* w2r, const double* w2i, std::size_t half,
                     std::size_t begin, std::size_t end);
void single_stage_avx2(double* d, const double* w1r, const double* w1i,
                       std::size_t half, std::size_t begin, std::size_t end);

inline bool vector_kernel_available() { return fft_avx2_available(); }
inline void fused_pair_vec(double* d, const double* w1r, const double* w1i,
                           const double* w2r, const double* w2i,
                           std::size_t half, std::size_t begin,
                           std::size_t end) {
  fused_pair_avx2(d, w1r, w1i, w2r, w2i, half, begin, end);
}
inline void single_stage_vec(double* d, const double* w1r, const double* w1i,
                             std::size_t half, std::size_t begin,
                             std::size_t end) {
  single_stage_avx2(d, w1r, w1i, half, begin, end);
}

#elif defined(__aarch64__) && defined(__ARM_NEON)

bool fft_neon_available();
void fused_pair_neon(double* d, const double* w1r, const double* w1i,
                     const double* w2r, const double* w2i, std::size_t half,
                     std::size_t begin, std::size_t end);
void single_stage_neon(double* d, const double* w1r, const double* w1i,
                       std::size_t half, std::size_t begin, std::size_t end);

inline bool vector_kernel_available() { return fft_neon_available(); }
inline void fused_pair_vec(double* d, const double* w1r, const double* w1i,
                           const double* w2r, const double* w2i,
                           std::size_t half, std::size_t begin,
                           std::size_t end) {
  fused_pair_neon(d, w1r, w1i, w2r, w2i, half, begin, end);
}
inline void single_stage_vec(double* d, const double* w1r, const double* w1i,
                             std::size_t half, std::size_t begin,
                             std::size_t end) {
  single_stage_neon(d, w1r, w1i, half, begin, end);
}

#else

// No vector backend for this target; FftPlan::run_stages never calls these.
inline bool vector_kernel_available() { return false; }
inline void fused_pair_vec(double*, const double*, const double*,
                           const double*, const double*, std::size_t,
                           std::size_t, std::size_t) {}
inline void single_stage_vec(double*, const double*, const double*,
                             std::size_t, std::size_t, std::size_t) {}

#endif

}  // namespace psync::fft::detail
