// Scratch: the reusable buffers of fft2d machine points, so a sweep's
// steady state allocates (and page-faults) nothing.
//
// Ownership rule: the thread that runs points owns one Scratch (each
// SweepEngine worker, or the campaign thread when threads = 1) and hands it
// explicitly to every point it runs: the driver's input, the point's
// PsyncMachine and the machine's verify path. Capacity persists across the
// thread's points; contents mean nothing between them. A Scratch is never
// shared between threads.
//
// Buffers whose lifetimes do not overlap share storage: a scatter's burst
// and a gather's landed stream are one buffer, as are the words each node
// latched and the words it drives, the scatter's listener counts and the
// gather's buckets (ScaWork), and the processors' memories and the verify
// reference. So the Scratch holds the largest set that is live at once,
// not every buffer a point touches. Per-node data of one kind sits in one
// buffer, so a change of processor count reuses it.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "psync/core/sca.hpp"

namespace psync::core {

struct Scratch {
  /// The point's input matrix (driver::random_input fills it).
  std::vector<std::complex<double>> input;

  /// The head node's DRAM image. A PsyncMachine swaps it in when it is
  /// built and back when it is destroyed, so its result() stays its own
  /// while it lives.
  std::vector<Word> image;
  /// The processors' local memories during a run (of P processors on n
  /// samples, processor i's are [i * n/P, (i + 1) * n/P)), then the verify's
  /// reference transform.
  std::vector<std::complex<double>> proc;

  /// A scatter's burst, then a gather's landed stream.
  std::vector<Word> stream;
  /// Per node: the words a scatter latched, then the words a gather drives.
  NodeWords node;
  /// The protected channel's delivered words; trades places with `stream`
  /// on every transmission.
  std::vector<Word> delivered;
  ScaWork sca;

  /// fft::fft2d's transpose buffer in the verify (non-square matrices
  /// only).
  std::vector<std::complex<double>> fft;

  /// Bytes of capacity held.
  std::size_t capacity_bytes() const;
};

}  // namespace psync::core
