// Communication Programs (CPs) — paper Sections III and IV.
//
// A CP is the per-node schedule that makes the SCA/SCA^-1 possible: it
// assigns each node a disjoint set of global clock slots during which that
// node may modulate (drive) the data wavelength, or must latch (listen to)
// it. All CPs on a PSCAN are linked so that adherence to the photonic clock
// results in exactly one driver and one reader per slot.
//
// CPs are tiny ("approximately 96 bits" for the FFT): regular patterns are
// expressed as strided descriptors {first, burst, stride, count} — the form
// a hardware waveguide interface would execute — and the compact binary
// encoding here demonstrates the claimed size.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace psync::core {

/// Global schedule slot index (one photonic clock cycle on the bus).
using Slot = std::int64_t;

enum class CpAction : std::uint8_t {
  kPass = 0,    // let incident energy pass unmodified (implicit default)
  kDrive = 1,   // modulate local data onto the waveguide
  kListen = 2,  // latch the data wavelength into the local deserializer
};

/// Contiguous run of slots with one action.
struct CpEntry {
  Slot begin = 0;
  Slot length = 0;
  CpAction action = CpAction::kPass;

  Slot end() const { return begin + length; }
};

/// Strided descriptor: `count` bursts of `burst` slots, the b-th burst
/// starting at first + b*stride. This is the loop form a waveguide
/// interface's sequencer executes and the unit of the compact encoding.
struct CpStride {
  Slot first = 0;
  Slot burst = 1;
  Slot stride = 1;
  Slot count = 1;
  CpAction action = CpAction::kDrive;

  /// Total slots covered.
  Slot slots() const { return burst * count; }
  /// Last slot + 1.
  Slot end() const { return count > 0 ? first + (count - 1) * stride + burst : first; }
};

/// One node's communication program: a list of strided descriptors.
class CommProgram {
 public:
  CommProgram() = default;

  /// Appends a stride; throws SimulationError on a non-positive burst or
  /// count, a negative first slot, or a stride that overlaps itself. The
  /// only way in, so every stored stride expands to an ascending run.
  void add(const CpStride& s);

  const std::vector<CpStride>& strides() const { return strides_; }
  bool empty() const { return strides_.empty(); }

  /// All entries, expanded and sorted by begin slot (the strides' ascending
  /// runs merged). Throws SimulationError if entries within this program
  /// overlap (a node cannot do two things in one slot).
  std::vector<CpEntry> entries() const;

  /// Total slots with the given action.
  Slot slot_count(CpAction action) const;

  /// Compact binary encoding: a 16-bit record count, then per stride a
  /// fixed-width record of 2b action + 24b first + 22b burst + 24b stride +
  /// 22b count = 94 bits. Round-trips via decode(). Throws SimulationError
  /// when a field exceeds its width.
  std::vector<std::uint8_t> encode() const;
  static CommProgram decode(const std::vector<std::uint8_t>& bytes);

  /// Size of the *semantic* payload in bits (what dedicated hardware would
  /// store): 94 bits per stride record. The paper's FFT transpose CP is one
  /// stride — 94 bits, matching the claimed "approximately 96-bits".
  std::size_t encoded_bits() const;

  std::string to_string() const;

 private:
  std::vector<CpStride> strides_;
};

/// Field-width limits of the compact encoding.
inline constexpr Slot kCpMaxFirst = (Slot{1} << 24) - 1;
inline constexpr Slot kCpMaxBurst = (Slot{1} << 22) - 1;
inline constexpr Slot kCpMaxStride = (Slot{1} << 24) - 1;
inline constexpr Slot kCpMaxCount = (Slot{1} << 22) - 1;
inline constexpr std::size_t kCpBitsPerStride = 94;

}  // namespace psync::core
