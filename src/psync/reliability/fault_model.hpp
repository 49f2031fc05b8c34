// Optical fault model for PSCAN words. It lives in the reliability layer,
// below core in the link order, and core code names it reliability::.
//
// Two failure modes the physical layer exhibits:
//   * a dead wavelength — a ring stuck off-resonance (thermal drift,
//     fabrication defect) silences one bit lane of every word that passes
//     its modulator bank: a stuck-at-0 column through the whole stream;
//   * random bit errors — the link's BER, which the photonic::ber model
//     derives from the optical margin (Eq. 1's headroom).
//
// FaultStream is the fast path for long streams: the dead-lane mask is
// validated and built once, and random flips are drawn by geometric gap
// sampling (O(flips), not O(bits)) — a 2^20-slot stream at BER 1e-9 costs
// a handful of RNG draws instead of 64M.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "psync/common/rng.hpp"

namespace psync::reliability {

struct FaultModel {
  /// Stuck-at-0 bit lanes (wavelength indices, 0..63 for the one-word-per-
  /// slot stream model).
  std::vector<std::uint32_t> dead_wavelengths;
  /// Independent bit-flip probability per received bit.
  double random_ber = 0.0;
  /// RNG seed for the random flips (deterministic injection).
  std::uint64_t seed = 1;

  // -- Time-varying BER profile (device-level degradation campaigns) --
  //
  // Real photonic links do not sit at one BER: ring resonators drift with
  // temperature, and a laser/driver power sag ("brownout") steps the margin
  // down for a window. Both are modeled on the stream-word axis:
  //
  //   ber(word) = min(1, random_ber + drift_ber_per_mword * word / 1e6)
  //   ber(word) = max(ber(word), brownout_ber)   within the brownout window
  //
  // The drift term is quantized to kProfileStepWords-word steps so the
  // profile stays piecewise-constant and the O(flips) geometric-gap sampler
  // remains exact within each segment.

  /// Additive BER per million stream words (thermal-drift ramp; 0 = off).
  double drift_ber_per_mword = 0.0;
  /// Brownout window: [brownout_start_word, brownout_start_word +
  /// brownout_words) on the stream axis. brownout_ber overrides the base
  /// BER within the window when it is worse.
  std::uint64_t brownout_start_word = 0;
  std::uint64_t brownout_words = 0;
  double brownout_ber = 0.0;

  /// Drift quantization step, words. Segments of this length see one BER.
  static constexpr std::uint64_t kProfileStepWords = 4096;

  bool time_varying() const {
    return drift_ber_per_mword > 0.0 ||
           (brownout_words > 0 && brownout_ber > 0.0);
  }

  /// Effective random BER for the word at stream position `word`.
  double ber_at_word(std::uint64_t word) const;

  /// First stream position after `word` where ber_at_word may change
  /// (segment boundary); uint64 max when the profile is flat from here on.
  std::uint64_t next_profile_change(std::uint64_t word) const;

  bool trivial() const {
    return dead_wavelengths.empty() && random_ber <= 0.0 && !time_varying();
  }

  /// Throws ConfigError if any dead lane index is out of range or a BER
  /// field is not a probability (drift rate must be >= 0).
  void validate() const;

  /// Validates, then folds the dead lanes into a stuck-at-0 mask. Callers
  /// injecting over long streams should build this once (or use
  /// FaultStream, which caches it).
  std::uint64_t silenced_mask() const;

  /// Derive the random BER from an optical margin via the Q-factor model.
  static FaultModel from_margin_db(double margin_db, std::uint64_t seed = 1);
};

struct FaultReport {
  std::uint64_t words_total = 0;
  std::uint64_t words_corrupted = 0;
  std::uint64_t bits_flipped = 0;     // by random BER
  std::uint64_t bits_silenced = 0;    // 1-bits cleared by dead lanes
  void merge(const FaultReport& o);
};

/// Streaming corruptor: one validated mask, one RNG, O(flips) random
/// errors via geometric gap sampling (the Bernoulli process is memoryless,
/// so skipping directly to the next flipped bit is exact).
class FaultStream {
 public:
  explicit FaultStream(const FaultModel& model);

  /// Corrupt the next word of the stream.
  std::uint64_t corrupt(std::uint64_t w, FaultReport* report = nullptr);

  /// Corrupt `count` consecutive stream words in one call: out[i] is what
  /// corrupt(in[i]) would have returned, with identical RNG draw order and
  /// report counters. Whole clean stretches (no dead lanes, next flip
  /// beyond the burst) are bulk-copied instead of stepped word by word.
  /// `out` may alias `in`.
  void corrupt_words(const std::uint64_t* in, std::uint64_t* out,
                     std::size_t count, FaultReport* report = nullptr);

  /// Override the stuck-at mask (lane failover reroutes traffic off dead
  /// lanes; random BER still applies).
  void set_silenced_mask(std::uint64_t mask) { mask_ = mask; }
  std::uint64_t silenced_mask() const { return mask_; }

 private:
  std::uint64_t draw_gap();

  /// Entering a new profile segment: re-evaluate the BER at the current
  /// stream position and redraw the flip horizon. The Bernoulli process is
  /// memoryless, so redrawing at a rate change is distribution-exact for a
  /// piecewise-constant BER. Only reached when the model is time-varying —
  /// a static profile takes byte-identical draws to the pre-profile code.
  void advance_segment();

  std::uint64_t mask_ = 0;
  double ber_ = 0.0;
  Rng rng_;
  std::uint64_t gap_ = 0;  // clean bits before the next random flip

  bool time_varying_ = false;
  FaultModel profile_;           // profile evaluation copy (time-varying only)
  std::uint64_t word_index_ = 0; // stream position (words consumed so far)
  std::uint64_t segment_end_ = 0; // first word of the next profile segment
};

}  // namespace psync::reliability
