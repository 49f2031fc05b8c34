// Optical power arithmetic in the dB domain.
//
// The PSCAN scalability analysis (paper Section III-B, Eq. 1-3) is entirely
// a link-budget computation: launch power minus accumulated losses must stay
// above the photodetector sensitivity. Powers are dBm (psync::DbmPower),
// losses/gains dB (psync::DecibelsDb); the affine-level algebra of
// quantity.hpp makes level+level or a raw double loss a compile error.
#pragma once

#include "psync/common/quantity.hpp"

namespace psync::photonic {

/// Optical power level in dBm with explicit loss/gain application. Wraps
/// the DbmPower level type; attenuation/gain take typed dB quantities.
class PowerDbm {
 public:
  constexpr PowerDbm() = default;
  constexpr explicit PowerDbm(DbmPower level) : level_(level) {}
  constexpr explicit PowerDbm(double dbm) : level_(dbm) {}

  [[nodiscard]] constexpr DbmPower level() const { return level_; }
  [[nodiscard]] constexpr double dbm() const { return level_.value(); }
  [[nodiscard]] double mw() const { return ::psync::dbm_to_mw(level_).value(); }

  /// Attenuate by `loss` (>= 0 dB).
  [[nodiscard]] constexpr PowerDbm attenuated(DecibelsDb loss) const {
    return PowerDbm(level_ - loss);
  }
  /// Amplify by `gain` (>= 0 dB), e.g. at an O-E-O repeater relaunch.
  [[nodiscard]] constexpr PowerDbm amplified(DecibelsDb gain) const {
    return PowerDbm(level_ + gain);
  }

  [[nodiscard]] constexpr bool detectable_by(DbmPower sensitivity) const {
    return level_ >= sensitivity;
  }

 private:
  DbmPower level_{0.0};
};

}  // namespace psync::photonic
