#include "psync/reliability/fault_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "psync/common/check.hpp"
#include "psync/photonic/ber.hpp"

namespace psync::reliability {
namespace {

// Geometric gap to the next flipped bit for flip probability `ber`:
// floor(log(1-u) / log(1-ber)) with u uniform in [0,1). Exact for a
// memoryless Bernoulli bit process.
std::uint64_t geometric_gap(double ber, Rng& rng) {
  if (ber >= 1.0) return 0;
  const double u = rng.next_double();
  const double gap = std::floor(std::log1p(-u) / std::log1p(-ber));
  if (gap >= 1.8e19) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(gap);
}

}  // namespace

void FaultModel::validate() const {
  for (std::uint32_t lane : dead_wavelengths) {
    if (lane >= 64) throw ConfigError("FaultModel: lane must be < 64");
  }
  if (random_ber < 0.0 || random_ber > 1.0) {
    throw ConfigError("FaultModel: random_ber must be in [0, 1]");
  }
  if (drift_ber_per_mword < 0.0) {
    throw ConfigError("FaultModel: drift_ber_per_mword must be >= 0");
  }
  if (brownout_ber < 0.0 || brownout_ber > 1.0) {
    throw ConfigError("FaultModel: brownout_ber must be in [0, 1]");
  }
}

double FaultModel::ber_at_word(std::uint64_t word) const {
  double b = random_ber;
  if (drift_ber_per_mword > 0.0) {
    const std::uint64_t step = word / kProfileStepWords * kProfileStepWords;
    b += drift_ber_per_mword * (static_cast<double>(step) * 1e-6);
  }
  if (brownout_words > 0 && word >= brownout_start_word &&
      word - brownout_start_word < brownout_words) {
    b = std::max(b, brownout_ber);
  }
  return std::min(b, 1.0);
}

std::uint64_t FaultModel::next_profile_change(std::uint64_t word) const {
  constexpr auto kNever = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t next = kNever;
  if (drift_ber_per_mword > 0.0) {
    next = (word / kProfileStepWords + 1) * kProfileStepWords;
  }
  if (brownout_words > 0) {
    if (word < brownout_start_word) {
      next = std::min(next, brownout_start_word);
    } else if (word - brownout_start_word < brownout_words) {
      next = std::min(next, brownout_start_word + brownout_words);
    }
  }
  return next;
}

std::uint64_t FaultModel::silenced_mask() const {
  validate();
  std::uint64_t mask = 0;
  for (std::uint32_t lane : dead_wavelengths) {
    mask |= (std::uint64_t{1} << lane);
  }
  return mask;
}

FaultModel FaultModel::from_margin_db(double margin_db, std::uint64_t seed) {
  FaultModel f;
  f.random_ber = photonic::ber_at_margin(DecibelsDb(margin_db));
  f.seed = seed;
  return f;
}

void FaultReport::merge(const FaultReport& o) {
  words_total += o.words_total;
  words_corrupted += o.words_corrupted;
  bits_flipped += o.bits_flipped;
  bits_silenced += o.bits_silenced;
}

FaultStream::FaultStream(const FaultModel& model)
    : mask_(model.silenced_mask()),
      ber_(model.random_ber),
      rng_(model.seed) {
  constexpr auto kNever = std::numeric_limits<std::uint64_t>::max();
  if (model.time_varying()) {
    time_varying_ = true;
    profile_ = model;
    profile_.dead_wavelengths.clear();  // already folded into mask_
    ber_ = profile_.ber_at_word(0);
    segment_end_ = profile_.next_profile_change(0);
  } else {
    segment_end_ = kNever;
  }
  gap_ = ber_ > 0.0 ? geometric_gap(ber_, rng_) : kNever;
}

std::uint64_t FaultStream::draw_gap() { return geometric_gap(ber_, rng_); }

void FaultStream::advance_segment() {
  ber_ = profile_.ber_at_word(word_index_);
  segment_end_ = profile_.next_profile_change(word_index_);
  gap_ = ber_ > 0.0 ? geometric_gap(ber_, rng_)
                    : std::numeric_limits<std::uint64_t>::max();
}

std::uint64_t FaultStream::corrupt(std::uint64_t w, FaultReport* report) {
  if (time_varying_ && word_index_ >= segment_end_) advance_segment();
  ++word_index_;
  const std::uint64_t before = w;
  const std::uint64_t silenced_bits = w & mask_;
  w &= ~mask_;

  std::uint64_t flipped = 0;
  if (ber_ > 0.0) {
    constexpr auto kNever = std::numeric_limits<std::uint64_t>::max();
    while (gap_ < 64) {
      flipped |= (std::uint64_t{1} << gap_);
      const std::uint64_t skip = draw_gap();
      gap_ = skip >= kNever - 64 ? kNever : gap_ + 1 + skip;
    }
    if (gap_ != kNever) gap_ -= 64;
    w ^= flipped;
  }

  if (report != nullptr) {
    ++report->words_total;
    if (w != before) ++report->words_corrupted;
    report->bits_flipped += static_cast<std::uint64_t>(std::popcount(flipped));
    report->bits_silenced +=
        static_cast<std::uint64_t>(std::popcount(silenced_bits));
  }
  return w;
}

void FaultStream::corrupt_words(const std::uint64_t* in, std::uint64_t* out,
                                std::size_t count, FaultReport* report) {
  constexpr auto kNever = std::numeric_limits<std::uint64_t>::max();
  std::size_t i = 0;
  while (i < count) {
    // Bulk path: no stuck-at lanes and the next random flip lies at least a
    // whole word away — every word up to the flip passes through untouched,
    // and per-word corrupt() would only have decremented gap_ by 64 and
    // bumped words_total. Replicate that in one step. A time-varying
    // profile caps the stretch at its segment boundary, where the per-word
    // fall-through re-evaluates the BER.
    if (mask_ == 0 && gap_ >= 64 &&
        (!time_varying_ || word_index_ < segment_end_)) {
      std::uint64_t clean_words =
          gap_ == kNever ? static_cast<std::uint64_t>(count - i)
                         : std::min<std::uint64_t>(count - i, gap_ / 64);
      if (time_varying_) {
        clean_words = std::min(clean_words, segment_end_ - word_index_);
      }
      if (out != in) std::copy(in + i, in + i + clean_words, out + i);
      if (gap_ != kNever) gap_ -= clean_words * 64;
      word_index_ += clean_words;
      if (report != nullptr) report->words_total += clean_words;
      i += static_cast<std::size_t>(clean_words);
      if (i == count) return;
    }
    out[i] = corrupt(in[i], report);
    ++i;
  }
}

}  // namespace psync::reliability
