#include "psync/core/comm_program.hpp"

#include <algorithm>
#include <sstream>

#include "psync/common/check.hpp"
#include "psync/core/run_merge.hpp"

namespace psync::core {

namespace {

// Appends the stride's bursts in schedule order: an ascending run, since
// add() enforces stride >= burst whenever count > 1.
void append_entries(const CpStride& s, std::vector<CpEntry>* out) {
  PSYNC_CHECK(s.burst > 0);
  PSYNC_CHECK(s.count > 0);
  PSYNC_CHECK(s.first >= 0);
  for (Slot b = 0; b < s.count; ++b) {
    out->push_back(CpEntry{s.first + b * s.stride, s.burst, s.action});
  }
}

}  // namespace

void CommProgram::add(const CpStride& s) {
  if (s.burst <= 0 || s.count <= 0 || s.first < 0) {
    throw SimulationError("CommProgram: stride fields must be positive");
  }
  if (s.count > 1 && s.stride < s.burst) {
    throw SimulationError(
        "CommProgram: stride smaller than burst overlaps itself");
  }
  strides_.push_back(s);
}

std::vector<CpEntry> CommProgram::entries() const {
  std::size_t total = 0;
  for (const auto& s : strides_) total += static_cast<std::size_t>(s.count);
  std::vector<CpEntry> out;
  out.reserve(total);
  std::vector<std::size_t> runs{0};
  for (const auto& s : strides_) {
    append_entries(s, &out);
    runs.push_back(out.size());
  }
  merge_sorted_runs(out, std::move(runs),
                    [](const CpEntry& a, const CpEntry& b) {
                      return a.begin < b.begin;
                    });
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i].begin < out[i - 1].end()) {
      throw SimulationError("CommProgram: entries overlap at slot " +
                            std::to_string(out[i].begin));
    }
  }
  return out;
}

Slot CommProgram::slot_count(CpAction action) const {
  Slot total = 0;
  for (const auto& s : strides_) {
    if (s.action == action) total += s.slots();
  }
  return total;
}

namespace {

void check_field(Slot v, Slot max, const char* name) {
  if (v < 0 || v > max) {
    throw SimulationError(std::string("CommProgram encode: field '") + name +
                          "' = " + std::to_string(v) + " out of range");
  }
}

void put_bits(std::vector<std::uint8_t>& bytes, std::size_t& bitpos,
              std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t byte = (bitpos + i) / 8;
    const std::size_t bit = (bitpos + i) % 8;
    if (byte >= bytes.size()) bytes.push_back(0);
    if ((value >> i) & 1U) bytes[byte] = static_cast<std::uint8_t>(bytes[byte] | (1U << bit));
  }
  bitpos += width;
}

std::uint64_t get_bits(const std::vector<std::uint8_t>& bytes,
                       std::size_t& bitpos, std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t byte = (bitpos + i) / 8;
    const std::size_t bit = (bitpos + i) % 8;
    if (byte >= bytes.size()) {
      throw SimulationError("CommProgram decode: truncated stream");
    }
    if ((bytes[byte] >> bit) & 1U) v |= (std::uint64_t{1} << i);
  }
  bitpos += width;
  return v;
}

}  // namespace

std::vector<std::uint8_t> CommProgram::encode() const {
  std::vector<std::uint8_t> bytes;
  std::size_t bitpos = 0;
  put_bits(bytes, bitpos, strides_.size(), 16);
  for (const auto& s : strides_) {
    check_field(s.first, kCpMaxFirst, "first");
    check_field(s.burst, kCpMaxBurst, "burst");
    check_field(s.stride, kCpMaxStride, "stride");
    check_field(s.count, kCpMaxCount, "count");
    put_bits(bytes, bitpos, static_cast<std::uint64_t>(s.action), 2);
    put_bits(bytes, bitpos, static_cast<std::uint64_t>(s.first), 24);
    put_bits(bytes, bitpos, static_cast<std::uint64_t>(s.burst), 22);
    put_bits(bytes, bitpos, static_cast<std::uint64_t>(s.stride), 24);
    put_bits(bytes, bitpos, static_cast<std::uint64_t>(s.count), 22);
  }
  return bytes;
}

CommProgram CommProgram::decode(const std::vector<std::uint8_t>& bytes) {
  std::size_t bitpos = 0;
  const auto n = get_bits(bytes, bitpos, 16);
  CommProgram cp;
  for (std::uint64_t i = 0; i < n; ++i) {
    CpStride s;
    const auto action = get_bits(bytes, bitpos, 2);
    if (action > 2) throw SimulationError("CommProgram decode: bad action");
    s.action = static_cast<CpAction>(action);
    s.first = static_cast<Slot>(get_bits(bytes, bitpos, 24));
    s.burst = static_cast<Slot>(get_bits(bytes, bitpos, 22));
    s.stride = static_cast<Slot>(get_bits(bytes, bitpos, 24));
    s.count = static_cast<Slot>(get_bits(bytes, bitpos, 22));
    cp.add(s);
  }
  return cp;
}

std::size_t CommProgram::encoded_bits() const {
  return strides_.size() * kCpBitsPerStride;
}

std::string CommProgram::to_string() const {
  std::ostringstream os;
  os << "CP{";
  for (std::size_t i = 0; i < strides_.size(); ++i) {
    const auto& s = strides_[i];
    const char* act = s.action == CpAction::kDrive    ? "drive"
                      : s.action == CpAction::kListen ? "listen"
                                                      : "pass";
    if (i > 0) os << ", ";
    os << act << "(first=" << s.first << " burst=" << s.burst
       << " stride=" << s.stride << " count=" << s.count << ")";
  }
  os << "}";
  return os.str();
}

}  // namespace psync::core
