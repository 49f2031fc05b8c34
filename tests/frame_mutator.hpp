// The seeded request-frame mutator shared by the protocol fuzz tests and
// the serve simulator: bit flips, structural bytes, dropped bytes, deep
// nesting, 20-digit numbers and truncation.
#pragma once

#include <cstdint>
#include <string>

#include "psync/common/rng.hpp"
#include "rng_draws.hpp"

namespace psync::serve {

// Bytes that change a frame's structure, NUL included.
inline constexpr char kStructural[] = {'"', '{', '}', '[', ']',
                                       '\\', ':', ',', '\0'};
// 20-digit numbers: one past UINT64_MAX and the largest 20-digit value.
inline constexpr const char* kHugeNumbers[] = {"18446744073709551616",
                                               "99999999999999999999"};

inline std::string nested(char open, char close, int depth) {
  std::string out;
  for (int i = 0; i < depth; ++i) out += open == '{' ? "{\"a\":" : "[";
  out += "1";
  out.append(static_cast<std::size_t>(depth), close);
  return out;
}

inline std::string mutate(Rng& rng, std::string s) {
  const std::uint64_t edits = 1 + next_below(rng, 3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const auto at = static_cast<std::size_t>(next_below(rng, s.size() + 1));
    switch (next_below(rng, 6)) {
      case 0:  // bit flip
        if (at < s.size()) {
          s[at] = static_cast<char>(s[at] ^ (1 << next_below(rng, 8)));
        }
        break;
      case 1:  // structural byte
        s.insert(at, 1, kStructural[next_below(rng, sizeof(kStructural))]);
        break;
      case 2:  // dropped byte
        if (at < s.size()) s.erase(at, 1);
        break;
      case 3:  // 64-deep nesting
        s.insert(at, rng.next_bool() ? nested('{', '}', 64)
                                     : nested('[', ']', 64));
        break;
      case 4:  // 20-digit number
        s.insert(at, kHugeNumbers[next_below(rng, 2)]);
        break;
      default:  // truncation
        s.resize(at);
        break;
    }
  }
  return s;
}

}  // namespace psync::serve
