#include "psync/dist/heartbeat.hpp"

#include <limits>
#include <string_view>

#include "psync/common/config.hpp"

namespace psync::dist {

namespace {

char kind_char(Heartbeat::Kind kind) {
  switch (kind) {
    case Heartbeat::Kind::kProgress: return 'p';
    case Heartbeat::Kind::kPointStart: return 's';
    case Heartbeat::Kind::kPointDone: return 'd';
  }
  return '?';
}

}  // namespace

std::string heartbeat_line(const Heartbeat& hb) {
  std::string line = "hb ";
  line += std::to_string(hb.shard);
  line += ' ';
  line += kind_char(hb.kind);
  line += ' ';
  line += std::to_string(hb.points_done);
  line += ' ';
  line += hb.inflight < 0 ? std::string("-") : std::to_string(hb.inflight);
  return line;
}

bool parse_heartbeat_line(const std::string& line, Heartbeat* out) {
  // "hb <shard> <kind> <done> <inflight>" — strict: exactly five fields,
  // single spaces, strict decimals (inflight "-" when idle). Anything else
  // is noise.
  const char* p = line.data();
  const char* end = p + line.size();
  const auto space = [&] { return p < end && *p++ == ' '; };
  if (line.rfind("hb ", 0) != 0) return false;
  p += 3;
  Heartbeat hb;
  const auto shard = take_decimal(&p, end);
  if (!shard || !space() || p == end) return false;
  switch (*p++) {
    case 'p': hb.kind = Heartbeat::Kind::kProgress; break;
    case 's': hb.kind = Heartbeat::Kind::kPointStart; break;
    case 'd': hb.kind = Heartbeat::Kind::kPointDone; break;
    default: return false;
  }
  if (!space()) return false;
  const auto done = take_decimal(&p, end);
  if (!done || !space()) return false;
  if (std::string_view(p, static_cast<std::size_t>(end - p)) == "-") {
    hb.inflight = -1;
  } else {
    const auto inflight = parse_decimal({p, static_cast<std::size_t>(end - p)});
    if (!inflight ||
        *inflight > static_cast<std::uint64_t>(
                        std::numeric_limits<std::int64_t>::max())) {
      return false;
    }
    hb.inflight = static_cast<std::int64_t>(*inflight);
  }
  hb.shard = static_cast<std::size_t>(*shard);
  hb.points_done = *done;
  *out = hb;
  return true;
}

}  // namespace psync::dist
