#include "psync/common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "psync/common/check.hpp"

namespace psync {

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  PSYNC_CHECK(!header_.empty());
}

Table& Table::row() {
  PSYNC_CHECK_MSG(cells_.empty() || cells_.back().size() == header_.size(),
                  "previous row is incomplete");
  cells_.emplace_back();
  return *this;
}

Table& Table::add(std::string cell) {
  PSYNC_CHECK_MSG(!cells_.empty(), "row() must be called before add()");
  PSYNC_CHECK_MSG(cells_.back().size() < header_.size(), "too many cells in row");
  cells_.back().push_back(std::move(cell));
  return *this;
}

Table& Table::add(std::int64_t v) { return add(std::to_string(v)); }
Table& Table::add(double v, int precision) {
  return add(format_double(v, precision));
}

const std::string& Table::at(std::size_t r, std::size_t c) const {
  return cells_.at(r).at(c);
}

std::string Table::to_string() const {
  PSYNC_CHECK_MSG(cells_.empty() || cells_.back().size() == header_.size(),
                  "last row is incomplete");
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : cells_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  auto emit_cell = [&](std::ostringstream& os, const std::string& s,
                       std::size_t c) {
    const auto pad = width[c] - s.size();
    if (c > 0) os << std::string(pad, ' ') << s;
    else os << s << std::string(pad, ' ');
  };

  std::ostringstream os;
  if (!title_.empty()) os << title_ << '\n';
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c > 0) os << "  ";
    emit_cell(os, header_[c], c);
  }
  os << '\n';
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c > 0) os << "  ";
    os << std::string(width[c], '-');
  }
  os << '\n';
  for (const auto& row : cells_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << "  ";
      emit_cell(os, row[c], c);
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace psync
