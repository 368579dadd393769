#include "common/table.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace numashare {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
  NS_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  NS_REQUIRE(cells.size() == headers_.size(), "row width must match header width");
  rows_.push_back(Row{false, std::move(cells)});
}

void TextTable::add_separator() { rows_.push_back(Row{true, {}}); }

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    if (row.separator) continue;
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      widths[c] = std::max(widths[c], row.cells[c].size());
    }
  }

  const auto pad = [&](const std::string& s, std::size_t width, bool left) {
    std::string out;
    const std::size_t fill = width - std::min(width, s.size());
    if (!left) out.append(fill, ' ');
    out += s;
    if (left) out.append(fill, ' ');
    return out;
  };

  const auto rule = [&] {
    std::string line = "+";
    for (auto w : widths) {
      line.append(w + 2, '-');
      line += "+";
    }
    line += "\n";
    return line;
  };

  const auto render_row = [&](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      line += " " + pad(cells[c], widths[c], c == 0) + " |";
    }
    line += "\n";
    return line;
  };

  std::string out = rule();
  out += render_row(headers_);
  out += rule();
  for (const auto& row : rows_) {
    out += row.separator ? rule() : render_row(row.cells);
  }
  out += rule();
  return out;
}

}  // namespace numashare
