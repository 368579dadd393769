// ASCII table rendering for the experiment harness.
//
// The paper reports results as tables (Table I-III); every bench prints its
// reproduction through this class so output stays diffable run to run.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace numashare {

class TextTable {
 public:
  /// Column 0 is left-aligned, the rest right-aligned (the usual
  /// label-then-numbers layout).
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// A horizontal rule between row groups.
  void add_separator();

  std::size_t rows() const { return rows_.size(); }

  std::string render() const;

 private:
  struct Row {
    bool separator = false;
    std::vector<std::string> cells;
  };

  std::vector<std::string> headers_;
  std::vector<Row> rows_;
};

}  // namespace numashare
