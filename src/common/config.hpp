// Minimal INI-style configuration: "key = value" lines, optional [sections],
// '#'/';' comments. Used by the examples to describe machines and app mixes
// without recompiling.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace numashare {

class Config {
 public:
  /// Parse text; returns std::nullopt plus an error message on malformed input.
  static std::optional<Config> parse(const std::string& text, std::string* error = nullptr);
  static std::optional<Config> load(const std::string& path, std::string* error = nullptr);

  /// Keys are addressed "section.key"; keys before any section are "key".
  std::optional<std::string> get(const std::string& key) const;
  std::optional<std::int64_t> get_int(const std::string& key) const;
  std::optional<double> get_double(const std::string& key) const;

  std::string get_or(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int_or(const std::string& key, std::int64_t fallback) const;
  double get_double_or(const std::string& key, double fallback) const;

  /// All section names that appeared in the file, in order of appearance.
  const std::vector<std::string>& sections() const { return sections_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> sections_;
};

}  // namespace numashare
