#include "common/config.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/format.hpp"

namespace numashare {

namespace {

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return s.substr(begin, end - begin);
}

}  // namespace

std::optional<Config> Config::parse(const std::string& text, std::string* error) {
  Config config;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto comment = line.find_first_of("#;");
    if (comment != std::string::npos) line.erase(comment);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        if (error) *error = ns_format("line {}: unterminated section header", line_number);
        return std::nullopt;
      }
      section = trim(line.substr(1, line.size() - 2));
      if (section.empty()) {
        if (error) *error = ns_format("line {}: empty section name", line_number);
        return std::nullopt;
      }
      config.sections_.push_back(section);
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      if (error) *error = ns_format("line {}: expected key = value", line_number);
      return std::nullopt;
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      if (error) *error = ns_format("line {}: empty key", line_number);
      return std::nullopt;
    }
    const std::string full_key = section.empty() ? key : section + "." + key;
    config.values_[full_key] = value;
  }
  return config;
}

std::optional<Config> Config::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = ns_format("cannot open '{}'", path);
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str(), error);
}

std::optional<std::string> Config::get(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::int64_t> Config::get_int(const std::string& key) const {
  auto value = get(key);
  if (!value) return std::nullopt;
  char* end = nullptr;
  const long long parsed = std::strtoll(value->c_str(), &end, 0);
  if (end == value->c_str() || *end != '\0') return std::nullopt;
  return parsed;
}

std::optional<double> Config::get_double(const std::string& key) const {
  auto value = get(key);
  if (!value) return std::nullopt;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (end == value->c_str() || *end != '\0') return std::nullopt;
  return parsed;
}

std::string Config::get_or(const std::string& key, const std::string& fallback) const {
  return get(key).value_or(fallback);
}

std::int64_t Config::get_int_or(const std::string& key, std::int64_t fallback) const {
  return get_int(key).value_or(fallback);
}

double Config::get_double_or(const std::string& key, double fallback) const {
  return get_double(key).value_or(fallback);
}

}  // namespace numashare
