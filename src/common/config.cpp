#include "common/config.hpp"

#include <cstdlib>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace oda {

Config Config::from_text(const std::string& text) {
  Config cfg;
  for (const auto& raw_line : split(text, '\n')) {
    std::string_view line = trim(raw_line);
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = trim(line.substr(0, hash));
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw ConfigError("malformed config line (missing '='): " +
                        std::string(raw_line));
    }
    const std::string key{trim(line.substr(0, eq))};
    const std::string value{trim(line.substr(eq + 1))};
    if (key.empty()) throw ConfigError("empty config key in: " + std::string(raw_line));
    cfg.values_[key] = value;
  }
  return cfg;
}

bool Config::contains(const std::string& key) const {
  return values_.count(key) != 0;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

std::optional<std::string> Config::raw(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key) const {
  const auto v = raw(key);
  if (!v) throw ConfigError("missing config key: " + key);
  return *v;
}

double Config::get_double(const std::string& key) const {
  const std::string v = get_string(key);
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') {
    throw ConfigError("config key '" + key + "' is not a number: " + v);
  }
  return d;
}

std::int64_t Config::get_int(const std::string& key) const {
  const std::string v = get_string(key);
  char* end = nullptr;
  const long long i = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') {
    throw ConfigError("config key '" + key + "' is not an integer: " + v);
  }
  return i;
}

bool Config::get_bool(const std::string& key) const {
  const std::string v = to_lower(get_string(key));
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw ConfigError("config key '" + key + "' is not a boolean: " + v);
}

Config Config::scoped(const std::string& prefix) const {
  Config out;
  const std::string full = prefix + ".";
  for (const auto& [k, v] : values_) {
    if (k.starts_with(full)) out.values_[k.substr(full.size())] = v;
  }
  return out;
}

void Config::merge(const Config& other) {
  for (const auto& [k, v] : other.values_) values_[k] = v;
}

}  // namespace oda
