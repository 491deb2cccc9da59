// Flat key-value configuration with typed accessors, parsed from
// "key = value" text (comments with '#') so experiments are scriptable from
// one place.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace oda {

class Config {
 public:
  Config() = default;

  /// Parses "key = value" lines; '#' starts a comment; blank lines ignored.
  static Config from_text(const std::string& text);

  bool contains(const std::string& key) const;
  std::vector<std::string> keys() const;

  /// Typed getters; each throws ConfigError when the key is missing or
  /// malformed.
  std::string get_string(const std::string& key) const;
  double get_double(const std::string& key) const;
  std::int64_t get_int(const std::string& key) const;
  bool get_bool(const std::string& key) const;

  /// Returns a sub-config of keys under "prefix." with the prefix stripped.
  Config scoped(const std::string& prefix) const;

  /// Merges other into this; other's values win on conflict.
  void merge(const Config& other);

 private:
  std::optional<std::string> raw(const std::string& key) const;
  std::map<std::string, std::string> values_;
};

}  // namespace oda
