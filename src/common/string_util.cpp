#include "common/string_util.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace oda {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!s.empty() && is_space(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && is_space(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative wildcard matching with backtracking over the last '*'.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, match = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      match = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++match;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::string format_double(double v, int precision, bool trim_zeros) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  std::string s(buf);
  if (trim_zeros && s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

std::string si_format(double v, int precision) {
  static constexpr const char* kPrefixes[] = {"", "k", "M", "G", "T", "P"};
  const double av = std::abs(v);
  int idx = 0;
  double scaled = v;
  while (std::abs(scaled) >= 1000.0 && idx < 5) {
    scaled /= 1000.0;
    ++idx;
  }
  if (av < 1000.0) idx = 0, scaled = v;
  return format_double(scaled, precision, true) + kPrefixes[idx];
}

}  // namespace oda
