// Small string helpers used by the table/CSV/config machinery.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace oda {

std::vector<std::string> split(std::string_view s, char delim);
std::string_view trim(std::string_view s);
std::string join(const std::vector<std::string>& parts, std::string_view sep);
std::string to_lower(std::string_view s);

/// Glob-style match where '*' matches any run of characters and '?' one
/// character. Used for wildcard sensor-topic subscriptions.
bool glob_match(std::string_view pattern, std::string_view text);

/// Fixed-precision double formatting ("%.3f" by default) with trailing-zero
/// trimming option.
std::string format_double(double v, int precision = 3, bool trim_zeros = false);

/// Formats v with SI prefix (e.g. 1234567 -> "1.23M").
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
std::string si_format(double v, int precision = 2);

}  // namespace oda
