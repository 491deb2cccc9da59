// Error handling primitives.
//
// Contract violations (programming errors, surfaced via ODA_REQUIRE) throw
// ContractError and malformed configuration throws ConfigError. Expected
// absences are part of a function's return type instead (std::optional,
// empty results, status flags), so callers never catch to branch.
#pragma once

#include <stdexcept>
#include <string>

namespace oda {

/// Exception thrown on contract violations (programming errors).
class ContractError : public std::logic_error {
 public:
  explicit ContractError(const std::string& what) : std::logic_error(what) {}
};

/// Exception thrown when a configuration value is missing or malformed.
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

#define ODA_REQUIRE(cond, msg)                                             \
  do {                                                                     \
    if (!(cond)) {                                                         \
      throw ::oda::ContractError(std::string("requirement failed: ") +     \
                                 (msg) + " [" #cond "]");                  \
    }                                                                      \
  } while (false)

}  // namespace oda
