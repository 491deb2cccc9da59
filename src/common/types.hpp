// Core scalar types shared across the ODA stack.
//
// The whole library runs on a *simulated* clock: time is an integer number
// of seconds since the simulation epoch. Keeping the representation integral
// (rather than double) makes time arithmetic exact and keeps runs bit-for-bit
// reproducible across platforms.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace oda {

/// Seconds since the simulation epoch.
using TimePoint = std::int64_t;

/// A span of simulated seconds.
using Duration = std::int64_t;

inline constexpr TimePoint kTimeMin = std::numeric_limits<TimePoint>::min();
inline constexpr TimePoint kTimeMax = std::numeric_limits<TimePoint>::max();

inline constexpr Duration kSecond = 1;
inline constexpr Duration kMinute = 60;
inline constexpr Duration kHour = 3600;
inline constexpr Duration kDay = 86400;
inline constexpr Duration kWeek = 7 * kDay;

/// Renders a duration as a compact human string, e.g. "2d 03:15:42".
std::string format_duration(Duration d);

/// Renders a time point as "dDD HH:MM:SS" relative to the sim epoch.
std::string format_time(TimePoint t);

/// Unit conversion helpers. Telemetry values are plain doubles; the sensor
/// catalog carries the unit as metadata, and these constants keep conversion
/// factors out of call sites.
namespace units {
inline constexpr double kKilo = 1e3;
inline constexpr double kMega = 1e6;
inline constexpr double kWattsPerKilowatt = 1e3;
inline constexpr double kJoulesPerKilowattHour = 3.6e6;

// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
inline constexpr double celsius_to_kelvin(double c) { return c + 273.15; }
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
inline constexpr double kelvin_to_celsius(double k) { return k - 273.15; }
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
inline constexpr double joules_to_kwh(double j) { return j / kJoulesPerKilowattHour; }
}  // namespace units

}  // namespace oda
