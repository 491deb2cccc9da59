// Telemetry primitives: a timestamped sample and a path-addressed reading.
#pragma once

#include <string>

#include "common/types.hpp"

namespace oda::telemetry {

struct Sample {
  TimePoint time = 0;
  double value = 0.0;
};

struct Reading {
  std::string path;
  Sample sample;
};

}  // namespace oda::telemetry
