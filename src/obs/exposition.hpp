// Exposition formats for MetricsSnapshot: Prometheus text format 0.0.4
// (scrapeable / checkable with scripts/check_prom.py) and a JSON snapshot
// for dashboards and tests.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace oda::obs {

/// Prometheus text exposition: # HELP / # TYPE comments, one line per
/// series, histograms expanded to cumulative _bucket/_sum/_count series.
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// JSON document: {"families": [{name, type, help, series|histograms}]}.
std::string to_json(const MetricsSnapshot& snapshot);

/// Escapes a Prometheus label value (backslash, double-quote, newline).
std::string escape_label_value(const std::string& value);
/// Escapes a HELP text (backslash and newline only, per the format spec).
std::string escape_help_text(const std::string& value);
/// Renders a sample value: integers exactly, doubles with round-trip
/// precision, infinities as +Inf/-Inf.
std::string format_sample_value(double value);
/// Escapes a JSON string body: quote, backslash, the two-character escapes
/// for newline, tab, CR, backspace and form feed, and a four-hex-digit
/// escape for every other control character.
std::string json_escape(const std::string& s);
/// Renders a JSON number as format_sample_value() does; NaN and the
/// infinities are not representable in JSON and render as null.
std::string json_number(double v);

}  // namespace oda::obs
