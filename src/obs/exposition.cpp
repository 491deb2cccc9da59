#include "obs/exposition.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "obs/trace.hpp"

namespace oda::obs {

namespace {

/// Appends {k="v",...} (or nothing for an empty set) to out.
void append_label_block(std::string& out, const LabelSet& labels,
                        const std::string& extra_key = "",
                        const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out += '"';
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += escape_label_value(extra_value);
    out += '"';
  }
  out += '}';
}

void append_sample(std::string& out, const std::string& name,
                   const LabelSet& labels, double value,
                   const std::string& extra_key = "",
                   const std::string& extra_value = "",
                   const std::string& exemplar_suffix = "") {
  out += name;
  append_label_block(out, labels, extra_key, extra_value);
  out += ' ';
  out += format_sample_value(value);
  out += exemplar_suffix;  // OpenMetrics " # {trace_id=\"..\"} value" or ""
  out += '\n';
}



void append_json_labels(std::ostringstream& out, const LabelSet& labels) {
  out << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(k) << "\":\"" << json_escape(v) << '"';
  }
  out << '}';
}

}  // namespace

std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string escape_help_text(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string format_sample_value(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  // Counters and bucket counts are integral doubles; print them without an
  // exponent so the output stays greppable and diff-friendly.
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    return buf;
  }
  // Shortest representation that round-trips: le="1e-06" beats
  // le="9.9999999999999995e-07" for human eyes and stays exact.
  char buf[64];
  for (int digits = 6; digits <= std::numeric_limits<double>::max_digits10;
       ++digits) {
    std::snprintf(buf, sizeof(buf), "%.*g", digits, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string json_escape(const std::string& s) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xf];
          out += hex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return format_sample_value(v);
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& fam : snapshot.families) {
    out += "# HELP ";
    out += fam.name;
    out += ' ';
    out += escape_help_text(fam.help);
    out += '\n';
    out += "# TYPE ";
    out += fam.name;
    out += ' ';
    out += to_string(fam.type);
    out += '\n';
    for (const auto& v : fam.values) {
      append_sample(out, fam.name, v.labels, v.value);
    }
    for (const auto& h : fam.histograms) {
      // The exemplar (if any) rides on the smallest bucket that contains
      // its value, in OpenMetrics syntax: `... # {trace_id="<hex>"} value`.
      const bool has_exemplar = h.exemplar_trace_id != 0;
      std::size_t exemplar_bucket = h.bounds.size();  // +Inf by default
      std::string exemplar;
      if (has_exemplar) {
        for (std::size_t b = 0; b < h.bounds.size(); ++b) {
          if (h.exemplar_value <= h.bounds[b]) {
            exemplar_bucket = b;
            break;
          }
        }
        exemplar = " # {trace_id=\"" + trace_id_hex(h.exemplar_trace_id) +
                   "\"} " + format_sample_value(h.exemplar_value);
      }
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < h.bounds.size(); ++b) {
        cumulative += h.counts[b];
        append_sample(out, fam.name + "_bucket", h.labels,
                      static_cast<double>(cumulative), "le",
                      format_sample_value(h.bounds[b]),
                      b == exemplar_bucket ? exemplar : "");
      }
      // The +Inf bucket is cumulative over everything == the total count.
      append_sample(out, fam.name + "_bucket", h.labels,
                    static_cast<double>(h.count), "le", "+Inf",
                    exemplar_bucket == h.bounds.size() ? exemplar : "");
      append_sample(out, fam.name + "_sum", h.labels, h.sum);
      append_sample(out, fam.name + "_count", h.labels,
                    static_cast<double>(h.count));
    }
  }
  return out;
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\"families\":[";
  bool first_fam = true;
  for (const auto& fam : snapshot.families) {
    if (!first_fam) out << ',';
    first_fam = false;
    out << "{\"name\":\"" << json_escape(fam.name) << "\",\"type\":\""
        << to_string(fam.type) << "\",\"help\":\"" << json_escape(fam.help)
        << '"';
    if (fam.type == MetricType::kHistogram) {
      out << ",\"histograms\":[";
      bool first = true;
      for (const auto& h : fam.histograms) {
        if (!first) out << ',';
        first = false;
        out << "{\"labels\":";
        append_json_labels(out, h.labels);
        out << ",\"bounds\":[";
        for (std::size_t b = 0; b < h.bounds.size(); ++b) {
          if (b != 0) out << ',';
          out << json_number(h.bounds[b]);
        }
        out << "],\"counts\":[";
        for (std::size_t b = 0; b < h.counts.size(); ++b) {
          if (b != 0) out << ',';
          out << h.counts[b];
        }
        out << "],\"sum\":" << json_number(h.sum) << ",\"count\":" << h.count;
        if (h.exemplar_trace_id != 0) {
          out << ",\"exemplar\":{\"value\":" << json_number(h.exemplar_value)
              << ",\"trace_id\":\"" << trace_id_hex(h.exemplar_trace_id)
              << "\"}";
        }
        out << '}';
      }
      out << ']';
    } else {
      out << ",\"series\":[";
      bool first = true;
      for (const auto& v : fam.values) {
        if (!first) out << ',';
        first = false;
        out << "{\"labels\":";
        append_json_labels(out, v.labels);
        out << ",\"value\":" << json_number(v.value) << '}';
      }
      out << ']';
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

}  // namespace oda::obs
