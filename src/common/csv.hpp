// Minimal CSV reader/writer (RFC 4180 quoting) used to dump experiment
// series for external plotting and to load canned traces in tests.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace oda {

class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out);

  void write_row(const std::vector<std::string>& cells);
  void write_row(const std::vector<double>& cells, int precision = 6);

 private:
  static std::string escape(const std::string& cell);
  std::ostream& out_;
};

struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a header column; throws ConfigError when absent.
  std::size_t column(const std::string& name) const;
  /// A whole column parsed as doubles (non-numeric cells become NaN).
  std::vector<double> numeric_column(const std::string& name) const;
};

/// Parses CSV text; first row is the header.
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
CsvTable parse_csv(const std::string& text);

}  // namespace oda
