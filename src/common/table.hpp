// ASCII table renderer. The descriptive dashboards, the Table I regenerator
// and the bench harness all print through this so output stays uniform.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace oda {

enum class Align { kLeft, kRight, kCenter };

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Appends a row; missing cells are blank, extra cells are dropped.
  void add_row(std::vector<std::string> cells);
  /// Appends a horizontal separator between the rows added before/after.
  void add_separator();

  void set_align(std::size_t column, Align align);
  /// Caps a column's width; cell content wraps at word boundaries.
  void set_max_width(std::size_t column, std::size_t width);
  void set_title(std::string title);

  std::size_t row_count() const { return rows_.size(); }

  /// Renders with unicode-free box drawing (pipes and dashes).
  std::string render() const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator = false;
  };

  std::vector<std::string> wrap_cell(const std::string& text,
                                     std::size_t width) const;

  std::string title_;
  std::vector<std::string> headers_;
  std::vector<Row> rows_;
  std::vector<Align> aligns_;
  std::vector<std::size_t> max_widths_;
};

}  // namespace oda
