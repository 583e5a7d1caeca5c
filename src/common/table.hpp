// Column-aligned ASCII table printer for bench / example output.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace cg {

/// Collects rows of strings and prints them with aligned columns, in the
/// style of the paper's Table 7.
class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  /// Convenience: printf-style cell formatting.
  static std::string cell(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

  /// `v` formatted with `fmt` (one double conversion), or "n/a" when
  /// there is no value.
  static std::string cell_or_na(const char* fmt, std::optional<double> v) {
    return v ? cell(fmt, *v) : std::string("n/a");
  }

  /// Render to a string (ends with newline).
  std::string str() const;

  /// Print to stdout.
  void print() const;

  /// Render rows as CSV (header first).
  std::string csv() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace cg
