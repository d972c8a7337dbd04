// Test helper: a strict reader for the engine's row-shaped JSON — what
// FormatRelationJson emits (an array of flat objects whose values are
// strings or integers) and the EXPORT DIAGNOSTICS bundle (an object of
// scalar header fields plus one such array per sys.* relation). Any other
// shape, or any syntax error, reads as "does not parse".

#ifndef HIREL_TESTS_JSON_ROWS_H_
#define HIREL_TESTS_JSON_ROWS_H_

#include <cctype>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/database.h"
#include "io/text_dump.h"

namespace hirel {
namespace json_rows {

/// One row: column name -> cell. Strings are unescaped; numbers keep their
/// digits, and their column is listed in `numbers`.
struct Row {
  std::map<std::string, std::string> cells;
  std::vector<std::string> numbers;

  const std::string& at(const std::string& column) const {
    return cells.at(column);
  }
  bool has(const std::string& column) const { return cells.count(column); }
  bool is_number(const std::string& column) const {
    for (const std::string& c : numbers) {
      if (c == column) return true;
    }
    return false;
  }
};

struct Bundle {
  Row header;  // the scalar fields: format, engine, captured_unix_ms, cause
  std::map<std::string, std::vector<Row>> relations;
};

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  std::optional<std::vector<Row>> Rows() {
    std::vector<Row> rows;
    if (!Array(rows) || !AtEnd()) return std::nullopt;
    return rows;
  }

  std::optional<Bundle> ReadBundle() {
    Bundle bundle;
    if (!Consume('{')) return std::nullopt;
    bool first = true;
    while (!Consume('}')) {
      if (!first && !Consume(',')) return std::nullopt;
      first = false;
      std::string key;
      if (!String(key) || !Consume(':')) return std::nullopt;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '[') {
        if (!Array(bundle.relations[key])) return std::nullopt;
      } else if (!Scalar(bundle.header, key)) {
        return std::nullopt;
      }
    }
    if (!AtEnd()) return std::nullopt;
    return bundle;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool AtEnd() {
    SkipSpace();
    return pos_ == text_.size();
  }

  bool String(std::string& out) {
    if (!Consume('"')) return false;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          out += static_cast<char>(
              std::stoi(std::string(text_.substr(pos_, 4)), nullptr, 16));
          pos_ += 4;
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  // A string or an integer, stored under `key`.
  bool Scalar(Row& row, const std::string& key) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '"') {
      return String(row.cells[key]);
    }
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    size_t digits = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == digits) return false;
    row.cells[key] = std::string(text_.substr(start, pos_ - start));
    row.numbers.push_back(key);
    return true;
  }

  bool Object(Row& row) {
    if (!Consume('{')) return false;
    bool first = true;
    while (!Consume('}')) {
      if (!first && !Consume(',')) return false;
      first = false;
      std::string key;
      if (!String(key) || !Consume(':') || !Scalar(row, key)) return false;
    }
    return true;
  }

  bool Array(std::vector<Row>& rows) {
    if (!Consume('[')) return false;
    bool first = true;
    while (!Consume(']')) {
      if (!first && !Consume(',')) return false;
      first = false;
      rows.emplace_back();
      if (!Object(rows.back())) return false;
    }
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

/// Parses one FormatRelationJson line (a trailing newline is allowed).
inline std::optional<std::vector<Row>> ParseRows(std::string_view json) {
  return Reader(json).Rows();
}

inline std::optional<Bundle> ParseBundle(std::string_view json) {
  return Reader(json).ReadBundle();
}

/// The first row whose cells match every (column, value) pair, or null.
inline const Row* FindRow(
    const std::vector<Row>& rows,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        match) {
  for (const Row& row : rows) {
    bool all = true;
    for (const auto& [column, value] : match) {
      auto it = row.cells.find(std::string(column));
      all = all && it != row.cells.end() && it->second == value;
    }
    if (all) return &row;
  }
  return nullptr;
}

/// The rows of a sys.* relation, materialized through its provider and
/// read back from FormatRelationJson (empty if it does not exist or parse).
inline std::vector<Row> SysRows(const Database& db, std::string_view name) {
  VirtualRelationProvider* provider = db.FindVirtualRelation(name);
  if (provider == nullptr) return {};
  Result<HierarchicalRelation> relation = provider->Materialize();
  if (!relation.ok()) return {};
  return ParseRows(FormatRelationJson(*relation)).value_or(std::vector<Row>{});
}

}  // namespace json_rows
}  // namespace hirel

#endif  // HIREL_TESTS_JSON_ROWS_H_
