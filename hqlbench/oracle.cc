#include "oracle.h"

#include <cstdlib>

namespace hqlbench {

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string_view> Lines(std::string_view text) {
  std::vector<std::string_view> out;
  while (!text.empty()) {
    size_t nl = text.find('\n');
    out.push_back(text.substr(0, nl));
    if (nl == std::string_view::npos) break;
    text.remove_prefix(nl + 1);
  }
  return out;
}

/// The integer right after the first occurrence of `marker`.
bool NumberAfter(std::string_view text, std::string_view marker,
                 int64_t* out) {
  size_t at = text.find(marker);
  if (at == std::string_view::npos) return false;
  std::string rest(text.substr(at + marker.size(), 24));
  char* end = nullptr;
  long long v = std::strtoll(rest.c_str(), &end, 10);
  if (end == rest.c_str()) return false;
  *out = v;
  return true;
}

bool Fail(std::string* why, std::string message) {
  *why = std::move(message);
  return false;
}

/// Parses a rendered relation ("| + | ALL c2 | v1 |" rows) into tuples.
bool ParseRelation(std::string_view output,
                   const std::vector<const Hier*>& hiers, Tuples* out,
                   std::string* why) {
  std::vector<std::string_view> lines = Lines(output);
  int64_t declared = -1;
  if (lines.empty() || !NumberAfter(lines[0], "(", &declared)) {
    return Fail(why, "no relation header");
  }
  bool header_seen = false;
  size_t rows = 0;
  for (std::string_view line : lines) {
    if (line.empty() || line.front() != '|') continue;
    if (!header_seen) {
      header_seen = true;
      continue;
    }
    std::vector<std::string_view> cells;
    std::string_view rest = line.substr(1);
    while (!rest.empty()) {
      size_t bar = rest.find('|');
      if (bar == std::string_view::npos) break;
      cells.push_back(Trim(rest.substr(0, bar)));
      rest.remove_prefix(bar + 1);
    }
    if (cells.size() != hiers.size() + 1) {
      return Fail(why, "row arity mismatch: " + std::string(line));
    }
    bool positive = cells[0] == "+";
    if (!positive && cells[0] != "-") {
      return Fail(why, "bad sign: " + std::string(line));
    }
    Key key(hiers.size());
    for (size_t i = 0; i < hiers.size(); ++i) {
      std::string_view term = cells[i + 1];
      if (term.substr(0, 4) == "ALL ") term.remove_prefix(4);
      key[i] = hiers[i]->Find(term);
      if (key[i] < 0) return Fail(why, "unknown node: " + std::string(term));
    }
    out->Set(key, positive);
    ++rows;
  }
  if (static_cast<int64_t>(rows) != declared) {
    return Fail(why, "header says " + std::to_string(declared) +
                         " tuples, table has " + std::to_string(rows));
  }
  return true;
}

std::string KeyName(const std::vector<const Hier*>& hiers, const Key& key) {
  std::string s = "(";
  for (size_t i = 0; i < key.size(); ++i) {
    if (i) s += ", ";
    s += hiers[i]->NameOf(key[i]);
  }
  return s + ")";
}

}  // namespace

bool CheckOutput(const Expect& expect, std::string_view output,
                 std::string* why) {
  switch (expect.kind) {
    case Expect::Kind::kOk:
      return true;
    case Expect::Kind::kCount: {
      int64_t n = -1;
      if (!NumberAfter(output, " = ", &n)) return Fail(why, "no count");
      if (n != expect.number) {
        return Fail(why, "count " + std::to_string(n) + ", model says " +
                             std::to_string(expect.number));
      }
      return true;
    }
    case Expect::Kind::kCountBy: {
      std::vector<std::string_view> lines = Lines(output);
      std::map<int, int64_t> printed;
      for (size_t i = 1; i < lines.size(); ++i) {
        std::string_view line = Trim(lines[i]);
        if (line.empty()) continue;
        size_t colon = line.rfind(':');
        if (colon == std::string_view::npos) return Fail(why, "bad group");
        int node = expect.by->Find(line.substr(0, colon));
        int64_t n = -1;
        if (node < 0 || !NumberAfter(line.substr(colon), ":", &n)) {
          return Fail(why, "bad group line: " + std::string(line));
        }
        printed[node] = n;
      }
      for (const auto& [node, n] : expect.groups) {
        auto it = printed.find(node);
        int64_t got = it == printed.end() ? 0 : it->second;
        if (got != n) {
          return Fail(why, "group " + expect.by->NameOf(node) + " = " +
                               std::to_string(got) + ", model says " +
                               std::to_string(n));
        }
        if (it != printed.end()) printed.erase(it);
      }
      if (!printed.empty()) return Fail(why, "unexpected group");
      return true;
    }
    case Expect::Kind::kRelation: {
      Tuples result(expect.hiers);
      if (!ParseRelation(output, expect.hiers, &result, why)) return false;
      for (size_t i = 0; i < expect.items.size(); ++i) {
        Truth t = result.Eval(expect.items[i]);
        if (t == Truth::kConflict || (t == Truth::kTrue) != expect.truths[i]) {
          return Fail(why, "item " + KeyName(expect.hiers, expect.items[i]) +
                               (expect.truths[i] ? " should hold"
                                                 : " should not hold"));
        }
      }
      return true;
    }
    case Expect::Kind::kExplain: {
      size_t colon = output.find("): ");
      if (colon == std::string_view::npos || colon + 3 >= output.size()) {
        return Fail(why, "no justification verdict");
      }
      char sign = output[colon + 3];
      if (sign != (expect.truth ? '+' : '-')) {
        return Fail(why, std::string("verdict ") + sign + ", model says " +
                             (expect.truth ? "+" : "-"));
      }
      return true;
    }
    case Expect::Kind::kConsolidate:
    case Expect::Kind::kDerive: {
      int64_t n = -1;
      const char* marker =
          expect.kind == Expect::Kind::kConsolidate ? "removed " : "derived ";
      if (!NumberAfter(output, marker, &n)) return Fail(why, "no number");
      if (n != expect.number) {
        return Fail(why, std::string(marker) + std::to_string(n) +
                             ", model says " + std::to_string(expect.number));
      }
      return true;
    }
  }
  return Fail(why, "unknown expectation");
}

}  // namespace hqlbench
