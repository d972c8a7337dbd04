#include "hql/token.h"

#include <array>

#include "common/str_util.h"

namespace hirel {

namespace {

constexpr std::array kReservedWords = {
    "CREATE",      "HIERARCHY", "CLASS",     "INSTANCE",  "RELATION",
    "IN",          "UNDER",     "CONNECT",   "TO",        "PREFER",
    "OVER",        "ASSERT",    "DENY",      "RETRACT",   "ALL",
    "SELECT",      "FROM",      "WHERE",     "EXPLAIN",   "CONSOLIDATE",
    "EXPLICATE",   "ON",        "SHOW",      "HIERARCHIES", "RELATIONS",
    "DROP",        "UNION",     "INTERSECT", "EXCEPT",    "JOIN",
    "PROJECT",     "AS",        "SAVE",      "LOAD",      "EXTENSION",
    "HELP",        "COMPRESS",  "BEGIN",     "COMMIT",    "ABORT",
    "SET",         "PREEMPTION", "RULE",      "DERIVE",    "RULES",
    "COUNT",       "BY",        "SUBSUMPTION", "BINDING",   "PLAN",
    "ANALYZE",     "METRICS",   "TRACE",     "RESET",     "JSON",
    "LOG",         "EXPORT",    "PROMETHEUS",
    "SLOW_QUERY_MS", "STORAGE",   "QUERIES",   "INCREMENTAL",
    "TELEMETRY",   "INTERVAL",
};

}  // namespace

const char* TokenTypeToString(TokenType type) {
  switch (type) {
    case TokenType::kEnd:
      return "end of input";
    case TokenType::kIdentifier:
      return "identifier";
    case TokenType::kInteger:
      return "integer";
    case TokenType::kFloat:
      return "float";
    case TokenType::kString:
      return "string";
    case TokenType::kLeftParen:
      return "'('";
    case TokenType::kRightParen:
      return "')'";
    case TokenType::kComma:
      return "','";
    case TokenType::kSemicolon:
      return "';'";
    case TokenType::kColon:
      return "':'";
    case TokenType::kEquals:
      return "'='";
    case TokenType::kStar:
      return "'*'";
    case TokenType::kLess:
      return "'<'";
    case TokenType::kGreater:
      return "'>'";
    case TokenType::kLessEq:
      return "'<='";
    case TokenType::kGreaterEq:
      return "'>='";
    case TokenType::kKeyword:
      return "keyword";
  }
  return "unknown";
}

bool Token::IsKeyword(const char* keyword) const {
  return type == TokenType::kKeyword && text == keyword;
}

std::string Token::ToString() const {
  if (type == TokenType::kKeyword || type == TokenType::kIdentifier ||
      type == TokenType::kInteger || type == TokenType::kFloat) {
    return StrCat("'", text, "'");
  }
  if (type == TokenType::kString) {
    return StrCat("'", text, "' (string)");
  }
  return TokenTypeToString(type);
}

bool IsReservedWord(const std::string& word) {
  std::string upper;
  upper.reserve(word.size());
  for (char c : word) upper.push_back(static_cast<char>(std::toupper(c)));
  for (const char* reserved : kReservedWords) {
    if (upper == reserved) return true;
  }
  return false;
}

}  // namespace hirel
