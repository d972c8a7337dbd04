#include "hql/lexer.h"

#include <cctype>
#include <cstdlib>

#include "common/str_util.h"

namespace hirel {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentBody(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view source) {
  std::vector<Token> tokens;
  size_t pos = 0;
  size_t line = 1;
  size_t column = 1;

  auto advance = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (pos < source.size() && source[pos] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
      ++pos;
    }
  };

  while (pos < source.size()) {
    char c = source[pos];
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }
    // Comment: -- to end of line.
    if (c == '-' && pos + 1 < source.size() && source[pos + 1] == '-') {
      while (pos < source.size() && source[pos] != '\n') advance(1);
      continue;
    }

    Token token;
    token.line = line;
    token.column = column;

    if (IsIdentStart(c)) {
      size_t start = pos;
      // Dots join qualified names (sys.metrics, cache.patched) into one
      // identifier, but only when another identifier character follows, so
      // a sentence-ending dot is left to the punctuation error path.
      while (pos < source.size() &&
             (IsIdentBody(source[pos]) ||
              (source[pos] == '.' && pos + 1 < source.size() &&
               IsIdentBody(source[pos + 1])))) {
        advance(1);
      }
      std::string word(source.substr(start, pos - start));
      if (IsReservedWord(word)) {
        token.type = TokenType::kKeyword;
        for (char& ch : word) ch = static_cast<char>(std::toupper(ch));
        token.text = std::move(word);
      } else {
        token.type = TokenType::kIdentifier;
        token.text = std::move(word);
      }
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && pos + 1 < source.size() &&
                std::isdigit(static_cast<unsigned char>(source[pos + 1])))) {
      size_t start = pos;
      if (c == '-') advance(1);
      bool is_float = false;
      while (pos < source.size() &&
             (std::isdigit(static_cast<unsigned char>(source[pos])) ||
              source[pos] == '.')) {
        if (source[pos] == '.') {
          if (is_float) break;  // second dot terminates the number
          is_float = true;
        }
        advance(1);
      }
      std::string text(source.substr(start, pos - start));
      if (is_float) {
        token.type = TokenType::kFloat;
        token.float_value = std::strtod(text.c_str(), nullptr);
      } else {
        token.type = TokenType::kInteger;
        token.int_value = std::strtoll(text.c_str(), nullptr, 10);
      }
      token.text = std::move(text);
    } else if (c == '\'' || c == '"') {
      char quote = c;
      advance(1);
      size_t start = pos;
      while (pos < source.size() && source[pos] != quote) advance(1);
      if (pos >= source.size()) {
        return Status::ParseError(
            StrCat("line ", token.line, ":", token.column,
                   ": unterminated string literal"));
      }
      token.type = TokenType::kString;
      token.text = std::string(source.substr(start, pos - start));
      advance(1);  // closing quote
    } else if (c == '<' || c == '>') {
      // Comparison operators for alert thresholds: < > <= >=.
      const bool has_eq = pos + 1 < source.size() && source[pos + 1] == '=';
      if (c == '<') {
        token.type = has_eq ? TokenType::kLessEq : TokenType::kLess;
      } else {
        token.type = has_eq ? TokenType::kGreaterEq : TokenType::kGreater;
      }
      token.text = has_eq ? std::string{c, '='} : std::string(1, c);
      advance(has_eq ? 2 : 1);
    } else {
      switch (c) {
        case '(':
          token.type = TokenType::kLeftParen;
          break;
        case ')':
          token.type = TokenType::kRightParen;
          break;
        case ',':
          token.type = TokenType::kComma;
          break;
        case ';':
          token.type = TokenType::kSemicolon;
          break;
        case ':':
          token.type = TokenType::kColon;
          break;
        case '=':
          token.type = TokenType::kEquals;
          break;
        case '*':
          token.type = TokenType::kStar;
          break;
        default:
          return Status::ParseError(StrCat("line ", line, ":", column,
                                           ": unexpected character '", c,
                                           "'"));
      }
      token.text = std::string(1, c);
      advance(1);
    }
    tokens.push_back(std::move(token));
  }

  Token end;
  end.type = TokenType::kEnd;
  end.line = line;
  end.column = column;
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace hirel
