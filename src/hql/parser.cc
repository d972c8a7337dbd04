#include "hql/parser.h"

#include "common/str_util.h"
#include "hql/lexer.h"

namespace hirel {
namespace hql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::vector<Statement>> Parse(std::vector<std::string>* texts) {
    std::vector<Statement> statements;
    while (!Check(TokenType::kEnd)) {
      size_t begin = pos_;
      HIREL_ASSIGN_OR_RETURN(Statement stmt, ParseStatement());
      if (texts != nullptr) texts->push_back(SourceText(begin, pos_));
      statements.push_back(std::move(stmt));
      HIREL_RETURN_IF_ERROR(Expect(TokenType::kSemicolon).status());
    }
    return statements;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Check(TokenType type) const { return Peek().type == type; }
  bool CheckKeyword(const char* kw) const { return Peek().IsKeyword(kw); }

  bool AcceptKeyword(const char* kw) {
    if (CheckKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  // Statement words that are deliberately NOT reserved (ALERT, HEALTH,
  // WAITS, ...) so user identifiers keep working — same treatment as OFF
  // in SET ... OFF. Matched case-insensitively against identifiers.
  bool CheckName(const char* word) const {
    return Check(TokenType::kIdentifier) &&
           EqualsIgnoreCase(Peek().text, word);
  }

  bool AcceptName(const char* word) {
    if (CheckName(word)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Error(const std::string& message) const {
    const Token& t = Peek();
    return Status::ParseError(
        StrCat("line ", t.line, ":", t.column, ": ", message, " (found ",
               t.ToString(), ")"));
  }

  Result<Token> Expect(TokenType type) {
    if (!Check(type)) {
      return Error(StrCat("expected ", TokenTypeToString(type)));
    }
    return Advance();
  }

  Result<Token> ExpectKeyword(const char* kw) {
    if (!CheckKeyword(kw)) {
      return Error(StrCat("expected ", kw));
    }
    return Advance();
  }

  Result<std::string> ExpectIdentifier() {
    if (!Check(TokenType::kIdentifier)) {
      return Error("expected identifier");
    }
    return Advance().text;
  }

  Result<std::string> ExpectStringLiteral() {
    if (!Check(TokenType::kString)) {
      return Error("expected quoted string");
    }
    return Advance().text;
  }

  /// Approximate source text of the token range [begin, end): good enough
  /// for echoing a statement back in EXPLAIN PLAN output.
  std::string SourceText(size_t begin, size_t end) const {
    std::string out;
    for (size_t i = begin; i < end && i < tokens_.size(); ++i) {
      const Token& t = tokens_[i];
      std::string piece;
      switch (t.type) {
        case TokenType::kString:
          piece = StrCat("'", t.text, "'");
          break;
        case TokenType::kLeftParen:
          piece = "(";
          break;
        case TokenType::kRightParen:
          piece = ")";
          break;
        case TokenType::kComma:
          piece = ",";
          break;
        case TokenType::kColon:
          piece = ":";
          break;
        case TokenType::kEquals:
          piece = "=";
          break;
        case TokenType::kStar:
          piece = "*";
          break;
        default:
          piece = t.text;
          break;
      }
      bool no_space_before = piece == ")" || piece == "," || piece == ":";
      bool prev_open = !out.empty() && out.back() == '(';
      if (!out.empty() && !no_space_before && !prev_open) out += " ";
      out += piece;
    }
    return out;
  }

  Result<std::vector<std::string>> ParseIdentifierList() {
    std::vector<std::string> names;
    HIREL_ASSIGN_OR_RETURN(std::string first, ExpectIdentifier());
    names.push_back(std::move(first));
    while (Check(TokenType::kComma)) {
      Advance();
      HIREL_ASSIGN_OR_RETURN(std::string next, ExpectIdentifier());
      names.push_back(std::move(next));
    }
    return names;
  }

  Result<Term> ParseTerm() {
    Term term;
    if (AcceptKeyword("ALL")) {
      term.kind = Term::Kind::kAll;
      HIREL_ASSIGN_OR_RETURN(term.name, ExpectIdentifier());
      return term;
    }
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kIdentifier:
        term.kind = Term::Kind::kName;
        term.name = Advance().text;
        return term;
      case TokenType::kString:
        term.kind = Term::Kind::kLiteral;
        term.literal = Value::String(Advance().text);
        return term;
      case TokenType::kInteger:
        term.kind = Term::Kind::kLiteral;
        term.literal = Value::Int(Advance().int_value);
        return term;
      case TokenType::kFloat:
        term.kind = Term::Kind::kLiteral;
        term.literal = Value::Double(Advance().float_value);
        return term;
      default:
        return Error("expected a term (ALL class, name, or literal)");
    }
  }

  Result<std::vector<Term>> ParseTermTuple() {
    HIREL_RETURN_IF_ERROR(Expect(TokenType::kLeftParen).status());
    std::vector<Term> terms;
    HIREL_ASSIGN_OR_RETURN(Term first, ParseTerm());
    terms.push_back(std::move(first));
    while (Check(TokenType::kComma)) {
      Advance();
      HIREL_ASSIGN_OR_RETURN(Term next, ParseTerm());
      terms.push_back(std::move(next));
    }
    HIREL_RETURN_IF_ERROR(Expect(TokenType::kRightParen).status());
    return terms;
  }

  Result<Statement> ParseCreate() {
    if (AcceptName("ALERT")) {
      CreateAlertStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier());
      HIREL_RETURN_IF_ERROR(ExpectKeyword("ON").status());
      HIREL_ASSIGN_OR_RETURN(stmt.metric, ExpectIdentifier());
      switch (Peek().type) {
        case TokenType::kGreater:
        case TokenType::kLess:
        case TokenType::kGreaterEq:
        case TokenType::kLessEq:
        case TokenType::kEquals:
          stmt.op = Advance().text;
          break;
        default:
          return Error("CREATE ALERT expects an operator (> < >= <= =)");
      }
      if (Peek().type != TokenType::kInteger) {
        return Error("CREATE ALERT expects an integer threshold");
      }
      stmt.threshold = Advance().int_value;
      if (AcceptName("FOR")) {
        if (Peek().type != TokenType::kInteger || Peek().int_value < 1) {
          return Error("FOR expects a positive sample count");
        }
        stmt.for_samples = Advance().int_value;
        if (!AcceptName("SAMPLES") && !AcceptName("SAMPLE")) {
          return Error("expected SAMPLES after FOR n");
        }
      }
      if (AcceptName("SEVERITY")) {
        HIREL_ASSIGN_OR_RETURN(stmt.severity, ExpectIdentifier());
      }
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("HIERARCHY")) {
      CreateHierarchyStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier());
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("CLASS")) {
      CreateClassStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier());
      HIREL_RETURN_IF_ERROR(ExpectKeyword("IN").status());
      HIREL_ASSIGN_OR_RETURN(stmt.hierarchy, ExpectIdentifier());
      if (AcceptKeyword("UNDER")) {
        HIREL_ASSIGN_OR_RETURN(stmt.parents, ParseIdentifierList());
      }
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("INSTANCE")) {
      CreateInstanceStmt stmt;
      const Token& t = Peek();
      switch (t.type) {
        case TokenType::kIdentifier:
          stmt.value = Value::String(Advance().text);
          break;
        case TokenType::kString:
          stmt.value = Value::String(Advance().text);
          break;
        case TokenType::kInteger:
          stmt.value = Value::Int(Advance().int_value);
          break;
        case TokenType::kFloat:
          stmt.value = Value::Double(Advance().float_value);
          break;
        default:
          return Error("expected an instance value");
      }
      HIREL_RETURN_IF_ERROR(ExpectKeyword("IN").status());
      HIREL_ASSIGN_OR_RETURN(stmt.hierarchy, ExpectIdentifier());
      if (AcceptKeyword("UNDER")) {
        HIREL_ASSIGN_OR_RETURN(stmt.parents, ParseIdentifierList());
      }
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("RELATION")) {
      std::string name;
      HIREL_ASSIGN_OR_RETURN(name, ExpectIdentifier());
      if (AcceptKeyword("AS")) {
        if (AcceptKeyword("PROJECT")) {
          CreateProjectStmt stmt;
          stmt.name = std::move(name);
          HIREL_ASSIGN_OR_RETURN(stmt.source, ExpectIdentifier());
          HIREL_RETURN_IF_ERROR(ExpectKeyword("ON").status());
          HIREL_RETURN_IF_ERROR(Expect(TokenType::kLeftParen).status());
          HIREL_ASSIGN_OR_RETURN(stmt.attributes, ParseIdentifierList());
          HIREL_RETURN_IF_ERROR(Expect(TokenType::kRightParen).status());
          return Statement(std::move(stmt));
        }
        CreateAsStmt stmt;
        stmt.name = std::move(name);
        HIREL_ASSIGN_OR_RETURN(stmt.left, ExpectIdentifier());
        if (AcceptKeyword("UNION")) {
          stmt.op = CreateAsStmt::Op::kUnion;
        } else if (AcceptKeyword("INTERSECT")) {
          stmt.op = CreateAsStmt::Op::kIntersect;
        } else if (AcceptKeyword("EXCEPT")) {
          stmt.op = CreateAsStmt::Op::kExcept;
        } else if (AcceptKeyword("JOIN")) {
          stmt.op = CreateAsStmt::Op::kJoin;
        } else {
          return Error("expected UNION, INTERSECT, EXCEPT, or JOIN");
        }
        HIREL_ASSIGN_OR_RETURN(stmt.right, ExpectIdentifier());
        return Statement(std::move(stmt));
      }
      CreateRelationStmt stmt;
      stmt.name = std::move(name);
      HIREL_RETURN_IF_ERROR(Expect(TokenType::kLeftParen).status());
      while (true) {
        HIREL_ASSIGN_OR_RETURN(std::string attr, ExpectIdentifier());
        HIREL_RETURN_IF_ERROR(Expect(TokenType::kColon).status());
        HIREL_ASSIGN_OR_RETURN(std::string hierarchy, ExpectIdentifier());
        stmt.attributes.emplace_back(std::move(attr), std::move(hierarchy));
        if (!Check(TokenType::kComma)) break;
        Advance();
      }
      HIREL_RETURN_IF_ERROR(Expect(TokenType::kRightParen).status());
      return Statement(std::move(stmt));
    }
    return Error("expected HIERARCHY, CLASS, INSTANCE, or RELATION");
  }

  Result<Statement> ParseStatement() {
    if (AcceptKeyword("CREATE")) return ParseCreate();
    if (AcceptKeyword("CONNECT")) {
      ConnectStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.parent, ExpectIdentifier());
      HIREL_RETURN_IF_ERROR(ExpectKeyword("TO").status());
      HIREL_ASSIGN_OR_RETURN(stmt.child, ExpectIdentifier());
      HIREL_RETURN_IF_ERROR(ExpectKeyword("IN").status());
      HIREL_ASSIGN_OR_RETURN(stmt.hierarchy, ExpectIdentifier());
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("PREFER")) {
      PreferStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.stronger, ExpectIdentifier());
      HIREL_RETURN_IF_ERROR(ExpectKeyword("OVER").status());
      HIREL_ASSIGN_OR_RETURN(stmt.weaker, ExpectIdentifier());
      HIREL_RETURN_IF_ERROR(ExpectKeyword("IN").status());
      HIREL_ASSIGN_OR_RETURN(stmt.hierarchy, ExpectIdentifier());
      return Statement(std::move(stmt));
    }
    if (CheckKeyword("ASSERT") || CheckKeyword("DENY") ||
        CheckKeyword("RETRACT")) {
      FactStmt stmt;
      if (AcceptKeyword("ASSERT")) {
        stmt.kind = FactStmt::Kind::kAssert;
      } else if (AcceptKeyword("DENY")) {
        stmt.kind = FactStmt::Kind::kDeny;
      } else {
        Advance();
        stmt.kind = FactStmt::Kind::kRetract;
      }
      HIREL_ASSIGN_OR_RETURN(stmt.relation, ExpectIdentifier());
      HIREL_ASSIGN_OR_RETURN(stmt.terms, ParseTermTuple());
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("SELECT")) {
      SelectStmt stmt;
      HIREL_RETURN_IF_ERROR(Expect(TokenType::kStar).status());
      HIREL_RETURN_IF_ERROR(ExpectKeyword("FROM").status());
      HIREL_ASSIGN_OR_RETURN(stmt.relation, ExpectIdentifier());
      if (AcceptKeyword("JOIN")) {
        stmt.source_op = SelectStmt::SourceOp::kJoin;
      } else if (AcceptKeyword("UNION")) {
        stmt.source_op = SelectStmt::SourceOp::kUnion;
      } else if (AcceptKeyword("INTERSECT")) {
        stmt.source_op = SelectStmt::SourceOp::kIntersect;
      } else if (AcceptKeyword("EXCEPT")) {
        stmt.source_op = SelectStmt::SourceOp::kExcept;
      }
      if (stmt.source_op != SelectStmt::SourceOp::kNone) {
        HIREL_ASSIGN_OR_RETURN(stmt.right, ExpectIdentifier());
      }
      if (AcceptKeyword("WHERE")) {
        stmt.has_where = true;
        HIREL_ASSIGN_OR_RETURN(stmt.attribute, ExpectIdentifier());
        HIREL_RETURN_IF_ERROR(Expect(TokenType::kEquals).status());
        HIREL_ASSIGN_OR_RETURN(stmt.term, ParseTerm());
      }
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("EXPLAIN")) {
      if (CheckKeyword("PLAN") || CheckKeyword("ANALYZE")) {
        ExplainPlanStmt stmt;
        stmt.analyze = AcceptKeyword("ANALYZE");
        if (!stmt.analyze) Advance();  // PLAN
        size_t begin = pos_;
        HIREL_ASSIGN_OR_RETURN(Statement inner, ParseStatement());
        stmt.query = std::make_shared<StatementBox>();
        stmt.query->statement = std::move(inner);
        stmt.text = SourceText(begin, pos_);
        return Statement(std::move(stmt));
      }
      ExplainStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.relation, ExpectIdentifier());
      HIREL_ASSIGN_OR_RETURN(stmt.terms, ParseTermTuple());
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("CONSOLIDATE")) {
      ConsolidateStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.relation, ExpectIdentifier());
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("EXPLICATE")) {
      ExplicateStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.relation, ExpectIdentifier());
      if (AcceptKeyword("ON")) {
        HIREL_RETURN_IF_ERROR(Expect(TokenType::kLeftParen).status());
        HIREL_ASSIGN_OR_RETURN(stmt.attributes, ParseIdentifierList());
        HIREL_RETURN_IF_ERROR(Expect(TokenType::kRightParen).status());
      }
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("EXTENSION")) {
      ExtensionStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.relation, ExpectIdentifier());
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("SHOW")) {
      ShowStmt stmt;
      if (AcceptKeyword("HIERARCHY")) {
        stmt.what = ShowStmt::What::kHierarchy;
        HIREL_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier());
      } else if (AcceptKeyword("RELATION")) {
        stmt.what = ShowStmt::What::kRelation;
        HIREL_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier());
      } else if (AcceptKeyword("HIERARCHIES")) {
        stmt.what = ShowStmt::What::kHierarchies;
      } else if (AcceptKeyword("RELATIONS")) {
        stmt.what = ShowStmt::What::kRelations;
      } else if (AcceptKeyword("RULES")) {
        stmt.what = ShowStmt::What::kRules;
      } else if (AcceptKeyword("SUBSUMPTION")) {
        stmt.what = ShowStmt::What::kSubsumption;
        HIREL_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier());
      } else if (AcceptKeyword("METRICS")) {
        stmt.what = ShowStmt::What::kMetrics;
        stmt.json = AcceptKeyword("JSON");
        if (!stmt.json) stmt.prometheus = AcceptKeyword("PROMETHEUS");
      } else if (AcceptKeyword("TRACE")) {
        stmt.what = ShowStmt::What::kTrace;
        stmt.json = AcceptKeyword("JSON");
      } else if (AcceptKeyword("LOG")) {
        stmt.what = ShowStmt::What::kLog;
        stmt.json = AcceptKeyword("JSON");
      } else if (AcceptKeyword("STORAGE")) {
        stmt.what = ShowStmt::What::kStorage;
        stmt.json = AcceptKeyword("JSON");
      } else if (AcceptKeyword("QUERIES")) {
        stmt.what = ShowStmt::What::kQueries;
        stmt.json = AcceptKeyword("JSON");
      } else if (AcceptKeyword("TELEMETRY")) {
        stmt.what = ShowStmt::What::kTelemetry;
        stmt.json = AcceptKeyword("JSON");
      } else if (AcceptName("ALERTS")) {
        stmt.what = ShowStmt::What::kAlerts;
        stmt.json = AcceptKeyword("JSON");
      } else if (AcceptName("HEALTH")) {
        stmt.what = ShowStmt::What::kHealth;
        stmt.json = AcceptKeyword("JSON");
      } else if (AcceptName("WAITS")) {
        stmt.what = ShowStmt::What::kWaits;
        stmt.json = AcceptKeyword("JSON");
      } else if (AcceptKeyword("BINDING")) {
        ShowBindingStmt binding;
        HIREL_ASSIGN_OR_RETURN(binding.relation, ExpectIdentifier());
        HIREL_ASSIGN_OR_RETURN(binding.terms, ParseTermTuple());
        return Statement(std::move(binding));
      } else {
        return Error(
            "expected HIERARCHY, RELATION, HIERARCHIES, RELATIONS, RULES, "
            "METRICS, TRACE, LOG, STORAGE, QUERIES, TELEMETRY, ALERTS, "
            "HEALTH, or WAITS");
      }
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("DROP")) {
      if (AcceptName("ALERT")) {
        DropAlertStmt stmt;
        HIREL_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier());
        return Statement(std::move(stmt));
      }
      if (CheckKeyword("CLASS") || CheckKeyword("INSTANCE")) {
        EliminateStmt stmt;
        if (AcceptKeyword("CLASS")) {
          stmt.node.kind = Term::Kind::kAll;
          HIREL_ASSIGN_OR_RETURN(stmt.node.name, ExpectIdentifier());
        } else {
          Advance();
          HIREL_ASSIGN_OR_RETURN(stmt.node, ParseTerm());
        }
        HIREL_RETURN_IF_ERROR(ExpectKeyword("IN").status());
        HIREL_ASSIGN_OR_RETURN(stmt.hierarchy, ExpectIdentifier());
        return Statement(std::move(stmt));
      }
      DropStmt stmt;
      if (AcceptKeyword("HIERARCHY")) {
        stmt.hierarchy = true;
      } else if (AcceptKeyword("RELATION")) {
        stmt.hierarchy = false;
      } else {
        return Error(
            "expected HIERARCHY, RELATION, CLASS, or INSTANCE");
      }
      HIREL_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier());
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("SAVE")) {
      SaveStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.path, ExpectStringLiteral());
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("LOAD")) {
      LoadStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.path, ExpectStringLiteral());
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("HELP")) {
      return Statement(HelpStmt{});
    }
    if (AcceptKeyword("COMPRESS")) {
      CompressStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.relation, ExpectIdentifier());
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("BEGIN")) {
      BeginStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.relation, ExpectIdentifier());
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("COMMIT")) {
      return Statement(CommitStmt{});
    }
    if (AcceptKeyword("ABORT")) {
      return Statement(AbortStmt{});
    }
    if (AcceptKeyword("RULE")) {
      RuleStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.text, ExpectStringLiteral());
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("DERIVE")) {
      return Statement(DeriveStmt{});
    }
    if (AcceptKeyword("COUNT")) {
      CountStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.relation, ExpectIdentifier());
      if (AcceptKeyword("BY")) {
        stmt.by_attribute = true;
        HIREL_ASSIGN_OR_RETURN(stmt.attribute, ExpectIdentifier());
      }
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("RESET")) {
      HIREL_RETURN_IF_ERROR(ExpectKeyword("METRICS").status());
      return Statement(ResetMetricsStmt{});
    }
    if (AcceptKeyword("SET")) {
      if (AcceptKeyword("SLOW_QUERY_MS")) {
        SetSlowQueryStmt stmt;
        if (Check(TokenType::kInteger)) {
          stmt.threshold_ms = Advance().int_value;
        } else if (Check(TokenType::kIdentifier) &&
                   EqualsIgnoreCase(Peek().text, "off")) {
          Advance();
          stmt.threshold_ms = -1;
        } else {
          return Error("SET SLOW_QUERY_MS expects an integer or OFF");
        }
        return Statement(stmt);
      }
      if (AcceptKeyword("LOG")) {
        SetLogStmt stmt;
        HIREL_ASSIGN_OR_RETURN(stmt.level, ExpectIdentifier());
        return Statement(std::move(stmt));
      }
      if (AcceptKeyword("TELEMETRY")) {
        SetTelemetryStmt stmt;
        if (AcceptKeyword("ON")) {
          stmt.mode = SetTelemetryStmt::Mode::kOn;
        } else if (Check(TokenType::kIdentifier) &&
                   EqualsIgnoreCase(Peek().text, "off")) {
          // OFF is not a reserved word (same treatment as SLOW_QUERY_MS).
          Advance();
          stmt.mode = SetTelemetryStmt::Mode::kOff;
        } else if (AcceptKeyword("INTERVAL")) {
          if (Peek().type != TokenType::kInteger) {
            return Error("SET TELEMETRY INTERVAL expects an integer (ms)");
          }
          stmt.mode = SetTelemetryStmt::Mode::kInterval;
          stmt.interval_ms = Advance().int_value;
        } else if (AcceptName("TICK")) {
          stmt.mode = SetTelemetryStmt::Mode::kTick;
        } else {
          return Error("SET TELEMETRY expects ON, OFF, INTERVAL n, or TICK");
        }
        return Statement(stmt);
      }
      if (AcceptName("DIAGNOSTICS_DIR")) {
        SetDiagnosticsDirStmt stmt;
        if (Check(TokenType::kString)) {
          stmt.dir = Advance().text;
          if (stmt.dir.empty()) {
            return Error("SET DIAGNOSTICS_DIR expects a non-empty path");
          }
        } else if (AcceptName("OFF")) {
          stmt.dir.clear();
        } else {
          return Error("SET DIAGNOSTICS_DIR expects a quoted path or OFF");
        }
        return Statement(std::move(stmt));
      }
      if (AcceptName("WATCHDOG_QUERY_MS")) {
        SetWatchdogStmt stmt;
        if (Check(TokenType::kInteger)) {
          stmt.query_budget_ms = Advance().int_value;
        } else if (AcceptName("OFF")) {
          stmt.query_budget_ms = -1;
        } else {
          return Error("SET WATCHDOG_QUERY_MS expects an integer or OFF");
        }
        return Statement(stmt);
      }
      HIREL_RETURN_IF_ERROR(ExpectKeyword("PREEMPTION").status());
      SetPreemptionStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.mode, ExpectIdentifier());
      return Statement(std::move(stmt));
    }
    if (AcceptKeyword("EXPORT")) {
      if (AcceptName("DIAGNOSTICS")) {
        ExportDiagnosticsStmt stmt;
        HIREL_ASSIGN_OR_RETURN(stmt.path, ExpectStringLiteral());
        return Statement(std::move(stmt));
      }
      HIREL_RETURN_IF_ERROR(ExpectKeyword("TRACE").status());
      ExportTraceStmt stmt;
      HIREL_ASSIGN_OR_RETURN(stmt.path, ExpectStringLiteral());
      return Statement(std::move(stmt));
    }
    return Error("expected a statement");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::vector<Statement>> ParseScript(std::string_view source,
                                           std::vector<std::string>* texts) {
  HIREL_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return ParseTokens(std::move(tokens), texts);
}

Result<std::vector<Statement>> ParseTokens(std::vector<Token> tokens,
                                           std::vector<std::string>* texts) {
  Parser parser(std::move(tokens));
  return parser.Parse(texts);
}

}  // namespace hql
}  // namespace hirel
