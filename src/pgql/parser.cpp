#include "pgql/parser.h"

#include <algorithm>
#include <cctype>
#include <string>

#include "common/error.h"
#include "pgql/lexer.h"

namespace rpqd::pgql {

namespace {

std::string upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : tokens_(tokenize(text)) {}

  Query parse_query() {
    Query q;
    while (is_keyword("PATH")) {
      q.path_macros.push_back(parse_path_macro());
    }
    expect_keyword("SELECT");
    parse_select_list(q);
    expect_keyword("FROM");
    expect_keyword("MATCH");
    q.match.push_back(parse_chain());
    while (accept(TokenKind::kComma)) {
      q.match.push_back(parse_chain());
    }
    if (is_keyword("WHERE")) {
      advance();
      q.where = parse_expr();
    }
    if (is_keyword("GROUP")) {
      advance();
      expect_keyword("BY");
      do {
        q.group_by.push_back(parse_expr());
      } while (accept(TokenKind::kComma));
    }
    expect(TokenKind::kEnd);
    fold_count_star(q);
    return q;
  }

  ExprPtr parse_standalone_expr() {
    auto e = parse_expr();
    expect(TokenKind::kEnd);
    return e;
  }

 private:
  // ----------------------------------------------------------- plumbing --
  const Token& peek(std::size_t ahead = 0) const {
    const auto idx = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[idx];
  }

  const Token& advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  bool accept(TokenKind kind) {
    if (peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }

  const Token& expect(TokenKind kind) {
    if (peek().kind != kind) {
      fail(std::string("expected '") + to_string(kind) + "', found '" +
           describe(peek()) + "'");
    }
    return tokens_[pos_++];
  }

  bool is_keyword(const char* kw) const {
    return peek().kind == TokenKind::kIdent && upper(peek().text) == kw;
  }

  void expect_keyword(const char* kw) {
    if (!is_keyword(kw)) {
      fail(std::string("expected keyword ") + kw + ", found '" +
           describe(peek()) + "'");
    }
    ++pos_;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw QueryError("parse error at offset " +
                     std::to_string(peek().offset) + ": " + what);
  }

  static std::string describe(const Token& t) {
    if (t.kind == TokenKind::kIdent || t.kind == TokenKind::kString) {
      return t.text;
    }
    return to_string(t.kind);
  }

  std::string fresh_anonymous() { return "_anon" + std::to_string(anon_++); }

  // ------------------------------------------------------------ queries --
  PathMacro parse_path_macro() {
    expect_keyword("PATH");
    PathMacro macro;
    macro.name = expect(TokenKind::kIdent).text;
    expect_keyword("AS");
    macro.pattern = parse_chain();
    if (is_keyword("WHERE")) {
      advance();
      macro.where = parse_expr();
    }
    return macro;
  }

  std::optional<AggKind> peek_aggregate() const {
    if (peek().kind != TokenKind::kIdent ||
        peek(1).kind != TokenKind::kLParen) {
      return std::nullopt;
    }
    const std::string word = upper(peek().text);
    if (word == "COUNT") return AggKind::kCount;
    if (word == "SUM") return AggKind::kSum;
    if (word == "MIN") return AggKind::kMin;
    if (word == "MAX") return AggKind::kMax;
    if (word == "AVG") return AggKind::kAvg;
    return std::nullopt;
  }

  void parse_select_list(Query& q) {
    do {
      SelectItem item;
      if (const auto agg = peek_aggregate()) {
        item.agg = *agg;
        advance();  // function name
        advance();  // '('
        if (item.agg == AggKind::kCount && accept(TokenKind::kStar)) {
          // COUNT(*): no operand.
        } else {
          item.expr = parse_expr();
        }
        expect(TokenKind::kRParen);
      } else {
        item.expr = parse_expr();
      }
      if (is_keyword("AS")) {
        advance();
        item.alias = expect(TokenKind::kIdent).text;
      } else if (item.expr != nullptr) {
        item.alias = to_text(*item.expr);
      } else {
        item.alias = "count";
      }
      q.select.push_back(std::move(item));
    } while (accept(TokenKind::kComma));
  }

  // A bare COUNT(*) without GROUP BY compiles to the count_star fast
  // path; with GROUP BY it must stay an aggregate so the grouping is
  // validated. Called after the whole query is parsed.
  static void fold_count_star(Query& q) {
    if (q.group_by.empty() && q.select.size() == 1 &&
        q.select[0].agg == AggKind::kCount && q.select[0].expr == nullptr) {
      q.count_star = true;
      q.select.clear();
    }
  }

  // ----------------------------------------------------------- patterns --
  PatternChain parse_chain() {
    PatternChain chain;
    chain.src = parse_vertex();
    while (peek().kind == TokenKind::kMinus ||
           (peek().kind == TokenKind::kLt &&
            peek(1).kind == TokenKind::kMinus)) {
      PatternHop hop;
      hop.edge = parse_edge();
      hop.dst = parse_vertex();
      chain.hops.push_back(std::move(hop));
    }
    return chain;
  }

  VertexPattern parse_vertex() {
    expect(TokenKind::kLParen);
    VertexPattern v;
    if (peek().kind == TokenKind::kIdent) {
      v.var = advance().text;
    }
    if (accept(TokenKind::kColon)) {
      v.labels.push_back(expect(TokenKind::kIdent).text);
      while (accept(TokenKind::kPipe)) {
        v.labels.push_back(expect(TokenKind::kIdent).text);
      }
    }
    if (v.var.empty()) v.var = fresh_anonymous();
    expect(TokenKind::kRParen);
    return v;
  }

  // Parses the `[e:Label|Label2]` bracket body (both parts optional).
  void parse_bracket_body(EdgePattern& e) {
    if (peek().kind == TokenKind::kIdent) {
      // Edge variable: referencing it in WHERE binds to the traversed
      // edge's properties.
      e.var = advance().text;
    }
    if (accept(TokenKind::kColon)) {
      e.labels.push_back(expect(TokenKind::kIdent).text);
      while (accept(TokenKind::kPipe)) {
        e.labels.push_back(expect(TokenKind::kIdent).text);
      }
    }
  }

  // Parses `:name|name2 quant?` between the slashes of an RPQ segment.
  void parse_rpq_body(EdgePattern& e) {
    e.is_rpq = true;
    expect(TokenKind::kColon);
    std::vector<std::string> names;
    names.push_back(expect(TokenKind::kIdent).text);
    while (accept(TokenKind::kPipe)) {
      names.push_back(expect(TokenKind::kIdent).text);
    }
    if (names.size() == 1) {
      e.path_name = names[0];  // macro or label; resolved at planning
    } else {
      e.labels = std::move(names);  // label alternation
    }
    e.quantifier = parse_quantifier();
  }

  Quantifier parse_quantifier() {
    Quantifier q;
    if (accept(TokenKind::kStar)) {
      q.min = 0;
      q.max = kUnboundedDepth;
      if (peek().kind == TokenKind::kLBrace) {
        // PGQL also allows *{n,m}: the braces refine the star.
        q = parse_brace_quantifier();
      }
      return q;
    }
    if (accept(TokenKind::kPlus)) {
      q.min = 1;
      q.max = kUnboundedDepth;
      return q;
    }
    if (accept(TokenKind::kQuestion)) {
      q.min = 0;
      q.max = 1;
      return q;
    }
    if (peek().kind == TokenKind::kLBrace) {
      return parse_brace_quantifier();
    }
    // No quantifier: exactly one repetition.
    return q;
  }

  Quantifier parse_brace_quantifier() {
    expect(TokenKind::kLBrace);
    Quantifier q;
    q.min = static_cast<Depth>(expect(TokenKind::kInt).int_value);
    if (accept(TokenKind::kComma)) {
      if (peek().kind == TokenKind::kInt) {
        q.max = static_cast<Depth>(advance().int_value);
      } else {
        q.max = kUnboundedDepth;
      }
    } else {
      q.max = q.min;
    }
    if (q.max != kUnboundedDepth && q.max < q.min) {
      fail("quantifier max is below min");
    }
    expect(TokenKind::kRBrace);
    return q;
  }

  EdgePattern parse_edge() {
    EdgePattern e;
    if (peek().kind == TokenKind::kLt) {
      // `<-` prefix: incoming edge.
      advance();
      expect(TokenKind::kMinus);
      e.dir = Direction::kIn;
      if (accept(TokenKind::kSlash)) {
        parse_rpq_body(e);
        expect(TokenKind::kSlash);
        expect(TokenKind::kMinus);
      } else if (accept(TokenKind::kLBracket)) {
        parse_bracket_body(e);
        expect(TokenKind::kRBracket);
        expect(TokenKind::kMinus);
      }
      // else: plain `<-`, vertex follows.
      return e;
    }
    expect(TokenKind::kMinus);
    if (accept(TokenKind::kGt)) {
      e.dir = Direction::kOut;  // plain `->`
      return e;
    }
    if (accept(TokenKind::kSlash)) {
      parse_rpq_body(e);
      expect(TokenKind::kSlash);
      expect(TokenKind::kMinus);
      e.dir = accept(TokenKind::kGt) ? Direction::kOut : Direction::kBoth;
      return e;
    }
    if (accept(TokenKind::kLBracket)) {
      parse_bracket_body(e);
      expect(TokenKind::kRBracket);
      expect(TokenKind::kMinus);
      e.dir = accept(TokenKind::kGt) ? Direction::kOut : Direction::kBoth;
      return e;
    }
    e.dir = Direction::kBoth;  // plain `-`
    return e;
  }

  // -------------------------------------------------------- expressions --
  ExprPtr parse_expr() { return parse_or(); }

  ExprPtr parse_or() {
    auto lhs = parse_and();
    while (is_keyword("OR")) {
      advance();
      lhs = make_binary(BinOp::kOr, std::move(lhs), parse_and());
    }
    return lhs;
  }

  ExprPtr parse_and() {
    auto lhs = parse_not();
    while (is_keyword("AND")) {
      advance();
      lhs = make_binary(BinOp::kAnd, std::move(lhs), parse_not());
    }
    return lhs;
  }

  ExprPtr parse_not() {
    if (is_keyword("NOT")) {
      advance();
      return make_unary(UnOp::kNot, parse_not());
    }
    return parse_comparison();
  }

  ExprPtr parse_comparison() {
    auto lhs = parse_additive();
    const auto op = [&]() -> std::optional<BinOp> {
      switch (peek().kind) {
        case TokenKind::kEq: return BinOp::kEq;
        case TokenKind::kNe: return BinOp::kNe;
        case TokenKind::kLt: return BinOp::kLt;
        case TokenKind::kLe: return BinOp::kLe;
        case TokenKind::kGt: return BinOp::kGt;
        case TokenKind::kGe: return BinOp::kGe;
        default: return std::nullopt;
      }
    }();
    if (!op) return lhs;
    advance();
    return make_binary(*op, std::move(lhs), parse_additive());
  }

  ExprPtr parse_additive() {
    auto lhs = parse_multiplicative();
    while (true) {
      if (accept(TokenKind::kPlus)) {
        lhs = make_binary(BinOp::kAdd, std::move(lhs), parse_multiplicative());
      } else if (accept(TokenKind::kMinus)) {
        lhs = make_binary(BinOp::kSub, std::move(lhs), parse_multiplicative());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_multiplicative() {
    auto lhs = parse_unary();
    while (true) {
      if (accept(TokenKind::kStar)) {
        lhs = make_binary(BinOp::kMul, std::move(lhs), parse_unary());
      } else if (accept(TokenKind::kSlash)) {
        lhs = make_binary(BinOp::kDiv, std::move(lhs), parse_unary());
      } else if (accept(TokenKind::kPercent)) {
        lhs = make_binary(BinOp::kMod, std::move(lhs), parse_unary());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_unary() {
    if (accept(TokenKind::kMinus)) {
      return make_unary(UnOp::kNeg, parse_unary());
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::kInt: {
        advance();
        return make_int(t.int_value);
      }
      case TokenKind::kDouble: {
        advance();
        return make_double(t.double_value);
      }
      case TokenKind::kString: {
        advance();
        return make_string(t.text);
      }
      case TokenKind::kLParen: {
        advance();
        auto e = parse_expr();
        expect(TokenKind::kRParen);
        return e;
      }
      case TokenKind::kIdent: {
        const std::string word = upper(t.text);
        if (word == "TRUE") {
          advance();
          return make_bool(true);
        }
        if (word == "FALSE") {
          advance();
          return make_bool(false);
        }
        if ((word == "ID" || word == "LABEL") &&
            peek(1).kind == TokenKind::kLParen) {
          advance();
          advance();
          std::string var = expect(TokenKind::kIdent).text;
          expect(TokenKind::kRParen);
          return word == "ID" ? make_id_func(std::move(var))
                              : make_label_func(std::move(var));
        }
        if (peek(1).kind == TokenKind::kDot) {
          std::string var = advance().text;
          advance();  // '.'
          std::string prop = expect(TokenKind::kIdent).text;
          return make_prop_ref(std::move(var), std::move(prop));
        }
        fail("bare variable reference '" + t.text +
             "' is not supported; use var.property or id(var)");
      }
      default:
        fail(std::string("unexpected token '") + describe(t) +
             "' in expression");
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  unsigned anon_ = 0;
};

}  // namespace

Query parse(std::string_view text) { return Parser(text).parse_query(); }

bool strip_profile_prefix(std::string_view& text) {
  std::string_view rest = text;
  while (!rest.empty() &&
         std::isspace(static_cast<unsigned char>(rest.front()))) {
    rest.remove_prefix(1);
  }
  constexpr std::string_view kToken = "PROFILE";
  if (rest.size() <= kToken.size() ||
      upper(rest.substr(0, kToken.size())) != kToken ||
      !std::isspace(static_cast<unsigned char>(rest[kToken.size()]))) {
    return false;
  }
  text = rest.substr(kToken.size());
  return true;
}

ExprPtr parse_expression(std::string_view text) {
  return Parser(text).parse_standalone_expr();
}

}  // namespace rpqd::pgql
