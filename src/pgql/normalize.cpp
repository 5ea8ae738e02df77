#include "pgql/normalize.h"

#include <array>
#include <cctype>
#include <cstdio>

#include "common/error.h"
#include "pgql/lexer.h"
#include "pgql/parser.h"

namespace rpqd::pgql {
namespace {

constexpr std::array<std::string_view, 21> kKeywords = {
    "AND",  "AS",    "AVG",   "BY",  "COUNT",  "FALSE", "FROM",
    "GROUP", "ID",   "LABEL", "MATCH", "MAX",  "MIN",   "NOT",
    "OR",   "PATH",  "PROFILE", "SELECT", "SUM", "TRUE", "WHERE"};

std::string upper(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    out.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  }
  return out;
}

bool is_keyword(const std::string& upper_ident) {
  for (const std::string_view kw : kKeywords) {
    if (upper_ident == kw) return true;
  }
  return false;
}

std::string render(const Token& t, TokenKind prev) {
  switch (t.kind) {
    case TokenKind::kIdent: {
      // Fold keywords only, and never after `.` or `:` — those positions
      // hold case-sensitive property/label names.
      if (prev != TokenKind::kDot && prev != TokenKind::kColon) {
        std::string up = upper(t.text);
        if (is_keyword(up)) return up;
      }
      return t.text;
    }
    case TokenKind::kInt: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(t.int_value));
      return buf;
    }
    case TokenKind::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", t.double_value);
      return buf;
    }
    case TokenKind::kString:
      return "'" + t.text + "'";  // the lexer has no escapes: verbatim
    case TokenKind::kLParen: return "(";
    case TokenKind::kRParen: return ")";
    case TokenKind::kLBracket: return "[";
    case TokenKind::kRBracket: return "]";
    case TokenKind::kLBrace: return "{";
    case TokenKind::kRBrace: return "}";
    case TokenKind::kComma: return ",";
    case TokenKind::kDot: return ".";
    case TokenKind::kColon: return ":";
    case TokenKind::kPipe: return "|";
    case TokenKind::kStar: return "*";
    case TokenKind::kPlus: return "+";
    case TokenKind::kQuestion: return "?";
    case TokenKind::kSlash: return "/";
    case TokenKind::kMinus: return "-";
    case TokenKind::kPercent: return "%";
    case TokenKind::kEq: return "=";
    case TokenKind::kNe: return "<>";
    case TokenKind::kLt: return "<";
    case TokenKind::kLe: return "<=";
    case TokenKind::kGt: return ">";
    case TokenKind::kGe: return ">=";
    case TokenKind::kEnd: return "";
  }
  return "";
}

std::string trimmed(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return std::string(text);
}

}  // namespace

NormalizedQuery normalize_query(std::string_view pgql) {
  NormalizedQuery out;
  out.profile = strip_profile_prefix(pgql);
  std::vector<Token> tokens;
  try {
    tokens = tokenize(pgql);
  } catch (const QueryError&) {
    out.text = trimmed(pgql);
    return out;
  }
  TokenKind prev = TokenKind::kEnd;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kEnd) break;
    if (!out.text.empty()) out.text += ' ';
    out.text += render(t, prev);
    prev = t.kind;
  }
  return out;
}

}  // namespace rpqd::pgql
