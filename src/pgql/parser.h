// Recursive-descent parser for the PGQL subset.
#pragma once

#include <string_view>

#include "pgql/ast.h"

namespace rpqd::pgql {

/// Parses a query text into an AST. Throws QueryError on malformed input
/// or on constructs outside the supported subset.
Query parse(std::string_view text);

/// Strips an optional leading case-insensitive `PROFILE` token (followed
/// by whitespace) off the query text; returns whether it was present.
/// The one PROFILE detector: the engine's compile and the result-cache
/// normalizer both call it, so they never disagree about the flag.
bool strip_profile_prefix(std::string_view& text);

/// Parses a standalone expression (used by tests).
ExprPtr parse_expression(std::string_view text);

}  // namespace rpqd::pgql
