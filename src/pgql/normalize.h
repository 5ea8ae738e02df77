// Canonical normalization of PGQL text for result-cache keying.
//
// `SELECT COUNT(*) FROM ...`, `select   count(*) from ...`, and
// `PROFILE SELECT COUNT(*) FROM ...` are the same query; keying a result
// cache on the raw string would miss the repeats real traffic produces.
// Normalization re-renders the token stream with canonical single
// spacing, folds KEYWORDS to uppercase (identifier case is preserved —
// labels/properties are case-sensitive catalog names, and folding them
// would alias distinct queries), keeps string literals verbatim, and
// strips the leading `PROFILE` token into a flag (a profiled and an
// unprofiled run of the same text share the normalized text but must
// never share a result object).
#pragma once

#include <string>
#include <string_view>

namespace rpqd::pgql {

struct NormalizedQuery {
  std::string text;      // canonical rendering (PROFILE prefix removed)
  bool profile = false;  // a leading PROFILE token was present
};

/// Never throws: text that fails to lex normalizes to its trimmed raw
/// form (the engine will reject it identically on every ask, so keying
/// on it is still sound).
NormalizedQuery normalize_query(std::string_view pgql);

}  // namespace rpqd::pgql
