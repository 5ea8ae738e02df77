// Compiled filter/projection expressions.
//
// At planning time every AST expression is compiled against the catalog
// and the context-slot layout: variable references become either
// "current vertex" accesses (when the variable is being matched at the
// stage that evaluates the expression) or context-slot reads (when the
// value was materialized by an earlier stage, possibly on a different
// machine — contexts travel inside messages, the graph does not).
//
// String literals that exist in the catalog's dictionary are folded to
// dictionary ids (O(1) equality); unknown strings are kept as text and
// compared lexicographically against dictionary strings.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "graph/snapshot.h"
#include "pgql/ast.h"

namespace rpqd {

/// Everything an expression may read at evaluation time. Graph access
/// goes through the snapshot view types (graph/snapshot.h) so filters
/// evaluate against the exact epoch the query pinned at admission.
struct EvalCtx {
  const PartitionView* part = nullptr;
  const Catalog* catalog = nullptr;
  /// Local id of the vertex currently being matched (kInvalidLocalVertex
  /// when the expression must not touch the current vertex).
  LocalVertexId current = kInvalidLocalVertex;
  /// Context slots of the traversal.
  const Value* slots = nullptr;
  /// Edge access for edge-property references (nullptr outside hops).
  const ViewAdjacency* adj = nullptr;
  std::size_t entry_idx = 0;
};

/// Evaluation result: a Value, optionally backed by out-of-dictionary
/// text (unknown string literals, label() results).
struct EvalValue {
  Value v;
  const std::string* text = nullptr;  // set iff v.type == kString && text form

  static EvalValue of(Value value) { return {value, nullptr}; }
  static EvalValue of_text(const std::string& t) {
    return {Value{ValueType::kString, 0}, &t};
  }
  bool is_null() const { return v.type == ValueType::kNull && text == nullptr; }
};

class CompiledExpr {
 public:
  enum class Kind : std::uint8_t {
    kConst,        // folded literal (including dictionary-hit strings)
    kConstText,    // string literal absent from the dictionary
    kSlot,         // context slot read
    kCurrentProp,  // property of the current vertex
    kCurrentId,    // id(current)
    kCurrentLabel, // label(current)
    kEdgeProp,     // property of the edge being traversed
    kUnary,
    kBinary,
  };

  CompiledExpr() = default;

  EvalValue evaluate(const EvalCtx& ctx) const;

  /// Evaluates as a filter: null / non-bool results are false.
  bool evaluate_bool(const EvalCtx& ctx) const;

  /// True if any node reads the current vertex.
  bool reads_current() const;
  /// True if any node reads an edge property.
  bool reads_edge() const;

  // Factories (used by the planner).
  static CompiledExpr constant(Value v);
  static CompiledExpr constant_text(std::string text);
  static CompiledExpr slot(SlotId s);
  static CompiledExpr current_prop(PropId p);
  static CompiledExpr current_id();
  static CompiledExpr current_label();
  static CompiledExpr edge_prop(PropId p);
  static CompiledExpr unary(pgql::UnOp op, CompiledExpr operand);
  static CompiledExpr binary(pgql::BinOp op, CompiledExpr lhs,
                             CompiledExpr rhs);

 private:
  Kind kind_ = Kind::kConst;
  Value const_value_{};
  std::string text_;
  SlotId slot_ = kInvalidSlot;
  PropId prop_ = kInvalidProp;
  pgql::BinOp bin_op_{};
  pgql::UnOp un_op_{};
  std::unique_ptr<CompiledExpr> lhs_;
  std::unique_ptr<CompiledExpr> rhs_;

 public:
  // Deep-copyable (plans duplicate filters across stages).
  CompiledExpr(const CompiledExpr& other) { *this = other; }
  CompiledExpr& operator=(const CompiledExpr& other);
  CompiledExpr(CompiledExpr&&) noexcept = default;
  CompiledExpr& operator=(CompiledExpr&&) noexcept = default;
  ~CompiledExpr() = default;
};

/// Three-way comparison with string/text normalization; nullopt = unknown.
std::optional<int> compare_values(const EvalValue& a, const EvalValue& b,
                                  const Catalog& catalog);

}  // namespace rpqd
