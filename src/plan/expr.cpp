#include "plan/expr.h"

#include "common/error.h"

namespace rpqd {

CompiledExpr& CompiledExpr::operator=(const CompiledExpr& other) {
  if (this == &other) return *this;
  kind_ = other.kind_;
  const_value_ = other.const_value_;
  text_ = other.text_;
  slot_ = other.slot_;
  prop_ = other.prop_;
  bin_op_ = other.bin_op_;
  un_op_ = other.un_op_;
  lhs_ = other.lhs_ ? std::make_unique<CompiledExpr>(*other.lhs_) : nullptr;
  rhs_ = other.rhs_ ? std::make_unique<CompiledExpr>(*other.rhs_) : nullptr;
  return *this;
}

CompiledExpr CompiledExpr::constant(Value v) {
  CompiledExpr e;
  e.kind_ = Kind::kConst;
  e.const_value_ = v;
  return e;
}

CompiledExpr CompiledExpr::constant_text(std::string text) {
  CompiledExpr e;
  e.kind_ = Kind::kConstText;
  e.text_ = std::move(text);
  return e;
}

CompiledExpr CompiledExpr::slot(SlotId s) {
  CompiledExpr e;
  e.kind_ = Kind::kSlot;
  e.slot_ = s;
  return e;
}

CompiledExpr CompiledExpr::current_prop(PropId p) {
  CompiledExpr e;
  e.kind_ = Kind::kCurrentProp;
  e.prop_ = p;
  return e;
}

CompiledExpr CompiledExpr::current_id() {
  CompiledExpr e;
  e.kind_ = Kind::kCurrentId;
  return e;
}

CompiledExpr CompiledExpr::current_label() {
  CompiledExpr e;
  e.kind_ = Kind::kCurrentLabel;
  return e;
}

CompiledExpr CompiledExpr::edge_prop(PropId p) {
  CompiledExpr e;
  e.kind_ = Kind::kEdgeProp;
  e.prop_ = p;
  return e;
}

CompiledExpr CompiledExpr::unary(pgql::UnOp op, CompiledExpr operand) {
  CompiledExpr e;
  e.kind_ = Kind::kUnary;
  e.un_op_ = op;
  e.lhs_ = std::make_unique<CompiledExpr>(std::move(operand));
  return e;
}

CompiledExpr CompiledExpr::binary(pgql::BinOp op, CompiledExpr lhs,
                                  CompiledExpr rhs) {
  CompiledExpr e;
  e.kind_ = Kind::kBinary;
  e.bin_op_ = op;
  e.lhs_ = std::make_unique<CompiledExpr>(std::move(lhs));
  e.rhs_ = std::make_unique<CompiledExpr>(std::move(rhs));
  return e;
}

bool CompiledExpr::reads_current() const {
  switch (kind_) {
    case Kind::kCurrentProp:
    case Kind::kCurrentId:
    case Kind::kCurrentLabel:
      return true;
    default:
      break;
  }
  if (lhs_ && lhs_->reads_current()) return true;
  if (rhs_ && rhs_->reads_current()) return true;
  return false;
}

bool CompiledExpr::reads_edge() const {
  if (kind_ == Kind::kEdgeProp) return true;
  if (lhs_ && lhs_->reads_edge()) return true;
  if (rhs_ && rhs_->reads_edge()) return true;
  return false;
}

std::optional<int> compare_values(const EvalValue& a, const EvalValue& b,
                                  const Catalog& catalog) {
  if (a.is_null() || b.is_null()) return std::nullopt;
  // Normalize text-backed strings against dictionary-encoded strings.
  if (a.text != nullptr || b.text != nullptr) {
    const auto string_of = [&](const EvalValue& x) -> const std::string* {
      if (x.text != nullptr) return x.text;
      if (x.v.type == ValueType::kString) {
        return &catalog.string_name(as_string_id(x.v));
      }
      return nullptr;
    };
    const std::string* sa = string_of(a);
    const std::string* sb = string_of(b);
    if (sa == nullptr || sb == nullptr) return std::nullopt;
    return *sa < *sb ? -1 : (*sa > *sb ? 1 : 0);
  }
  return catalog.compare(a.v, b.v);
}

namespace {

EvalValue arithmetic(pgql::BinOp op, const EvalValue& a, const EvalValue& b) {
  using pgql::BinOp;
  if (a.is_null() || b.is_null() || !is_numeric(a.v) || !is_numeric(b.v)) {
    return EvalValue::of(null_value());
  }
  const bool both_int =
      a.v.type == ValueType::kInt && b.v.type == ValueType::kInt;
  if (both_int) {
    const auto x = as_int(a.v);
    const auto y = as_int(b.v);
    switch (op) {
      case BinOp::kAdd: return EvalValue::of(int_value(x + y));
      case BinOp::kSub: return EvalValue::of(int_value(x - y));
      case BinOp::kMul: return EvalValue::of(int_value(x * y));
      case BinOp::kDiv:
        return y == 0 ? EvalValue::of(null_value())
                      : EvalValue::of(int_value(x / y));
      case BinOp::kMod:
        return y == 0 ? EvalValue::of(null_value())
                      : EvalValue::of(int_value(x % y));
      default: break;
    }
  }
  const double x = numeric_as_double(a.v);
  const double y = numeric_as_double(b.v);
  switch (op) {
    case BinOp::kAdd: return EvalValue::of(double_value(x + y));
    case BinOp::kSub: return EvalValue::of(double_value(x - y));
    case BinOp::kMul: return EvalValue::of(double_value(x * y));
    case BinOp::kDiv: return EvalValue::of(double_value(x / y));
    case BinOp::kMod: return EvalValue::of(null_value());
    default: break;
  }
  return EvalValue::of(null_value());
}

}  // namespace

EvalValue CompiledExpr::evaluate(const EvalCtx& ctx) const {
  using pgql::BinOp;
  using pgql::UnOp;
  switch (kind_) {
    case Kind::kConst:
      return EvalValue::of(const_value_);
    case Kind::kConstText:
      return EvalValue::of_text(text_);
    case Kind::kSlot:
      return EvalValue::of(ctx.slots[slot_]);
    case Kind::kCurrentProp:
      engine_check(ctx.current != kInvalidLocalVertex,
                   "current-vertex property read outside a vertex match");
      return EvalValue::of(ctx.part->property(ctx.current, prop_));
    case Kind::kCurrentId:
      engine_check(ctx.current != kInvalidLocalVertex,
                   "id(current) read outside a vertex match");
      return EvalValue::of(
          vertex_value(ctx.part->to_global(ctx.current)));
    case Kind::kCurrentLabel: {
      engine_check(ctx.current != kInvalidLocalVertex,
                   "label(current) read outside a vertex match");
      const LabelId label = ctx.part->label(ctx.current);
      return EvalValue::of_text(ctx.catalog->vertex_label_name(label));
    }
    case Kind::kEdgeProp:
      engine_check(ctx.adj != nullptr,
                   "edge property read outside an edge hop");
      return EvalValue::of(ctx.adj->edge_property(ctx.entry_idx, prop_));
    case Kind::kUnary: {
      const EvalValue operand = lhs_->evaluate(ctx);
      if (un_op_ == UnOp::kNot) {
        if (operand.is_null() || operand.v.type != ValueType::kBool) {
          return EvalValue::of(null_value());
        }
        return EvalValue::of(bool_value(!as_bool(operand.v)));
      }
      // Negation.
      if (operand.is_null() || !is_numeric(operand.v)) {
        return EvalValue::of(null_value());
      }
      if (operand.v.type == ValueType::kInt) {
        return EvalValue::of(int_value(-as_int(operand.v)));
      }
      return EvalValue::of(double_value(-as_double(operand.v)));
    }
    case Kind::kBinary: {
      switch (bin_op_) {
        case BinOp::kAnd: {
          // Short-circuit; null-propagating (three-valued AND collapses to
          // false for filtering purposes).
          const EvalValue a = lhs_->evaluate(ctx);
          if (!a.is_null() && a.v.type == ValueType::kBool && !as_bool(a.v)) {
            return EvalValue::of(bool_value(false));
          }
          const EvalValue b = rhs_->evaluate(ctx);
          if (a.is_null() || b.is_null()) return EvalValue::of(null_value());
          return EvalValue::of(bool_value(as_bool(a.v) && as_bool(b.v)));
        }
        case BinOp::kOr: {
          const EvalValue a = lhs_->evaluate(ctx);
          if (!a.is_null() && a.v.type == ValueType::kBool && as_bool(a.v)) {
            return EvalValue::of(bool_value(true));
          }
          const EvalValue b = rhs_->evaluate(ctx);
          if (a.is_null() || b.is_null()) return EvalValue::of(null_value());
          return EvalValue::of(bool_value(as_bool(a.v) || as_bool(b.v)));
        }
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv:
        case BinOp::kMod:
          return arithmetic(bin_op_, lhs_->evaluate(ctx), rhs_->evaluate(ctx));
        default: {
          const EvalValue a = lhs_->evaluate(ctx);
          const EvalValue b = rhs_->evaluate(ctx);
          const auto cmp = compare_values(a, b, *ctx.catalog);
          if (!cmp) return EvalValue::of(null_value());
          bool result = false;
          switch (bin_op_) {
            case BinOp::kEq: result = *cmp == 0; break;
            case BinOp::kNe: result = *cmp != 0; break;
            case BinOp::kLt: result = *cmp < 0; break;
            case BinOp::kLe: result = *cmp <= 0; break;
            case BinOp::kGt: result = *cmp > 0; break;
            case BinOp::kGe: result = *cmp >= 0; break;
            default: break;
          }
          return EvalValue::of(bool_value(result));
        }
      }
    }
  }
  return EvalValue::of(null_value());
}

bool CompiledExpr::evaluate_bool(const EvalCtx& ctx) const {
  const EvalValue result = evaluate(ctx);
  return !result.is_null() && result.v.type == ValueType::kBool &&
         as_bool(result.v);
}

}  // namespace rpqd
