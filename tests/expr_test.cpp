// Tests for compiled expressions: evaluation semantics over context
// slots, current-vertex properties, string/dictionary normalization,
// null propagation, and short-circuiting.
#include <gtest/gtest.h>

#include "graph/partition.h"
#include "graph/snapshot.h"
#include "plan/expr.h"

namespace rpqd {
namespace {

using pgql::BinOp;
using pgql::UnOp;

class ExprTest : public ::testing::Test {
 protected:
  ExprTest() {
    GraphBuilder b;
    const LabelId person = b.catalog().vertex_label("Person");
    const VertexId v = b.add_vertex(person);
    b.set_property(v, b.catalog().property("age", ValueType::kInt),
                   int_value(30));
    b.set_string_property(v, "name", "alice");
    graph_ = std::make_shared<const Graph>(std::move(b).build());
    pg_ = std::make_shared<const PartitionedGraph>(graph_, 1);
    snap_ = GraphSnapshot::initial(pg_);
    slots_.assign(4, null_value());
  }

  EvalCtx ctx() {
    EvalCtx c;
    c.part = &snap_->view(0);
    c.catalog = &graph_->catalog();
    c.current = 0;
    c.slots = slots_.data();
    return c;
  }

  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<const PartitionedGraph> pg_;
  std::shared_ptr<const GraphSnapshot> snap_;
  std::vector<Value> slots_;
};

TEST_F(ExprTest, Constants) {
  EXPECT_EQ(as_int(CompiledExpr::constant(int_value(7)).evaluate(ctx()).v), 7);
  // The evaluated text points into the expression: keep it alive.
  const CompiledExpr zzz = CompiledExpr::constant_text("zzz");
  const auto text = zzz.evaluate(ctx());
  ASSERT_NE(text.text, nullptr);
  EXPECT_EQ(*text.text, "zzz");
}

TEST_F(ExprTest, SlotRead) {
  slots_[2] = int_value(99);
  EXPECT_EQ(as_int(CompiledExpr::slot(2).evaluate(ctx()).v), 99);
}

TEST_F(ExprTest, CurrentProperty) {
  const auto age = *graph_->catalog().find_property("age");
  EXPECT_EQ(as_int(CompiledExpr::current_prop(age).evaluate(ctx()).v), 30);
}

TEST_F(ExprTest, CurrentIdAndLabel) {
  EXPECT_EQ(as_vertex(CompiledExpr::current_id().evaluate(ctx()).v), 0u);
  const auto label = CompiledExpr::current_label().evaluate(ctx());
  ASSERT_NE(label.text, nullptr);
  EXPECT_EQ(*label.text, "Person");
}

TEST_F(ExprTest, ArithmeticIntAndDouble) {
  const auto bin = [&](BinOp op, Value a, Value b) {
    return CompiledExpr::binary(op, CompiledExpr::constant(a),
                                CompiledExpr::constant(b))
        .evaluate(ctx());
  };
  EXPECT_EQ(as_int(bin(BinOp::kAdd, int_value(2), int_value(3)).v), 5);
  EXPECT_EQ(as_int(bin(BinOp::kMod, int_value(7), int_value(3)).v), 1);
  EXPECT_DOUBLE_EQ(as_double(bin(BinOp::kMul, int_value(2),
                                 double_value(1.5)).v),
                   3.0);
  EXPECT_TRUE(bin(BinOp::kDiv, int_value(1), int_value(0)).is_null());
}

TEST_F(ExprTest, Comparisons) {
  const auto cmp = [&](BinOp op, Value a, Value b) {
    return CompiledExpr::binary(op, CompiledExpr::constant(a),
                                CompiledExpr::constant(b))
        .evaluate_bool(ctx());
  };
  EXPECT_TRUE(cmp(BinOp::kLt, int_value(1), int_value(2)));
  EXPECT_FALSE(cmp(BinOp::kLt, int_value(2), int_value(2)));
  EXPECT_TRUE(cmp(BinOp::kLe, int_value(2), int_value(2)));
  EXPECT_TRUE(cmp(BinOp::kNe, int_value(2), int_value(3)));
  EXPECT_TRUE(cmp(BinOp::kGe, double_value(2.5), int_value(2)));
}

TEST_F(ExprTest, StringDictVsTextComparison) {
  const auto name = *graph_->catalog().find_property("name");
  // "alice" exists in the dictionary; compare against an unknown literal.
  const auto eq_known = CompiledExpr::binary(
      BinOp::kEq, CompiledExpr::current_prop(name),
      CompiledExpr::constant(
          string_value(*graph_->catalog().find_string("alice"))));
  EXPECT_TRUE(eq_known.evaluate_bool(ctx()));
  const auto eq_unknown =
      CompiledExpr::binary(BinOp::kEq, CompiledExpr::current_prop(name),
                           CompiledExpr::constant_text("bob"));
  EXPECT_FALSE(eq_unknown.evaluate_bool(ctx()));
  const auto lt_text =
      CompiledExpr::binary(BinOp::kLt, CompiledExpr::current_prop(name),
                           CompiledExpr::constant_text("bob"));
  EXPECT_TRUE(lt_text.evaluate_bool(ctx()));  // "alice" < "bob"
}

TEST_F(ExprTest, NullPropagation) {
  const auto missing = CompiledExpr::slot(0);  // slot holds null
  const auto cmp = CompiledExpr::binary(BinOp::kLt, missing,
                                        CompiledExpr::constant(int_value(5)));
  EXPECT_FALSE(cmp.evaluate_bool(ctx()));
  EXPECT_TRUE(cmp.evaluate(ctx()).is_null());
}

TEST_F(ExprTest, AndShortCircuit) {
  // false AND <null> must be false, not null.
  const auto e = CompiledExpr::binary(
      BinOp::kAnd, CompiledExpr::constant(bool_value(false)),
      CompiledExpr::slot(0));
  const auto v = e.evaluate(ctx());
  ASSERT_FALSE(v.is_null());
  EXPECT_FALSE(as_bool(v.v));
}

TEST_F(ExprTest, OrShortCircuit) {
  const auto e = CompiledExpr::binary(
      BinOp::kOr, CompiledExpr::constant(bool_value(true)),
      CompiledExpr::slot(0));
  const auto v = e.evaluate(ctx());
  ASSERT_FALSE(v.is_null());
  EXPECT_TRUE(as_bool(v.v));
}

TEST_F(ExprTest, NotAndNegate) {
  const auto n = CompiledExpr::unary(
      UnOp::kNot, CompiledExpr::constant(bool_value(false)));
  EXPECT_TRUE(n.evaluate_bool(ctx()));
  const auto neg =
      CompiledExpr::unary(UnOp::kNeg, CompiledExpr::constant(int_value(4)));
  EXPECT_EQ(as_int(neg.evaluate(ctx()).v), -4);
}

TEST_F(ExprTest, ReadsCurrentDetection) {
  EXPECT_TRUE(CompiledExpr::current_id().reads_current());
  EXPECT_FALSE(CompiledExpr::slot(1).reads_current());
  const auto nested = CompiledExpr::binary(
      BinOp::kAdd, CompiledExpr::slot(0), CompiledExpr::current_prop(0));
  EXPECT_TRUE(nested.reads_current());
}

TEST_F(ExprTest, CopySemantics) {
  const auto orig = CompiledExpr::binary(BinOp::kAdd,
                                         CompiledExpr::constant(int_value(1)),
                                         CompiledExpr::constant(int_value(2)));
  const CompiledExpr copy = orig;  // deep copy
  EXPECT_EQ(as_int(copy.evaluate(ctx()).v), 3);
  EXPECT_EQ(as_int(orig.evaluate(ctx()).v), 3);
}

}  // namespace
}  // namespace rpqd
