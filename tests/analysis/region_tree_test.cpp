#include "frontend/analysis/region_tree.hpp"

#include <gtest/gtest.h>

#include "frontend/sema.hpp"

namespace hli::analysis {
namespace {

using frontend::Program;

struct Compiled {
  Program prog;
  RegionTree tree;
};

Compiled build(const std::string& src, const std::string& func = "f") {
  support::DiagnosticEngine diags;
  Compiled out{frontend::compile_to_ast(src, diags), {}};
  frontend::FuncDecl* fn = out.prog.find_function(func);
  EXPECT_NE(fn, nullptr);
  out.tree = build_region_tree(*fn);
  return out;
}

TEST(RegionTreeTest, FunctionWithoutLoopsIsSingleRegion) {
  auto c = build("int f(int a) { return a + 1; }");
  EXPECT_EQ(c.tree.regions().size(), 1u);
  EXPECT_EQ(c.tree.root()->kind(), RegionKind::Function);
  EXPECT_EQ(c.tree.root()->depth, 0u);
}

TEST(RegionTreeTest, SingleLoopMakesChildRegion) {
  auto c = build("void f() { for (int i = 0; i < 10; i++) { } }");
  ASSERT_EQ(c.tree.regions().size(), 2u);
  Region* loop = c.tree.root()->children()[0];
  EXPECT_TRUE(loop->is_loop());
  EXPECT_EQ(loop->depth, 1u);
  EXPECT_EQ(loop->parent(), c.tree.root());
}

TEST(RegionTreeTest, PaperFigure2RegionShape) {
  // The paper's example: two sibling i loops, the second containing a j
  // loop -> regions 1 (function), 2, 3 (i loops), 4 (j inside 3).
  auto c = build(R"(
    int a[10]; int b[10]; int sum;
    void foo() {
      for (int i = 0; i < 10; i++) {
        a[i] = i;
      }
      for (int i = 0; i < 10; i++) {
        sum += a[i];
        for (int j = 1; j < 10; j++) {
          b[j] = b[j] + b[j-1];
        }
      }
    }
  )", "foo");
  ASSERT_EQ(c.tree.regions().size(), 4u);
  Region* root = c.tree.root();
  ASSERT_EQ(root->children().size(), 2u);
  Region* first_i = root->children()[0];
  Region* second_i = root->children()[1];
  EXPECT_TRUE(first_i->children().empty());
  ASSERT_EQ(second_i->children().size(), 1u);
  EXPECT_EQ(second_i->children()[0]->depth, 2u);
}

TEST(RegionTreeTest, PostorderVisitsChildrenFirst) {
  auto c = build(
      "void f() { for (int i = 0; i < 4; i++) { for (int j = 0; j < 4; j++) { } } }");
  const auto post = c.tree.postorder();
  ASSERT_EQ(post.size(), 3u);
  EXPECT_EQ(post[0]->depth, 2u);
  EXPECT_EQ(post[1]->depth, 1u);
  EXPECT_EQ(post[2], c.tree.root());
}

TEST(RegionTreeTest, PreorderVisitsParentsFirst) {
  auto c = build(
      "void f() { for (int i = 0; i < 4; i++) { } for (int j = 0; j < 4; j++) { } }");
  const auto pre = c.tree.preorder();
  ASSERT_EQ(pre.size(), 3u);
  EXPECT_EQ(pre[0], c.tree.root());
}

TEST(RegionTreeTest, EnclosesIsReflexiveAndTransitive) {
  auto c = build(
      "void f() { for (int i = 0; i < 4; i++) { for (int j = 0; j < 4; j++) { } } }");
  Region* root = c.tree.root();
  Region* outer = root->children()[0];
  Region* inner = outer->children()[0];
  EXPECT_TRUE(root->encloses(root));
  EXPECT_TRUE(root->encloses(inner));
  EXPECT_TRUE(outer->encloses(inner));
  EXPECT_FALSE(inner->encloses(outer));
}

TEST(CanonicalLoopTest, SimpleUpwardLoop) {
  auto c = build("void f() { for (int i = 0; i < 10; i++) { } }");
  Region* loop = c.tree.root()->children()[0];
  ASSERT_TRUE(loop->canonical.has_value());
  EXPECT_EQ(loop->canonical->lower, 0);
  EXPECT_EQ(loop->canonical->upper, 10);
  EXPECT_EQ(loop->canonical->step, 1);
  EXPECT_FALSE(loop->canonical->reversed);
  EXPECT_EQ(loop->canonical->induction->name(), "i");
}

TEST(CanonicalLoopTest, InclusiveUpperBound) {
  auto c = build("void f() { for (int i = 1; i <= 10; i++) { } }");
  Region* loop = c.tree.root()->children()[0];
  ASSERT_TRUE(loop->canonical.has_value());
  EXPECT_EQ(loop->canonical->lower, 1);
  EXPECT_EQ(loop->canonical->upper, 11);
}

TEST(CanonicalLoopTest, StridedLoop) {
  auto c = build("void f() { for (int i = 0; i < 100; i += 3) { } }");
  Region* loop = c.tree.root()->children()[0];
  ASSERT_TRUE(loop->canonical.has_value());
  EXPECT_EQ(loop->canonical->step, 3);
}

TEST(CanonicalLoopTest, DownwardLoopNormalized) {
  auto c = build("void f() { for (int i = 9; i >= 0; i--) { } }");
  Region* loop = c.tree.root()->children()[0];
  ASSERT_TRUE(loop->canonical.has_value());
  EXPECT_TRUE(loop->canonical->reversed);
  EXPECT_EQ(loop->canonical->step, 1);
  EXPECT_EQ(loop->canonical->lower, 0);
  EXPECT_EQ(loop->canonical->upper, 10);
}

TEST(CanonicalLoopTest, StridedDownwardLoopSnapsLowerToTakenValues) {
  // Values taken: 10, 7, 4, 1.  lower must be 1 (not the bound 0), so
  // [lower, upper) by +step enumerates exactly the taken values.
  auto c = build("void f() { for (int i = 10; i >= 0; i -= 3) { } }");
  Region* loop = c.tree.root()->children()[0];
  ASSERT_TRUE(loop->canonical.has_value());
  EXPECT_TRUE(loop->canonical->reversed);
  EXPECT_EQ(loop->canonical->step, 3);
  EXPECT_EQ(loop->canonical->lower, 1);
  EXPECT_EQ(loop->canonical->upper, 11);
}

TEST(CanonicalLoopTest, SymbolicBoundStillCanonical) {
  auto c = build("void f(int n) { for (int i = 0; i < n; i++) { } }");
  Region* loop = c.tree.root()->children()[0];
  ASSERT_TRUE(loop->canonical.has_value());
  EXPECT_FALSE(loop->canonical->upper.has_value());
  EXPECT_EQ(loop->canonical->lower, 0);
}

TEST(CanonicalLoopTest, AssignmentInitFormRecognized) {
  auto c = build("void f() { int i; for (i = 2; i < 8; i = i + 2) { } }");
  Region* loop = c.tree.root()->children()[0];
  ASSERT_TRUE(loop->canonical.has_value());
  EXPECT_EQ(loop->canonical->lower, 2);
  EXPECT_EQ(loop->canonical->step, 2);
}

TEST(CanonicalLoopTest, BodyModifyingInductionDisqualifies) {
  auto c = build("void f() { for (int i = 0; i < 10; i++) { i += 1; } }");
  Region* loop = c.tree.root()->children()[0];
  EXPECT_FALSE(loop->canonical.has_value());
}

TEST(CanonicalLoopTest, NonUnitConditionShapeRejected) {
  auto c = build("void f(int n) { for (int i = 0; i * 2 < n; i++) { } }");
  Region* loop = c.tree.root()->children()[0];
  EXPECT_FALSE(loop->canonical.has_value());
}

TEST(CanonicalLoopTest, WhileLoopHasNoCanonicalForm) {
  auto c = build("void f(int n) { int i = 0; while (i < n) { i++; } }");
  Region* loop = c.tree.root()->children()[0];
  EXPECT_TRUE(loop->is_loop());
  EXPECT_FALSE(loop->canonical.has_value());
}

TEST(SubtreeModifiesTest, DetectsCompoundAndIncrement) {
  support::DiagnosticEngine diags;
  Program prog = frontend::compile_to_ast(
      "void f(int x) { x += 1; }", diags);
  frontend::FuncDecl* fn = prog.functions[0];
  EXPECT_TRUE(subtree_modifies(fn->body, fn->params[0]));
}

TEST(SubtreeModifiesTest, ReadOnlyUseIsNotModification) {
  support::DiagnosticEngine diags;
  Program prog = frontend::compile_to_ast(
      "int g; void f(int x) { g = x + 1; }", diags);
  frontend::FuncDecl* fn = prog.functions[0];
  EXPECT_FALSE(subtree_modifies(fn->body, fn->params[0]));
}

}  // namespace
}  // namespace hli::analysis
