#include "frontend/analysis/depend.hpp"
#include "frontend/analysis/section.hpp"

#include <gtest/gtest.h>

#include "frontend/sema.hpp"

namespace hli::analysis {
namespace {

using frontend::Program;

/// Fixture providing a canonical loop over `i` in [0, 10) and helper
/// variables, built from a real program so VarDecls are well-formed.
class DependTest : public ::testing::Test {
 protected:
  void SetUp() override {
    support::DiagnosticEngine diags;
    prog_ = frontend::compile_to_ast(
        "void f(int i, int j, int m, int n) { }", diags);
    loop_.induction = prog_.functions[0]->params[0];
    loop_.lower = 0;
    loop_.upper = 10;
    loop_.step = 1;
  }

  [[nodiscard]] const frontend::VarDecl* i() const {
    return prog_.functions[0]->params[0];
  }
  [[nodiscard]] const frontend::VarDecl* j() const {
    return prog_.functions[0]->params[1];
  }
  [[nodiscard]] const frontend::VarDecl* m() const {
    return prog_.functions[0]->params[2];
  }

  /// c0 + c1*i as an affine form.
  [[nodiscard]] AffineExpr lin(std::int64_t c0, std::int64_t c1) const {
    return AffineExpr::constant(c0).plus(AffineExpr::variable(i()).scaled(c1));
  }

  Program prog_;
  CanonicalLoop loop_;
};

TEST_F(DependTest, ZivEqualConstantsIsEqualWithin) {
  const auto r = test_one_dim(&loop_, AffineExpr::constant(5), AffineExpr::constant(5));
  EXPECT_EQ(r.within, IterRelation::Equal);
}

TEST_F(DependTest, ZivDifferentConstantsIndependent) {
  const auto r = test_one_dim(&loop_, AffineExpr::constant(5), AffineExpr::constant(6));
  EXPECT_EQ(r.within, IterRelation::Disjoint);
  EXPECT_EQ(r.carried.kind, CarriedKind::None);
}

TEST_F(DependTest, StrongSivSameOffsetIsEqual) {
  const auto r = test_one_dim(&loop_, lin(0, 1), lin(0, 1));
  EXPECT_EQ(r.within, IterRelation::Equal);
  EXPECT_EQ(r.carried.kind, CarriedKind::None);
}

TEST_F(DependTest, StrongSivDistanceOne) {
  // a[i] vs a[i-1]: the paper's Figure 2 LCDD with distance 1.
  const auto r = test_one_dim(&loop_, lin(0, 1), lin(-1, 1));
  EXPECT_EQ(r.within, IterRelation::Disjoint);
  EXPECT_EQ(r.carried.kind, CarriedKind::Definite);
  EXPECT_EQ(r.carried.distance, 1);
}

TEST_F(DependTest, StrongSivNonDivisibleDeltaIndependent) {
  // 2i vs 2i+1: parity never matches.
  const auto r = test_one_dim(&loop_, lin(0, 2), lin(1, 2));
  EXPECT_EQ(r.within, IterRelation::Disjoint);
  EXPECT_EQ(r.carried.kind, CarriedKind::None);
}

TEST_F(DependTest, StrongSivDistanceBeyondTripCountIndependent) {
  // a[i] vs a[i-20] in a 10-trip loop.
  const auto r = test_one_dim(&loop_, lin(0, 1), lin(-20, 1));
  EXPECT_EQ(r.carried.kind, CarriedKind::None);
}

TEST_F(DependTest, WeakZeroSivInRangeIsMaybe) {
  // a[i] vs a[0]: collide only at i == 0 (the b[0] alias in Figure 2).
  const auto r = test_one_dim(&loop_, lin(0, 1), AffineExpr::constant(0));
  EXPECT_EQ(r.within, IterRelation::MaybeOverlap);
  EXPECT_EQ(r.carried.kind, CarriedKind::Maybe);
}

TEST_F(DependTest, WeakZeroSivOutOfRangeIndependent) {
  // a[i] vs a[42]: 42 is outside [0, 10).
  const auto r = test_one_dim(&loop_, lin(0, 1), AffineExpr::constant(42));
  EXPECT_EQ(r.within, IterRelation::Disjoint);
  EXPECT_EQ(r.carried.kind, CarriedKind::None);
}

TEST_F(DependTest, GcdTestDisproves) {
  // 2i vs 4i+1: gcd(2,4)=2 does not divide 1.
  const auto r = test_one_dim(&loop_, lin(0, 2), lin(1, 4));
  EXPECT_EQ(r.carried.kind, CarriedKind::None);
}

TEST_F(DependTest, GcdTestInconclusiveIsMaybe) {
  // 2i vs 4i+2: gcd divides, no constant distance.
  const auto r = test_one_dim(&loop_, lin(0, 2), lin(2, 4));
  EXPECT_EQ(r.carried.kind, CarriedKind::Maybe);
}

TEST_F(DependTest, SymbolicMismatchIsMaybe) {
  // a[i+m] vs a[i+j]: symbolic residues differ.
  const AffineExpr a = lin(0, 1).plus(AffineExpr::variable(m()));
  const AffineExpr b = lin(0, 1).plus(AffineExpr::variable(j()));
  const auto r = test_one_dim(&loop_, a, b);
  EXPECT_EQ(r.within, IterRelation::MaybeOverlap);
  EXPECT_EQ(r.carried.kind, CarriedKind::Maybe);
}

TEST_F(DependTest, MatchingSymbolicOffsetsCancel) {
  // a[i+m] vs a[i+m-1]: the symbolic part cancels; distance 1.
  const AffineExpr a = lin(0, 1).plus(AffineExpr::variable(m()));
  const AffineExpr b = lin(-1, 1).plus(AffineExpr::variable(m()));
  const auto r = test_one_dim(&loop_, a, b);
  EXPECT_EQ(r.carried.kind, CarriedKind::Definite);
  EXPECT_EQ(r.carried.distance, 1);
}

TEST_F(DependTest, NonAffineIsUnknown) {
  const auto r = test_one_dim(&loop_, AffineExpr{}, lin(0, 1));
  EXPECT_EQ(r.within, IterRelation::MaybeOverlap);
  EXPECT_EQ(r.carried.kind, CarriedKind::Maybe);
}

TEST_F(DependTest, MultiDimIndependentDimWins) {
  // a[i][0] vs a[i-1][1]: second dim never matches.
  const std::vector<AffineExpr> a = {lin(0, 1), AffineExpr::constant(0)};
  const std::vector<AffineExpr> b = {lin(-1, 1), AffineExpr::constant(1)};
  const auto r = test_subscripts(&loop_, a, b);
  EXPECT_EQ(r.within, IterRelation::Disjoint);
  EXPECT_EQ(r.carried.kind, CarriedKind::None);
}

TEST_F(DependTest, MultiDimDistanceFromRowDim) {
  // a[i][j] vs a[i-2][j] with j invariant: distance 2 on the row dim.
  const std::vector<AffineExpr> a = {lin(0, 1), AffineExpr::variable(j())};
  const std::vector<AffineExpr> b = {lin(-2, 1), AffineExpr::variable(j())};
  const auto r = test_subscripts(&loop_, a, b);
  EXPECT_EQ(r.carried.kind, CarriedKind::Definite);
  EXPECT_EQ(r.carried.distance, 2);
}

TEST_F(DependTest, RankMismatchIsUnknown) {
  const std::vector<AffineExpr> a = {lin(0, 1)};
  const std::vector<AffineExpr> b = {lin(0, 1), AffineExpr::constant(0)};
  const auto r = test_subscripts(&loop_, a, b);
  EXPECT_EQ(r.within, IterRelation::MaybeOverlap);
}

TEST_F(DependTest, ScalarPairIsEqual) {
  const auto r = test_subscripts(&loop_, {}, {});
  EXPECT_EQ(r.within, IterRelation::Equal);
}

// ---------------------------------------------------------------------
// Section-level tests (the machinery TBLCONST actually runs on).
// ---------------------------------------------------------------------

class SectionTest : public DependTest {
 protected:
  [[nodiscard]] Section point(const AffineExpr& e) const {
    Section s;
    s.dims.push_back(DimSection::point(e));
    return s;
  }
  [[nodiscard]] Section range(const AffineExpr& lo, const AffineExpr& hi) const {
    Section s;
    s.dims.push_back({lo, hi});
    return s;
  }
};

TEST_F(SectionTest, ExactPointsEqualEveryIteration) {
  const auto r = section_depend(&loop_, point(lin(0, 1)), point(lin(0, 1)));
  EXPECT_EQ(r.within, IterRelation::Equal);
  EXPECT_EQ(r.a_then_b.kind, CarriedKind::None);
  EXPECT_EQ(r.b_then_a.kind, CarriedKind::None);
}

TEST_F(SectionTest, DirectionalDistance) {
  // a = writes a[i], b = reads a[i-1]: b's colliding instance runs one
  // iteration AFTER a's -> forward arc a->b with distance 1, no reverse.
  const auto r = section_depend(&loop_, point(lin(0, 1)), point(lin(-1, 1)));
  EXPECT_EQ(r.within, IterRelation::Disjoint);
  EXPECT_EQ(r.a_then_b.kind, CarriedKind::Definite);
  EXPECT_EQ(r.a_then_b.distance, 1);
  EXPECT_EQ(r.b_then_a.kind, CarriedKind::None);
}

TEST_F(SectionTest, ReverseDirectionDetected) {
  const auto r = section_depend(&loop_, point(lin(-1, 1)), point(lin(0, 1)));
  EXPECT_EQ(r.a_then_b.kind, CarriedKind::None);
  EXPECT_EQ(r.b_then_a.kind, CarriedKind::Definite);
  EXPECT_EQ(r.b_then_a.distance, 1);
}

TEST_F(SectionTest, ReversedLoopOrientsArcByExecutionOrder) {
  // Downward loop: a = writes a[i], b = reads a[i+1].  The iteration after
  // the one writing a[k] has i == k-1 and reads a[k]: forward arc a->b.
  // Orienting by the normalized positive step would report b->a, and
  // unrolling would then alias the wrong copy pairs.
  CanonicalLoop down = loop_;
  down.reversed = true;
  const auto r = section_depend(&down, point(lin(0, 1)), point(lin(1, 1)));
  EXPECT_EQ(r.a_then_b.kind, CarriedKind::Definite);
  EXPECT_EQ(r.a_then_b.distance, 1);
  EXPECT_EQ(r.b_then_a.kind, CarriedKind::None);
}

TEST_F(SectionTest, PointVsWholeRangeOverlaps) {
  // b[0] vs the widened class b[0..9] — the Figure 2 alias table entry.
  const auto r = section_depend(
      &loop_, point(AffineExpr::constant(0)),
      range(AffineExpr::constant(0), AffineExpr::constant(9)));
  EXPECT_NE(r.within, IterRelation::Disjoint);
}

TEST_F(SectionTest, DisjointConstantRangesIndependent) {
  const auto r = section_depend(
      &loop_, range(AffineExpr::constant(0), AffineExpr::constant(4)),
      range(AffineExpr::constant(5), AffineExpr::constant(9)));
  EXPECT_TRUE(r.fully_independent());
}

TEST_F(SectionTest, SlidingWindowRangesMaybeOverlap) {
  // [i, i+2] vs [i+3, i+5]: disjoint within an iteration but overlapping
  // across iterations (lag 1..5).
  const auto r = section_depend(&loop_, range(lin(0, 1), lin(2, 1)),
                                range(lin(3, 1), lin(5, 1)));
  EXPECT_EQ(r.within, IterRelation::Disjoint);
  EXPECT_EQ(r.b_then_a.kind, CarriedKind::Maybe);
}

TEST_F(SectionTest, WidenOverLoopProducesFullRange) {
  Section s = point(lin(0, 1));  // a[i].
  const Section widened = widen_over_loop(s, &loop_);
  ASSERT_EQ(widened.dims.size(), 1u);
  EXPECT_TRUE(widened.dims[0].lo.is_constant());
  EXPECT_EQ(widened.dims[0].lo.constant_part(), 0);
  EXPECT_EQ(widened.dims[0].hi.constant_part(), 9);
}

TEST_F(SectionTest, WidenRespectsStride) {
  CanonicalLoop strided = loop_;
  strided.step = 3;  // i in {0, 3, 6, 9}.
  const Section widened = widen_over_loop(point(lin(0, 1)), &strided);
  EXPECT_EQ(widened.dims[0].hi.constant_part(), 9);
}

TEST_F(SectionTest, WidenNegativeCoefficientSwapsBounds) {
  const Section widened = widen_over_loop(point(lin(9, -1)), &loop_);  // a[9-i].
  EXPECT_EQ(widened.dims[0].lo.constant_part(), 0);
  EXPECT_EQ(widened.dims[0].hi.constant_part(), 9);
}

TEST_F(SectionTest, WidenUnknownBoundsDegradesToUnknown) {
  CanonicalLoop open = loop_;
  open.upper.reset();
  const Section widened = widen_over_loop(point(lin(0, 1)), &open);
  EXPECT_TRUE(widened.dims[0].is_unknown());
}

TEST_F(SectionTest, WidenInvariantDimUnchanged) {
  const Section widened = widen_over_loop(point(AffineExpr::variable(j())), &loop_);
  EXPECT_TRUE(widened.dims[0].is_exact());
  EXPECT_EQ(widened.dims[0].lo.coefficient(j()), 1);
}

TEST_F(SectionTest, NoLoopContextEqualSectionsEqual) {
  const auto r = section_depend(nullptr, point(AffineExpr::constant(3)),
                                point(AffineExpr::constant(3)));
  EXPECT_EQ(r.within, IterRelation::Equal);
}

TEST_F(SectionTest, NoLoopContextDisjointConstants) {
  const auto r = section_depend(nullptr, point(AffineExpr::constant(3)),
                                point(AffineExpr::constant(7)));
  EXPECT_EQ(r.within, IterRelation::Disjoint);
}

}  // namespace
}  // namespace hli::analysis
