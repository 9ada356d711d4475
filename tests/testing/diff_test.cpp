// Differential-executor tests: the matrix shape, agreement on known-good
// inputs, planted-defect detection (the harness's own miscompile
// self-test), invalid-input classification, and the HliStore round-trip
// channels.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "testing/diff.hpp"
#include "frontend/testgen.hpp"

namespace {

namespace ht = hli::testing;

std::string source_for(std::uint64_t seed,
                       std::uint32_t features = ht::kDefaultFeatures) {
  ht::GenOptions gen;
  gen.seed = seed;
  gen.features = features;
  return ht::generate_source(gen);
}

bool has_config(const std::vector<ht::DiffConfig>& matrix,
                const std::string& name) {
  return std::any_of(matrix.begin(), matrix.end(),
                     [&](const ht::DiffConfig& c) {
                       return c.name == name;
                     });
}

TEST(DiffTest, MatrixCoversEveryAxis) {
  const std::vector<ht::DiffConfig> matrix = ht::default_matrix();
  // no-HLI native passes, each pass alone, all-on, regalloc, alternate
  // machine model, binary encoding, both store channels, parallel
  // driver, irdep audit/fallback/classifier legs, the compile-service
  // round-trip, and threaded execution from HLI-unioned and irdep-only
  // plans.
  for (const char* name :
       {"nohli-all", "hli-cse", "hli-constfold", "hli-dce", "hli-licm",
        "hli-unroll", "hli-sched", "hli-all", "hli-all-regalloc",
        "hli-sched-r4600", "hli-binary", "hli-store-text",
        "hli-store-binary", "hli-parallel",
        "hli-audit-deps", "nohli-irdep-fallback", "hli-irdep-fallback",
        "hli-analyze", "hli-service", "hli-exec-threads",
        "nohli-exec-threads"}) {
    EXPECT_TRUE(has_config(matrix, name)) << name;
  }
  EXPECT_EQ(matrix.size(), 21u);
  for (const ht::DiffConfig& cfg : matrix) {
    if (cfg.options.use_hli) {
      EXPECT_EQ(cfg.options.verify_hli, hli::driver::VerifyMode::Fatal)
          << cfg.name;
    }
  }
}

TEST(DiffTest, BaselineIsUnoptimizedNoHli) {
  const ht::DiffConfig base = ht::baseline_config();
  EXPECT_FALSE(base.options.use_hli);
  EXPECT_FALSE(base.options.enable_cse);
  EXPECT_FALSE(base.options.enable_sched);
}

TEST(DiffTest, FixedSeedsAgreeAcrossFullMatrix) {
  const std::vector<ht::DiffConfig> matrix = ht::default_matrix();
  for (std::uint64_t seed : {3ull, 11ull, 29ull}) {
    const ht::DiffResult r =
        ht::run_differential(source_for(seed), matrix);
    ASSERT_FALSE(r.invalid_input) << r.invalid_reason;
    EXPECT_FALSE(r.diverged()) << "seed " << seed << "\n"
                               << ht::describe(r);
  }
}

TEST(DiffTest, StoreChannelsAgreeOnFloatPrograms) {
  // Float emission stresses the text encoding's round-trip precision.
  const std::vector<ht::DiffConfig> matrix = ht::default_matrix();
  const ht::DiffResult r = ht::run_differential(
      source_for(5, ht::kAllFeatures), matrix);
  ASSERT_FALSE(r.invalid_input) << r.invalid_reason;
  EXPECT_FALSE(r.diverged()) << ht::describe(r);
}

TEST(DiffTest, PlantedDropStoreIsDetected) {
  const std::vector<ht::DiffConfig> matrix = ht::default_matrix();
  const ht::DiffResult r = ht::run_differential(
      source_for(1), matrix, ht::PlantedDefect::DropStore);
  ASSERT_FALSE(r.invalid_input);
  EXPECT_TRUE(r.diverged())
      << "dropping main's last store must change observable state";
}

TEST(DiffTest, PlantedNegateBranchIsDetected) {
  const std::vector<ht::DiffConfig> matrix = ht::default_matrix();
  const ht::DiffResult r = ht::run_differential(
      source_for(1), matrix, ht::PlantedDefect::NegateBranch);
  ASSERT_FALSE(r.invalid_input);
  EXPECT_TRUE(r.diverged());
}

TEST(DiffTest, PlantedDefectNamesRoundTrip) {
  for (ht::PlantedDefect d :
       {ht::PlantedDefect::None, ht::PlantedDefect::DropStore,
        ht::PlantedDefect::NegateBranch}) {
    ht::PlantedDefect parsed = ht::PlantedDefect::None;
    ASSERT_TRUE(ht::parse_planted_defect(
        ht::planted_defect_name(d), parsed));
    EXPECT_EQ(parsed, d);
  }
  ht::PlantedDefect parsed = ht::PlantedDefect::None;
  EXPECT_FALSE(ht::parse_planted_defect("clobber-everything", parsed));
}

TEST(DiffTest, GarbageSourceIsInvalidInputNotDivergence) {
  const ht::DiffResult r = ht::run_differential(
      "int main() { return undeclared_name; }", ht::default_matrix());
  EXPECT_TRUE(r.invalid_input);
  EXPECT_FALSE(r.invalid_reason.empty());
  EXPECT_FALSE(r.diverged());
}

TEST(DiffTest, RunawayBaselineIsInvalidInput) {
  // A loop the tiny budget cannot finish: classified invalid, the way a
  // reducer candidate that deleted a counter update must be.
  const char* spin =
      "void emit(int v);\n"
      "int main() {\n"
      "  int i = 0;\n"
      "  while (i < 100000) { i = i + 1; }\n"
      "  emit(i);\n"
      "  return 0;\n"
      "}\n";
  const ht::DiffResult r = ht::run_differential(
      spin, ht::default_matrix(), ht::PlantedDefect::None, 1000);
  EXPECT_TRUE(r.invalid_input);
  EXPECT_NE(r.invalid_reason.find("budget"), std::string::npos)
      << r.invalid_reason;
}

TEST(DiffTest, DescribeReportsDivergenceConfig) {
  const std::vector<ht::DiffConfig> matrix = ht::default_matrix();
  const ht::DiffResult r = ht::run_differential(
      source_for(1), matrix, ht::PlantedDefect::DropStore);
  ASSERT_TRUE(r.diverged());
  const std::string text = ht::describe(r);
  EXPECT_NE(text.find("DIVERGENCE ["), std::string::npos) << text;
  const ht::DiffResult clean =
      ht::run_differential(source_for(3), matrix);
  EXPECT_NE(ht::describe(clean).find("all configurations agree"),
            std::string::npos);
}

}  // namespace
