// Unit tests for the back-end optimization passes: the GCC-style alias
// oracle, CSE (Figure 4), LICM, unrolling (Figure 6), and the scheduler's
// dependence accounting (Figure 5 / Table 2 counters).
#include <gtest/gtest.h>

#include "backend/cse.hpp"
#include "backend/gcc_alias.hpp"
#include "backend/interp.hpp"
#include "backend/licm.hpp"
#include "frontend/lower.hpp"
#include "backend/mapping.hpp"
#include "backend/sched.hpp"
#include "backend/unroll.hpp"
#include "frontend/sema.hpp"
#include "frontend/hligen.hpp"
#include "hli/query.hpp"
#include "sched_reference.hpp"

namespace hli::backend {
namespace {

// ---------------------------------------------------------------------
// GCC alias oracle.
// ---------------------------------------------------------------------

MemRef sym_ref(std::int32_t sym, std::int64_t offset, bool known,
               std::uint8_t size = 4) {
  MemRef m;
  m.base = MemBase::Symbol;
  m.symbol = sym;
  m.const_offset = offset;
  m.offset_known = known;
  m.size = size;
  return m;
}

TEST(GccAliasTest, DistinctSymbolsConstOffsetsIndependent) {
  EXPECT_FALSE(gcc_may_conflict(sym_ref(0, 0, true), sym_ref(1, 0, true)));
}

TEST(GccAliasTest, SameSymbolOverlappingOffsetsConflict) {
  EXPECT_TRUE(gcc_may_conflict(sym_ref(0, 4, true), sym_ref(0, 4, true)));
  EXPECT_TRUE(gcc_may_conflict(sym_ref(0, 2, true, 4), sym_ref(0, 4, true, 4)));
}

TEST(GccAliasTest, SameSymbolDisjointOffsetsIndependent) {
  EXPECT_FALSE(gcc_may_conflict(sym_ref(0, 0, true), sym_ref(0, 8, true)));
}

TEST(GccAliasTest, UnknownOffsetLosesTheBaseSymbol) {
  // The GCC 2.7 blindness the paper exploits: once a subscript is in a
  // register, even a DIFFERENT array conservatively conflicts.
  EXPECT_TRUE(gcc_may_conflict(sym_ref(0, 0, false), sym_ref(1, 0, true)));
  EXPECT_TRUE(gcc_may_conflict(sym_ref(0, 0, false), sym_ref(0, 0, false)));
}

TEST(GccAliasTest, PointerConflictsWithEverything) {
  MemRef p;
  p.base = MemBase::Pointer;
  EXPECT_TRUE(gcc_may_conflict(p, sym_ref(0, 0, true)));
}

TEST(GccAliasTest, FrameVsSymbolIndependent) {
  MemRef f;
  f.base = MemBase::Frame;
  f.frame_offset = 16;
  f.offset_known = true;
  EXPECT_FALSE(gcc_may_conflict(f, sym_ref(0, 0, true)));
}

TEST(GccAliasTest, FrameSlotsDisjointByOffset) {
  MemRef f1;
  f1.base = MemBase::Frame;
  f1.frame_offset = 0;
  f1.offset_known = true;
  MemRef f2 = f1;
  f2.frame_offset = 8;
  EXPECT_FALSE(gcc_may_conflict(f1, f2));
  f2.frame_offset = 2;
  EXPECT_TRUE(gcc_may_conflict(f1, f2));
}

// ---------------------------------------------------------------------
// Pass harness.
// ---------------------------------------------------------------------

struct Compiled {
  frontend::Program prog;
  format::HliFile hli;
  RtlProgram rtl;

  explicit Compiled(const std::string& src) {
    support::DiagnosticEngine diags;
    prog = frontend::compile_to_ast(src, diags);
    hli = builder::build_hli(prog);
    rtl = lower_program(prog);
    for (RtlFunction& f : rtl.functions) {
      if (format::HliEntry* entry = hli.find_unit(f.name)) {
        const MapResult r = map_items(f, *entry);
        EXPECT_TRUE(r.perfect()) << f.name;
      }
    }
  }

  [[nodiscard]] std::int64_t run() {
    const RunResult result = run_program(rtl, "main");
    EXPECT_TRUE(result.ok) << result.error;
    return result.return_value;
  }
};

// ---------------------------------------------------------------------
// CSE.
// ---------------------------------------------------------------------

TEST(CseTest, ReusesPureExpression) {
  Compiled c(R"(
int g; int h;
int main() { g = 3; h = 4; return (g + h) * (g + h); }
)");
  CseOptions opts;
  const CseStats stats = cse_function(*c.rtl.find_function("main"), opts);
  EXPECT_GT(stats.exprs_reused + stats.loads_reused, 0u);
  EXPECT_EQ(c.run(), 49);
}

TEST(CseTest, ReusesLoadWithoutInterveningStore) {
  Compiled c("int g; int main() { g = 6; return g + g; }");
  CseOptions opts;
  const CseStats stats = cse_function(*c.rtl.find_function("main"), opts);
  EXPECT_GE(stats.loads_reused, 1u);
  EXPECT_EQ(c.run(), 12);
}

TEST(CseTest, StoreInvalidatesConflictingLoad) {
  Compiled c(R"(
int a[4];
int main() { int i = 1; int x = a[i]; a[i] = 9; return x + a[i]; }
)");
  CseOptions opts;
  (void)cse_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(c.run(), 9);  // x == 0 (zero-init), then a[i] == 9.
}

TEST(CseTest, HliKeepsLoadAcrossIndependentStore) {
  // Natively, a[i] load after b[j] store is purged (unknown offsets); with
  // HLI the disjoint arrays keep the entry.
  const char* src = R"(
int a[8]; int b[8];
int main() { int i = 2; int j = 3;
  int x = a[i]; b[j] = 5; return x + a[i]; }
)";
  Compiled native(src);
  CseOptions nat;
  const CseStats native_stats = cse_function(*native.rtl.find_function("main"), nat);
  EXPECT_EQ(native.run(), 0);

  Compiled assisted(src);
  const query::HliUnitView view(*assisted.hli.find_unit("main"));
  CseOptions hli_opts;
  hli_opts.use_hli = true;
  hli_opts.view = &view;
  const CseStats hli_stats = cse_function(*assisted.rtl.find_function("main"), hli_opts);
  EXPECT_GT(hli_stats.loads_reused, native_stats.loads_reused);
  EXPECT_EQ(assisted.run(), 0);
}

TEST(CseTest, NativeCallPurgesEverything) {
  const char* src = R"(
int g; int unrelated;
void bump() { unrelated++; }
int main() { g = 4; int x = g; bump(); return x + g; }
)";
  Compiled c(src);
  CseOptions opts;
  const CseStats stats = cse_function(*c.rtl.find_function("main"), opts);
  EXPECT_GT(stats.entries_purged_at_calls, 0u);
  EXPECT_EQ(c.run(), 8);
}

TEST(CseTest, Figure4RefModKeepsEntriesOverCall) {
  const char* src = R"(
int g; int unrelated;
void bump() { unrelated++; }
int main() { g = 4; int x = g; bump(); return x + g; }
)";
  Compiled c(src);
  const query::HliUnitView view(*c.hli.find_unit("main"));
  CseOptions opts;
  opts.use_hli = true;
  opts.view = &view;
  const CseStats stats = cse_function(*c.rtl.find_function("main"), opts);
  EXPECT_GT(stats.entries_kept_at_calls, 0u);
  EXPECT_EQ(c.run(), 8);
}

TEST(CseTest, RefModPurgesEntriesTheCalleeWrites) {
  const char* src = R"(
int g;
void clobber() { g = 99; }
int main() { g = 4; int x = g; clobber(); return x * 1000 + g; }
)";
  Compiled c(src);
  const query::HliUnitView view(*c.hli.find_unit("main"));
  CseOptions opts;
  opts.use_hli = true;
  opts.view = &view;
  (void)cse_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(c.run(), 4099);  // The reload after the call must see 99.
}

// ---------------------------------------------------------------------
// LICM.
// ---------------------------------------------------------------------

TEST(LicmTest, HoistsInvariantLoadWithHli) {
  const char* src = R"(
int a[64]; int k; int s;
int main() {
  k = 7;
  for (int i = 0; i < 64; i++) { a[i] = k; }
  return a[9];
}
)";
  Compiled c(src);
  const query::HliUnitView view(*c.hli.find_unit("main"));
  LicmOptions opts;
  opts.use_hli = true;
  opts.view = &view;
  const LicmStats stats = licm_function(*c.rtl.find_function("main"), opts);
  EXPECT_GE(stats.loads_hoisted, 1u);  // The k load leaves the loop.
  EXPECT_EQ(c.run(), 7);
}

TEST(LicmTest, NativeOracleBlocksTheSameLoad) {
  const char* src = R"(
int a[64]; int k; int s;
int main() {
  k = 7;
  for (int i = 0; i < 64; i++) { a[i] = k; }
  return a[9];
}
)";
  Compiled c(src);
  LicmOptions opts;  // No HLI: a[i] store (unknown offset) blocks k load.
  const LicmStats stats = licm_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(stats.loads_hoisted, 0u);
  EXPECT_GT(stats.loads_blocked_native, 0u);
  EXPECT_EQ(c.run(), 7);
}

TEST(LicmTest, ConflictingStoreBlocksHoistEvenWithHli) {
  const char* src = R"(
int a[64];
int main() {
  a[0] = 3;
  int s = 0;
  for (int i = 0; i < 64; i++) { s += a[0]; a[i] = i; }
  return s;
}
)";
  Compiled c(src);
  const query::HliUnitView view(*c.hli.find_unit("main"));
  LicmOptions opts;
  opts.use_hli = true;
  opts.view = &view;
  (void)licm_function(*c.rtl.find_function("main"), opts);
  // a[0] is overwritten by a[i] at i==0: result must reflect execution
  // order (first iteration reads 3, later ones read 0).
  EXPECT_EQ(c.run(), 3);
}

TEST(LicmTest, PureAddressComputationHoistsNatively) {
  const char* src = R"(
int a[64];
int main() {
  for (int i = 0; i < 64; i++) { a[i] = i; }
  return a[10];
}
)";
  Compiled c(src);
  LicmOptions opts;
  const LicmStats stats = licm_function(*c.rtl.find_function("main"), opts);
  EXPECT_GT(stats.pure_hoisted, 0u);  // The LoadAddr of `a` at least.
  EXPECT_EQ(c.run(), 10);
}

// ---------------------------------------------------------------------
// Unrolling.
// ---------------------------------------------------------------------

TEST(UnrollTest, UnrollsCountedLoopAndPreservesSemantics) {
  const char* src = R"(
int a[64];
int main() {
  for (int i = 0; i < 64; i++) { a[i] = i * 3; }
  int s = 0;
  for (int i = 0; i < 64; i++) { s += a[i]; }
  return s;
}
)";
  Compiled c(src);
  UnrollOptions opts;
  opts.factor = 4;
  opts.entry = c.hli.find_unit("main");
  const UnrollStats stats = unroll_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(stats.loops_unrolled, 2u);
  EXPECT_EQ(c.run(), 3 * (63 * 64 / 2));
}

TEST(UnrollTest, RejectsNonDivisibleTripCount) {
  Compiled c(R"(
int a[10];
int main() { for (int i = 0; i < 10; i++) { a[i] = i; } return a[9]; }
)");
  UnrollOptions opts;
  opts.factor = 4;
  opts.entry = c.hli.find_unit("main");
  const UnrollStats stats = unroll_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(stats.loops_unrolled, 0u);
  EXPECT_EQ(stats.loops_rejected, 1u);
  EXPECT_EQ(c.run(), 9);
}

TEST(UnrollTest, RejectsBranchyBody) {
  Compiled c(R"(
int a[16];
int main() {
  for (int i = 0; i < 16; i++) { if (i > 7) { a[i] = i; } }
  return a[9];
}
)");
  UnrollOptions opts;
  opts.factor = 2;
  opts.entry = c.hli.find_unit("main");
  const UnrollStats stats = unroll_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(stats.loops_unrolled, 0u);
  EXPECT_EQ(c.run(), 9);
}

TEST(UnrollTest, AccumulatorStaysCarriedAcrossCopies) {
  Compiled c(R"(
int a[32]; int s;
int main() {
  for (int i = 0; i < 32; i++) { a[i] = i; }
  for (int i = 0; i < 32; i++) { s += a[i]; }
  return s;
}
)");
  UnrollOptions opts;
  opts.factor = 8;
  opts.entry = c.hli.find_unit("main");
  (void)unroll_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(c.run(), 31 * 32 / 2);
}

TEST(UnrollTest, RecurrencePreservedAfterUnroll) {
  Compiled c(R"(
int a[64];
int main() {
  a[0] = 1;
  for (int i = 1; i <= 32; i++) { a[i] = a[i-1] + 2; }
  return a[32];
}
)");
  UnrollOptions opts;
  opts.factor = 4;
  opts.entry = c.hli.find_unit("main");
  const UnrollStats stats = unroll_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(stats.loops_unrolled, 1u);
  // Then schedule WITH the maintained HLI: must not break the recurrence.
  const query::HliUnitView view(*c.hli.find_unit("main"));
  SchedOptions sched;
  sched.use_hli = true;
  sched.view = &view;
  (void)schedule_function(*c.rtl.find_function("main"), sched);
  EXPECT_EQ(c.run(), 65);
}

// ---------------------------------------------------------------------
// Scheduler dependence accounting (Figure 5).
// ---------------------------------------------------------------------

TEST(SchedTest, CountsOnlyWriteInvolvingMemPairs) {
  Compiled c(R"(
int a[8]; int b[8];
int main() { int i = 1; int x = a[i] + b[i]; return x; }
)");
  SchedOptions opts;
  const DepStats stats = schedule_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(stats.mem_queries, 0u);  // Load-load pairs are never queried.
}

TEST(SchedTest, HliPrunesCrossArrayEdges) {
  Compiled c(R"(
int a[8]; int b[8];
int main() { int i = 1; a[i] = 1; b[i] = 2; return a[i] + b[i]; }
)");
  const query::HliUnitView view(*c.hli.find_unit("main"));
  SchedOptions opts;
  opts.use_hli = true;
  opts.view = &view;
  const DepStats stats = schedule_function(*c.rtl.find_function("main"), opts);
  EXPECT_GT(stats.mem_queries, 0u);
  EXPECT_GT(stats.gcc_yes, stats.combined_yes);
  EXPECT_EQ(c.run(), 3);
}

TEST(SchedTest, TrueDependencePreservedUnderHli) {
  Compiled c(R"(
int a[8];
int main() { int i = 2; a[i] = 41; a[i] = a[i] + 1; return a[i]; }
)");
  const query::HliUnitView view(*c.hli.find_unit("main"));
  SchedOptions opts;
  opts.use_hli = true;
  opts.view = &view;
  (void)schedule_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(c.run(), 42);
}

TEST(SchedTest, CallEdgesRelaxedByRefMod) {
  Compiled c(R"(
int g; int other;
void bump_other() { other++; }
int main() { g = 1; bump_other(); g = g + 1; return g; }
)");
  const query::HliUnitView view(*c.hli.find_unit("main"));
  SchedOptions opts;
  opts.use_hli = true;
  opts.view = &view;
  const DepStats stats = schedule_function(*c.rtl.find_function("main"), opts);
  EXPECT_GT(stats.call_queries, 0u);
  EXPECT_LT(stats.call_edges_hli, stats.call_edges_native);
  EXPECT_EQ(c.run(), 2);
}

TEST(SchedTest, NativeEqualsCombinedWhenHliOff) {
  Compiled c(R"(
int a[8];
int main() { int i = 1; a[i] = 5; a[i+1] = 6; return a[i]; }
)");
  SchedOptions opts;  // No view.
  const DepStats stats = schedule_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(stats.gcc_yes, stats.hli_yes);  // Fallback: hli == native.
  EXPECT_EQ(c.run(), 5);
}

// Hand-built blocks for the corners of the register dependences and the
// ready-list order.  Each block is scheduled (a Return closes it) and the
// result must equal the reference scheduler's and the expected order,
// given as positions in the source block.

Insn sched_insn(Opcode code, Reg rd, Reg rs1 = kNoReg, Reg rs2 = kNoReg,
                std::int64_t imm = 0) {
  Insn insn;
  insn.op = code;
  insn.rd = rd;
  insn.rs1 = rs1;
  insn.rs2 = rs2;
  insn.imm = imm;
  return insn;
}

Insn sched_call(Reg rd, const std::string& callee, std::vector<Reg> args) {
  Insn insn = sched_insn(Opcode::Call, rd);
  insn.callee = callee;
  insn.args = std::move(args);
  return insn;
}

std::vector<std::size_t> schedule_block(
    const std::vector<Insn>& block,
    std::function<unsigned(const Insn&)> latency = {}) {
  RtlFunction func;
  func.name = "block";
  func.num_regs = 8;
  func.insns = block;
  func.insns.push_back(sched_insn(Opcode::Return, kNoReg));
  SchedOptions opts;
  opts.latency = std::move(latency);
  RtlFunction expected = func;
  const DepStats want = reference::schedule_function(expected, opts);
  const DepStats got = schedule_function(func, opts);
  EXPECT_EQ(to_string(func), to_string(expected));
  EXPECT_EQ(got.mem_queries, want.mem_queries);
  EXPECT_EQ(got.call_queries, want.call_queries);
  EXPECT_EQ(got.call_edges_native, want.call_edges_native);
  EXPECT_EQ(got.scheduled_insns, want.scheduled_insns);
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < block.size(); ++k) {
    const std::string text = to_string(func.insns[k]);
    for (std::size_t at = 0; at < block.size(); ++at) {
      if (to_string(block[at]) == text) order.push_back(at);
    }
  }
  return order;
}

using Order = std::vector<std::size_t>;

TEST(SchedTest, SameRegisterInBothOperands) {
  // Mul r1 = r0 * r0 depends on r0's writer once, not twice: a doubled
  // predecessor count would never release it.
  const std::vector<Insn> block = {
      sched_insn(Opcode::LoadImm, 0, kNoReg, kNoReg, 2),
      sched_insn(Opcode::Mul, 1, 0, 0),
      sched_insn(Opcode::Add, 2, 1, 1),
      sched_insn(Opcode::Add, 3, 2, 2),
      sched_insn(Opcode::LoadImm, 4, kNoReg, kNoReg, 9)};
  EXPECT_EQ(schedule_block(block), (Order{0, 1, 2, 3, 4}));
}

TEST(SchedTest, CallArgumentsAreReads) {
  // Both argument registers order their writers before the call; without
  // those edges the call chain (priority 3) would go first.
  const std::vector<Insn> block = {
      sched_insn(Opcode::LoadImm, 0, kNoReg, kNoReg, 7),
      sched_insn(Opcode::LoadImm, 1, kNoReg, kNoReg, 8),
      sched_call(2, "f", {0, 1}),
      sched_call(3, "g", {}),
      sched_insn(Opcode::Add, 4, 3, 3)};
  EXPECT_EQ(schedule_block(block), (Order{0, 1, 2, 3, 4}));
}

TEST(SchedTest, StoreValueIsReadNotWritten) {
  // The store reads r1 (rs2), so rewriting r1 waits for it (anti).
  const std::vector<Insn> anti = {
      sched_insn(Opcode::LoadImm, 0, kNoReg, kNoReg, 64),
      sched_insn(Opcode::LoadImm, 1, kNoReg, kNoReg, 9),
      sched_insn(Opcode::Store, kNoReg, 0, 1),
      sched_insn(Opcode::LoadImm, 1, kNoReg, kNoReg, 5),
      sched_insn(Opcode::Add, 2, 1, 1),
      sched_insn(Opcode::Add, 3, 2, 2)};
  EXPECT_EQ(schedule_block(anti), (Order{0, 1, 2, 3, 4, 5}));
  // A store writes no register, even with its rd field set: a later
  // reader of r1 depends on r1's LoadImm only and may pass the store.
  const std::vector<Insn> no_write = {
      sched_insn(Opcode::LoadImm, 0, kNoReg, kNoReg, 64),
      sched_insn(Opcode::LoadImm, 1, kNoReg, kNoReg, 9),
      sched_insn(Opcode::Store, 1, 0, 1),
      sched_insn(Opcode::Add, 2, 1, 1),
      sched_insn(Opcode::Add, 3, 2, 2),
      sched_insn(Opcode::Add, 4, 3, 3)};
  EXPECT_EQ(schedule_block(no_write), (Order{1, 3, 0, 4, 2, 5}));
}

TEST(SchedTest, RegisterWrittenTwiceInOneBlock) {
  // WAR: the second write of r1 waits for the read of the first value.
  const std::vector<Insn> war = {
      sched_insn(Opcode::LoadImm, 1, kNoReg, kNoReg, 1),
      sched_insn(Opcode::Add, 2, 1, 1),
      sched_insn(Opcode::LoadImm, 1, kNoReg, kNoReg, 5),
      sched_insn(Opcode::Add, 3, 1, 1),
      sched_insn(Opcode::Add, 4, 3, 3),
      sched_insn(Opcode::Add, 5, 4, 4)};
  EXPECT_EQ(schedule_block(war), (Order{0, 1, 2, 3, 4, 5}));
  // WAW: a 4-cycle Mul that rewrites r1 (reading r7, which the block
  // never writes) would go first without the output dependence.
  const std::vector<Insn> waw = {
      sched_insn(Opcode::LoadImm, 1, kNoReg, kNoReg, 1),
      sched_insn(Opcode::Mul, 1, 7, 7),
      sched_insn(Opcode::Add, 3, 1, 1)};
  const auto mul_is_slow = [](const Insn& insn) {
    return insn.op == Opcode::Mul ? 4u : 1u;
  };
  EXPECT_EQ(schedule_block(waw, mul_is_slow), (Order{0, 1, 2}));
}

TEST(SchedTest, EqualPriorityKeepsSourceOrder) {
  // Instructions 1 and 2 both have priority 1; 1 becomes ready only after
  // 0 is picked, yet still goes before 2.
  const std::vector<Insn> block = {
      sched_insn(Opcode::LoadImm, 1, kNoReg, kNoReg, 1),
      sched_insn(Opcode::Add, 2, 1, 1),
      sched_insn(Opcode::LoadImm, 3, kNoReg, kNoReg, 3)};
  EXPECT_EQ(schedule_block(block), (Order{0, 1, 2}));
  const std::vector<Insn> independent = {
      sched_insn(Opcode::LoadImm, 1, kNoReg, kNoReg, 1),
      sched_insn(Opcode::LoadImm, 2, kNoReg, kNoReg, 2),
      sched_insn(Opcode::LoadImm, 3, kNoReg, kNoReg, 3)};
  EXPECT_EQ(schedule_block(independent), (Order{0, 1, 2}));
}

}  // namespace
}  // namespace hli::backend
