#include "machine/timing.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <stdexcept>

#include "frontend/lower.hpp"
#include "frontend/sema.hpp"

namespace hli::machine {
namespace {

using backend::RtlProgram;
using backend::RunResult;

RtlProgram lower(const std::string& src) {
  support::DiagnosticEngine diags;
  frontend::Program prog = frontend::compile_to_ast(src, diags);
  // NOTE: prog must outlive nothing — lower_program copies what it needs.
  return frontend::lower_program(prog);
}

std::uint64_t cycles_inorder(const RtlProgram& rtl, MachineDesc desc) {
  InOrderSim sim(std::move(desc));
  const RunResult r = backend::run_program(rtl, "main", &sim);
  EXPECT_TRUE(r.ok) << r.error;
  return sim.cycles();
}

std::uint64_t cycles_ooo(const RtlProgram& rtl, MachineDesc desc) {
  OutOfOrderSim sim(std::move(desc));
  const RunResult r = backend::run_program(rtl, "main", &sim);
  EXPECT_TRUE(r.ok) << r.error;
  return sim.cycles();
}

constexpr const char* kIndependentWork = R"(
double a[256]; double b[256]; double c[256]; double d[256];
int main() {
  for (int r = 0; r < 10; r++) {
    for (int i = 0; i < 256; i++) {
      a[i] = a[i] * 1.01;
      b[i] = b[i] * 1.02;
      c[i] = c[i] * 1.03;
      d[i] = d[i] * 1.04;
    }
  }
  return 0;
}
)";

TEST(MachineDescTest, LatencyTableShape) {
  const MachineDesc m = r4600();
  backend::Insn load;
  load.op = backend::Opcode::Load;
  backend::Insn fmul;
  fmul.op = backend::Opcode::Mul;
  fmul.is_float = true;
  backend::Insn alu;
  alu.op = backend::Opcode::Add;
  EXPECT_GT(m.latency(load), m.latency(alu));
  EXPECT_GT(m.latency(fmul), m.latency(alu));
}

TEST(MachineDescTest, PresetsDiffer) {
  EXPECT_FALSE(r4600().out_of_order);
  EXPECT_TRUE(r10000().out_of_order);
  EXPECT_GT(r10000().issue_width, r4600().issue_width);
}

TEST(TimingTest, WideCoreBeatsNarrowCoreOnParallelWork) {
  const RtlProgram rtl = lower(kIndependentWork);
  const std::uint64_t narrow = cycles_inorder(rtl, r4600());
  const std::uint64_t wide = cycles_ooo(rtl, r10000());
  EXPECT_LT(wide, narrow);
}

TEST(TimingTest, SerialChainLimitsTheWideCore) {
  // A pure dependence chain: width cannot help; the wide core's advantage
  // collapses compared to the parallel-work case.
  const RtlProgram chain = lower(R"(
double s;
int main() {
  for (int i = 0; i < 2000; i++) { s = s * 1.0000001; }
  return 0;
}
)");
  const RtlProgram parallel = lower(kIndependentWork);
  const double chain_ratio =
      double(cycles_inorder(chain, r4600())) / double(cycles_ooo(chain, r10000()));
  const double parallel_ratio = double(cycles_inorder(parallel, r4600())) /
                                double(cycles_ooo(parallel, r10000()));
  EXPECT_GT(parallel_ratio, chain_ratio);
}

TEST(TimingTest, CacheMissesCost) {
  // Striding through 1 MB thrashes the 32 KB cache; the same count of
  // accesses within one line is much cheaper.
  const RtlProgram thrash = lower(R"(
double big[131072];
double s;
int main() {
  for (int i = 0; i < 131072; i += 512) { s = s + big[i]; }
  return 0;
}
)");
  const RtlProgram friendly = lower(R"(
double big[131072];
double s;
int main() {
  for (int i = 0; i < 256; i++) { s = s + big[i & 3]; }
  return 0;
}
)");
  MachineDesc m = r4600();
  const std::uint64_t miss_cycles = cycles_inorder(thrash, m);
  const std::uint64_t hit_cycles = cycles_inorder(friendly, m);
  EXPECT_GT(miss_cycles, hit_cycles);
}

TEST(TimingTest, InOrderCyclesAtLeastInsnCount) {
  const RtlProgram rtl = lower("int main() { int s = 0; for (int i = 0; i < 100; i++) s += i; return s; }");
  InOrderSim sim(r4600());
  const RunResult r = backend::run_program(rtl, "main", &sim);
  ASSERT_TRUE(r.ok);
  EXPECT_GE(sim.cycles(), sim.insns());
}

TEST(TimingTest, OooRespectsIssueWidth) {
  const RtlProgram rtl = lower(kIndependentWork);
  MachineDesc wide = r10000();
  MachineDesc narrow = r10000();
  narrow.issue_width = 1;
  EXPECT_LT(cycles_ooo(rtl, wide), cycles_ooo(rtl, narrow));
}

TEST(TimingTest, SmallerWindowIsSlower) {
  const RtlProgram rtl = lower(kIndependentWork);
  MachineDesc big = r10000();
  MachineDesc small = r10000();
  small.rob_size = 4;
  EXPECT_LE(cycles_ooo(rtl, big), cycles_ooo(rtl, small));
}

TEST(CacheModelTest, HitAfterInstall) {
  CacheModel cache(r4600());
  EXPECT_FALSE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x1004));  // Same line.
}

TEST(CacheModelTest, ConflictEviction) {
  const MachineDesc m = r4600();
  CacheModel cache(m);
  const std::uint64_t stride = std::uint64_t(m.cache_lines) * m.cache_line_bytes;
  EXPECT_FALSE(cache.access(0x40));
  EXPECT_FALSE(cache.access(0x40 + stride));  // Maps to the same set.
  EXPECT_FALSE(cache.access(0x40));           // Evicted.
}

TEST(CacheModelTest, RejectsNonPowerOfTwoGeometry) {
  MachineDesc odd_line = r4600();
  odd_line.cache_line_bytes = 24;
  EXPECT_THROW(CacheModel{odd_line}, std::invalid_argument);
  MachineDesc odd_count = r4600();
  odd_count.cache_lines = 3;
  EXPECT_THROW(CacheModel{odd_count}, std::invalid_argument);
  MachineDesc empty = r4600();
  empty.cache_lines = 0;
  EXPECT_THROW(CacheModel{empty}, std::invalid_argument);
}

TEST(ReadyTableTest, ClearForgetsEveryRegisterInOneStep) {
  ReadyTable ready;
  EXPECT_EQ(ready.get(backend::kNoReg), 0u);
  EXPECT_EQ(ready.get(1000), 0u);  // Never written, beyond the table.
  ready.set(3, 40);
  ready.set(7, 9);
  EXPECT_EQ(ready.get(3), 40u);
  EXPECT_EQ(ready.get(7), 9u);
  ready.clear();
  EXPECT_EQ(ready.get(3), 0u);
  EXPECT_EQ(ready.get(7), 0u);
  ready.set(7, 11);  // Written again in the new epoch: visible.
  EXPECT_EQ(ready.get(7), 11u);
  EXPECT_EQ(ready.get(3), 0u);
}

TEST(RingTest, FifoOrderAcrossWrapAround) {
  Ring<int> ring(5);  // Rounded up to 8 slots.
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 20; ++round) {
    while (ring.size() < 5) ring.push_back(next_in++);
    for (std::size_t i = 0; i < ring.size(); ++i) {
      EXPECT_EQ(ring[i], next_out + static_cast<int>(i));
    }
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(ring.front(), next_out++);
      ring.pop_front();
    }
  }
  ring.clear();
  EXPECT_TRUE(ring.empty());
  ring.push_back(42);
  EXPECT_EQ(ring.front(), 42);
}

/// Feeds hand-built instructions straight into a timing model.
class SimDriver {
 public:
  backend::Insn& add(backend::Opcode op, backend::Reg rd = backend::kNoReg,
                     backend::Reg rs1 = backend::kNoReg,
                     backend::Reg rs2 = backend::kNoReg) {
    backend::Insn& insn = insns_.emplace_back();
    insn.op = op;
    insn.rd = rd;
    insn.rs1 = rs1;
    insn.rs2 = rs2;
    return insn;
  }
  backend::Insn& fdiv(backend::Reg rd) {
    backend::Insn& insn = add(backend::Opcode::Div, rd);
    insn.is_float = true;
    return insn;
  }
  backend::Insn& store(std::uint64_t address, backend::Reg data) {
    addresses_[insns_.size()] = address;
    backend::Insn& insn = add(backend::Opcode::Store, backend::kNoReg,
                              backend::kNoReg, data);
    insn.mem.size = 8;
    return insn;
  }
  backend::Insn& load(std::uint64_t address, backend::Reg rd) {
    addresses_[insns_.size()] = address;
    backend::Insn& insn = add(backend::Opcode::Load, rd);
    insn.mem.size = 8;
    return insn;
  }
  void run(backend::TraceSink& sink) const {
    for (std::size_t i = 0; i < insns_.size(); ++i) {
      backend::TraceEvent event;
      event.insn = &insns_[i];
      const auto it = addresses_.find(i);
      if (it != addresses_.end()) event.address = it->second;
      sink.on_insn(event);
    }
  }

 private:
  std::deque<backend::Insn> insns_;  ///< Stable addresses for the events.
  std::map<std::size_t, std::uint64_t> addresses_;
};

MachineDesc small_core() {
  MachineDesc m = r10000();
  m.issue_width = 4;
  m.rob_size = 16;
  m.lsq_size = 16;
  m.call_overhead = 4;
  m.lat_load = 2;
  m.lat_store = 1;
  m.lat_fdiv = 36;
  m.lat_miss = 12;
  return m;
}

TEST(TimingTest, CallClearsTheInOrderScoreboard) {
  MachineDesc m = small_core();
  m.out_of_order = false;
  // fdiv r1 (ready at 36); [call]; add r2 <- r1.
  SimDriver with_call;
  with_call.fdiv(1);
  with_call.add(backend::Opcode::Call);
  with_call.add(backend::Opcode::Add, 2, 1);
  InOrderSim cleared(m);
  with_call.run(cleared);
  // The callee frame starts a new epoch: r1 no longer stalls the add.
  EXPECT_EQ(cleared.cycles(), 1u + m.call_overhead + 1u);

  SimDriver without_call;
  without_call.fdiv(1);
  without_call.add(backend::Opcode::Add, 2, 1);
  InOrderSim stalled(m);
  without_call.run(stalled);
  EXPECT_EQ(stalled.cycles(), 37u);
}

TEST(TimingTest, FullReorderBufferHoldsDispatch) {
  // Three independent 36-cycle divides: a 2-entry ROB admits the third
  // only when the first completes; a 4-entry ROB runs all three at once.
  SimDriver divides;
  divides.fdiv(1);
  divides.fdiv(2);
  divides.fdiv(3);
  MachineDesc narrow = small_core();
  narrow.rob_size = 2;
  OutOfOrderSim full(narrow);
  divides.run(full);
  EXPECT_EQ(full.cycles(), 72u);
  MachineDesc wide = small_core();
  wide.rob_size = 4;
  OutOfOrderSim roomy(wide);
  divides.run(roomy);
  EXPECT_EQ(roomy.cycles(), 36u);
}

TEST(TimingTest, FullStoreQueueDropsTheOldestStore) {
  // st [64] <- r1 (data late: fdiv), st [128], ld [64].  With one LSQ
  // entry the second store pushes the first out, so the load only waits
  // for the second store's address check; with two it must also wait for
  // the first store's data (forwarding from the overlapping store).
  SimDriver seq;
  seq.fdiv(1);
  seq.store(64, 1);
  seq.store(128, backend::kNoReg);
  seq.load(64, 5);
  MachineDesc one = small_core();
  one.lsq_size = 1;
  OutOfOrderSim evicting(one);
  seq.run(evicting);
  // The load completes at 6; the late store (36 + 1 + 12 miss) bounds it.
  EXPECT_EQ(evicting.cycles(), 49u);
  MachineDesc two = small_core();
  two.lsq_size = 2;
  OutOfOrderSim holding(two);
  seq.run(holding);
  // Load waits for store 1's data (49), then checks store 2: 50 + 2.
  EXPECT_EQ(holding.cycles(), 52u);
}

}  // namespace
}  // namespace hli::machine
