#include "backend/interp.hpp"

#include <gtest/gtest.h>

#include "frontend/lower.hpp"
#include "frontend/sema.hpp"

namespace hli::backend {
namespace {

RunResult run_src(const std::string& src, const InterpOptions& options = {}) {
  support::DiagnosticEngine diags;
  frontend::Program prog = frontend::compile_to_ast(src, diags);
  RtlProgram rtl = lower_program(prog);
  return run_program(rtl, "main", nullptr, options);
}

TEST(InterpTest, ReturnsValue) {
  const RunResult r = run_src("int main() { return 41 + 1; }");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.return_value, 42);
}

TEST(InterpTest, EmitHashIsOrderSensitive) {
  const RunResult a = run_src(
      "void emit(int v); int main() { emit(1); emit(2); return 0; }");
  const RunResult b = run_src(
      "void emit(int v); int main() { emit(2); emit(1); return 0; }");
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_NE(a.output_hash, b.output_hash);
  EXPECT_EQ(a.emit_count, 2u);
}

TEST(InterpTest, MathBuiltins) {
  const RunResult r = run_src(R"(
double sqrt(double x);
double pow(double a, double b);
int main() { return (sqrt(16.0) == 4.0 && pow(2.0, 10.0) == 1024.0) ? 1 : 0; }
)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.return_value, 1);
}

TEST(InterpTest, UnknownExternFails) {
  const RunResult r = run_src("void mystery(); int main() { mystery(); return 0; }");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("mystery"), std::string::npos);
}

TEST(InterpTest, MissingEntryFails) {
  const RunResult r = run_src("int helper() { return 3; }");
  EXPECT_FALSE(r.ok);
}

TEST(InterpTest, DivisionByZeroTrapsCleanly) {
  const RunResult r = run_src("int z; int main() { return 5 / z; }");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("division"), std::string::npos);
}

TEST(InterpTest, InstructionBudgetStopsRunaway) {
  InterpOptions options;
  options.max_insns = 10'000;
  const RunResult r = run_src("int main() { while (1) { } return 0; }", options);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("budget"), std::string::npos);
}

TEST(InterpTest, DeepRecursionTrapsCleanly) {
  InterpOptions options;
  options.max_call_depth = 64;
  const RunResult r = run_src(
      "int down(int n) { return down(n + 1); } int main() { return down(0); }",
      options);
  EXPECT_FALSE(r.ok);
}

TEST(InterpTest, GlobalArraysZeroInitialized) {
  const RunResult r = run_src("double d[16]; int a[16]; int main() {"
                              " return (d[7] == 0.0 && a[3] == 0) ? 1 : 0; }");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.return_value, 1);
}

TEST(InterpTest, Int32TruncationOnStore) {
  // Stored ints are 4 bytes: large intermediate values wrap as in C.
  const RunResult r = run_src(R"(
int g;
int main() { g = 2147483647; g = g + 1; return g < 0 ? 1 : 0; }
)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.return_value, 1);
}

TEST(InterpTest, FloatMemoryIsSinglePrecision) {
  const RunResult r = run_src(R"(
float f[2];
int main() {
  f[0] = 0.1;
  double d = f[0];
  return (d > 0.0999 && d < 0.1001 && d != 0.1) ? 1 : 0;
}
)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.return_value, 1);
}

TEST(InterpTest, DynamicInsnCountGrowsWithWork) {
  const RunResult small = run_src(
      "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }");
  const RunResult big = run_src(
      "int main() { int s = 0; for (int i = 0; i < 1000; i++) s += i; return s; }");
  ASSERT_TRUE(small.ok && big.ok);
  EXPECT_GT(big.dynamic_insns, small.dynamic_insns * 10);
}

TEST(InterpTest, TraceSinkSeesMemoryAddresses) {
  class Collector : public TraceSink {
   public:
    void on_insn(const TraceEvent& event) override {
      if (event.insn->op == Opcode::Store) store_addrs.push_back(event.address);
    }
    std::vector<std::uint64_t> store_addrs;
  };
  support::DiagnosticEngine diags;
  frontend::Program prog = frontend::compile_to_ast(
      "int a[4]; int main() { a[0] = 1; a[1] = 2; return 0; }", diags);
  RtlProgram rtl = lower_program(prog);
  Collector sink;
  const RunResult r = run_program(rtl, "main", &sink);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(sink.store_addrs.size(), 2u);
  EXPECT_EQ(sink.store_addrs[1] - sink.store_addrs[0], 4u);
}

// --- Hand-built RTL: malformed programs must fail with an interp: error,
// never escape run_program as an exception. ---

Insn op(Opcode code, Reg rd = kNoReg, Reg rs1 = kNoReg, Reg rs2 = kNoReg) {
  Insn insn;
  insn.op = code;
  insn.rd = rd;
  insn.rs1 = rs1;
  insn.rs2 = rs2;
  return insn;
}

Insn imm(Reg rd, std::int64_t value) {
  Insn insn = op(Opcode::LoadImm, rd);
  insn.imm = value;
  return insn;
}

Insn branch(Opcode code, std::int32_t label, Reg rs1 = kNoReg) {
  Insn insn = op(code, kNoReg, rs1);
  insn.label = label;
  return insn;
}

Insn call(const std::string& callee) {
  Insn insn = op(Opcode::Call);
  insn.callee = callee;
  return insn;
}

Insn store(Reg addr, Reg value, std::uint8_t size) {
  Insn insn = op(Opcode::Store, kNoReg, addr, value);
  insn.mem.size = size;
  return insn;
}

RtlFunction function(const std::string& name, std::vector<Insn> insns) {
  RtlFunction f;
  f.name = name;
  f.num_regs = 4;
  f.insns = std::move(insns);
  return f;
}

void expect_interp_error(const RunResult& r, const std::string& detail) {
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.rfind("interp: ", 0), 0u) << r.error;
  EXPECT_NE(r.error.find(detail), std::string::npos) << r.error;
}

TEST(InterpTest, BranchToUndefinedLabelFailsCleanly) {
  RtlProgram prog;
  prog.functions.push_back(function(
      "main", {imm(1, 0), branch(Opcode::BranchZ, 7, 1), op(Opcode::Return)}));
  expect_interp_error(run_program(prog), "undefined label 7");

  // Target validation covers every function, called or not.
  RtlProgram dead;
  dead.functions.push_back(function("main", {op(Opcode::Return)}));
  dead.functions.push_back(function("dead", {branch(Opcode::Jump, 3)}));
  expect_interp_error(run_program(dead), "undefined label 3 in 'dead'");
}

TEST(InterpTest, DuplicateLabelResolvesToLastDefinition) {
  Insn first = op(Opcode::Label);
  first.label = 5;
  Insn second = first;
  RtlProgram prog;
  prog.functions.push_back(function(
      "main", {branch(Opcode::Jump, 5), first, imm(1, 1), second,
               op(Opcode::Return, kNoReg, 1)}));
  const RunResult r = run_program(prog);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.return_value, 0);  // The imm between the labels is skipped.
}

TEST(InterpTest, UnknownCalleeFailsCleanlyWhenReached) {
  RtlProgram prog;
  prog.functions.push_back(
      function("main", {call("nowhere"), op(Opcode::Return)}));
  expect_interp_error(run_program(prog), "unknown extern 'nowhere'");

  // A call that never executes is not an error.
  Insn skip = op(Opcode::Label);
  skip.label = 1;
  RtlProgram untaken;
  untaken.functions.push_back(function(
      "main", {branch(Opcode::Jump, 1), call("nowhere"), skip,
               op(Opcode::Return)}));
  const RunResult r = run_program(untaken);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(InterpTest, TraceSinkSeesEachExecutedInsnOnce) {
  // A countdown loop whose exit branch falls through twice and is taken
  // once.  The sink must see every executed instruction once, except the
  // Label notes: 2 before the loop, 3 per pass through the body (branch,
  // add, jump), the final taken branch and the Return.
  class Counter : public TraceSink {
   public:
    void on_insn(const TraceEvent& event) override {
      ++events;
      if (is_branch(event.insn->op)) ++branches;
    }
    std::uint64_t events = 0;
    std::uint64_t branches = 0;
  };
  Insn top = op(Opcode::Label);
  top.label = 1;
  Insn done = op(Opcode::Label);
  done.label = 2;
  RtlProgram prog;
  prog.functions.push_back(function(
      "main", {imm(1, 2), imm(2, -1), top, branch(Opcode::BranchZ, 2, 1),
               op(Opcode::Add, 1, 1, 2), branch(Opcode::Jump, 1), done,
               op(Opcode::Return, kNoReg, 1)}));
  Counter sink;
  const RunResult r = run_program(prog, "main", &sink);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.return_value, 0);
  EXPECT_EQ(sink.events, 2u + 2u * 3u + 1u + 1u);
  EXPECT_EQ(sink.branches, 3u + 2u + 1u);  // BranchZ x3, Jump x2, Return.
  const std::uint64_t labels = 3u + 1u;    // `top` three times, `done` once.
  EXPECT_EQ(sink.events, r.dynamic_insns - labels);
}

TEST(InterpTest, StoreJustPastArenaEndFailsCleanly) {
  InterpOptions options;
  options.memory_bytes = 1u << 16;
  const auto store_at = [&](std::int64_t address, std::uint8_t size) {
    RtlProgram prog;
    prog.functions.push_back(function(
        "main", {imm(1, address), imm(2, 9), store(1, 2, size),
                 op(Opcode::Return)}));
    return run_program(prog, "main", nullptr, options);
  };
  EXPECT_TRUE(store_at((1 << 16) - 4, 4).ok);  // The last word fits.
  expect_interp_error(store_at((1 << 16) - 2, 4), "out of range");
  expect_interp_error(store_at(1 << 16, 8), "out of range");
  // An address whose end wraps past 2^64 must not slip under the bound.
  expect_interp_error(store_at(-4, 8), "out of range");
}

}  // namespace
}  // namespace hli::backend
