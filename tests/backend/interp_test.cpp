#include "backend/interp.hpp"

#include <gtest/gtest.h>

#include <cstring>

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

TEST(InterpTest, MemoryWidthOtherThanFourOrEightIsMalformed) {
  // Only widths 4 and 8 exist; any other is rejected before execution,
  // so a 1-byte access at the last arena byte can never move 8 bytes.
  InterpOptions options;
  options.memory_bytes = 1u << 16;
  for (const std::uint8_t width : {1, 2, 16}) {
    RtlProgram prog;
    prog.functions.push_back(function(
        "main", {imm(1, (1 << 16) - 1), imm(2, 9), store(1, 2, width),
                 op(Opcode::Return)}));
    expect_interp_error(run_program(prog, "main", nullptr, options),
                        "width " + std::to_string(width) + " in 'main'");
  }
  // A Load too, and in a function that never runs.
  Insn load = op(Opcode::Load, 1, 2);
  load.mem.size = 1;
  RtlProgram dead;
  dead.functions.push_back(function("main", {op(Opcode::Return)}));
  dead.functions.push_back(function("dead", {load, op(Opcode::Return)}));
  expect_interp_error(run_program(dead, "main", nullptr, options),
                      "width 1 in 'dead'");
}

TEST(InterpTest, AddressOfUndefinedGlobalIsMalformed) {
  Insn addr = op(Opcode::LoadAddr, 1);
  addr.label = 2;  // The program defines globals 0 and 1 only.
  RtlProgram prog;
  prog.globals.push_back(GlobalVar{"a", 8, false, {}, {}});
  prog.globals.push_back(GlobalVar{"b", 8, false, {}, {}});
  prog.functions.push_back(function("main", {op(Opcode::Return)}));
  prog.functions.push_back(function("dead", {addr, op(Opcode::Return)}));
  expect_interp_error(run_program(prog), "undefined global 2 in 'dead'");
}

// --- Opcode matrix: every Opcode with is_float off and on, Load/Store at
// both widths, each run sink-free and under a counting sink. ---

Insn fimm(Reg rd, double value) {
  Insn insn = op(Opcode::LoadImm, rd);
  insn.is_float = true;
  insn.fimm = value;
  return insn;
}

Insn with_float(Insn insn, bool is_float) {
  insn.is_float = is_float;
  return insn;
}

Insn call_with(const std::string& callee, Reg rd, std::vector<Reg> args) {
  Insn insn = call(callee);
  insn.rd = rd;
  insn.args = std::move(args);
  return insn;
}

Insn memory(Opcode code, Reg rd, Reg addr, Reg value, std::uint8_t size,
            bool is_float, std::int64_t offset) {
  Insn insn = op(code, rd, addr, value);
  insn.is_float = is_float;
  insn.mem.size = size;
  insn.mem.const_offset = offset;
  return insn;
}

/// The output hash of a run whose only emit is emitd(v).
std::uint64_t emitted(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  return 1469598103934665603ull * 1099511628211ull ^ bits;
}

/// Runs `prog` sink-free and under a counting sink; the two RunResults
/// must be identical, and the sink sees no more events than instructions.
RunResult run_both(const RtlProgram& prog) {
  class Counter : public TraceSink {
   public:
    void on_insn(const TraceEvent&) override { ++events; }
    std::uint64_t events = 0;
  };
  const RunResult plain = run_program(prog);
  Counter sink;
  const RunResult traced = run_program(prog, "main", &sink);
  EXPECT_EQ(plain.ok, traced.ok);
  EXPECT_EQ(plain.error, traced.error);
  EXPECT_EQ(plain.return_value, traced.return_value);
  EXPECT_EQ(plain.output_hash, traced.output_hash);
  EXPECT_EQ(plain.emit_count, traced.emit_count);
  EXPECT_EQ(plain.dynamic_insns, traced.dynamic_insns);
  EXPECT_GT(sink.events, 0u);
  EXPECT_LE(sink.events, traced.dynamic_insns);
  return plain;
}

/// main: r1 = a, r2 = b, r3 = r1 <code> r2; then returns r3, or emits it
/// with emitd when the result is a float.
RtlProgram binary(Opcode code, bool is_float, bool fp_operands,
                  bool fp_result) {
  constexpr std::int64_t kA = -17;
  constexpr std::int64_t kB = 5;
  constexpr double kX = 7.5;
  constexpr double kY = -2.25;
  std::vector<Insn> insns;
  if (fp_operands) {
    insns = {fimm(1, kX), fimm(2, kY)};
  } else {
    insns = {imm(1, kA), imm(2, kB)};
  }
  insns.push_back(with_float(op(code, 3, 1, 2), is_float));
  if (fp_result) {
    insns.push_back(call_with("emitd", kNoReg, {3}));
    insns.push_back(op(Opcode::Return));
  } else {
    insns.push_back(op(Opcode::Return, kNoReg, 3));
  }
  RtlProgram prog;
  prog.functions.push_back(function("main", std::move(insns)));
  return prog;
}

TEST(InterpOpcodeMatrixTest, IntegerBinaryOps) {
  constexpr std::int64_t a = -17;
  constexpr std::int64_t b = 5;
  const std::pair<Opcode, std::int64_t> cases[] = {
      {Opcode::Add, a + b},         {Opcode::Sub, a - b},
      {Opcode::Mul, a * b},         {Opcode::Div, a / b},
      {Opcode::Rem, a % b},         {Opcode::And, a & b},
      {Opcode::Or, a | b},          {Opcode::Xor, a ^ b},
      {Opcode::Shl, a << (b & 63)}, {Opcode::Shr, a >> (b & 63)},
      {Opcode::CmpLt, a < b},       {Opcode::CmpLe, a <= b},
      {Opcode::CmpGt, a > b},       {Opcode::CmpGe, a >= b},
      {Opcode::CmpEq, a == b},      {Opcode::CmpNe, a != b},
  };
  for (const auto& [code, want] : cases) {
    const RunResult r = run_both(binary(code, false, false, false));
    ASSERT_TRUE(r.ok) << to_string(op(code)) << ": " << r.error;
    EXPECT_EQ(r.return_value, want) << to_string(op(code));
    EXPECT_EQ(r.dynamic_insns, 4u);
  }
}

TEST(InterpOpcodeMatrixTest, FloatBinaryOps) {
  constexpr double x = 7.5;
  constexpr double y = -2.25;
  const std::pair<Opcode, double> arith[] = {
      {Opcode::Add, x + y}, {Opcode::Sub, x - y},
      {Opcode::Mul, x * y}, {Opcode::Div, x / y}};
  for (const auto& [code, want] : arith) {
    const RunResult r = run_both(binary(code, true, true, true));
    ASSERT_TRUE(r.ok) << to_string(op(code)) << ": " << r.error;
    EXPECT_EQ(r.output_hash, emitted(want)) << to_string(op(code));
    EXPECT_EQ(r.emit_count, 1u);
  }
  const std::pair<Opcode, std::int64_t> compares[] = {
      {Opcode::CmpLt, x < y},  {Opcode::CmpLe, x <= y},
      {Opcode::CmpGt, x > y},  {Opcode::CmpGe, x >= y},
      {Opcode::CmpEq, x == y}, {Opcode::CmpNe, x != y}};
  for (const auto& [code, want] : compares) {
    const RunResult r = run_both(binary(code, true, true, false));
    ASSERT_TRUE(r.ok) << to_string(op(code)) << ": " << r.error;
    EXPECT_EQ(r.return_value, want) << to_string(op(code));
  }
  // The remainder, bitwise and shift ops have no float unit: is_float is
  // ignored and they compute on the integer values.
  constexpr std::int64_t a = -17;
  constexpr std::int64_t b = 5;
  const std::pair<Opcode, std::int64_t> int_only[] = {
      {Opcode::Rem, a % b}, {Opcode::And, a & b},
      {Opcode::Or, a | b},  {Opcode::Xor, a ^ b},
      {Opcode::Shl, a << (b & 63)}, {Opcode::Shr, a >> (b & 63)}};
  for (const auto& [code, want] : int_only) {
    const RunResult r = run_both(binary(code, true, false, false));
    ASSERT_TRUE(r.ok) << to_string(op(code)) << ": " << r.error;
    EXPECT_EQ(r.return_value, want) << to_string(op(code));
  }
}

TEST(InterpOpcodeMatrixTest, IntegerDivisionAndRemainderByZeroTrap) {
  for (const Opcode code : {Opcode::Div, Opcode::Rem}) {
    for (const bool is_float : {false, true}) {
      if (code == Opcode::Div && is_float) continue;  // IEEE: no trap.
      RtlProgram prog;
      prog.functions.push_back(function(
          "main", {imm(1, 7), imm(2, 0),
                   with_float(op(code, 3, 1, 2), is_float),
                   op(Opcode::Return, kNoReg, 3)}));
      const RunResult r = run_both(prog);
      expect_interp_error(r, "by zero");
      EXPECT_EQ(r.dynamic_insns, 3u);
    }
  }
}

TEST(InterpOpcodeMatrixTest, UnaryOpsAndConversions) {
  const auto run_unary = [](std::vector<Insn> insns) {
    RtlProgram prog;
    prog.functions.push_back(function("main", std::move(insns)));
    return run_both(prog);
  };
  for (const bool is_float : {false, true}) {
    // LoadImm and Move carry whichever unit the immediate names.
    RunResult r = run_unary(
        {is_float ? fimm(1, 2.5) : imm(1, 42),
         with_float(op(Opcode::Move, 2, 1), is_float),
         call_with("emitd", kNoReg, {2}), op(Opcode::Return, kNoReg, 2)});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.return_value, is_float ? 0 : 42);
    EXPECT_EQ(r.output_hash, emitted(is_float ? 2.5 : 0.0));

    r = run_unary({is_float ? fimm(1, 2.5) : imm(1, 42),
                   with_float(op(Opcode::Neg, 2, 1), is_float),
                   call_with("emitd", kNoReg, {2}),
                   op(Opcode::Return, kNoReg, 2)});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.return_value, is_float ? 0 : -42);
    EXPECT_EQ(r.output_hash, emitted(is_float ? -2.5 : 0.0));

    // Not, IntToFp and FpToInt have one unit each; is_float is ignored.
    for (const std::int64_t v : {0, 9}) {
      r = run_unary({imm(1, v), with_float(op(Opcode::Not, 2, 1), is_float),
                     op(Opcode::Return, kNoReg, 2)});
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.return_value, v == 0 ? 1 : 0);
    }
    r = run_unary({imm(1, -3), with_float(op(Opcode::IntToFp, 2, 1), is_float),
                   call_with("emitd", kNoReg, {2}), op(Opcode::Return)});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.output_hash, emitted(-3.0));
    r = run_unary({fimm(1, -3.75),
                   with_float(op(Opcode::FpToInt, 2, 1), is_float),
                   op(Opcode::Return, kNoReg, 2)});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.return_value, -3);
  }
}

TEST(InterpOpcodeMatrixTest, LoadStoreAtBothWidths) {
  // A store through a global's address and a load back, at each width
  // and unit: 4-byte ints truncate, 4-byte floats round to single.
  constexpr std::int64_t kWide = (std::int64_t{1} << 32) + 5;
  constexpr double kTenth = 0.1;
  for (const bool is_float : {false, true}) {
    for (const std::uint8_t width : {4, 8}) {
      Insn addr = op(Opcode::LoadAddr, 1);
      addr.label = 0;  // Global 0...
      addr.imm = 8;    // ...plus 8 bytes.
      std::vector<Insn> insns = {
          addr, is_float ? fimm(2, kTenth) : imm(2, kWide),
          memory(Opcode::Store, kNoReg, 1, 2, width, is_float, 4),
          memory(Opcode::Load, 3, 1, kNoReg, width, is_float, 4)};
      if (is_float) {
        insns.push_back(call_with("emitd", kNoReg, {3}));
        insns.push_back(op(Opcode::Return));
      } else {
        insns.push_back(op(Opcode::Return, kNoReg, 3));
      }
      RtlProgram prog;
      prog.globals.push_back(GlobalVar{"g", 32, is_float, {}, {}});
      prog.functions.push_back(function("main", std::move(insns)));
      const RunResult r = run_both(prog);
      ASSERT_TRUE(r.ok) << r.error;
      if (is_float) {
        const double want =
            width == 4 ? static_cast<double>(static_cast<float>(kTenth))
                       : kTenth;
        EXPECT_EQ(r.output_hash, emitted(want)) << int{width};
      } else {
        EXPECT_EQ(r.return_value, width == 4 ? 5 : kWide) << int{width};
      }
    }
  }
}

TEST(InterpOpcodeMatrixTest, FrameAddressesAreDistinctPerCall) {
  // LoadAddr of a frame slot, written and read back in the caller and in
  // a callee: each call gets its own frame.
  Insn slot = op(Opcode::LoadAddr, 1);
  slot.imm = 8;
  RtlFunction leaf = function(
      "leaf",
      {slot, imm(2, 11), memory(Opcode::Store, kNoReg, 1, 2, 8, false, 0),
       op(Opcode::Return, kNoReg, 1)});
  leaf.frame_size = 16;
  RtlFunction main_fn = function(
      "main",
      {slot, imm(2, 30), memory(Opcode::Store, kNoReg, 1, 2, 8, false, 0),
       call_with("leaf", 3, {}),
       memory(Opcode::Load, 2, 1, kNoReg, 8, false, 0),
       op(Opcode::Sub, 3, 3, 1), op(Opcode::Add, 3, 3, 2),
       op(Opcode::Return, kNoReg, 3)});
  main_fn.frame_size = 16;
  RtlProgram prog;
  prog.functions.push_back(std::move(main_fn));
  prog.functions.push_back(std::move(leaf));
  const RunResult r = run_both(prog);
  ASSERT_TRUE(r.ok) << r.error;
  // leaf's slot sits one 64-byte-rounded frame above main's; main's own
  // slot still holds 30.
  EXPECT_EQ(r.return_value, 64 + 30);
}

TEST(InterpOpcodeMatrixTest, ControlFlowCallsAndLoopNotes) {
  // main: for (r1 = 3; r1 != 0; --r1) r2 = twice(r2 + r1), bracketed by
  // loop notes; twice(x) returns x + x via its param register.
  const auto label = [](std::int32_t id) {
    Insn insn = op(Opcode::Label);
    insn.label = id;
    return insn;
  };
  RtlFunction twice = function(
      "twice", {op(Opcode::Add, 2, 1, 1), op(Opcode::Return, kNoReg, 2)});
  twice.param_regs = {1};
  twice.param_is_float = {false};
  RtlProgram prog;
  prog.functions.push_back(function(
      "main",
      {imm(1, 3), imm(2, 0), imm(3, -1), op(Opcode::LoopBeg), label(1),
       branch(Opcode::BranchZ, 2, 1), op(Opcode::Add, 2, 2, 1),
       call_with("twice", 2, {2}), op(Opcode::Add, 1, 1, 3),
       branch(Opcode::BranchNZ, 1, 1), label(2), op(Opcode::LoopEnd),
       branch(Opcode::Jump, 3), imm(2, 99), label(3),
       op(Opcode::Return, kNoReg, 2)}));
  prog.functions.push_back(std::move(twice));
  const RunResult r = run_both(prog);
  ASSERT_TRUE(r.ok) << r.error;
  // (((0 + 3) * 2 + 2) * 2 + 1) * 2 = 34.
  EXPECT_EQ(r.return_value, 34);
  // 4 before the loop; 3 passes of label + BranchZ, 4 body insns and 2
  // callee insns; label/LoopEnd/Jump/label/Return after it.
  EXPECT_EQ(r.dynamic_insns, 4u + 3u * (2u + 4u + 2u) + 5u);
}

}  // namespace
}  // namespace hli::backend
