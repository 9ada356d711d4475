#include "backend/interp.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <new>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "backend/parexec/runtime.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace hli::backend {

namespace {

const telemetry::Counter c_par_loops =
    telemetry::counter("parexec.loops_parallelized");
const telemetry::Counter c_par_invocations =
    telemetry::counter("parexec.invocations");
const telemetry::Counter c_par_chunks = telemetry::counter("parexec.chunks");
const telemetry::Counter c_par_iterations =
    telemetry::counter("parexec.par_iterations");
const telemetry::Counter c_par_insns =
    telemetry::counter("parexec.par_insns");
const telemetry::Counter c_par_ordered =
    telemetry::counter("parexec.ordered_insns");
const telemetry::Counter c_par_waits = telemetry::counter("parexec.sync_waits");
const telemetry::Counter c_par_elided =
    telemetry::counter("parexec.sync_elided");
const telemetry::Counter c_par_fallbacks =
    telemetry::counter("parexec.serial_fallbacks");

struct Value {
  std::int64_t i = 0;
  double f = 0.0;
};

/// Per-execution-lane state.  The master run and every worker chunk get
/// their own context: a private stack region for nested (pure) calls, a
/// private instruction counter, and a flag that disables nested parallel
/// dispatch inside workers.  The shared program memory stays one arena.
struct ExecCtx {
  std::uint64_t stack_top = 0;
  std::uint64_t stack_limit = 0;
  std::size_t depth = 0;
  std::uint64_t executed = 0;
  std::uint64_t hard_cap = 0;  ///< fail() when executed exceeds this.
  bool is_worker = false;
  /// Register files by call depth, reused across calls so a call costs a
  /// zero-fill instead of an allocation.  A deque: growing it for a
  /// deeper call keeps the callers' frames where they are.
  std::deque<std::vector<Value>> frames;

  std::vector<Value>& frame(std::size_t at_depth) {
    while (frames.size() <= at_depth) frames.emplace_back();
    return frames[at_depth];
  }
};

/// The built-in externs, resolved from the callee name once.
enum class Builtin : std::uint8_t {
  Unknown, Sqrt, Fabs, Sin, Cos, Exp, Log, Pow, Floor, Ceil, Atan, Emit, EmitD,
};

Builtin builtin_named(const std::string& name) {
  static const std::pair<const char*, Builtin> kNames[] = {
      {"sqrt", Builtin::Sqrt}, {"fabs", Builtin::Fabs}, {"sin", Builtin::Sin},
      {"cos", Builtin::Cos},   {"exp", Builtin::Exp},   {"log", Builtin::Log},
      {"pow", Builtin::Pow},   {"floor", Builtin::Floor},
      {"ceil", Builtin::Ceil}, {"atan", Builtin::Atan},
      {"emit", Builtin::Emit}, {"emitd", Builtin::EmitD},
  };
  for (const auto& [text, builtin] : kNames) {
    if (name == text) return builtin;
  }
  return Builtin::Unknown;
}

struct Code;

/// The decoded instruction set: each RTL opcode specialised by unit and,
/// for memory, by width, so execution never tests is_float or mem.size.
/// Opcodes the RTL defines on one unit only (Rem, the bitwise ops, the
/// conversions, Move) keep a single form.
enum class Op : std::uint8_t {
  LoadImmI, LoadImmF, Move,
  AddI, AddF, SubI, SubF, MulI, MulF, DivI, DivF, Rem, NegI, NegF,
  And, Or, Xor, Not, Shl, Shr,
  CmpLtI, CmpLtF, CmpLeI, CmpLeF, CmpGtI, CmpGtF,
  CmpGeI, CmpGeF, CmpEqI, CmpEqF, CmpNeI, CmpNeF,
  IntToFp, FpToInt,
  LoadAddr,       ///< rd = imm: a global's absolute address, pre-folded.
  LoadAddrFrame,  ///< rd = frame base + imm.
  LoadI4, LoadI8, LoadF4, LoadF8, StoreI4, StoreI8, StoreF4, StoreF8,
  Note,           ///< Label, LoopEnd, an unplanned LoopBeg.
  LoopBeg,        ///< A LoopBeg carrying a parexec plan.
  Jump, BranchZ, BranchNZ,
  Call,           ///< Into the program.
  CallBuiltin,    ///< A built-in extern (or an unknown one, which fails).
  Return,
  End,            ///< Sentinel after the last instruction.
};

/// One decoded instruction.  Notes count as executed but are never
/// reported to a TraceSink; `insn` is the source instruction, read only
/// to build a TraceEvent and for a call's arguments.
struct Record {
  Op op = Op::End;
  Builtin builtin = Builtin::Unknown;
  Reg rd = kNoReg;
  Reg rs1 = kNoReg;
  Reg rs2 = kNoReg;
  union {
    std::int64_t imm = 0;  ///< LoadImmI, LoadAddr*, a memory offset.
    double fimm;           ///< LoadImmF.
    std::size_t target;    ///< Jump/BranchZ/BranchNZ: the label's pc.
    const Code* callee;    ///< Call.
    const LoopPlan* plan;  ///< LoopBeg.
  };
  const Insn* insn = nullptr;
};
static_assert(sizeof(Record) <= 32, "a record must stay compact");

/// A function decoded once, when the interpreter is built: one record per
/// instruction (so pcs and parexec plan positions carry over) and an End
/// sentinel, so execution needs no bounds test.
struct Code {
  const RtlFunction* func = nullptr;
  std::vector<Record> records;
  std::uint64_t frame_bytes = 0;  ///< frame_size rounded up to 64.
};

/// Which loop a run instantiates: a sink-free run builds no TraceEvent
/// and tests no sink; a slice runs [pc, end) of a parallel plan and
/// rejects control flow.
enum class Mode : std::uint8_t { Run, Traced, Slice };

/// Zero-initialized program memory.  A calloc above the allocator's mmap
/// threshold (the 64 MiB default is, under glibc) is served by fresh
/// anonymous pages, which the kernel zero-fills on first touch: such an
/// arena costs address space, not a memset, and only the pages a program
/// touches become resident.  A smaller arena may come from the heap and
/// is zeroed up front.
class Arena {
 public:
  explicit Arena(std::size_t bytes)
      : data_(static_cast<std::uint8_t*>(
            std::calloc(bytes == 0 ? 1 : bytes, 1))),
        size_(bytes) {
    if (data_ == nullptr) throw std::bad_alloc();
  }
  ~Arena() { std::free(data_); }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  [[nodiscard]] std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::uint64_t size() const { return size_; }

 private:
  std::uint8_t* data_;
  std::uint64_t size_;
};

class Interp {
 public:
  Interp(const RtlProgram& prog, TraceSink* sink, const InterpOptions& options)
      : prog_(prog), sink_(sink), options_(options),
        memory_(options.memory_bytes) {
    // Globals at the bottom (address 8 upward; 0 stays "null").
    std::uint64_t at = 8;
    for (const GlobalVar& g : prog.globals) {
      global_base_.push_back(at);
      if (!g.init_int.empty()) {
        store<std::int32_t>(at, static_cast<std::int32_t>(g.init_int[0]));
      } else if (!g.init_fp.empty()) {
        store<double>(at, g.init_fp[0]);
      }
      at += (g.size + 7) / 8 * 8;
    }
    stack_base_ = (at + 63) / 64 * 64;
    master_limit_ = memory_.size();
    code_.resize(prog.functions.size());
    for (std::size_t f = 0; f < prog.functions.size(); ++f) decode(f);
    // Parallel dispatch needs per-lane stacks for the pure calls a loop
    // body may make: lanes 1..W-1 get fixed regions carved off the TOP
    // of the arena (lane 0 — the calling thread — keeps using the master
    // stack, which nobody else touches during a dispatch).  Too little
    // headroom disables dispatch rather than risking collisions.
    par_enabled_ = options.exec_threads > 1 && sink == nullptr;
    if (par_enabled_) {
      bool any_plan = false;
      for (const RtlFunction& f : prog.functions) {
        if (!f.parexec.empty()) any_plan = true;
      }
      const std::uint64_t extra = options.exec_threads - 1;
      std::uint64_t ws = 0;
      if (any_plan && memory_.size() > stack_base_) {
        ws = (memory_.size() - stack_base_) / (2 * options.exec_threads);
        ws = ws / 64 * 64;
        ws = std::min<std::uint64_t>(ws, 1u << 20);
      }
      if (ws >= (64u << 10)) {
        worker_stack_size_ = ws;
        master_limit_ = memory_.size() - extra * ws;
      } else {
        par_enabled_ = false;
      }
    }
  }

  RunResult run(const std::string& entry) {
    RunResult result;
    const RtlFunction* func = prog_.find_function(entry);
    if (func == nullptr) {
      result.error = "no entry function '" + entry + "'";
      return result;
    }
    const Code& code = code_[static_cast<std::size_t>(
        func - prog_.functions.data())];
    ExecCtx ctx;
    ctx.stack_top = stack_base_;
    ctx.stack_limit = master_limit_;
    ctx.hard_cap = options_.max_insns;
    try {
      const Value ret = sink_ != nullptr
                            ? call<Mode::Traced>(code, nullptr, nullptr, ctx)
                            : call<Mode::Run>(code, nullptr, nullptr, ctx);
      result.return_value = ret.i;
      result.ok = true;
    } catch (const std::runtime_error& e) {
      result.error = e.what();
    }
    result.dynamic_insns = ctx.executed;
    result.output_hash = output_hash_;
    result.emit_count = emit_count_;
    result.parexec = stats_;
    c_par_loops.add(stats_.loops_parallelized);
    c_par_invocations.add(stats_.invocations);
    c_par_chunks.add(stats_.chunks);
    c_par_iterations.add(stats_.par_iterations);
    c_par_insns.add(stats_.par_insns);
    c_par_ordered.add(stats_.ordered_insns);
    c_par_waits.add(stats_.sync_waits);
    c_par_elided.add(stats_.sync_elided);
    c_par_fallbacks.add(stats_.serial_fallbacks);
    return result;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error("interp: " + message);
  }

  /// fail() from inside exec(), first writing back its local counter.
  [[noreturn]] void trap(ExecCtx& ctx, std::uint64_t executed,
                         const std::string& message) const {
    ctx.executed = executed;
    fail(message);
  }

  /// A slice reached control flow: the plan proved the range
  /// straight-line, so getting here means the plan is stale.
  [[noreturn]] void stale_plan(ExecCtx& ctx, std::uint64_t executed) const {
    trap(ctx, executed, "control instruction in a parallel slice");
  }

  /// Writes a global's initial value (execution checks addresses inline).
  template <typename T>
  void store(std::uint64_t addr, T v) {
    // Written so that an address near 2^64 cannot wrap past the bound.
    if (addr == 0 || sizeof(T) > memory_.size() ||
        addr > memory_.size() - sizeof(T)) {
      fail("memory access out of range at " + std::to_string(addr));
    }
    std::memcpy(memory_.data() + addr, &v, sizeof(T));
  }

  /// Decodes function `f` into code_[f].  A branch to a label the function
  /// does not define, or a memory access of a width other than 4 or 8, is
  /// malformed RTL and fails the run up front; an unknown callee fails
  /// only if the call executes (a declared-but-undefined extern on a path
  /// never taken is legal).
  void decode(std::size_t f) {
    const RtlFunction& func = prog_.functions[f];
    const std::size_t n = func.insns.size();
    std::vector<std::pair<std::int32_t, std::size_t>> labels;
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (func.insns[pc].op == Opcode::Label) {
        labels.emplace_back(func.insns[pc].label, pc);
      }
    }
    std::sort(labels.begin(), labels.end());
    Code& code = code_[f];
    code.func = &func;
    code.frame_bytes = (func.frame_size + 63) / 64 * 64;
    code.records.resize(n + 1);  // The last stays the End sentinel.
    for (std::size_t pc = 0; pc < n; ++pc) {
      const Insn& insn = func.insns[pc];
      Record& r = code.records[pc];
      r.insn = &insn;
      r.rd = insn.rd;
      r.rs1 = insn.rs1;
      r.rs2 = insn.rs2;
      const bool fp = insn.is_float;
      switch (insn.op) {
        case Opcode::LoadImm:
          r.op = fp ? Op::LoadImmF : Op::LoadImmI;
          if (fp) {
            r.fimm = insn.fimm;
          } else {
            r.imm = insn.imm;
          }
          break;
        case Opcode::Move: r.op = Op::Move; break;
        case Opcode::Add: r.op = fp ? Op::AddF : Op::AddI; break;
        case Opcode::Sub: r.op = fp ? Op::SubF : Op::SubI; break;
        case Opcode::Mul: r.op = fp ? Op::MulF : Op::MulI; break;
        case Opcode::Div: r.op = fp ? Op::DivF : Op::DivI; break;
        case Opcode::Rem: r.op = Op::Rem; break;
        case Opcode::Neg: r.op = fp ? Op::NegF : Op::NegI; break;
        case Opcode::And: r.op = Op::And; break;
        case Opcode::Or: r.op = Op::Or; break;
        case Opcode::Xor: r.op = Op::Xor; break;
        case Opcode::Not: r.op = Op::Not; break;
        case Opcode::Shl: r.op = Op::Shl; break;
        case Opcode::Shr: r.op = Op::Shr; break;
        case Opcode::CmpLt: r.op = fp ? Op::CmpLtF : Op::CmpLtI; break;
        case Opcode::CmpLe: r.op = fp ? Op::CmpLeF : Op::CmpLeI; break;
        case Opcode::CmpGt: r.op = fp ? Op::CmpGtF : Op::CmpGtI; break;
        case Opcode::CmpGe: r.op = fp ? Op::CmpGeF : Op::CmpGeI; break;
        case Opcode::CmpEq: r.op = fp ? Op::CmpEqF : Op::CmpEqI; break;
        case Opcode::CmpNe: r.op = fp ? Op::CmpNeF : Op::CmpNeI; break;
        case Opcode::IntToFp: r.op = Op::IntToFp; break;
        case Opcode::FpToInt: r.op = Op::FpToInt; break;
        case Opcode::LoadAddr:
          if (insn.label >= 0) {
            const auto g = static_cast<std::size_t>(insn.label);
            if (g >= global_base_.size()) {
              fail("address of undefined global " +
                   std::to_string(insn.label) + " in '" + func.name + "'");
            }
            r.op = Op::LoadAddr;
            r.imm = static_cast<std::int64_t>(
                global_base_[g] + static_cast<std::uint64_t>(insn.imm));
          } else {
            r.op = Op::LoadAddrFrame;
            r.imm = insn.imm;
          }
          break;
        case Opcode::Load:
        case Opcode::Store: {
          const std::uint8_t width = insn.mem.size;
          if (width != 4 && width != 8) {
            fail("memory access of width " + std::to_string(width) +
                 " in '" + func.name + "'");
          }
          static constexpr Op kMemOps[2][2][2] = {
              {{Op::LoadI4, Op::LoadI8}, {Op::LoadF4, Op::LoadF8}},
              {{Op::StoreI4, Op::StoreI8}, {Op::StoreF4, Op::StoreF8}}};
          r.op = kMemOps[insn.op == Opcode::Store][fp][width == 8];
          r.imm = insn.mem.const_offset;
          break;
        }
        case Opcode::Label:
        case Opcode::LoopEnd:
          r.op = Op::Note;
          break;
        case Opcode::LoopBeg:
          r.op = Op::Note;
          for (const LoopPlan& plan : func.parexec) {
            if (plan.loop_beg == pc) {
              r.op = Op::LoopBeg;
              r.plan = &plan;
              break;
            }
          }
          break;
        case Opcode::Jump:
        case Opcode::BranchZ:
        case Opcode::BranchNZ: {
          r.op = insn.op == Opcode::Jump      ? Op::Jump
                 : insn.op == Opcode::BranchZ ? Op::BranchZ
                                              : Op::BranchNZ;
          // A label defined twice resolves to its last definition.
          const auto it = std::upper_bound(labels.begin(), labels.end(),
                                           std::make_pair(insn.label, n));
          if (it == labels.begin() || std::prev(it)->first != insn.label) {
            fail("branch to undefined label " + std::to_string(insn.label) +
                 " in '" + func.name + "'");
          }
          r.target = std::prev(it)->second;
          break;
        }
        case Opcode::Call:
          if (const RtlFunction* callee = prog_.find_function(insn.callee)) {
            r.op = Op::Call;
            r.callee = &code_[static_cast<std::size_t>(
                callee - prog_.functions.data())];
          } else {
            r.op = Op::CallBuiltin;
            r.builtin = builtin_named(insn.callee);
          }
          break;
        case Opcode::Return: r.op = Op::Return; break;
      }
    }
  }

  void mix_output(std::uint64_t bits) {
    output_hash_ = output_hash_ * 1099511628211ull ^ bits;
    ++emit_count_;
  }

  /// Built-in externs: math plus the emit() observation sinks.  Arguments
  /// are read straight from the caller's registers.
  Value call_builtin(Builtin builtin, const Insn& insn, const Value* regs,
                     const ExecCtx& ctx) {
    const auto arg_f = [&](std::size_t i) {
      return i < insn.args.size() ? regs[insn.args[i]].f : 0.0;
    };
    Value out;
    switch (builtin) {
      case Builtin::Sqrt: out.f = std::sqrt(arg_f(0)); break;
      case Builtin::Fabs: out.f = std::fabs(arg_f(0)); break;
      case Builtin::Sin: out.f = std::sin(arg_f(0)); break;
      case Builtin::Cos: out.f = std::cos(arg_f(0)); break;
      case Builtin::Exp: out.f = std::exp(arg_f(0)); break;
      case Builtin::Log: out.f = std::log(arg_f(0)); break;
      case Builtin::Pow: out.f = std::pow(arg_f(0), arg_f(1)); break;
      case Builtin::Floor: out.f = std::floor(arg_f(0)); break;
      case Builtin::Ceil: out.f = std::ceil(arg_f(0)); break;
      case Builtin::Atan: out.f = std::atan(arg_f(0)); break;
      case Builtin::Emit:
      case Builtin::EmitD:
        // The planner proves loop bodies IO-free before parallelizing, so a
        // worker can never reach the output sinks; the guard keeps a
        // planner bug from silently racing on the output hash.
        if (ctx.is_worker) fail("emit from a parallel worker");
        if (builtin == Builtin::Emit) {
          mix_output(static_cast<std::uint64_t>(
              insn.args.empty() ? 0 : regs[insn.args[0]].i));
        } else {
          std::uint64_t bits = 0;
          const double v = arg_f(0);
          std::memcpy(&bits, &v, 8);
          mix_output(bits);
        }
        break;
      case Builtin::Unknown:
        fail("call to unknown extern '" + insn.callee + "'");
    }
    return out;
  }

  /// Runs `code`; `site` is the Call in `caller_regs`'s frame that passes
  /// the arguments (both null for the entry function).
  template <Mode M>
  Value call(const Code& code, const Insn* site, const Value* caller_regs,
             ExecCtx& ctx) {
    const RtlFunction& func = *code.func;
    if (++ctx.depth > options_.max_call_depth) fail("call depth exceeded");
    const std::uint64_t frame_base = ctx.stack_top;
    ctx.stack_top += code.frame_bytes;
    if (ctx.stack_top > ctx.stack_limit) fail("stack overflow");

    std::vector<Value>& frame = ctx.frame(ctx.depth);
    frame.assign(static_cast<std::size_t>(func.num_regs) + 1, Value{});
    // Incoming register arguments land in the params' staging registers.
    if (site != nullptr) {
      for (std::size_t i = 0; i < func.param_regs.size() &&
                              i < analysis_max_reg_args() &&
                              i < site->args.size();
           ++i) {
        frame[static_cast<std::size_t>(func.param_regs[i])] =
            caller_regs[site->args[i]];
      }
    }
    const Value ret = exec<M>(code, frame.data(), 0, 0, frame_base, ctx);
    ctx.stack_top = frame_base;
    --ctx.depth;
    return ret;
  }

  /// The one instruction loop.  Run and Traced execute a whole function
  /// from `pc` to its Return or End and return the result; Slice executes
  /// [pc, end) of a parallel plan (chunks, trip counting, the post-join
  /// replays), where a plan proved the range straight-line except for
  /// calls.  The instruction counter lives in a local and is written back
  /// to ctx before anything that reads it or may throw.
  template <Mode M>
  Value exec(const Code& code, Value* regs, std::size_t pc, std::size_t end,
             std::uint64_t frame_base, ExecCtx& ctx) {
    const Record* const records = code.records.data();
    std::uint8_t* const mem = memory_.data();
    const std::uint64_t mem_size = memory_.size();
    const std::uint64_t limit4 = mem_size >= 4 ? mem_size - 4 : 0;
    const std::uint64_t limit8 = mem_size >= 8 ? mem_size - 8 : 0;
    const std::uint64_t cap = ctx.hard_cap;
    std::uint64_t executed = ctx.executed;
    constexpr Mode kCallee = M == Mode::Traced ? Mode::Traced : Mode::Run;

    // The arena pointer for an access at `addr`, or a trap.  `limit` is
    // the arena size less the access width (0 if the arena is narrower),
    // so the one compare rejects address 0 and every access whose end
    // passes the arena, without wrapping near 2^64.
    const auto at = [&](std::uint64_t addr, std::uint64_t limit) {
      if (addr - 1 >= limit) [[unlikely]] {
        trap(ctx, executed,
             "memory access out of range at " + std::to_string(addr));
      }
      return mem + addr;
    };
    const auto address = [&](const Record& r) {
      return static_cast<std::uint64_t>(regs[r.rs1].i + r.imm);
    };
    const auto report = [&](const Record& r, std::uint64_t addr) {
      if constexpr (M == Mode::Traced) {
        sink_->on_insn(TraceEvent{r.insn, addr});
      }
    };

    for (;;) {
      if constexpr (M == Mode::Slice) {
        if (pc == end) {
          ctx.executed = executed;
          return {};
        }
      }
      const Record& r = records[pc];
      // The End sentinel is not an instruction: it is uncounted below, and
      // reaching it exactly at the budget is no trap.
      if (++executed > cap && (M == Mode::Slice || r.op != Op::End))
          [[unlikely]] {
        trap(ctx, executed, "instruction budget exceeded");
      }
      switch (r.op) {
        case Op::LoadImmI: regs[r.rd].i = r.imm; break;
        case Op::LoadImmF: regs[r.rd].f = r.fimm; break;
        case Op::Move: regs[r.rd] = regs[r.rs1]; break;
        case Op::AddI: regs[r.rd].i = regs[r.rs1].i + regs[r.rs2].i; break;
        case Op::AddF: regs[r.rd].f = regs[r.rs1].f + regs[r.rs2].f; break;
        case Op::SubI: regs[r.rd].i = regs[r.rs1].i - regs[r.rs2].i; break;
        case Op::SubF: regs[r.rd].f = regs[r.rs1].f - regs[r.rs2].f; break;
        case Op::MulI: regs[r.rd].i = regs[r.rs1].i * regs[r.rs2].i; break;
        case Op::MulF: regs[r.rd].f = regs[r.rs1].f * regs[r.rs2].f; break;
        case Op::DivI:
          if (regs[r.rs2].i == 0) {
            trap(ctx, executed, "integer division by zero");
          }
          regs[r.rd].i = regs[r.rs1].i / regs[r.rs2].i;
          break;
        case Op::DivF: regs[r.rd].f = regs[r.rs1].f / regs[r.rs2].f; break;
        case Op::Rem:
          if (regs[r.rs2].i == 0) {
            trap(ctx, executed, "integer remainder by zero");
          }
          regs[r.rd].i = regs[r.rs1].i % regs[r.rs2].i;
          break;
        case Op::NegI: regs[r.rd].i = -regs[r.rs1].i; break;
        case Op::NegF: regs[r.rd].f = -regs[r.rs1].f; break;
        case Op::And: regs[r.rd].i = regs[r.rs1].i & regs[r.rs2].i; break;
        case Op::Or: regs[r.rd].i = regs[r.rs1].i | regs[r.rs2].i; break;
        case Op::Xor: regs[r.rd].i = regs[r.rs1].i ^ regs[r.rs2].i; break;
        case Op::Not: regs[r.rd].i = regs[r.rs1].i == 0 ? 1 : 0; break;
        case Op::Shl:
          regs[r.rd].i = regs[r.rs1].i << (regs[r.rs2].i & 63);
          break;
        case Op::Shr:
          regs[r.rd].i = regs[r.rs1].i >> (regs[r.rs2].i & 63);
          break;
        case Op::CmpLtI: regs[r.rd].i = regs[r.rs1].i < regs[r.rs2].i; break;
        case Op::CmpLtF: regs[r.rd].i = regs[r.rs1].f < regs[r.rs2].f; break;
        case Op::CmpLeI: regs[r.rd].i = regs[r.rs1].i <= regs[r.rs2].i; break;
        case Op::CmpLeF: regs[r.rd].i = regs[r.rs1].f <= regs[r.rs2].f; break;
        case Op::CmpGtI: regs[r.rd].i = regs[r.rs1].i > regs[r.rs2].i; break;
        case Op::CmpGtF: regs[r.rd].i = regs[r.rs1].f > regs[r.rs2].f; break;
        case Op::CmpGeI: regs[r.rd].i = regs[r.rs1].i >= regs[r.rs2].i; break;
        case Op::CmpGeF: regs[r.rd].i = regs[r.rs1].f >= regs[r.rs2].f; break;
        case Op::CmpEqI: regs[r.rd].i = regs[r.rs1].i == regs[r.rs2].i; break;
        case Op::CmpEqF: regs[r.rd].i = regs[r.rs1].f == regs[r.rs2].f; break;
        case Op::CmpNeI: regs[r.rd].i = regs[r.rs1].i != regs[r.rs2].i; break;
        case Op::CmpNeF: regs[r.rd].i = regs[r.rs1].f != regs[r.rs2].f; break;
        case Op::IntToFp:
          regs[r.rd].f = static_cast<double>(regs[r.rs1].i);
          break;
        case Op::FpToInt:
          regs[r.rd].i = static_cast<std::int64_t>(regs[r.rs1].f);
          break;
        case Op::LoadAddr: regs[r.rd].i = r.imm; break;
        case Op::LoadAddrFrame:
          regs[r.rd].i = static_cast<std::int64_t>(
              frame_base + static_cast<std::uint64_t>(r.imm));
          break;
        case Op::LoadI4: {
          const std::uint64_t a = address(r);
          std::int32_t v = 0;
          std::memcpy(&v, at(a, limit4), 4);
          regs[r.rd].i = v;
          report(r, a);
          ++pc;
          continue;
        }
        case Op::LoadI8: {
          const std::uint64_t a = address(r);
          std::memcpy(&regs[r.rd].i, at(a, limit8), 8);
          report(r, a);
          ++pc;
          continue;
        }
        case Op::LoadF4: {
          const std::uint64_t a = address(r);
          float v = 0;
          std::memcpy(&v, at(a, limit4), 4);
          regs[r.rd].f = v;
          report(r, a);
          ++pc;
          continue;
        }
        case Op::LoadF8: {
          const std::uint64_t a = address(r);
          std::memcpy(&regs[r.rd].f, at(a, limit8), 8);
          report(r, a);
          ++pc;
          continue;
        }
        case Op::StoreI4: {
          const std::uint64_t a = address(r);
          const auto v = static_cast<std::int32_t>(regs[r.rs2].i);
          std::memcpy(at(a, limit4), &v, 4);
          report(r, a);
          ++pc;
          continue;
        }
        case Op::StoreI8: {
          const std::uint64_t a = address(r);
          std::memcpy(at(a, limit8), &regs[r.rs2].i, 8);
          report(r, a);
          ++pc;
          continue;
        }
        case Op::StoreF4: {
          const std::uint64_t a = address(r);
          const auto v = static_cast<float>(regs[r.rs2].f);
          std::memcpy(at(a, limit4), &v, 4);
          report(r, a);
          ++pc;
          continue;
        }
        case Op::StoreF8: {
          const std::uint64_t a = address(r);
          std::memcpy(at(a, limit8), &regs[r.rs2].f, 8);
          report(r, a);
          ++pc;
          continue;
        }
        case Op::LoopBeg:
          if constexpr (M == Mode::Run) {
            if (par_enabled_ && !ctx.is_worker) {
              ctx.executed = executed;
              const bool dispatched =
                  run_parallel_loop(code, *r.plan, regs, frame_base, ctx);
              executed = ctx.executed;
              if (dispatched) {
                pc = r.plan->loop_end + 1;
                continue;
              }
            }
          }
          [[fallthrough]];
        case Op::Note:
          ++pc;
          continue;
        case Op::Call:
        case Op::CallBuiltin: {
          // The timing models see the Call event BEFORE the callee's
          // instructions.
          report(r, 0);
          ctx.executed = executed;
          const Value out =
              r.op == Op::Call
                  ? call<kCallee>(*r.callee, r.insn, regs, ctx)
                  : call_builtin(r.builtin, *r.insn, regs, ctx);
          executed = ctx.executed;
          if (r.rd != kNoReg) regs[r.rd] = out;
          ++pc;
          continue;
        }
        case Op::Jump:
          if constexpr (M == Mode::Slice) stale_plan(ctx, executed);
          report(r, 0);
          pc = r.target;
          continue;
        case Op::BranchZ:
          if constexpr (M == Mode::Slice) stale_plan(ctx, executed);
          report(r, 0);
          pc = regs[r.rs1].i == 0 ? r.target : pc + 1;
          continue;
        case Op::BranchNZ:
          if constexpr (M == Mode::Slice) stale_plan(ctx, executed);
          report(r, 0);
          pc = regs[r.rs1].i != 0 ? r.target : pc + 1;
          continue;
        case Op::Return:
          if constexpr (M == Mode::Slice) stale_plan(ctx, executed);
          report(r, 0);
          ctx.executed = executed;
          return r.rs1 != kNoReg ? regs[r.rs1] : Value{};
        case Op::End:  // Fell off the end of the function.
          if constexpr (M == Mode::Slice) stale_plan(ctx, executed);
          ctx.executed = executed - 1;
          return {};
      }
      report(r, 0);
      ++pc;
    }
  }

  [[nodiscard]] static Value reduction_identity(ReductionKind kind) {
    Value v;
    switch (kind) {
      case ReductionKind::Add:
      case ReductionKind::Or:
      case ReductionKind::Xor:
        v.i = 0;
        break;
      case ReductionKind::Mul:
        v.i = 1;
        break;
      case ReductionKind::And:
        v.i = -1;
        break;
    }
    return v;
  }

  static void combine_reduction(ReductionKind kind, Value& acc,
                                const Value& partial) {
    switch (kind) {
      case ReductionKind::Add: acc.i += partial.i; break;
      case ReductionKind::Mul: acc.i *= partial.i; break;
      case ReductionKind::And: acc.i &= partial.i; break;
      case ReductionKind::Or: acc.i |= partial.i; break;
      case ReductionKind::Xor: acc.i ^= partial.i; break;
    }
  }

  /// Attempts to execute the planned loop on the worker pool.  Returns
  /// false (with registers restored) when the runtime declines — short
  /// trip, tiny volume, or the projected serial cost does not fit the
  /// instruction budget (the serial path must then trap exactly where a
  /// serial run would).  On success the master's registers and counters
  /// are byte-identical to what serial execution would have produced.
  bool run_parallel_loop(const Code& code, const LoopPlan& plan, Value* regs,
                         std::uint64_t frame_base, ExecCtx& ctx) {
    const Record& exit_br = code.records[plan.exit_branch];
    const Reg iv = plan.induction;
    const std::uint64_t cond_insns = plan.exit_branch - plan.cond_begin;
    const std::uint64_t body_insns = plan.body_end - plan.body_begin;
    const std::uint64_t step_insns = plan.backedge - plan.step_begin;
    const std::uint64_t per_iter = cond_insns + body_insns + step_insns + 4;
    const std::uint64_t exit_cost = cond_insns + 4;

    // Snapshot what trip counting clobbers (IV + predicate registers) so
    // a serial fallback resumes from an untouched state.
    std::vector<std::pair<Reg, Value>> snapshot;
    snapshot.emplace_back(iv, regs[iv]);
    for (std::size_t p = plan.cond_begin; p < plan.exit_branch; ++p) {
      const Reg rd = code.records[p].rd;
      if (rd != kNoReg) snapshot.emplace_back(rd, regs[rd]);
    }
    const auto restore = [&] {
      for (auto it = snapshot.rbegin(); it != snapshot.rend(); ++it) {
        regs[it->first] = it->second;
      }
    };
    const auto decline = [&] {
      restore();
      ++stats_.serial_fallbacks;
      return false;
    };

    // Trip counting: the predicate slice reads only the IV, registers the
    // slice itself defines, and loop invariants (the planner rejected
    // everything else), so evaluating it for iv0, iv0+step, ... BEFORE
    // any body runs reproduces the serial predicate sequence exactly.
    const std::int64_t iv0 = regs[iv].i;
    ExecCtx scratch;
    scratch.hard_cap = UINT64_MAX;
    const std::uint64_t remaining =
        options_.max_insns > ctx.executed ? options_.max_insns - ctx.executed
                                          : 0;
    const std::uint64_t max_rounds = remaining / per_iter + 2;
    std::uint64_t trips = 0;
    for (;;) {
      regs[iv].i = iv0 + static_cast<std::int64_t>(trips) * plan.step;
      exec<Mode::Slice>(code, regs, plan.cond_begin, plan.exit_branch,
                        frame_base, scratch);
      const bool zero = regs[exit_br.rs1].i == 0;
      const bool taken = exit_br.op == Op::BranchZ ? zero : !zero;
      if (taken) break;
      if (++trips > max_rounds) return decline();  // Serial would trap.
    }

    if (trips < 2) return decline();
    if (trips * (cond_insns + body_insns) < options_.min_par_insns) {
      return decline();
    }
    if (ctx.executed + trips * per_iter + exit_cost > options_.max_insns) {
      return decline();  // Serial trips the budget mid-loop; reproduce it.
    }
    const std::vector<parexec::Chunk> chunks = parexec::plan_chunks(
        trips, options_.exec_threads, plan.doall ? 0 : plan.distance);
    if (chunks.size() < 2) return decline();

    // -- Committed to parallel execution. -------------------------------
    if (pool_ == nullptr) {  // The caller is lane 0: exec_threads - 1 spawned.
      pool_ = std::make_unique<support::ThreadPool>(options_.exec_threads - 1);
    }
    parexec::ProgressBoard board(chunks);
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::uint64_t> par_total{0};
    const std::uint64_t base_executed = ctx.executed;
    std::vector<std::uint64_t> chunk_insns(chunks.size(), 0);
    std::vector<std::vector<Value>> chunk_partials(
        chunks.size(), std::vector<Value>(plan.reductions.size()));
    std::vector<Value> last_regs;

    const auto work = [&](unsigned lane) {
      ExecCtx wctx;
      wctx.is_worker = true;
      wctx.depth = ctx.depth;
      wctx.hard_cap = options_.max_insns;
      if (lane == 0) {
        wctx.stack_top = ctx.stack_top;
        wctx.stack_limit = master_limit_;
      } else {
        wctx.stack_top = memory_.size() -
                         (options_.exec_threads - lane) * worker_stack_size_;
        wctx.stack_limit = wctx.stack_top + worker_stack_size_;
      }
      std::uint64_t flushed = 0;
      const auto flush_budget = [&] {
        const std::uint64_t delta = wctx.executed - flushed;
        flushed = wctx.executed;
        if (base_executed + par_total.fetch_add(delta) + delta >
            options_.max_insns) {
          board.abort();
          fail("instruction budget exceeded");
        }
      };
      std::vector<Value> wregs;
      for (;;) {
        const std::size_t c = next_chunk.fetch_add(1);
        if (c >= chunks.size() || board.aborted()) break;
        const parexec::Chunk chunk = chunks[c];
        const std::uint64_t before = wctx.executed;
        // Fresh private registers per chunk.  Every loop-defined register
        // is re-defined before its first read inside an iteration (the
        // planner rejected cross-iteration register flow), so the master
        // snapshot is a valid starting state for ANY iteration.
        wregs.assign(regs, regs + code.func->num_regs + 1);
        for (std::size_t k = 0; k < plan.reductions.size(); ++k) {
          wregs[plan.reductions[k].reg] =
              reduction_identity(plan.reductions[k].kind);
        }
        for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
          if (!plan.doall) {
            // Post-wait on the proven distance: everything at or before
            // i - d must be complete.  A source inside this chunk is
            // already ordered by sequential execution — sync elided.
            const std::int64_t j =
                static_cast<std::int64_t>(i) - plan.distance;
            if (j >= 0 && static_cast<std::uint64_t>(j) < chunk.begin) {
              if (!board.wait_for_prefix(static_cast<std::uint64_t>(j))) {
                return;  // Aborted elsewhere; that lane carries the error.
              }
            }
          }
          wregs[iv].i = iv0 + static_cast<std::int64_t>(i) * plan.step;
          exec<Mode::Slice>(code, wregs.data(), plan.cond_begin,
                            plan.exit_branch, frame_base, wctx);
          exec<Mode::Slice>(code, wregs.data(), plan.body_begin,
                            plan.body_end, frame_base, wctx);
          if (!plan.doall) board.publish(c, i - chunk.begin + 1);
          if (wctx.executed - flushed >= 65536) flush_budget();
        }
        flush_budget();
        chunk_insns[c] = wctx.executed - before;
        for (std::size_t k = 0; k < plan.reductions.size(); ++k) {
          chunk_partials[c][k] = wregs[plan.reductions[k].reg];
        }
        if (c + 1 == chunks.size()) last_regs = std::move(wregs);
      }
    };
    const std::function<void(unsigned)> job = [&](unsigned lane) {
      try {
        work(lane);
      } catch (...) {
        board.abort();  // Wake post-waiters so the pool can join.
        throw;
      }
    };
    // Reduction initial values (untouched by trip counting: they live in
    // the body) are folded below, in chunk order — integer ops only, so
    // the result equals the serial left fold exactly.
    std::vector<Value> red_init(plan.reductions.size());
    for (std::size_t k = 0; k < plan.reductions.size(); ++k) {
      red_init[k] = regs[plan.reductions[k].reg];
    }
    try {
      pool_->run(job);
    } catch (const std::runtime_error& e) {
      if (std::string(e.what()).find("instruction budget exceeded") !=
          std::string::npos) {
        ctx.executed = options_.max_insns + 1;  // Serial's trap count.
      }
      throw;
    }

    // -- Join: reconstruct the exact serial end-of-loop state. ----------
    std::uint64_t workers_total = 0;
    for (const std::uint64_t n : chunk_insns) workers_total += n;
    ctx.executed += workers_total +
                    trips * (step_insns + 4) +  // Skipped notes/step/jump.
                    exit_cost;                  // Final predicate round.
    if (ctx.executed > options_.max_insns) {
      // Callee work pushed the real total past the budget after all; a
      // serial run would have trapped mid-loop.
      ctx.executed = options_.max_insns + 1;
      fail("instruction budget exceeded");
    }
    // Last iteration's values for every register the loop defines...
    for (const std::int32_t r : plan.iter_defs) regs[r] = last_regs[r];
    // ...reductions folded over the chunk partials in chunk order...
    for (std::size_t k = 0; k < plan.reductions.size(); ++k) {
      Value acc = red_init[k];
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        combine_reduction(plan.reductions[k].kind, acc, chunk_partials[c][k]);
      }
      regs[plan.reductions[k].reg] = acc;
    }
    // ...then the last step round (scratch + IV) and the exit predicate
    // round, replayed in place.  Both slices are already accounted for in
    // the structural counts above, so the replays run uncounted.
    ExecCtx replay;
    replay.hard_cap = UINT64_MAX;
    regs[iv].i = iv0 + static_cast<std::int64_t>(trips - 1) * plan.step;
    exec<Mode::Slice>(code, regs, plan.step_begin, plan.backedge, frame_base,
                      replay);
    exec<Mode::Slice>(code, regs, plan.cond_begin, plan.exit_branch,
                      frame_base, replay);

    if (dispatched_.insert(&plan).second) ++stats_.loops_parallelized;
    ++stats_.invocations;
    stats_.chunks += chunks.size();
    stats_.par_iterations += trips;
    stats_.par_insns += workers_total;
    if (!plan.doall) stats_.ordered_insns += workers_total;
    if (!plan.doall) {
      const parexec::SyncCounts sync =
          parexec::structural_sync_counts(chunks, plan.distance);
      stats_.sync_waits += sync.waits;
      stats_.sync_elided += sync.elided;
    }
    return true;
  }

  static constexpr std::size_t analysis_max_reg_args() { return 4; }

  const RtlProgram& prog_;
  TraceSink* sink_;
  InterpOptions options_;
  Arena memory_;
  std::vector<std::uint64_t> global_base_;
  std::uint64_t stack_base_ = 0;
  std::uint64_t master_limit_ = 0;
  std::uint64_t worker_stack_size_ = 0;
  bool par_enabled_ = false;
  std::vector<Code> code_;  ///< Per function, by index.
  std::uint64_t output_hash_ = 1469598103934665603ull;
  std::uint64_t emit_count_ = 0;
  ParexecStats stats_;
  std::unordered_set<const LoopPlan*> dispatched_;
  std::unique_ptr<support::ThreadPool> pool_;
};

}  // namespace

RunResult run_program(const RtlProgram& prog, const std::string& entry,
                      TraceSink* sink, const InterpOptions& options) {
  try {
    Interp interp(prog, sink, options);
    return interp.run(entry);
  } catch (const std::runtime_error& e) {
    // Malformed RTL (an undefined branch target) or globals that do not
    // fit the arena: rejected before the first instruction runs.
    RunResult result;
    result.error = e.what();
    return result;
  }
}

}  // namespace hli::backend
