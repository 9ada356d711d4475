#include "backend/licm.hpp"

#include <algorithm>
#include <set>
#include <vector>

#include "backend/gcc_alias.hpp"
#include "support/telemetry.hpp"

namespace hli::backend {

namespace {
const telemetry::Counter c_pure_hoisted =
    telemetry::counter("licm.pure_hoisted");
const telemetry::Counter c_loads_hoisted =
    telemetry::counter("licm.loads_hoisted");
const telemetry::Counter c_loads_blocked_native =
    telemetry::counter("licm.loads_blocked_native");
const telemetry::Counter c_loads_blocked_hli =
    telemetry::counter("licm.loads_blocked_hli");
}  // namespace

void LicmStats::record_telemetry() const {
  c_pure_hoisted.add(pure_hoisted);
  c_loads_hoisted.add(loads_hoisted);
  c_loads_blocked_native.add(loads_blocked_native);
  c_loads_blocked_hli.add(loads_blocked_hli);
}

namespace {

struct Loop {
  std::size_t beg = 0;  ///< Index of the LoopBeg note.
  std::size_t end = 0;  ///< Index of the LoopEnd note.
  bool innermost = true;
};

std::vector<Loop> find_innermost_loops(const RtlFunction& func) {
  std::vector<Loop> out;
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < func.insns.size(); ++i) {
    if (func.insns[i].op == Opcode::LoopBeg) {
      stack.push_back(i);
    } else if (func.insns[i].op == Opcode::LoopEnd && !stack.empty()) {
      Loop loop;
      loop.beg = stack.back();
      loop.end = i;
      stack.pop_back();
      // A loop is innermost iff no other LoopBeg between beg and end.
      loop.innermost = true;
      for (std::size_t k = loop.beg + 1; k < loop.end; ++k) {
        if (func.insns[k].op == Opcode::LoopBeg) {
          loop.innermost = false;
          break;
        }
      }
      if (loop.innermost) out.push_back(loop);
    }
  }
  return out;
}

[[nodiscard]] bool hoistable_pure(Opcode op) {
  switch (op) {
    case Opcode::LoadImm:
    case Opcode::LoadAddr:
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Neg:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::IntToFp:
      return true;
    default:
      return false;  // Div/Rem may trap; comparisons feed branches locally.
  }
}

class LoopLicm {
 public:
  LoopLicm(RtlFunction& func, const Loop& loop, const LicmOptions& options,
           const std::vector<std::uint32_t>& defs, LicmStats& stats)
      : func_(func), loop_(loop), options_(options), defs_(defs),
        stats_(stats) {}

  void run() {
    collect_defs();
    // Iterate: hoisting one insn can make another invariant.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = loop_.beg + 1; i < loop_.end; ++i) {
        if (hoisted_.contains(i)) continue;
        const Insn& insn = func_.insns[i];
        if (hoistable_pure(insn.op)) {
          if (invariant_inputs(insn) && single_def(insn.rd)) {
            hoisted_.insert(i);
            defs_in_loop_.erase(insn.rd);
            ++stats_.pure_hoisted;
            changed = true;
          }
        } else if (insn.op == Opcode::Load) {
          if (invariant_inputs(insn) && single_def(insn.rd) &&
              no_conflicting_writes(insn, i)) {
            hoisted_.insert(i);
            defs_in_loop_.erase(insn.rd);
            ++stats_.loads_hoisted;
            if (options_.on_load_hoisted &&
                insn.mem.hli_item != format::kNoItem) {
              options_.on_load_hoisted(insn.mem.hli_item, loop_region());
            }
            changed = true;
          }
        }
      }
    }
    rewrite();
  }

 private:
  [[nodiscard]] format::RegionId loop_region() const {
    return func_.insns[loop_.beg].loop_region;
  }

  void collect_defs() {
    for (std::size_t i = loop_.beg + 1; i < loop_.end; ++i) {
      const Reg rd = func_.insns[i].op == Opcode::Store ? kNoReg
                                                        : func_.insns[i].rd;
      if (rd != kNoReg) defs_in_loop_.insert(rd);
    }
  }

  [[nodiscard]] bool invariant_inputs(const Insn& insn) const {
    const Reg srcs[2] = {insn.rs1, insn.rs2};
    for (const Reg r : srcs) {
      if (r != kNoReg && defs_in_loop_.contains(r)) return false;
    }
    return true;
  }

  /// The register must be defined exactly once in the loop (our lowering's
  /// expression temps) so moving the single definition is sound; a
  /// definition anywhere outside the loop would be clobbered early.  `rd`
  /// is the destination of a candidate inside the loop, so that one
  /// definition is in the loop exactly when it is the function's only one.
  [[nodiscard]] bool single_def(Reg rd) const {
    return rd != kNoReg && defs_[static_cast<std::size_t>(rd)] == 1;
  }

  [[nodiscard]] bool no_conflicting_writes(const Insn& load,
                                           std::size_t load_pos) {
    for (std::size_t i = loop_.beg + 1; i < loop_.end; ++i) {
      if (hoisted_.contains(i)) continue;
      const Insn& insn = func_.insns[i];
      if (insn.op == Opcode::Store) {
        bool conflict = gcc_may_conflict(load.mem, insn.mem);
        if (conflict) ++stats_.loads_blocked_native;
        if (conflict && options_.use_hli && options_.view != nullptr &&
            load.mem.hli_item != format::kNoItem &&
            insn.mem.hli_item != format::kNoItem) {
          // Both the within-iteration view and the loop-carried table must
          // clear the pair before hoisting across iterations is safe.
          const bool within =
              options_.view->may_conflict(load.mem.hli_item,
                                          insn.mem.hli_item) !=
              query::EquivAcc::None;
          const bool carried = !options_.view
                                    ->get_lcdd(loop_region(), load.mem.hli_item,
                                               insn.mem.hli_item)
                                    .empty();
          conflict = within || carried;
        }
        if (conflict && options_.fallback != nullptr) {
          // Hoisting moves the load across every iteration, so both the
          // same-iteration and the loop-carried question must stay open
          // for the store to keep blocking it.
          conflict = options_.fallback->may_conflict(load_pos, i) ||
                     options_.fallback->may_carry(loop_.beg, load_pos, i);
        }
        if (conflict) {
          if (options_.use_hli) ++stats_.loads_blocked_hli;
          return false;
        }
      } else if (insn.op == Opcode::Call) {
        bool clobbers = true;
        if (options_.use_hli && options_.view != nullptr &&
            load.mem.hli_item != format::kNoItem &&
            insn.hli_item != format::kNoItem) {
          const query::CallAcc acc =
              options_.view->get_call_acc(load.mem.hli_item, insn.hli_item);
          clobbers = acc == query::CallAcc::Mod || acc == query::CallAcc::RefMod;
        }
        if (clobbers && options_.fallback != nullptr) {
          clobbers = (options_.fallback->call_effect(i, load_pos) &
                      kCallWritesLoc) != 0;
        }
        if (clobbers) return false;
      }
    }
    return true;
  }

  /// Reorders the loop's span to [preheader][LoopBeg][body]; the
  /// LoopBeg note moves after the hoisted code and nothing outside the
  /// span moves.
  void rewrite() {
    if (hoisted_.empty()) return;
    std::vector<Insn> span;
    span.reserve(loop_.end - loop_.beg);
    for (std::size_t i = loop_.beg + 1; i < loop_.end; ++i) {
      if (hoisted_.contains(i)) span.push_back(std::move(func_.insns[i]));
    }
    span.push_back(std::move(func_.insns[loop_.beg]));
    for (std::size_t i = loop_.beg + 1; i < loop_.end; ++i) {
      if (!hoisted_.contains(i)) span.push_back(std::move(func_.insns[i]));
    }
    std::move(span.begin(), span.end(),
              func_.insns.begin() + static_cast<std::ptrdiff_t>(loop_.beg));
  }

  RtlFunction& func_;
  const Loop& loop_;
  const LicmOptions& options_;
  const std::vector<std::uint32_t>& defs_;  ///< Definitions per register.
  LicmStats& stats_;
  std::set<Reg> defs_in_loop_;
  std::set<std::size_t> hoisted_;
};

}  // namespace

LicmStats licm_function(RtlFunction& func, const LicmOptions& options) {
  LicmStats stats;
  // A rewrite only permutes its own loop's span (the hoisted code moves
  // ahead of LoopBeg, LoopEnd stays), so the definition counts hold for
  // the whole pass and the other innermost loops keep their indices: one
  // discovery serves every loop.  A region is processed once.
  std::vector<std::uint32_t> defs;
  for (const Insn& insn : func.insns) {
    const Reg w = insn.op == Opcode::Store ? kNoReg : insn.rd;
    if (w == kNoReg) continue;
    const auto r = static_cast<std::size_t>(w);
    if (r >= defs.size()) defs.resize(r + 1, 0);
    ++defs[r];
  }
  std::set<format::RegionId> processed;
  for (const Loop& loop : find_innermost_loops(func)) {
    const format::RegionId region = func.insns[loop.beg].loop_region;
    if (!processed.insert(region).second) continue;
    // Each prior rewrite reordered the stream; the oracle must answer for
    // the stream as it is now.
    if (options.fallback != nullptr) options.fallback->refresh(func);
    LoopLicm licm(func, loop, options, defs, stats);
    licm.run();
  }
  return stats;
}

}  // namespace hli::backend
