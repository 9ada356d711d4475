// Reference list scheduler: the straightforward pairwise construction of
// the block DDG and a linear scan of the ready list, kept as the oracle
// the production scheduler (src/backend/sched.cpp) is tested against —
// in the role hli/reference_query.hpp plays for dependence queries.
//
// Every later instruction j tests every earlier i of its block for a
// register dependence, then the memory pairs and the call pairs that
// have no edge yet; each pick scans the whole block for the ready
// instruction of highest priority, the earliest on a tie.  The result
// (scheduled RTL and every DepStats field) must equal
// schedule_function's for the same input and options.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "backend/gcc_alias.hpp"
#include "backend/sched.hpp"

namespace hli::backend::reference {

/// A fault to plant in the reference, so a test can show that the
/// differential comparison notices a scheduler that loses an edge:
/// when set, a register dependence (i, j) it returns true for is dropped.
using DropEdge = std::function<bool(const Insn& i, const Insn& j)>;

namespace detail {

inline std::vector<Reg> reads_of(const Insn& insn) {
  std::vector<Reg> out;
  if (insn.rs1 != kNoReg) out.push_back(insn.rs1);
  if (insn.rs2 != kNoReg) out.push_back(insn.rs2);
  if (insn.op == Opcode::Call) {
    for (const Reg r : insn.args) out.push_back(r);
  }
  return out;
}

inline Reg write_of(const Insn& insn) {
  switch (insn.op) {
    case Opcode::Store:
    case Opcode::Jump:
    case Opcode::BranchZ:
    case Opcode::BranchNZ:
    case Opcode::Return:
    case Opcode::Label:
    case Opcode::LoopBeg:
    case Opcode::LoopEnd:
      return kNoReg;
    default:
      return insn.rd;
  }
}

inline bool is_schedulable(const Insn& insn) {
  switch (insn.op) {
    case Opcode::Label:
    case Opcode::Jump:
    case Opcode::BranchZ:
    case Opcode::BranchNZ:
    case Opcode::Return:
    case Opcode::LoopBeg:
    case Opcode::LoopEnd:
      return false;
    default:
      return true;
  }
}

inline bool contains(const std::vector<Reg>& regs, Reg r) {
  return std::find(regs.begin(), regs.end(), r) != regs.end();
}

class Block {
 public:
  Block(RtlFunction& func, std::size_t begin, std::size_t end,
        const SchedOptions& options, const DropEdge& drop, DepStats& stats)
      : func_(func), begin_(begin), size_(end - begin), options_(options),
        drop_(drop), stats_(stats), succs_(size_), preds_(size_, 0) {}

  void run() {
    if (size_ < 2) return;
    build_edges();
    list_schedule();
  }

 private:
  const Insn& at(std::size_t local) const {
    return func_.insns[begin_ + local];
  }

  void add_edge(std::size_t i, std::size_t j, std::vector<bool>& has_edge) {
    if (has_edge[i]) return;
    has_edge[i] = true;
    succs_[i].push_back(j);
    ++preds_[j];
  }

  bool mem_dependence(std::size_t i, std::size_t j) {
    const Insn& a = at(i);
    const Insn& b = at(j);
    ++stats_.mem_queries;
    const bool gcc_value = gcc_may_conflict(a.mem, b.mem);
    bool hli_value = gcc_value;
    if (options_.view != nullptr && a.mem.hli_item != format::kNoItem &&
        b.mem.hli_item != format::kNoItem) {
      hli_value = options_.view->may_conflict(a.mem.hli_item,
                                              b.mem.hli_item) !=
                  query::EquivAcc::None;
    }
    if (gcc_value) ++stats_.gcc_yes;
    if (hli_value) ++stats_.hli_yes;
    const bool combined = gcc_value && hli_value;
    if (combined) ++stats_.combined_yes;
    const bool base = options_.use_hli ? combined : gcc_value;
    if (options_.fallback == nullptr) return base;
    ++stats_.fallback_queries;
    const bool irdep = options_.fallback->may_conflict(begin_ + i, begin_ + j);
    if (base && !irdep) ++stats_.fallback_pruned;
    return base && irdep;
  }

  bool call_dependence(std::size_t mem_local, std::size_t call_local) {
    const Insn& mem = at(mem_local);
    const Insn& call = at(call_local);
    ++stats_.call_queries;
    ++stats_.call_edges_native;
    bool depends = true;
    if (options_.view != nullptr && mem.mem.hli_item != format::kNoItem &&
        call.hli_item != format::kNoItem) {
      const query::CallAcc acc =
          options_.view->get_call_acc(mem.mem.hli_item, call.hli_item);
      depends = mem.op == Opcode::Load ? acc == query::CallAcc::Mod ||
                                             acc == query::CallAcc::RefMod
                                       : acc != query::CallAcc::None;
    }
    if (depends) ++stats_.call_edges_hli;
    const bool base = options_.use_hli ? depends : true;
    if (options_.fallback == nullptr) return base;
    ++stats_.fallback_queries;
    const unsigned effect =
        options_.fallback->call_effect(begin_ + call_local, begin_ + mem_local);
    const bool irdep = mem.op == Opcode::Load ? (effect & kCallWritesLoc) != 0
                                              : effect != 0;
    if (base && !irdep) ++stats_.fallback_pruned_calls;
    return base && irdep;
  }

  void build_edges() {
    for (std::size_t j = 0; j < size_; ++j) {
      const Insn& bj = at(j);
      const Reg j_write = write_of(bj);
      const std::vector<Reg> j_reads = reads_of(bj);
      std::vector<bool> has_edge(j, false);

      // Register dependences: every earlier instruction, pairwise.
      for (std::size_t i = 0; i < j; ++i) {
        const Insn& bi = at(i);
        const Reg i_write = write_of(bi);
        bool edge = false;
        if (i_write != kNoReg) {
          if (contains(j_reads, i_write)) edge = true;  // True dependence.
          if (i_write == j_write) edge = true;          // Output dependence.
        }
        if (!edge && j_write != kNoReg && contains(reads_of(bi), j_write)) {
          edge = true;  // Anti dependence.
        }
        if (edge && drop_ && drop_(bi, bj)) edge = false;
        if (edge) add_edge(i, j, has_edge);
      }

      // Memory and call dependences over the pairs with no edge yet, i
      // ascending within each phase.
      const auto is_call = [&](std::size_t i) {
        return at(i).op == Opcode::Call;
      };
      if (is_memory_op(bj.op)) {
        for (std::size_t i = 0; i < j; ++i) {
          const Insn& bi = at(i);
          const bool candidate = bj.op == Opcode::Store
                                     ? is_memory_op(bi.op)
                                     : bi.op == Opcode::Store;
          if (candidate && !has_edge[i] && mem_dependence(i, j)) {
            add_edge(i, j, has_edge);
          }
        }
        for (std::size_t i = 0; i < j; ++i) {
          if (is_call(i) && !has_edge[i] && call_dependence(j, i)) {
            add_edge(i, j, has_edge);
          }
        }
      } else if (bj.op == Opcode::Call) {
        for (std::size_t i = 0; i < j; ++i) {
          if (is_call(i)) add_edge(i, j, has_edge);
        }
        for (std::size_t i = 0; i < j; ++i) {
          if (is_memory_op(at(i).op) && !has_edge[i] && call_dependence(i, j)) {
            add_edge(i, j, has_edge);
          }
        }
      }
    }
  }

  void list_schedule() {
    std::vector<unsigned> priority(size_, 0);
    for (std::size_t idx = size_; idx-- > 0;) {
      unsigned best = 0;
      for (const std::size_t succ : succs_[idx]) {
        best = std::max(best, priority[succ]);
      }
      const unsigned latency =
          options_.latency ? std::max(1u, options_.latency(at(idx))) : 1u;
      priority[idx] = best + latency;
    }

    std::vector<std::size_t> order;
    std::vector<unsigned> remaining = preds_;
    std::vector<bool> done(size_, false);
    for (std::size_t emitted = 0; emitted < size_; ++emitted) {
      std::size_t best = size_;
      for (std::size_t idx = 0; idx < size_; ++idx) {
        if (done[idx] || remaining[idx] != 0) continue;
        if (best == size_ || priority[idx] > priority[best]) best = idx;
      }
      order.push_back(best);
      done[best] = true;
      for (const std::size_t succ : succs_[best]) --remaining[succ];
    }

    std::vector<Insn> scheduled;
    for (const std::size_t idx : order) scheduled.push_back(at(idx));
    for (std::size_t k = 0; k < size_; ++k) {
      func_.insns[begin_ + k] = std::move(scheduled[k]);
    }
    stats_.scheduled_insns += size_;
  }

  RtlFunction& func_;
  std::size_t begin_;
  std::size_t size_;
  const SchedOptions& options_;
  const DropEdge& drop_;
  DepStats& stats_;
  std::vector<std::vector<std::size_t>> succs_;
  std::vector<unsigned> preds_;
};

}  // namespace detail

/// The reference counterpart of backend::schedule_function.
inline DepStats schedule_function(RtlFunction& func,
                                  const SchedOptions& options,
                                  const DropEdge& drop = {}) {
  DepStats stats;
  std::size_t at = 0;
  while (at < func.insns.size()) {
    if (!detail::is_schedulable(func.insns[at])) {
      ++at;
      continue;
    }
    const std::size_t begin = at;
    while (at < func.insns.size() &&
           detail::is_schedulable(func.insns[at])) {
      ++at;
    }
    ++stats.blocks;
    detail::Block(func, begin, at, options, drop, stats).run();
  }
  return stats;
}

}  // namespace hli::backend::reference
