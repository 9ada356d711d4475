#include "backend/sched.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "backend/gcc_alias.hpp"
#include "support/telemetry.hpp"

namespace hli::backend {

namespace {

const telemetry::Counter c_mem_queries = telemetry::counter("sched.mem_queries");
const telemetry::Counter c_gcc_yes = telemetry::counter("sched.gcc_yes");
const telemetry::Counter c_hli_yes = telemetry::counter("sched.hli_yes");
const telemetry::Counter c_combined_yes =
    telemetry::counter("sched.combined_yes");
const telemetry::Counter c_ddg_edges_pruned =
    telemetry::counter("sched.ddg_edges_pruned");
const telemetry::Counter c_call_queries =
    telemetry::counter("sched.call_queries");
const telemetry::Counter c_call_edges_pruned =
    telemetry::counter("sched.call_edges_pruned");
const telemetry::Counter c_blocks = telemetry::counter("sched.blocks");
const telemetry::Counter c_insns_scheduled =
    telemetry::counter("sched.insns_scheduled");
const telemetry::Counter c_hli_answers =
    telemetry::counter("query.hli_answers");
const telemetry::Counter c_native_fallbacks =
    telemetry::counter("query.native_fallbacks");

/// Calls `fn(r)` for every register an instruction reads: rs1, rs2 and a
/// call's argument registers.  A register read twice is reported twice.
template <typename Fn>
void for_each_read(const Insn& insn, Fn&& fn) {
  if (insn.rs1 != kNoReg) fn(insn.rs1);
  if (insn.rs2 != kNoReg) fn(insn.rs2);
  if (insn.op == Opcode::Call) {
    for (const Reg r : insn.args) fn(r);
  }
}

[[nodiscard]] Reg write_of(const Insn& insn) {
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

[[nodiscard]] bool is_schedulable(const Insn& insn) {
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

/// One scheduling region: a maximal run of schedulable instructions.
struct Block {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< Exclusive.
};

std::vector<Block> find_blocks(const RtlFunction& func) {
  std::vector<Block> blocks;
  std::size_t at = 0;
  while (at < func.insns.size()) {
    if (!is_schedulable(func.insns[at])) {
      ++at;
      continue;
    }
    Block block;
    block.begin = at;
    while (at < func.insns.size() && is_schedulable(func.insns[at])) ++at;
    block.end = at;
    blocks.push_back(block);
  }
  return blocks;
}

inline constexpr std::uint32_t kNoSlot = 0xffffffffu;
inline constexpr std::uint32_t kNoInsn = 0xffffffffu;

/// Per-function scratch for block DDG construction and list scheduling,
/// hoisted out of the per-block loop so every buffer keeps its capacity
/// across blocks.
struct SchedScratch {
  std::vector<std::uint64_t> edge_row;   ///< i-bits j depends on by register.
  std::vector<std::uint64_t> mem_pos;    ///< i-bits that are memory ops.
  std::vector<std::uint64_t> store_pos;  ///< i-bits that are stores.
  std::vector<std::uint64_t> call_pos;   ///< i-bits that are calls.
  /// Register phase: the slot of each register the block writes (kNoSlot
  /// for every other register); per slot a writers row followed by a
  /// readers row over the instructions scanned so far, its last writer
  /// and its readers since that writer.
  std::vector<std::uint32_t> reg_slot;
  std::vector<Reg> slot_reg;
  std::vector<std::uint64_t> reg_rows;
  std::vector<std::uint32_t> last_writer;
  std::vector<std::vector<std::uint32_t>> recent_readers;
  std::vector<std::uint32_t> linked;  ///< j + 1 once i -> j is in succs.
  std::vector<std::vector<std::uint32_t>> succs;  ///< DDG, ascending j.
  std::vector<unsigned> preds;      ///< Unscheduled predecessor counts.
  std::vector<unsigned> priority;
  std::vector<std::uint32_t> ready;  ///< Heap of schedulable instructions.
  std::vector<std::uint32_t> order;  ///< Block positions in schedule order.
  std::vector<Insn> moved;           ///< The rescheduled tail of the block.
};

class BlockScheduler {
 public:
  BlockScheduler(RtlFunction& func, const Block& block, const SchedOptions& options,
                 DepStats& stats, SchedScratch& scratch)
      : func_(func), block_(block), options_(options), stats_(stats),
        scratch_(scratch), size_(block.end - block.begin) {}

  void run() {
    if (size_ < 2) return;
    build_edges();
    list_schedule();
  }

 private:
  [[nodiscard]] const Insn& insn_at(std::size_t local) const {
    return func_.insns[block_.begin + local];
  }

  /// Adds the edge i -> j once.  The memory and call phases only visit
  /// an i outside j's register row, once each, so only the register
  /// phase can offer an edge twice.
  void add_edge(std::size_t i, std::size_t j) {
    if (scratch_.linked[i] == j + 1) return;
    scratch_.linked[i] = static_cast<std::uint32_t>(j + 1);
    scratch_.succs[i].push_back(static_cast<std::uint32_t>(j));
    ++scratch_.preds[j];
  }

  /// The combined memory disambiguation of Figure 5, with stats.
  [[nodiscard]] bool mem_dependence(std::size_t i, std::size_t j) {
    const Insn& a = insn_at(i);
    const Insn& b = insn_at(j);
    ++stats_.mem_queries;
    const bool gcc_value = gcc_may_conflict(a.mem, b.mem);
    bool hli_value = gcc_value;  // Without items, fall back to native.
    if (options_.view != nullptr && a.mem.hli_item != format::kNoItem &&
        b.mem.hli_item != format::kNoItem) {
      c_hli_answers.add();
      hli_value = options_.view->may_conflict(a.mem.hli_item,
                                              b.mem.hli_item) !=
                  query::EquivAcc::None;
    } else {
      c_native_fallbacks.add();
    }
    if (gcc_value) ++stats_.gcc_yes;
    if (hli_value) ++stats_.hli_yes;
    const bool combined = gcc_value && hli_value;
    if (combined) ++stats_.combined_yes;
    const bool base = options_.use_hli ? combined : gcc_value;
    if (options_.fallback == nullptr) return base;
    ++stats_.fallback_queries;
    const bool irdep = options_.fallback->may_conflict(block_.begin + i,
                                                       block_.begin + j);
    if (base && !irdep) ++stats_.fallback_pruned;
    return base && irdep;
  }

  /// Dependence of a memory op against a call (REF/MOD, Figure 4 logic),
  /// by local instruction index.
  [[nodiscard]] bool call_dependence(std::size_t mem_local,
                                     std::size_t call_local) {
    const Insn& mem = insn_at(mem_local);
    const Insn& call = insn_at(call_local);
    ++stats_.call_queries;
    ++stats_.call_edges_native;  // Native GCC always assumes a clobber.
    bool depends = true;
    if (options_.view != nullptr && mem.mem.hli_item != format::kNoItem &&
        call.hli_item != format::kNoItem) {
      const query::CallAcc acc =
          options_.view->get_call_acc(mem.mem.hli_item, call.hli_item);
      if (mem.op == Opcode::Load) {
        depends = acc == query::CallAcc::Mod || acc == query::CallAcc::RefMod;
      } else {
        depends = acc != query::CallAcc::None;
      }
    }
    if (depends) ++stats_.call_edges_hli;
    const bool base = options_.use_hli ? depends : true;
    if (options_.fallback == nullptr) return base;
    ++stats_.fallback_queries;
    const unsigned effect = options_.fallback->call_effect(
        block_.begin + call_local, block_.begin + mem_local);
    const bool irdep = mem.op == Opcode::Load
                           ? (effect & kCallWritesLoc) != 0
                           : effect != 0;
    if (base && !irdep) ++stats_.fallback_pruned_calls;
    return base && irdep;
  }

  /// Fills the block occupancy bitmaps the memory/call phases scan, and
  /// gives every register the block writes a slot with zeroed writers
  /// and readers rows.  A register the block only reads needs no slot:
  /// no instruction of the block can depend on it through a register.
  void prepare_block() {
    SchedScratch& s = scratch_;
    s.mem_pos.assign(words_, 0);
    s.store_pos.assign(words_, 0);
    s.call_pos.assign(words_, 0);
    s.slot_reg.clear();
    for (std::size_t k = 0; k < size_; ++k) {
      const Insn& insn = insn_at(k);
      const std::uint64_t bit = std::uint64_t{1} << (k & 63);
      if (is_memory_op(insn.op)) {
        s.mem_pos[k >> 6] |= bit;
        if (insn.op == Opcode::Store) s.store_pos[k >> 6] |= bit;
      } else if (insn.op == Opcode::Call) {
        s.call_pos[k >> 6] |= bit;
      }
      const Reg w = write_of(insn);
      if (w == kNoReg) continue;
      const auto r = static_cast<std::size_t>(w);
      if (r >= s.reg_slot.size()) s.reg_slot.resize(r + 1, kNoSlot);
      if (s.reg_slot[r] != kNoSlot) continue;
      s.reg_slot[r] = static_cast<std::uint32_t>(s.slot_reg.size());
      s.slot_reg.push_back(w);
    }
    const std::size_t slots = s.slot_reg.size();
    s.reg_rows.assign(slots * 2 * words_, 0);
    s.last_writer.assign(slots, kNoInsn);
    if (s.recent_readers.size() < slots) s.recent_readers.resize(slots);
    for (std::size_t k = 0; k < slots; ++k) s.recent_readers[k].clear();
    s.edge_row.assign(words_, 0);
    if (s.succs.size() < size_) s.succs.resize(size_);
    for (std::size_t k = 0; k < size_; ++k) s.succs[k].clear();
    s.preds.assign(size_, 0);
    s.linked.assign(size_, 0);
  }

  /// Returns the register slots to kNoSlot for the next block.
  void release_registers() {
    for (const Reg r : scratch_.slot_reg) {
      scratch_.reg_slot[static_cast<std::size_t>(r)] = kNoSlot;
    }
  }

  /// The slot of `reg`, or kNoSlot when the block never writes it.
  [[nodiscard]] std::uint32_t slot_of(Reg reg) const {
    const auto r = static_cast<std::size_t>(reg);
    return r < scratch_.reg_slot.size() ? scratch_.reg_slot[r] : kNoSlot;
  }

  /// The writers row of a slot; its readers row follows it.
  [[nodiscard]] std::uint64_t* rows_of(std::uint32_t slot) {
    return scratch_.reg_rows.data() + std::size_t{slot} * 2 * words_;
  }

  /// Calls `fn(i)` for every i < j whose bit is set in `cand` and that
  /// is not in j's register row — one AND + countr_zero scan per 64
  /// candidates.
  template <typename Fn>
  void for_each_eligible(const std::vector<std::uint64_t>& cand,
                         std::size_t j, Fn&& fn) {
    const std::size_t wj = j >> 6;
    for (std::size_t w = 0; w <= wj; ++w) {
      std::uint64_t bits = cand[w] & ~scratch_.edge_row[w];
      if (w == wj) {
        const unsigned rem = static_cast<unsigned>(j & 63);
        bits &= rem != 0 ? (std::uint64_t{1} << rem) - 1 : 0;
      }
      while (bits != 0) {
        const std::size_t i = w * 64 +
                              static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        fn(i);
      }
    }
  }

  // Edge construction is phase-split per j: register dependences first,
  // then memory pairs, then calls.  The register phase builds j's edge
  // row from per-register writer and reader rows instead of testing every
  // earlier instruction: the row holds exactly the i < j a pairwise test
  // finds (a true, output or anti dependence).  The memory and call
  // phases skip the row's predecessors a word at a time, so they test
  // the same pairs, and every Table 2 counter is unchanged.
  //
  // The DDG keeps only the row's edges that no other register edge
  // implies: from the last writer of each register j reads or writes,
  // and from the readers of the register j writes since its last writer.
  // Every other row bit reaches j through them (the writers of a register
  // are chained by output edges, and a reader is ordered before the next
  // writer by an anti edge), and every latency is at least 1, so the
  // priorities and ready sets, and with them the schedule, are those of
  // the full graph.
  void build_edges() {
    words_ = (size_ + 63) / 64;
    prepare_block();
    SchedScratch& s = scratch_;
    std::vector<std::uint64_t>& row = s.edge_row;

    for (std::size_t j = 0; j < size_; ++j) {
      const Insn& bj = insn_at(j);
      const std::size_t wj = j >> 6;
      const std::size_t used = wj + 1;  // Words that can hold an i < j.
      const auto merge = [&](const std::uint64_t* from) {
        for (std::size_t w = 0; w < used; ++w) row[w] |= from[w];
      };

      std::fill_n(row.begin(), used, 0);
      for_each_read(bj, [&](Reg r) {  // True dependences.
        const std::uint32_t slot = slot_of(r);
        if (slot == kNoSlot) return;
        merge(rows_of(slot));
        if (s.last_writer[slot] != kNoInsn) add_edge(s.last_writer[slot], j);
      });
      const Reg j_write = write_of(bj);
      const std::uint32_t j_slot =
          j_write != kNoReg ? slot_of(j_write) : kNoSlot;
      if (j_slot != kNoSlot) {  // Output and anti dependences.
        merge(rows_of(j_slot));
        merge(rows_of(j_slot) + words_);
        if (s.last_writer[j_slot] != kNoInsn) {
          add_edge(s.last_writer[j_slot], j);
        }
        for (const std::uint32_t i : s.recent_readers[j_slot]) add_edge(i, j);
      }

      const std::uint64_t j_bit = std::uint64_t{1} << (j & 63);
      for_each_read(bj, [&](Reg r) {
        const std::uint32_t slot = slot_of(r);
        if (slot == kNoSlot) return;
        rows_of(slot)[words_ + wj] |= j_bit;
        s.recent_readers[slot].push_back(static_cast<std::uint32_t>(j));
      });
      if (j_slot != kNoSlot) {
        rows_of(j_slot)[wj] |= j_bit;
        s.last_writer[j_slot] = static_cast<std::uint32_t>(j);
        s.recent_readers[j_slot].clear();
      }

      if (is_memory_op(bj.op)) {
        // Memory dependences (at least one write): a store tests every
        // earlier memory op, a load only earlier stores.
        const auto& cand =
            bj.op == Opcode::Store ? scratch_.mem_pos : scratch_.store_pos;
        for_each_eligible(cand, j, [&](std::size_t i) {
          if (mem_dependence(i, j)) add_edge(i, j);
        });
        // Earlier calls clobbering this memory op.
        for_each_eligible(scratch_.call_pos, j, [&](std::size_t i) {
          if (call_dependence(j, i)) add_edge(i, j);
        });
      } else if (bj.op == Opcode::Call) {
        // Calls never reorder; earlier memory ops by REF/MOD.
        for_each_eligible(scratch_.call_pos, j,
                          [&](std::size_t i) { add_edge(i, j); });
        for_each_eligible(scratch_.mem_pos, j, [&](std::size_t i) {
          if (call_dependence(i, j)) add_edge(i, j);
        });
      }
    }
    release_registers();
  }

  [[nodiscard]] unsigned latency_of(const Insn& insn) const {
    if (options_.latency) return std::max(1u, options_.latency(insn));
    return 1;
  }

  void list_schedule() {
    SchedScratch& s = scratch_;
    // Priority: longest latency-weighted path to the block exit.
    s.priority.assign(size_, 0);
    for (std::size_t idx = size_; idx-- > 0;) {
      unsigned best = 0;
      for (const std::uint32_t succ : s.succs[idx]) {
        best = std::max(best, s.priority[succ]);
      }
      s.priority[idx] = best + latency_of(insn_at(idx));
    }

    // Pick the ready instruction with the highest priority; break ties
    // by original position (stable, deterministic).  `later` orders the
    // max-heap so its top is that pick.
    const auto later = [&s](std::uint32_t a, std::uint32_t b) {
      if (s.priority[a] != s.priority[b]) return s.priority[a] < s.priority[b];
      return a > b;
    };
    s.ready.clear();
    for (std::size_t idx = 0; idx < size_; ++idx) {
      if (s.preds[idx] == 0) s.ready.push_back(static_cast<std::uint32_t>(idx));
    }
    std::make_heap(s.ready.begin(), s.ready.end(), later);
    s.order.clear();
    while (!s.ready.empty()) {
      std::pop_heap(s.ready.begin(), s.ready.end(), later);
      const std::uint32_t best = s.ready.back();
      s.ready.pop_back();
      s.order.push_back(best);
      for (const std::uint32_t succ : s.succs[best]) {
        if (--s.preds[succ] == 0) {
          s.ready.push_back(succ);
          std::push_heap(s.ready.begin(), s.ready.end(), later);
        }
      }
    }

    // Rewrite the block, moving each instruction once out and once back;
    // a block already in schedule order stays as it is.
    std::size_t first = 0;
    while (first < size_ && s.order[first] == first) ++first;
    if (first < size_) {
      s.moved.clear();
      for (std::size_t k = first; k < size_; ++k) {
        s.moved.push_back(std::move(func_.insns[block_.begin + s.order[k]]));
      }
      std::move(s.moved.begin(), s.moved.end(),
                func_.insns.begin() +
                    static_cast<std::ptrdiff_t>(block_.begin + first));
    }
    stats_.scheduled_insns += size_;
  }

  RtlFunction& func_;
  const Block& block_;
  const SchedOptions& options_;
  DepStats& stats_;
  SchedScratch& scratch_;
  std::size_t size_;
  std::size_t words_ = 0;
};

}  // namespace

void DepStats::record_telemetry(bool hli_applied) const {
  c_mem_queries.add(mem_queries);
  c_gcc_yes.add(gcc_yes);
  c_hli_yes.add(hli_yes);
  c_combined_yes.add(combined_yes);
  c_call_queries.add(call_queries);
  c_blocks.add(blocks);
  c_insns_scheduled.add(scheduled_insns);
  // Edges that exist under the native oracle but not under the combined
  // answer — pruned only when the schedule actually applied the HLI.
  if (hli_applied) {
    c_ddg_edges_pruned.add(gcc_yes - combined_yes);
    c_call_edges_pruned.add(call_edges_native - call_edges_hli);
  }
}

DepStats schedule_function(RtlFunction& func, const SchedOptions& options) {
  DepStats stats;
  SchedScratch scratch;  // One arena for all blocks of the function.
  for (const Block& block : find_blocks(func)) {
    ++stats.blocks;
    BlockScheduler scheduler(func, block, options, stats, scratch);
    scheduler.run();
  }
  return stats;
}

}  // namespace hli::backend
