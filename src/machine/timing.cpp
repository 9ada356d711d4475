#include "machine/timing.hpp"

#include <algorithm>

namespace hli::machine {

using backend::Insn;
using backend::kNoReg;
using backend::Opcode;
using backend::Reg;
using backend::TraceEvent;

namespace {

bool overlaps(std::uint64_t a, std::uint8_t a_size, std::uint64_t b,
              std::uint8_t b_size) {
  return a < b + b_size && b < a + a_size;
}

}  // namespace

// ---------------------------------------------------------------------------
// In-order scoreboard.
// ---------------------------------------------------------------------------

void InOrderSim::on_insn(const TraceEvent& event) {
  const Insn& insn = *event.insn;
  ++count_;

  std::uint64_t start = cycle_;
  start = std::max(start, ready_.get(insn.rs1));
  start = std::max(start, ready_.get(insn.rs2));
  if (insn.op == Opcode::Call) {
    for (const Reg r : insn.args) start = std::max(start, ready_.get(r));
    // Register context switches to the callee; model the call overhead and
    // clear the scoreboard (callee regs are a fresh space).
    cycle_ = start + desc_.call_overhead;
    ready_.clear();
    return;
  }

  // Single issue: one instruction per cycle once operands are ready.
  cycle_ = start + 1;
  if (insn.op == Opcode::Jump || insn.op == Opcode::BranchZ ||
      insn.op == Opcode::BranchNZ || insn.op == Opcode::Return) {
    cycle_ += desc_.branch_penalty;
    if (insn.op == Opcode::Return) ready_.clear();
    return;
  }
  if (insn.rd != kNoReg) {
    unsigned latency = desc_.latency(insn);
    if (insn.op == Opcode::Load && !cache_.access(event.address)) {
      latency += desc_.lat_miss;
    }
    ready_.set(insn.rd, start + latency);
  }
}

// ---------------------------------------------------------------------------
// Out-of-order core with an LSQ.
// ---------------------------------------------------------------------------

void OutOfOrderSim::on_insn(const TraceEvent& event) {
  const Insn& insn = *event.insn;
  ++count_;

  // Dispatch in program order, issue_width per cycle, bounded by the ROB.
  if (dispatched_this_cycle_ >= desc_.issue_width) {
    ++dispatch_cycle_;
    dispatched_this_cycle_ = 0;
  }
  if (!rob_complete_.empty() && rob_complete_.size() >= desc_.rob_size) {
    // The oldest entry must have completed before a new one enters.
    dispatch_cycle_ = std::max(dispatch_cycle_, rob_complete_.front());
    rob_complete_.pop_front();
  }
  ++dispatched_this_cycle_;

  std::uint64_t exec_start = dispatch_cycle_;
  exec_start = std::max(exec_start, ready_.get(insn.rs1));
  exec_start = std::max(exec_start, ready_.get(insn.rs2));

  if (insn.op == Opcode::Call) {
    for (const Reg r : insn.args) {
      exec_start = std::max(exec_start, ready_.get(r));
    }
    const std::uint64_t done = exec_start + desc_.call_overhead;
    dispatch_cycle_ = std::max(dispatch_cycle_, done);
    dispatched_this_cycle_ = 0;
    ready_.clear();
    store_queue_.clear();
    rob_complete_.push_back(done);
    last_complete_ = std::max(last_complete_, done);
    return;
  }

  if (is_memory_op(insn.op)) {
    // In-order address generation: one AGU slot per cycle, program order.
    agu_cycle_ =
        std::max({agu_cycle_ + 1, dispatch_cycle_, ready_.get(insn.rs1)});
    exec_start = std::max(exec_start, agu_cycle_);
  }

  if (insn.op == Opcode::Load) {
    // The LSQ rule (paper §4.3): "a load instruction in the load/store
    // queue will not be issued to the memory system until all the
    // preceding stores in the queue are known to be independent of the
    // load".  The R10000 performs no memory-dependence speculation: each
    // unresolved older store must complete its address check before the
    // load may pass, and the queue disambiguates against one older store
    // per cycle; an overlapping store additionally forwards its data.
    // Hoisting loads ABOVE stores at compile time empties this queue —
    // that is how static scheduling reaches the out-of-order core.
    // Stores retire from the queue in order, one per cycle, once their
    // data is written: only still-queued stores constrain the load.
    while (!store_queue_.empty() &&
           store_queue_.front().leave_time <= dispatch_cycle_) {
      store_queue_.pop_front();
    }
    std::uint64_t disamb = exec_start;
    for (std::size_t i = 0; i < store_queue_.size(); ++i) {
      const StoreInfo& store = store_queue_[i];
      disamb = std::max(disamb, store.addr_ready) + 1;
      if (overlaps(event.address, insn.mem.size, store.address, store.size)) {
        disamb = std::max(disamb, store.data_ready);
      }
    }
    exec_start = std::max(exec_start, disamb);
  }

  unsigned latency = desc_.latency(insn);
  if (is_memory_op(insn.op) && !cache_.access(event.address)) {
    latency += desc_.lat_miss;
  }
  std::uint64_t complete = exec_start + latency;

  if (insn.op == Opcode::Store) {
    StoreInfo info;
    info.addr_ready = agu_cycle_;
    info.data_ready = complete;
    info.address = event.address;
    info.size = insn.mem.size;
    last_store_retire_ = std::max(complete, last_store_retire_ + 1);
    info.leave_time = last_store_retire_;
    store_queue_.push_back(info);
    if (store_queue_.size() > desc_.lsq_size) store_queue_.pop_front();
  }

  if (insn.op == Opcode::Jump || insn.op == Opcode::BranchZ ||
      insn.op == Opcode::BranchNZ || insn.op == Opcode::Return) {
    // Resolved branch: later dispatch cannot begin before resolution
    // (perfect prediction would hide this; we charge a small penalty).
    dispatch_cycle_ = std::max(dispatch_cycle_, exec_start + desc_.branch_penalty);
    dispatched_this_cycle_ = 0;
    if (insn.op == Opcode::Return) {
      ready_.clear();
      store_queue_.clear();
    }
  }

  if (insn.rd != kNoReg && insn.op != Opcode::Store) {
    ready_.set(insn.rd, complete);
  }
  rob_complete_.push_back(complete);
  while (rob_complete_.size() > desc_.rob_size) rob_complete_.pop_front();
  last_complete_ = std::max(last_complete_, complete);
}

std::uint64_t OutOfOrderSim::cycles() const {
  return std::max(dispatch_cycle_, last_complete_);
}

}  // namespace hli::machine
