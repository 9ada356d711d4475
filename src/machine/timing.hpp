// Execution-driven cycle-approximate timing models.  Both are TraceSinks:
// the RTL interpreter streams every executed instruction (with resolved
// memory addresses) and the model advances its clock.
//
// InOrderSim — scoreboarded single-issue pipeline (R4600-like): an
// instruction issues when its operands are ready; loads have a visible
// delay the static schedule can hide.
//
// OutOfOrderSim — width-W dispatch into a ROB; instructions execute when
// operands are ready, but a LOAD additionally waits until every earlier
// store in the window has its address resolved, and until the data of any
// overlapping store is available (the R10000 LSQ rule the paper cites).
// Because dispatch is in PROGRAM order, the static schedule controls how
// early a load can enter the window — that is how compile-time scheduling
// shows up on an out-of-order core.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "backend/interp.hpp"
#include "machine/machine.hpp"

namespace hli::machine {

/// Direct-mapped L1 data cache shared by both models.  The line size and
/// line count must be powers of two, so set lookup is a shift and a mask.
class CacheModel {
 public:
  explicit CacheModel(const MachineDesc& desc)
      : tags_(checked_lines(desc), ~0ull),
        line_shift_(std::countr_zero(desc.cache_line_bytes)),
        index_mask_(tags_.size() - 1) {}

  /// Returns true on hit; installs the line either way.
  bool access(std::uint64_t address) {
    const std::uint64_t line = address >> line_shift_;
    const auto index = static_cast<std::size_t>(line & index_mask_);
    const bool hit = tags_[index] == line;
    tags_[index] = line;
    return hit;
  }

 private:
  static std::size_t checked_lines(const MachineDesc& desc) {
    if (!std::has_single_bit(desc.cache_line_bytes) ||
        !std::has_single_bit(desc.cache_lines)) {
      throw std::invalid_argument(
          "cache line size and line count must be powers of two");
    }
    return desc.cache_lines;
  }

  std::vector<std::uint64_t> tags_;
  int line_shift_;
  std::uint64_t index_mask_;
};

/// Result-ready cycle per virtual register, cleared in O(1): a slot counts
/// only when stamped with the current epoch, so clear() is one increment.
/// Unwritten registers read as ready at cycle 0.
class ReadyTable {
 public:
  [[nodiscard]] std::uint64_t get(backend::Reg r) const {
    const auto i = static_cast<std::size_t>(r);
    if (r == backend::kNoReg || i >= slots_.size()) return 0;
    return slots_[i].epoch == epoch_ ? slots_[i].cycle : 0;
  }
  void set(backend::Reg r, std::uint64_t cycle) {
    const auto i = static_cast<std::size_t>(r);
    if (i >= slots_.size()) slots_.resize(i + 1);
    slots_[i] = {cycle, epoch_};
  }
  void clear() { ++epoch_; }

 private:
  struct Slot {
    std::uint64_t cycle = 0;
    std::uint64_t epoch = 0;
  };
  std::vector<Slot> slots_;
  std::uint64_t epoch_ = 1;  ///< Fresh slots (epoch 0) never match.
};

/// FIFO over a fixed power-of-two buffer: the ROB and the store queue
/// never hold more than their configured window, so nothing allocates
/// after construction.  Index 0 is the oldest entry.
template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity)
      : buf_(std::bit_ceil(std::max<std::size_t>(capacity, 1))),
        mask_(buf_.size() - 1) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & mask_];
  }
  /// The caller keeps size() below the capacity it constructed with.
  void push_back(const T& value) {
    buf_[(head_ + size_) & mask_] = value;
    ++size_;
  }
  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::vector<T> buf_;
  std::size_t mask_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

class InOrderSim final : public backend::TraceSink {
 public:
  explicit InOrderSim(MachineDesc desc)
      : desc_(std::move(desc)), cache_(desc_) {}

  void on_insn(const backend::TraceEvent& event) override;

  [[nodiscard]] std::uint64_t cycles() const { return cycle_; }
  [[nodiscard]] std::uint64_t insns() const { return count_; }

 private:
  MachineDesc desc_;
  CacheModel cache_;
  std::uint64_t cycle_ = 0;
  std::uint64_t count_ = 0;
  // Result-ready times per virtual register of the CURRENT function frame.
  // Calls reset the table (callee registers are a different space); this
  // is an approximation that charges the call overhead instead.
  ReadyTable ready_;
};

class OutOfOrderSim final : public backend::TraceSink {
 public:
  explicit OutOfOrderSim(MachineDesc desc)
      : desc_(std::move(desc)),
        cache_(desc_),
        rob_complete_(desc_.rob_size + 1),
        store_queue_(desc_.lsq_size + 1) {}

  void on_insn(const backend::TraceEvent& event) override;

  [[nodiscard]] std::uint64_t cycles() const;
  [[nodiscard]] std::uint64_t insns() const { return count_; }

 private:
  struct StoreInfo {
    std::uint64_t addr_ready = 0;  ///< When the address is known.
    std::uint64_t data_ready = 0;  ///< When the stored value is available.
    std::uint64_t leave_time = 0;  ///< In-order retirement from the queue.
    std::uint64_t address = 0;
    std::uint8_t size = 0;
  };

  MachineDesc desc_;
  CacheModel cache_;
  std::uint64_t count_ = 0;
  std::uint64_t dispatched_this_cycle_ = 0;
  std::uint64_t dispatch_cycle_ = 0;
  std::uint64_t last_complete_ = 0;
  /// The address-generation queue is processed in PROGRAM order (one
  /// address calculation per cycle, as on the R10000): a memory op's
  /// access cannot start before its in-order AGU slot.  This is the lever
  /// through which static instruction order reaches the OoO core.
  std::uint64_t agu_cycle_ = 0;
  ReadyTable ready_;
  Ring<std::uint64_t> rob_complete_;  ///< Completion times, window-limited.
  Ring<StoreInfo> store_queue_;       ///< Pending stores (LSQ window).
  std::uint64_t last_store_retire_ = 0;  ///< Stores retire in order, 1/cycle.
};

}  // namespace hli::machine
