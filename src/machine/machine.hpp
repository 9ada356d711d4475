// Machine descriptions for the two evaluation targets (paper §4.3):
//   * an R4600-like pipelined single-issue in-order core, and
//   * an R10000-like 4-issue out-of-order core whose loads are held in the
//     load/store queue "until all the preceding stores in the queue are
//     known to be independent of the load" — the mechanism the paper
//     credits for the larger HLI speedups on the R10000.
// Latencies are representative, not cycle-exact; the evaluation compares
// shapes (with-HLI vs. without), never absolute cycle counts.
#pragma once

#include <cstdint>
#include <string>

#include "backend/rtl.hpp"

namespace hli::machine {

struct MachineDesc {
  std::string name;
  bool out_of_order = false;
  unsigned issue_width = 1;
  unsigned rob_size = 1;
  unsigned lsq_size = 1;
  unsigned branch_penalty = 1;
  unsigned call_overhead = 2;

  // Cache: direct-mapped L1D; a miss adds `lat_miss` to the load latency.
  // The OoO core overlaps outstanding misses (memory-level parallelism),
  // the in-order core stalls at the dependent use.  Both geometry figures
  // must be powers of two.
  unsigned cache_line_bytes = 32;
  unsigned cache_lines = 1024;  ///< 32 KB, matching both papers' targets.
  unsigned lat_miss = 12;

  // Operation latencies (result-ready delay in cycles).
  unsigned lat_alu = 1;
  unsigned lat_imul = 8;
  unsigned lat_idiv = 36;
  unsigned lat_load = 2;
  unsigned lat_store = 1;
  unsigned lat_fadd = 4;
  unsigned lat_fmul = 8;
  unsigned lat_fdiv = 36;

  [[nodiscard]] unsigned latency(const backend::Insn& insn) const;
};

/// MIPS R4600-like: single-issue, in-order, short pipeline.
[[nodiscard]] MachineDesc r4600();

/// MIPS R10000-like: 4-issue out-of-order with a conservative LSQ.
[[nodiscard]] MachineDesc r10000();

}  // namespace hli::machine
