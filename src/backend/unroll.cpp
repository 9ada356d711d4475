#include "backend/unroll.hpp"

#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "support/telemetry.hpp"

namespace hli::backend {

namespace {
const telemetry::Counter c_loops_unrolled =
    telemetry::counter("unroll.loops_unrolled");
const telemetry::Counter c_loops_rejected =
    telemetry::counter("unroll.loops_rejected");
const telemetry::Counter c_copies_made =
    telemetry::counter("unroll.copies_made");
}  // namespace

void UnrollStats::record_telemetry() const {
  c_loops_unrolled.add(loops_unrolled);
  c_loops_rejected.add(loops_rejected);
  c_copies_made.add(copies_made);
}

namespace {

struct LoopShape {
  std::size_t beg = 0;        ///< LoopBeg.
  std::size_t top_label = 0;  ///< Label top.
  std::size_t branch = 0;     ///< Exit branch (BranchZ end).
  std::size_t body_begin = 0; ///< First body insn.
  std::size_t jump = 0;       ///< Jump top.
  std::size_t end_label = 0;  ///< Label end.
  std::size_t loop_end = 0;   ///< LoopEnd.
};

/// Matches the exact shape lowering emits for a canonical counted `for`
/// with a straight-line body:
///   LoopBeg; Label t; <cond insns>; BranchZ e; <body>; Label c;
///   <step>; Jump t; Label e; LoopEnd
/// Returns false if anything (inner loops, extra labels/branches) differs.
bool match_loop(const RtlFunction& func, std::size_t beg, LoopShape& shape) {
  const Insn& note = func.insns[beg];
  if (note.op != Opcode::LoopBeg || !note.trip_count) return false;
  shape.beg = beg;
  std::size_t at = beg + 1;
  const auto& insns = func.insns;
  if (at >= insns.size() || insns[at].op != Opcode::Label) return false;
  shape.top_label = at++;
  // Condition computation up to the exit branch.
  while (at < insns.size() && !is_branch(insns[at].op)) {
    if (insns[at].op == Opcode::Label || insns[at].op == Opcode::LoopBeg ||
        insns[at].op == Opcode::Call) {
      return false;
    }
    ++at;
  }
  if (at >= insns.size() || insns[at].op != Opcode::BranchZ) return false;
  shape.branch = at++;
  shape.body_begin = at;
  // Body and step: straight line until the back jump.  One intermediate
  // label is allowed (the continue label lowering always emits).
  std::size_t labels_seen = 0;
  while (at < insns.size() && insns[at].op != Opcode::Jump) {
    switch (insns[at].op) {
      case Opcode::Label:
        if (++labels_seen > 1) return false;
        break;
      case Opcode::BranchZ:
      case Opcode::BranchNZ:
      case Opcode::Return:
      case Opcode::LoopBeg:
      case Opcode::LoopEnd:
        return false;
      default:
        break;
    }
    ++at;
  }
  if (at >= insns.size()) return false;
  shape.jump = at;
  if (insns[at].label != insns[shape.top_label].label) return false;
  ++at;
  if (at >= insns.size() || insns[at].op != Opcode::Label) return false;
  shape.end_label = at++;
  if (at >= insns.size() || insns[at].op != Opcode::LoopEnd) return false;
  shape.loop_end = at;
  return true;
}

/// Registers read before they are written within the body+step segment
/// (loop-carried values: accumulators, the induction variable).  These
/// keep their names across copies; everything else defined in the segment
/// is renamed per copy.
std::set<Reg> upward_exposed(const RtlFunction& func, std::size_t begin,
                             std::size_t end) {
  std::set<Reg> exposed;
  std::set<Reg> defined;
  std::vector<Reg> reads;
  for (std::size_t i = begin; i < end; ++i) {
    const Insn& insn = func.insns[i];
    reads.clear();
    if (insn.rs1 != kNoReg) reads.push_back(insn.rs1);
    if (insn.rs2 != kNoReg) reads.push_back(insn.rs2);
    if (insn.op == Opcode::Call) {
      for (const Reg r : insn.args) reads.push_back(r);
    }
    for (const Reg r : reads) {
      if (!defined.contains(r)) exposed.insert(r);
    }
    const Reg w = insn.op == Opcode::Store ? kNoReg : insn.rd;
    if (w != kNoReg) defined.insert(w);
  }
  return exposed;
}

/// Adds one to `reads[r]` for every register `insn` reads (rs1, rs2 and
/// argument registers), growing `reads` as needed.
void count_reads(const Insn& insn, std::vector<std::uint32_t>& reads) {
  const auto add = [&reads](Reg r) {
    const auto idx = static_cast<std::size_t>(r);
    if (idx >= reads.size()) reads.resize(idx + 1, 0);
    ++reads[idx];
  };
  if (insn.rs1 != kNoReg) add(insn.rs1);
  if (insn.rs2 != kNoReg) add(insn.rs2);
  for (const Reg r : insn.args) add(r);
}

}  // namespace

UnrollStats unroll_function(RtlFunction& func, const UnrollOptions& options) {
  UnrollStats stats;
  if (options.factor < 2) return stats;

  // Reads of each register across the function, kept current as copies
  // are spliced in.  A register is read outside a segment exactly when
  // it has more reads than the segment holds.
  std::vector<std::uint32_t> reads;
  for (const Insn& insn : func.insns) count_reads(insn, reads);

  // One forward scan: a splice only inserts LoopBeg-free copies after
  // the loop's own body, so every LoopBeg not yet visited lies ahead.
  std::set<format::RegionId> done;
  for (std::size_t i = 0; i < func.insns.size(); ++i) {
    if (func.insns[i].op != Opcode::LoopBeg) continue;
    const format::RegionId region = func.insns[i].loop_region;
    if (!done.insert(region).second) continue;

    LoopShape shape;
    if (!match_loop(func, i, shape) ||
        *func.insns[i].trip_count % options.factor != 0 ||
        *func.insns[i].trip_count == 0) {
      ++stats.loops_rejected;
      continue;
    }

    // HLI maintenance first (it can refuse, e.g. non-innermost region).
    maintain::UnrollUpdate update;
    if (options.entry != nullptr && region != format::kNoRegion) {
      update = maintain::unroll_loop(*options.entry, region, options.factor);
      if (!update.ok) {
        ++stats.loops_rejected;
        continue;
      }
    }

    // Build the unrolled body: copies 1..factor-1 of [body_begin, jump),
    // with non-carried registers renamed and HLI items re-stamped.
    const std::size_t seg_begin = shape.body_begin;
    const std::size_t seg_end = shape.jump;
    const std::set<Reg> carried = upward_exposed(func, seg_begin, seg_end);

    // Registers read anywhere outside the copied segment must also keep
    // their names: renaming a live-out definition leaves the post-loop
    // read seeing the first copy's (stale) value instead of the last
    // iteration's.  Found by differential fuzzing (seed 3334): a loop
    // whose body only overwrites an accumulator read after the loop has
    // no upward-exposed use of it, so `carried` alone misses it.
    std::vector<std::uint32_t> seg_reads;
    for (std::size_t k = seg_begin; k < seg_end; ++k) {
      count_reads(func.insns[k], seg_reads);
    }
    const auto live_outside = [&](Reg r) {
      const auto idx = static_cast<std::size_t>(r);
      const std::uint32_t inside = idx < seg_reads.size() ? seg_reads[idx] : 0;
      return idx < reads.size() && reads[idx] > inside;
    };

    std::vector<Insn> copies;
    for (unsigned copy = 1; copy < options.factor; ++copy) {
      std::map<Reg, Reg> rename;
      for (std::size_t k = seg_begin; k < seg_end; ++k) {
        Insn insn = func.insns[k];
        if (insn.op == Opcode::Label) continue;  // Drop inner labels.
        // Rename uses first (pre-rename values), then the definition.
        auto rename_use = [&](Reg& r) {
          const auto it = rename.find(r);
          if (it != rename.end()) r = it->second;
        };
        if (insn.rs1 != kNoReg) rename_use(insn.rs1);
        if (insn.rs2 != kNoReg) rename_use(insn.rs2);
        for (Reg& r : insn.args) rename_use(r);
        const Reg w = insn.op == Opcode::Store ? kNoReg : insn.rd;
        if (w != kNoReg && !carried.contains(w) && !live_outside(w)) {
          const Reg fresh = func.fresh_reg();
          rename[w] = fresh;
          insn.rd = fresh;
        }
        // Re-stamp HLI items with the copy's IDs.
        if (options.entry != nullptr) {
          if (is_memory_op(insn.op) && insn.mem.hli_item != format::kNoItem) {
            const auto it = update.item_copies.find(insn.mem.hli_item);
            if (it != update.item_copies.end() && copy < it->second.size()) {
              insn.mem.hli_item = it->second[copy];
            } else {
              insn.mem.hli_item = format::kNoItem;
            }
          } else if (insn.op == Opcode::Call &&
                     insn.hli_item != format::kNoItem) {
            // Calls are cloned without per-copy effect entries: drop the
            // item so queries stay conservative for the clone.
            insn.hli_item = format::kNoItem;
          }
        } else if (is_memory_op(insn.op)) {
          insn.mem.hli_item = format::kNoItem;
        }
        copies.push_back(std::move(insn));
      }
    }

    // Splice: [.. jump) copies [jump ..].
    for (const Insn& insn : copies) count_reads(insn, reads);
    func.insns.insert(
        func.insns.begin() + static_cast<std::ptrdiff_t>(shape.jump),
        std::make_move_iterator(copies.begin()),
        std::make_move_iterator(copies.end()));

    ++stats.loops_unrolled;
    stats.copies_made += options.factor - 1;
  }
  return stats;
}

}  // namespace hli::backend
