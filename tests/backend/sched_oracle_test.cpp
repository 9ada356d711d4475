// Differential test of the list scheduler against the pairwise reference
// in sched_reference.hpp: on the RTL each scheduling pass of the real
// pipeline sees (sched after unrolling, sched2 after register
// allocation), schedule_function and the reference must produce the same
// scheduled RTL and the same value in every DepStats field.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/regalloc.hpp"
#include "backend/sched.hpp"
#include "driver/pipeline.hpp"
#include "frontend/testgen.hpp"
#include "frontend_basic/testgen.hpp"
#include "hli/query.hpp"
#include "sched_reference.hpp"
#include "workloads/workloads.hpp"

namespace hli::backend {
namespace {

struct Input {
  std::string name;
  std::string source;
  frontend::Language language = frontend::Language::C;
};

std::vector<Input> workload_inputs() {
  std::vector<Input> inputs;
  for (const auto* suite :
       {&workloads::all_workloads(), &workloads::basic_workloads()}) {
    for (const workloads::Workload& w : *suite) {
      inputs.push_back({w.name, w.source, w.language});
    }
  }
  return inputs;
}

/// Seeded generator programs: `count` seeds, each rendered in C and in
/// BASIC, with `main_stmts` statements in main.
std::vector<Input> generated_inputs(unsigned count, unsigned main_stmts) {
  std::vector<Input> inputs;
  for (std::uint64_t seed = 1; seed <= count; ++seed) {
    testing::GenOptions gen;
    gen.seed = seed * 7919 + main_stmts;
    gen.main_stmts = main_stmts;
    const std::string tag =
        std::to_string(main_stmts) + "-stmt seed " + std::to_string(seed);
    inputs.push_back({"c " + tag, testing::generate_source(gen)});
    gen.features = testing::basic_expressible(gen.features);
    inputs.push_back({"basic " + tag, testing::generate_basic_source(gen),
                      frontend::Language::Basic});
  }
  return inputs;
}

std::string render(const DepStats& s) {
  std::ostringstream out;
  out << "mem_queries=" << s.mem_queries << " gcc_yes=" << s.gcc_yes
      << " hli_yes=" << s.hli_yes << " combined_yes=" << s.combined_yes
      << " call_queries=" << s.call_queries
      << " call_edges_native=" << s.call_edges_native
      << " call_edges_hli=" << s.call_edges_hli << " blocks=" << s.blocks
      << " scheduled_insns=" << s.scheduled_insns
      << " fallback_queries=" << s.fallback_queries
      << " fallback_pruned=" << s.fallback_pruned
      << " fallback_pruned_calls=" << s.fallback_pruned_calls;
  return out.str();
}

/// Schedules `func` in place with schedule_function and checks a copy
/// scheduled by the reference against it.  Returns "" when they agree,
/// else a description of the first difference.
std::string schedule_both(RtlFunction& func, const SchedOptions& options,
                          const reference::DropEdge& drop) {
  RtlFunction expected = func;
  const DepStats want = reference::schedule_function(expected, options, drop);
  const DepStats got = schedule_function(func, options);
  if (render(got) != render(want)) {
    return "stats: got " + render(got) + "\n  want " + render(want);
  }
  if (to_string(func) != to_string(expected)) return "scheduled RTL differs";
  return "";
}

/// Replays the scheduling passes of `preset` on `input`: compiles with
/// both passes off, then runs sched, regalloc and sched2 the way the
/// pipeline does, comparing each pass with the reference.  The replay
/// must end at the pipeline's own RTL, or it did not see the pipeline's
/// inputs.  Returns the differences found, one per line.
std::string compare_input(const Input& input,
                          const driver::PipelineOptions& preset,
                          const reference::DropEdge& drop = {}) {
  const driver::PipelineOptions options = preset.with_language(input.language);
  driver::PipelineOptions unscheduled = options;
  unscheduled.enable_sched = false;
  unscheduled.enable_regalloc = false;
  driver::CompiledProgram program =
      driver::compile_source(input.source, unscheduled);
  const driver::CompiledProgram final_program =
      driver::compile_source(input.source, options);

  std::string diffs;
  const auto note = [&](const std::string& pass, const RtlFunction& func,
                        const std::string& diff) {
    if (!diff.empty()) {
      diffs += input.name + " " + func.name + " " + pass + ": " + diff + "\n";
    }
  };
  for (RtlFunction& func : program.rtl.functions) {
    const format::HliEntry* entry = program.hli.find_unit(func.name);
    if (entry != nullptr) {
      const query::HliUnitView view(*entry);
      SchedOptions sched;
      sched.use_hli = options.use_hli;
      sched.view = &view;
      const machine::MachineDesc& mach = options.sched_machine;
      sched.latency = [&mach](const Insn& insn) { return mach.latency(insn); };
      note("sched", func, schedule_both(func, sched, drop));
      if (options.enable_regalloc) {
        (void)allocate_registers(func, options.regalloc);
        note("sched2", func, schedule_both(func, sched, drop));
      }
    }
    const RtlFunction* built = final_program.rtl.find_function(func.name);
    if (built == nullptr || to_string(*built) != to_string(func)) {
      note("replay", func, "does not reproduce the pipeline's RTL");
    }
  }
  return diffs;
}

void expect_identical(const std::vector<Input>& inputs,
                      const driver::PipelineOptions& preset) {
  for (const Input& input : inputs) {
    EXPECT_EQ(compare_input(input, preset), "") << input.name;
  }
}

TEST(SchedOracleTest, WorkloadsProduction) {
  expect_identical(workload_inputs(), driver::PipelineOptions::production());
}

TEST(SchedOracleTest, WorkloadsPaperTable2) {
  expect_identical(workload_inputs(), driver::PipelineOptions::paper_table2());
}

TEST(SchedOracleTest, GeneratedPrograms) {
  for (const unsigned stmts : {24u, 96u}) {
    const std::vector<Input> inputs = generated_inputs(6, stmts);
    expect_identical(inputs, driver::PipelineOptions::production());
    expect_identical(inputs, driver::PipelineOptions::paper_table2());
  }
}

TEST(SchedOracleTest, CatchesPlantedDroppedEdge) {
  // A reference that loses one register edge, the first one into a store
  // of each program, may let that store move ahead of a value it reads or
  // test one more memory pair.  A lost edge that other edges imply
  // changes nothing, so not every program shows it; most must.
  const std::vector<Input> inputs = workload_inputs();
  std::size_t caught = 0;
  for (const Input& input : inputs) {
    bool dropped = false;
    const reference::DropEdge drop_one = [&dropped](const Insn&,
                                                    const Insn& j) {
      if (dropped || j.op != Opcode::Store) return false;
      dropped = true;
      return true;
    };
    if (!compare_input(input, driver::PipelineOptions::production(), drop_one)
             .empty()) {
      ++caught;
    }
  }
  EXPECT_GT(caught, inputs.size() / 2);
}

}  // namespace
}  // namespace hli::backend
