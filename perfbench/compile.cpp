// compile: compile only, on one thread, with the production() preset
// (HLIB channel, unroll 4, regalloc + sched2).  Inputs are the 17 in-tree
// programs plus seeded testgen programs at a small and a large statement
// budget, C and BASIC.  One op is one compile_source; every round
// compiles every input once, in a seeded order.
#include <array>
#include <limits>

#include "service/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hli;

namespace {

// Small programs keep the generator's default of up to three helpers.
// Large ones are one long main: with helpers, the largest of a handful of
// draws varies by 2x between seeds and would set op_ms_tail alone.
// Two batches of 16 small and 8 large programs, each batch from its own
// range of the seed stream: the counts keep the seed's draw from moving
// op_ms_p50 and ops_per_s.
constexpr std::size_t kBatches = 2;
constexpr std::size_t kSmallPrograms = 16;
constexpr unsigned kSmallStmts = 24;
constexpr unsigned kSmallHelpers = 3;
constexpr std::size_t kLargePrograms = 8;
constexpr unsigned kLargeStmts = 96;
constexpr unsigned kLargeHelpers = 0;

/// The traced run uses the same options: Tracing::Scope collects spans
/// and counters as the ambient sink, so outputs stay byte-identical.
driver::PipelineOptions options_for(const Program& program) {
  return driver::PipelineOptions::production().with_language(program.language);
}

/// Cheap per-op identity of a compile: its statistics text and HLI
/// channel.  The full RTL rendering is compared once per input, outside
/// the timed region.
std::uint64_t quick_hash(const driver::CompiledProgram& compiled) {
  return fnv1a(service::render_program_stats(compiled),
               fnv1a(compiled.hli_text, code_insns(compiled)));
}

struct State {
  std::vector<Program> programs;
  std::vector<Expected> semantic;
  std::vector<Expected> dynamic;
  std::vector<std::uint64_t> quick;
  std::vector<std::uint64_t> render;
};

}  // namespace

void run_compile(const Args& args, Report& report, Checker& checker) {
  constexpr unsigned kThreads = 4;
  State state;
  const double setup_s = timed_setup([&] {
    state = State{};
    state.programs = in_tree_programs();
    for (std::size_t b = 0; b < kBatches; ++b) {
      const std::size_t first = b * (kSmallPrograms + kLargePrograms);
      for (Program& p : generated_programs(args.seed, first, kSmallPrograms,
                                           kSmallStmts, kSmallHelpers)) {
        state.programs.push_back(std::move(p));
      }
      for (Program& p : generated_programs(args.seed, first + kSmallPrograms,
                                           kLargePrograms, kLargeStmts,
                                           kLargeHelpers)) {
        state.programs.push_back(std::move(p));
      }
    }
    const std::size_t n = state.programs.size();
    state.semantic.resize(n);
    state.dynamic.resize(n);
    state.quick.resize(n);
    state.render.resize(n);
    parallel(n, kThreads, nullptr, [&](std::size_t i) {
      const Program& p = state.programs[i];
      state.semantic[i] = reference_run(p.source, p.language);
      const driver::CompiledProgram build =
          driver::compile_source(p.source, options_for(p));
      const backend::RunResult run = run_serial(build);
      state.dynamic[i] = {run.output_hash, run.return_value, run.dynamic_insns};
      state.quick[i] = quick_hash(build);
      state.render[i] = render_hash(build);
    });
  });
  if (args.plant_wrong_expected) state.quick[0] ^= 1;

  const std::size_t n = state.programs.size();
  std::vector<driver::CompiledProgram> kept(n);
  // `keep` holds on to the outputs of the first untraced round.  Returns
  // the round's wall time in seconds.
  const auto round = [&](int r, bool keep, Fastest* latencies) {
    const Clock::time_point round_start = Clock::now();
    for (const std::size_t i : shuffled(n, args.seed + r)) {
      const Program& p = state.programs[i];
      const driver::PipelineOptions options = options_for(p);
      driver::CompiledProgram compiled;
      const Clock::time_point start = Clock::now();
      {
        const telemetry::Span op_span("op", "bench");
        const telemetry::Span span("compile_source", "bench");
        compiled = driver::compile_source(p.source, options);
      }
      const double ms = ms_since(start);
      if (latencies != nullptr) latencies->add(i, ms);
      checker.record(quick_hash(compiled) == state.quick[i],
                     "compile " + p.name + " round " + std::to_string(r));
      if (keep) kept[i] = std::move(compiled);
    }
    return ms_since(round_start) / 1000.0;
  };

  // After each round the next kSerialPerRound in-tree outputs, in turn,
  // run serially on this thread, so serial runs sample the whole measured
  // stretch.  Latencies are each input's fastest repetition; throughput
  // is that of the fastest round, serial runs excluded.
  constexpr std::size_t kSerialPerRound = 3;
  const std::size_t in_tree = in_tree_programs().size();
  Fastest ops(n);
  Fastest serial(in_tree);
  std::size_t next_serial = 0;
  double fastest_round_s = std::numeric_limits<double>::infinity();
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  (void)run_rounds(seconds, 2, [&](int r) {
    fastest_round_s = std::min(fastest_round_s, round(r, r == 0, &ops));
    for (std::size_t k = 0; k < kSerialPerRound; ++k) {
      const std::size_t i = next_serial++ % in_tree;
      const Clock::time_point run_start = Clock::now();
      const backend::RunResult run = run_serial(kept[i]);
      serial.add(i, ms_since(run_start));
      checker.record(matches(run, state.semantic[i], state.dynamic[i]),
                     "compile: serial run of " + state.programs[i].name);
    }
  });
  report.set("setup_s", setup_s);
  set_latency_metrics(report, ops.samples(),
                      static_cast<double>(n) / fastest_round_s);
  report.set("interp.serial_ms_p50", serial.samples().p50());

  // Check phase (four threads): each distinct output rendered in full and
  // run once; the in-tree outputs are also simulated on both machines.
  // The count metrics cover the in-tree programs, so the seed moves only
  // the timings.
  std::vector<std::array<std::uint64_t, 2>> cycles(in_tree);
  std::vector<std::uint64_t> run_insns(n);
  parallel(n + 2 * in_tree, kThreads, nullptr, [&](std::size_t k) {
    if (k < n) {
      checker.record(render_hash(kept[k]) == state.render[k],
                     "compile: rendered output of " + state.programs[k].name);
      const backend::RunResult run = run_serial(kept[k]);
      run_insns[k] = run.dynamic_insns;
      checker.record(matches(run, state.semantic[k], state.dynamic[k]),
                     "compile: run of " + state.programs[k].name);
      return;
    }
    const std::size_t i = (k - n) / 2;
    const bool r4600 = (k - n) % 2 == 0;
    const driver::SimResult sim = driver::simulate(
        kept[i], r4600 ? machine::r4600() : machine::r10000());
    cycles[i][r4600 ? 0 : 1] = sim.cycles;
    checker.record(matches(sim.run, state.semantic[i], state.dynamic[i]),
                   "compile: simulated run of " + state.programs[i].name);
  });
  double dynamic_insns = 0;
  double insns = 0;
  double hli_bytes = 0;
  double cycles_r4600 = 0;
  double cycles_r10000 = 0;
  for (std::size_t i = 0; i < in_tree; ++i) {
    dynamic_insns += static_cast<double>(run_insns[i]);
    insns += static_cast<double>(code_insns(kept[i]));
    hli_bytes += static_cast<double>(kept[i].hli_text.size());
    cycles_r4600 += static_cast<double>(cycles[i][0]);
    cycles_r10000 += static_cast<double>(cycles[i][1]);
  }
  report.set("cycles_r4600", cycles_r4600);
  report.set("cycles_r10000", cycles_r10000);
  report.set("dynamic_insns", dynamic_insns);
  report.set("code_insns", insns);
  report.set("hli_bytes", hli_bytes);

  if (args.trace) {
    Tracing tracing;
    double fastest_traced_s = std::numeric_limits<double>::infinity();
    int rounds = 0;
    (void)run_rounds(seconds, 1, [&](int r) {
      const Tracing::Scope scope(&tracing);
      fastest_traced_s =
          std::min(fastest_traced_s, round(r, false, nullptr));
      ++rounds;
    });
    const double traced_ops = static_cast<double>(rounds * n);
    const SpanTable spans = analyze_spans(tracing.tracer);
    report.set_pipeline_layers(spans, tracing.counters(), traced_ops);
    report.set_accounting(spans);
    report.set("trace.overhead",
               1.0 - (static_cast<double>(n) / fastest_traced_s) /
                         report.get("ops_per_s"));
    SerializeProbe serialize;
    double mapping_ms = 0;
    for (std::size_t i = 0; i < n; ++i) {
      serialize += probe_serialize(kept[i].hli_text);
      mapping_ms += probe_mapping_ms(state.programs[i].source,
                                     options_for(state.programs[i]));
    }
    // Every round compiles each input once.
    const double per_op = 1.0 / static_cast<double>(n);
    report.set_serialize_layers(serialize, per_op);
    report.set("mapping.ms", mapping_ms * per_op);
    report.note("hli encoding: hlib (production preset)");
  }
}

}  // namespace perfbench
