// exec4: the 17 in-tree programs, compiled during set-up with the
// production() preset planned for four lanes, executed with four lanes.
// One op is one execute(); a serial run_program of the same build follows
// some ops as the in-workload control.  Every round runs every program
// once, in a seeded order.
#include <array>
#include <cstdio>
#include <limits>

#include "workloads.hpp"

namespace perfbench {

using namespace hli;

namespace {

constexpr unsigned kLanes = 4;

struct State {
  std::vector<Program> programs;
  std::vector<driver::CompiledProgram> builds;
  std::vector<Expected> semantic;
  std::vector<Expected> dynamic;
};

bool same_result(const backend::RunResult& a, const backend::RunResult& b) {
  return a.ok && b.ok && a.output_hash == b.output_hash &&
         a.return_value == b.return_value && a.dynamic_insns == b.dynamic_insns;
}

}  // namespace

void run_exec4(const Args& args, Report& report, Checker& checker) {
  State state;
  const double setup_s = timed_setup([&] {
    state = State{};
    state.programs = in_tree_programs();
    const std::size_t n = state.programs.size();
    state.builds.resize(n);
    state.semantic.resize(n);
    state.dynamic.resize(n);
    parallel(n, kLanes, nullptr, [&](std::size_t i) {
      const Program& p = state.programs[i];
      const driver::PipelineOptions options =
          driver::PipelineOptions::production()
              .with_language(p.language)
              .with_exec_threads(kLanes);
      state.builds[i] = driver::compile_source(p.source, options);
      state.semantic[i] = reference_run(p.source, p.language);
      state.dynamic[i] = configuration_run(p.source, options);
    });
  });
  if (args.plant_wrong_expected) state.dynamic[0].dynamic_insns += 1;

  const std::size_t n = state.programs.size();
  /// Per program: 4-lane and serial times, and the runtime's counters.
  struct Totals {
    Samples lanes;
    Samples serial;
    backend::ParexecStats parexec;
    std::uint64_t dynamic_insns = 0;
    std::uint64_t serial_insns = 0;
  };
  // Returns the round's 4-lane time in seconds: the interleaved serial
  // control runs are not ops.  The control follows every op of the first
  // round and every fourth op after it, so most of the time goes to ops.
  const auto round = [&](int r, std::vector<Totals>& totals) {
    double lanes_ms = 0;
    const std::vector<std::size_t> order = shuffled(n, args.seed + r);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = order[k];
      const driver::CompiledProgram& build = state.builds[i];
      backend::RunResult lanes;
      const Clock::time_point start = Clock::now();
      {
        const telemetry::Span op_span("op", "bench");
        const telemetry::Span span("execute", "bench");
        lanes = driver::execute(build);
      }
      const double ms = ms_since(start);
      lanes_ms += ms;
      totals[i].lanes.add(ms);
      bool same = true;
      if (r == 0 || (k + static_cast<std::size_t>(r)) % 4 == 0) {
        const Clock::time_point serial_start = Clock::now();
        const backend::RunResult serial = run_serial(build);
        totals[i].serial.add(ms_since(serial_start));
        totals[i].serial_insns += serial.dynamic_insns;
        same = same_result(lanes, serial);
      }
      const backend::ParexecStats& p = lanes.parexec;
      backend::ParexecStats& t = totals[i].parexec;
      t.invocations += p.invocations;
      t.chunks += p.chunks;
      t.par_iterations += p.par_iterations;
      t.par_insns += p.par_insns;
      t.ordered_insns += p.ordered_insns;
      t.serial_fallbacks += p.serial_fallbacks;
      totals[i].dynamic_insns += lanes.dynamic_insns;
      checker.record(
          matches(lanes, state.semantic[i], state.dynamic[i]) && same,
          "exec4 " + state.programs[i].name + " round " + std::to_string(r));
    }
    return lanes_ms / 1000.0;
  };

  // Latencies are each program's fastest repetition; throughput is that
  // of the fastest round.
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Totals> totals(n);
  double fastest_round_s = std::numeric_limits<double>::infinity();
  (void)run_rounds(seconds, 2, [&](int r) {
    fastest_round_s = std::min(fastest_round_s, round(r, totals));
  });
  Fastest ops(n);
  Fastest serial(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops.add(i, totals[i].lanes.min());
    serial.add(i, totals[i].serial.min());
  }
  report.set("setup_s", setup_s);
  set_latency_metrics(report, ops.samples(),
                      static_cast<double>(n) / fastest_round_s);
  report.set("interp.serial_ms_p50", serial.samples().p50());

  // Check phase: every build simulated on both machines (four threads).
  std::vector<std::array<std::uint64_t, 2>> cycles(n);
  parallel(2 * n, kLanes, nullptr, [&](std::size_t k) {
    const std::size_t i = k / 2;
    const bool r4600 = k % 2 == 0;
    const driver::SimResult sim = driver::simulate(
        state.builds[i], r4600 ? machine::r4600() : machine::r10000());
    cycles[i][r4600 ? 0 : 1] = sim.cycles;
    checker.record(matches(sim.run, state.semantic[i], state.dynamic[i]),
                   "exec4: simulated run of " + state.programs[i].name);
  });
  double cycles_r4600 = 0;
  double cycles_r10000 = 0;
  double dynamic_insns = 0;
  double insns = 0;
  double hli_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cycles_r4600 += static_cast<double>(cycles[i][0]);
    cycles_r10000 += static_cast<double>(cycles[i][1]);
    dynamic_insns += static_cast<double>(state.dynamic[i].dynamic_insns);
    insns += static_cast<double>(code_insns(state.builds[i]));
    hli_bytes += static_cast<double>(state.builds[i].hli_text.size());
  }
  report.set("cycles_r4600", cycles_r4600);
  report.set("cycles_r10000", cycles_r10000);
  report.set("dynamic_insns", dynamic_insns);
  report.set("code_insns", insns);
  report.set("hli_bytes", hli_bytes);

  if (args.trace) {
    Tracing tracing;
    std::vector<Totals> traced(n);
    double fastest_traced_s = std::numeric_limits<double>::infinity();
    (void)run_rounds(seconds, 1, [&](int r) {
      const Tracing::Scope scope(&tracing);
      fastest_traced_s = std::min(fastest_traced_s, round(r, traced));
    });
    double traced_ops = 0;
    double lanes_ms = 0;
    double serial_ms = 0;
    double serial_runs = 0;
    double serial_insns = 0;
    double insns_total = 0;
    backend::ParexecStats sum;
    std::vector<double> speedups;
    std::string per_program = "lane speedup (serial p50 / 4-lane p50):";
    for (std::size_t i = 0; i < n; ++i) {
      const Totals& t = traced[i];
      traced_ops += static_cast<double>(t.lanes.size());
      lanes_ms += t.lanes.sum();
      serial_ms += t.serial.sum();
      serial_runs += static_cast<double>(t.serial.size());
      serial_insns += static_cast<double>(t.serial_insns);
      insns_total += static_cast<double>(t.dynamic_insns);
      sum.invocations += t.parexec.invocations;
      sum.chunks += t.parexec.chunks;
      sum.par_iterations += t.parexec.par_iterations;
      sum.par_insns += t.parexec.par_insns;
      sum.ordered_insns += t.parexec.ordered_insns;
      sum.serial_fallbacks += t.parexec.serial_fallbacks;
      const double speedup = t.serial.p50() / t.lanes.p50();
      speedups.push_back(speedup);
      char buf[96];
      std::snprintf(buf, sizeof buf, " %s=%.3f",
                    state.programs[i].name.c_str(), speedup);
      per_program += buf;
    }
    report.note(per_program);
    const SpanTable spans = analyze_spans(tracing.tracer);
    report.set_accounting(spans);
    report.set("trace.overhead",
               1.0 - (static_cast<double>(n) / fastest_traced_s) /
                         report.get("ops_per_s"));
    const auto per_op = [&](std::uint64_t v) {
      return static_cast<double>(v) / traced_ops;
    };
    report.set("parexec.invocations", per_op(sum.invocations));
    report.set("parexec.chunks", per_op(sum.chunks));
    report.set("parexec.iters_per_chunk",
               sum.chunks == 0 ? 0.0
                               : static_cast<double>(sum.par_iterations) /
                                     static_cast<double>(sum.chunks));
    report.set("parexec.par_insn_share",
               static_cast<double>(sum.par_insns) / insns_total);
    report.set("parexec.ordered_share",
               sum.par_insns == 0 ? 0.0
                                  : static_cast<double>(sum.ordered_insns) /
                                        static_cast<double>(sum.par_insns));
    report.set("parexec.serial_fallbacks", per_op(sum.serial_fallbacks));
    report.set("parexec.lane_speedup", median(speedups));
    const double setup_ms = probe_interp_setup_ms();
    report.set("interp.setup_ms", setup_ms);
    report.set("interp.ms", lanes_ms / traced_ops);
    report.set("interp.minsn_per_s", serial_insns / serial_ms / 1000.0);
    report.set("interp.setup_share", setup_ms * serial_runs / serial_ms);
  }
}

}  // namespace perfbench
