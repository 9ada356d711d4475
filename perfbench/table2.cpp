// table2: the paper's experiment (bench/bench_table2.cpp).  One op is one
// of the 14 C programs compiled native, HLI and irdep-fallback with the
// paper_table2() preset, then simulated native+HLI on r4600 and
// native+HLI+irdep on r10000.  Ops run on four threads; every round
// covers every program once, longest first, and is followed by serial
// runs of HLI builds.
#include <array>
#include <cstdio>
#include <limits>

#include "workloads.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

using namespace hli;

namespace {

enum Build { kNative, kHli, kIrdep, kBuilds };

struct Sim {
  Build build;
  bool r4600;
};
constexpr std::array<Sim, 5> kSims = {{{kNative, true},
                                       {kHli, true},
                                       {kNative, false},
                                       {kHli, false},
                                       {kIrdep, false}}};

using Builds = std::array<driver::CompiledProgram, kBuilds>;

struct Configs {
  std::array<driver::PipelineOptions, kBuilds> options;

  explicit Configs(Tracing* tracing) {
    const driver::PipelineOptions native =
        driver::PipelineOptions::paper_table2().with_hli(false);
    options[kNative] = native;
    options[kHli] = driver::PipelineOptions::paper_table2().with_counters();
    options[kIrdep] = native.with_irdep_fallback();
    if (tracing != nullptr) {
      for (driver::PipelineOptions& o : options) {
        o = o.with_tracer(&tracing->tracer).with_counters();
      }
    }
  }
};

/// Everything deterministic about one program's pass through the
/// experiment: the Table 2 counts and the cycle counts of all five runs.
struct Row {
  std::uint64_t tests = 0;
  std::uint64_t gcc_yes = 0;
  std::uint64_t hli_yes = 0;
  std::uint64_t combined_yes = 0;
  std::uint64_t edges_pruned = 0;
  std::uint64_t irdep_yes = 0;
  std::array<std::uint64_t, kSims.size()> cycles{};
  std::uint64_t dynamic_insns = 0;  ///< HLI build.
  std::uint64_t code_insns = 0;     ///< HLI build.
  std::uint64_t hli_bytes = 0;      ///< HLI build's text channel.

  bool operator==(const Row&) const = default;
};

struct OpResult {
  Row row;
  std::array<double, kSims.size()> sim_ms{};
  bool ok = true;
};

struct State {
  std::vector<Program> programs;
  std::vector<Expected> semantic;
  std::vector<std::array<Expected, kBuilds>> dynamic;
  std::vector<std::size_t> order;  ///< Longest set-up first.
};

OpResult measure(const Program& program, const Configs& configs,
                 const Expected& semantic,
                 const std::array<Expected, kBuilds>& dynamic, Builds* keep) {
  const telemetry::Span op_span("op", "bench");
  Builds builds;
  for (int b = 0; b < kBuilds; ++b) {
    const telemetry::Span span("compile_source", "bench");
    builds[b] = driver::compile_source(program.source, configs.options[b]);
  }
  OpResult result;
  Row& row = result.row;
  const driver::CompiledProgram& hli_build = builds[kHli];
  const backend::DepStats& s = hli_build.stats.sched;
  row.tests = s.mem_queries;
  row.gcc_yes = s.gcc_yes;
  row.hli_yes = s.hli_yes;
  row.combined_yes = s.combined_yes;
  row.edges_pruned = hli_build.counters.total.value("sched.ddg_edges_pruned");
  const backend::DepStats& fs = builds[kIrdep].stats.sched;
  row.irdep_yes = fs.gcc_yes - fs.fallback_pruned;
  row.code_insns = code_insns(hli_build);
  row.hli_bytes = hli_build.hli_text.size();

  const machine::MachineDesc r4600 = machine::r4600();
  const machine::MachineDesc r10000 = machine::r10000();
  for (std::size_t i = 0; i < kSims.size(); ++i) {
    const Sim& sim = kSims[i];
    const Clock::time_point start = Clock::now();
    driver::SimResult run;
    {
      const telemetry::Span span("simulate", "bench");
      run = driver::simulate(builds[sim.build], sim.r4600 ? r4600 : r10000);
    }
    result.sim_ms[i] = ms_since(start);
    row.cycles[i] = run.cycles;
    if (sim.build == kHli) row.dynamic_insns = run.run.dynamic_insns;
    result.ok = result.ok && matches(run.run, semantic, dynamic[sim.build]);
  }
  if (keep != nullptr) *keep = std::move(builds);
  return result;
}

void write_rows(const std::string& path, const State& state,
                const std::vector<Row>& rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"tests\": %llu, \"gcc_yes\": %llu, "
                 "\"hli_yes\": %llu, \"combined_yes\": %llu, "
                 "\"cycles_r4600_native\": %llu, \"cycles_r4600_hli\": %llu, "
                 "\"cycles_r10000_native\": %llu, \"cycles_r10000_hli\": %llu, "
                 "\"cycles_r10000_irdep\": %llu}%s\n",
                 state.programs[i].name.c_str(),
                 static_cast<unsigned long long>(r.tests),
                 static_cast<unsigned long long>(r.gcc_yes),
                 static_cast<unsigned long long>(r.hli_yes),
                 static_cast<unsigned long long>(r.combined_yes),
                 static_cast<unsigned long long>(r.cycles[0]),
                 static_cast<unsigned long long>(r.cycles[1]),
                 static_cast<unsigned long long>(r.cycles[2]),
                 static_cast<unsigned long long>(r.cycles[3]),
                 static_cast<unsigned long long>(r.cycles[4]),
                 i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
}

}  // namespace

void run_table2(const Args& args, Report& report, Checker& checker) {
  constexpr unsigned kThreads = 4;
  State state;
  const double setup_s = timed_setup([&] {
    state = State{};
    for (const workloads::Workload& w : workloads::all_workloads()) {
      state.programs.push_back({w.name, w.source, w.language});
    }
    const std::size_t n = state.programs.size();
    state.semantic.resize(n);
    state.dynamic.resize(n);
    std::vector<double> cost(n);
    const Configs configs(nullptr);
    parallel(n, kThreads, nullptr, [&](std::size_t i) {
      const Clock::time_point start = Clock::now();
      const Program& p = state.programs[i];
      state.semantic[i] = reference_run(p.source, p.language);
      for (int b = 0; b < kBuilds; ++b) {
        state.dynamic[i][b] = configuration_run(p.source, configs.options[b]);
      }
      cost[i] = ms_since(start);
    });
    // The seed only breaks ties: the inputs are the paper's programs.
    state.order = shuffled(n, args.seed);
    std::stable_sort(state.order.begin(), state.order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cost[a] > cost[b];
                     });
  });
  if (args.plant_wrong_expected) state.semantic[0].output_hash ^= 1;

  const std::size_t n = state.programs.size();
  std::vector<Row> first_rows(n);
  std::vector<Builds> kept(n);
  // Returns the round's wall time in seconds; `ms` gets each op's time.
  const auto round = [&](int r, Tracing* tracing, std::vector<double>& ms,
                         std::vector<std::array<double, kSims.size()>>* sims) {
    const Configs configs(tracing);
    const Clock::time_point round_start = Clock::now();
    parallel(n, kThreads, tracing, [&](std::size_t k) {
      const std::size_t i = state.order[k];
      const bool first = r == 0 && tracing == nullptr;
      const Clock::time_point start = Clock::now();
      const OpResult result =
          measure(state.programs[i], configs, state.semantic[i],
                  state.dynamic[i], first ? &kept[i] : nullptr);
      ms[i] = ms_since(start);
      if (first) first_rows[i] = result.row;
      if (sims != nullptr) {
        for (std::size_t s = 0; s < kSims.size(); ++s) {
          (*sims)[i][s] += result.sim_ms[s];
        }
      }
      checker.record(result.ok && result.row == first_rows[i],
                     "table2 " + state.programs[i].name + " round " +
                         std::to_string(r));
    });
    return ms_since(round_start) / 1000.0;
  };

  // After each round, HLI builds kept from round 0 run serially on this
  // thread (all of them after the first round, every fourth after later
  // ones), so serial runs sample the same stretch of time as the ops.
  // Latencies are each program's fastest repetition; throughput is that
  // of the fastest round, serial runs excluded.
  Fastest ops(n);
  Fastest serial(n);
  double fastest_round_s = std::numeric_limits<double>::infinity();
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  (void)run_rounds(seconds, 2, [&](int r) {
    std::vector<double> ms(n);
    fastest_round_s = std::min(fastest_round_s, round(r, nullptr, ms, nullptr));
    for (std::size_t i = 0; i < n; ++i) ops.add(i, ms[i]);
    for (std::size_t k = 0; k < n; ++k) {
      if (r != 0 && (k + static_cast<std::size_t>(r)) % 4 != 0) continue;
      const std::size_t i = state.order[k];
      const Clock::time_point run_start = Clock::now();
      const backend::RunResult run = run_serial(kept[i][kHli]);
      serial.add(i, ms_since(run_start));
      checker.record(matches(run, state.semantic[i], state.dynamic[i][kHli]),
                     "table2 serial run of " + state.programs[i].name);
    }
  });
  report.set("setup_s", setup_s);
  set_latency_metrics(report, ops.samples(),
                      static_cast<double>(n) / fastest_round_s);
  report.set("interp.serial_ms_p50", serial.samples().p50());
  double cycles_r4600 = 0;
  double cycles_r10000 = 0;
  double dynamic_insns = 0;
  double insns = 0;
  double hli_bytes = 0;
  for (const Row& row : first_rows) {
    cycles_r4600 += static_cast<double>(row.cycles[1]);
    cycles_r10000 += static_cast<double>(row.cycles[3]);
    dynamic_insns += static_cast<double>(row.dynamic_insns);
    insns += static_cast<double>(row.code_insns);
    hli_bytes += static_cast<double>(row.hli_bytes);
  }
  report.set("cycles_r4600", cycles_r4600);
  report.set("cycles_r10000", cycles_r10000);
  report.set("dynamic_insns", dynamic_insns);
  report.set("code_insns", insns);
  report.set("hli_bytes", hli_bytes);
  if (!args.table2_rows.empty()) write_rows(args.table2_rows, state, first_rows);

  if (args.trace) {
    Tracing tracing;
    std::vector<std::array<double, kSims.size()>> sim_ms(n);
    double fastest_traced_s = std::numeric_limits<double>::infinity();
    int rounds = 0;
    (void)run_rounds(seconds, 1, [&](int r) {
      std::vector<double> ms(n);
      fastest_traced_s =
          std::min(fastest_traced_s, round(r, &tracing, ms, &sim_ms));
      ++rounds;
    });
    const double traced_ops = static_cast<double>(rounds * n);
    const SpanTable spans = analyze_spans(tracing.tracer);
    report.set_pipeline_layers(spans, tracing.counters(), traced_ops);
    report.set_accounting(spans);
    report.set("trace.overhead",
               1.0 - (static_cast<double>(n) / fastest_traced_s) /
                         report.get("ops_per_s"));

    // Probes on the kept builds.  Every round runs each program once.
    double interp_ms = 0;
    double interp_insns = 0;
    double machine_ms[2] = {0, 0};
    double machine_insns[2] = {0, 0};
    SerializeProbe serialize;
    double mapping_ms = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::array<double, kBuilds> interp{};
      for (int b = 0; b < kBuilds; ++b) {
        interp[b] = probe_interp_with_sink_ms(kept[i][b]);
      }
      for (std::size_t s = 0; s < kSims.size(); ++s) {
        const Sim& sim = kSims[s];
        const double dyn =
            static_cast<double>(state.dynamic[i][sim.build].dynamic_insns);
        interp_ms += interp[sim.build] * rounds;
        interp_insns += dyn * rounds;
        machine_ms[sim.r4600 ? 0 : 1] +=
            sim_ms[i][s] - interp[sim.build] * rounds;
        machine_insns[sim.r4600 ? 0 : 1] += dyn * rounds;
      }
      serialize += probe_serialize(kept[i][kHli].hli_text);
      mapping_ms += probe_mapping_ms(state.programs[i].source,
                                     Configs(nullptr).options[kHli]);
    }
    // Each op compiles three times over the same text channel.
    report.set_serialize_layers(serialize, 3.0 / static_cast<double>(n));
    report.set("mapping.ms", mapping_ms * 3.0 / static_cast<double>(n));
    const double setup_ms = probe_interp_setup_ms();
    report.set("interp.setup_ms", setup_ms);
    report.set("interp.ms", interp_ms / traced_ops);
    report.set("interp.minsn_per_s", interp_insns / interp_ms / 1000.0);
    report.set("interp.setup_share",
               setup_ms * kSims.size() * traced_ops / interp_ms);
    report.set("machine.r4600_ms", machine_ms[0] / traced_ops);
    report.set("machine.r10000_ms", machine_ms[1] / traced_ops);
    report.set("machine.r4600_minsn_per_s",
               machine_insns[0] / machine_ms[0] / 1000.0);
    report.set("machine.r10000_minsn_per_s",
               machine_insns[1] / machine_ms[1] / 1000.0);
    report.note("hli encoding: text (paper_table2 preset)");
  }
}

}  // namespace perfbench
