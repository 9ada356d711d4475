// End-to-end benchmark of the HLI compiler: one workload per invocation.
//
//   perfbench --workload table2|compile|exec4|service --seed N --seconds S
//             --trace 0|1 [--work-dir DIR] [--table2-rows PATH]
//             [--plant-wrong-expected]
//
// Prints notes as "# ..." lines, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics; --trace 1 the per-layer metrics.  Exits non-zero
// without a result on any error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Args;
using MetricNames = std::vector<std::pair<std::string, std::string>>;

const MetricNames kEndToEnd = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"op_ms_p50", "ms"},       {"op_ms_tail", "ms"},
    {"peak_rss_mb", "MiB"},    {"cycles_r10000", "cycles"},
    {"cycles_r4600", "cycles"}, {"dynamic_insns", "insns"},
    {"code_insns", "insns"},   {"hli_bytes", "bytes"},
    {"cold_ms_p50", "ms"},     {"warm_ms_p50", "ms"},
};

const MetricNames kPerLayer = {
    {"frontend.ms", "ms"},
    {"frontend.lower_ms", "ms"},
    {"frontend.hligen_ms", "ms"},
    {"hli.write_text_ms", "ms"},
    {"hli.read_text_ms", "ms"},
    {"hli.write_hlib_ms", "ms"},
    {"hli.read_hlib_ms", "ms"},
    {"hli.bytes_text", "bytes"},
    {"hli.bytes_hlib", "bytes"},
    {"query.batch_pairs", "count"},
    {"query.hli_answers", "count"},
    {"query.batch_fallbacks", "count"},
    {"sched.insns_per_block", "insns"},
    {"mapping.ms", "ms"},
    {"mapping.items_mapped", "count"},
    {"cse.ms", "ms"},
    {"constfold.ms", "ms"},
    {"dce.ms", "ms"},
    {"licm.ms", "ms"},
    {"unroll.ms", "ms"},
    {"sched.ms", "ms"},
    {"regalloc.ms", "ms"},
    {"sched2.ms", "ms"},
    {"parallelize.ms", "ms"},
    {"sched.mem_queries", "count"},
    {"sched.ddg_edges_pruned", "count"},
    {"sched.prune_ratio", "ratio"},
    {"cse.exprs_reused", "count"},
    {"licm.pure_hoisted", "count"},
    {"irdep.ms", "ms"},
    {"irdep.fallback_pruned", "count"},
    {"interp.setup_ms", "ms"},
    {"interp.ms", "ms"},
    {"interp.minsn_per_s", "Minsn/s"},
    {"interp.setup_share", "ratio"},
    {"interp.serial_ms_p50", "ms"},
    {"machine.r4600_ms", "ms"},
    {"machine.r10000_ms", "ms"},
    {"machine.r4600_minsn_per_s", "Minsn/s"},
    {"machine.r10000_minsn_per_s", "Minsn/s"},
    {"parexec.invocations", "count"},
    {"parexec.chunks", "count"},
    {"parexec.iters_per_chunk", "count"},
    {"parexec.par_insn_share", "ratio"},
    {"parexec.ordered_share", "ratio"},
    {"parexec.serial_fallbacks", "count"},
    {"parexec.lane_speedup", "ratio"},
    {"driver.compile_ms", "ms"},
    {"driver.self_ms", "ms"},
    {"service.rtt_ms", "ms"},
    {"service.server_ms", "ms"},
    {"service.queue_ms", "ms"},
    {"service.wire_ms", "ms"},
    {"service.unit_hit_ratio", "ratio"},
    {"service.response_hit_ratio", "ratio"},
    {"service.units_compiled", "count"},
    {"store.units_decoded", "count"},
    {"trace.unaccounted_share", "ratio"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table2|compile|exec4|service --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--table2-rows PATH] "
               "[--plant-wrong-expected]\n",
               message);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-wrong-expected") {
      args.plant_wrong_expected = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--table2-rows") {
      args.table2_rows = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  using Run = void (*)(const Args&, perfbench::Report&, perfbench::Checker&);
  const std::vector<std::pair<std::string, Run>> workloads = {
      {"table2", perfbench::run_table2},
      {"compile", perfbench::run_compile},
      {"exec4", perfbench::run_exec4},
      {"service", perfbench::run_service},
  };
  Run run = nullptr;
  for (const auto& [name, fn] : workloads) {
    if (name == args.workload) run = fn;
  }
  if (run == nullptr) usage("unknown --workload");

  perfbench::Report report;
  perfbench::Checker checker;
  try {
    run(args, report, checker);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.set("peak_rss_mb", perfbench::peak_rss_mb());
  char buf[128];
  std::snprintf(buf, sizeof buf, "fail_ratio %.6f (%llu of %llu)",
                checker.attempted() == 0
                    ? 0.0
                    : static_cast<double>(checker.failed()) /
                          static_cast<double>(checker.attempted()),
                static_cast<unsigned long long>(checker.failed()),
                static_cast<unsigned long long>(checker.attempted()));
  report.note(buf);
  report.print(args.trace ? kPerLayer : kEndToEnd, checker.attempted(),
               checker.failed());
  return 0;
}
