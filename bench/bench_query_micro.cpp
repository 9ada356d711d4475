// Query-engine microbenchmark: pairwise may_conflict over the largest
// workload unit, reported as ns/query, for the dense indexed HliUnitView
// against the original map-based implementation (kept verbatim as the
// reference oracle in hli/reference_query.hpp).  This is the scheduler's
// hot path — sched1/sched2 issue one may_conflict per memory-insn pair —
// so the speedup here bounds the compile-time win of the dense rewrite.
// `--json <path>` writes the machine-readable report.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "frontend/sema.hpp"
#include "frontend/hligen.hpp"
#include "hli/query.hpp"
#include "hli/reference_query.hpp"
#include "hli/serialize.hpp"
#include "workloads/workloads.hpp"

using namespace hli;

namespace {

// Keeps the measured loops from being optimized away.
volatile unsigned g_sink = 0;

std::vector<format::ItemId> memory_items(const format::HliEntry& entry) {
  std::vector<format::ItemId> items;
  for (const auto& line : entry.line_table.lines()) {
    for (const auto& item : line.items) items.push_back(item.id);
  }
  return items;
}

/// Runs full pairwise sweeps until at least `min_ms` of wall time has
/// accumulated, returning nanoseconds per query.
template <typename View>
double measure_ns_per_query(const View& view,
                            const std::vector<format::ItemId>& items,
                            double min_ms) {
  std::uint64_t queries = 0;
  unsigned sink = 0;
  const benchutil::WallTimer timer;
  do {
    for (const format::ItemId a : items) {
      for (const format::ItemId b : items) {
        sink += static_cast<unsigned>(view.may_conflict(a, b));
      }
    }
    queries += static_cast<std::uint64_t>(items.size()) * items.size();
  } while (timer.elapsed_ms() < min_ms);
  g_sink = g_sink + sink;
  return timer.elapsed_ms() * 1e6 / static_cast<double>(queries);
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::BenchArgs args = benchutil::BenchArgs::parse(argc, argv);
  const benchutil::WallTimer timer;

  // Pick the unit with the most memory items across all workloads; the
  // back-end always queries a re-read file, so round-trip the HLI first.
  std::string best_label;
  std::string best_unit;
  format::HliFile best_file;
  std::size_t best_items = 0;
  for (const auto& workload : workloads::all_workloads()) {
    support::DiagnosticEngine diags;
    frontend::Program prog = frontend::compile_to_ast(workload.source, diags);
    const std::string text = serialize::write_hli(builder::build_hli(prog));
    format::HliFile file = serialize::read_hli(text);
    bool improved = false;
    for (const format::HliEntry& entry : file.entries) {
      const std::size_t n = memory_items(entry).size();
      if (n > best_items) {
        best_items = n;
        best_unit = entry.unit_name;
        best_label = workload.name + "/" + entry.unit_name;
        improved = true;
      }
    }
    if (improved) best_file = std::move(file);
  }
  const format::HliEntry* best_entry = best_file.find_unit(best_unit);
  if (best_entry == nullptr) {
    std::fprintf(stderr, "no workload unit with memory items found\n");
    return 1;
  }
  const std::vector<format::ItemId> items = memory_items(*best_entry);

  const query::HliUnitView dense(*best_entry);
  const query::reference::ReferenceUnitView reference(*best_entry);

  constexpr double kMinMs = 200.0;  // Per-implementation measuring window.
  const double dense_ns = measure_ns_per_query(dense, items, kMinMs);
  const double ref_ns = measure_ns_per_query(reference, items, kMinMs);
  const double speedup = dense_ns > 0.0 ? ref_ns / dense_ns : 0.0;

  std::printf("may_conflict microbenchmark on %s (%zu items, %zu pairs)\n",
              best_label.c_str(), items.size(), items.size() * items.size());
  std::printf("%-28s %12s\n", "implementation", "ns/query");
  std::printf("%-28s %12.1f\n", "map-based (reference)", ref_ns);
  std::printf("%-28s %12.1f\n", "dense indexed", dense_ns);
  std::printf("speedup: %.2fx\n", speedup);

  benchutil::JsonReport report;
  report.bench = "query_micro";
  report.add(best_label, {{"items", static_cast<double>(items.size())},
                          {"reference_ns_per_query", ref_ns},
                          {"dense_ns_per_query", dense_ns},
                          {"speedup", speedup}});
  report.wall_ms = timer.elapsed_ms();
  if (!args.json_path.empty() && !report.write(args.json_path)) return 1;
  return 0;
}
