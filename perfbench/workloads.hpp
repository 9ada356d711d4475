// The four benchmark workloads.  Each fills `report` with every metric it
// measures and records each checked output in `checker`.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "frontend/contract.hpp"
#include "harness.hpp"

namespace perfbench {

struct Program {
  std::string name;
  std::string source;
  hli::frontend::Language language = hli::frontend::Language::C;
};

/// The 14 C workloads of Table 1/2 followed by the 3 BASIC ones.
[[nodiscard]] std::vector<Program> in_tree_programs();

/// Seeded testgen programs: `count` of them with `main_stmts` statements
/// in main and up to `max_helpers` helper functions, alternating C and
/// BASIC renderings.  `first` offsets the seed stream so disjoint ranges
/// give disjoint programs.
[[nodiscard]] std::vector<Program> generated_programs(std::uint64_t seed,
                                                      std::size_t first,
                                                      std::size_t count,
                                                      unsigned main_stmts,
                                                      unsigned max_helpers);

/// A seeded permutation of 0..n-1.
[[nodiscard]] std::vector<std::size_t> shuffled(std::size_t n,
                                                std::uint64_t seed);

/// Calls `round(r)` for r = 0, 1, ... until `seconds` have passed: a new
/// round starts only when it is expected to end before the deadline plus
/// half a round, and at least `min_rounds` run.  Returns the wall time in
/// seconds.
double run_rounds(double seconds, int min_rounds,
                  const std::function<void(int)>& round);

/// Runs `task(i)` for i in [0, count) on `threads` threads; each thread
/// installs `tracing` (when non-null) for its lifetime.
void parallel(std::size_t count, unsigned threads, Tracing* tracing,
              const std::function<void(std::size_t)>& task);

void run_table2(const Args& args, Report& report, Checker& checker);
void run_compile(const Args& args, Report& report, Checker& checker);
void run_exec4(const Args& args, Report& report, Checker& checker);
void run_service(const Args& args, Report& report, Checker& checker);

}  // namespace perfbench
