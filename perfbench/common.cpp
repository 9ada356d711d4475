#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include "frontend/testgen.hpp"
#include "frontend_basic/testgen.hpp"
#include "workloads.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

using namespace hli;

std::vector<Program> in_tree_programs() {
  std::vector<Program> programs;
  for (const auto* suite :
       {&workloads::all_workloads(), &workloads::basic_workloads()}) {
    for (const workloads::Workload& w : *suite) {
      programs.push_back({w.name, w.source, w.language});
    }
  }
  return programs;
}

std::vector<Program> generated_programs(std::uint64_t seed, std::size_t first,
                                        std::size_t count,
                                        unsigned main_stmts,
                                        unsigned max_helpers) {
  std::vector<Program> programs;
  for (std::size_t k = first; k < first + count; ++k) {
    testing::GenOptions gen;
    gen.seed = seed * 0x9e3779b97f4a7c15ull + k * 0xbf58476d1ce4e5b9ull + 1;
    gen.main_stmts = main_stmts;
    gen.max_helpers = max_helpers;
    Program program;
    if (k % 2 == 0) {
      program.name = "gen-c-" + std::to_string(k);
      program.source = testing::generate_source(gen);
    } else {
      gen.features = testing::basic_expressible(gen.features);
      program.name = "gen-basic-" + std::to_string(k);
      program.source = testing::generate_basic_source(gen);
      program.language = frontend::Language::Basic;
    }
    programs.push_back(std::move(program));
  }
  return programs;
}

std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

double run_rounds(double seconds, int min_rounds,
                  const std::function<void(int)>& round) {
  const Clock::time_point start = Clock::now();
  for (int r = 0;; ++r) {
    round(r);
    const double elapsed = ms_since(start) / 1000.0;
    const double per_round = elapsed / (r + 1);
    if (r + 1 >= min_rounds && elapsed + per_round / 2 >= seconds) {
      return elapsed;
    }
  }
}

void parallel(std::size_t count, unsigned threads, Tracing* tracing,
              const std::function<void(std::size_t)>& task) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto worker = [&] {
    const Tracing::Scope scope(tracing);
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        task(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace perfbench
