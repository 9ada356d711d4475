// Shared machinery of the end-to-end benchmark: command-line arguments,
// latency samples, the result report, output checking against reference
// runs, and the traced-run analysis (span self times, per-layer probes).
//
// Every workload follows the same shape:
//   1. set up three times (the reported set-up time is the median), keep
//      the last state;
//   2. measure for --seconds (with --trace 1: half untraced, half traced);
//   3. check every output outside the timed region;
//   4. report end-to-end metrics (untraced) or per-layer metrics (traced).
// The round-based workloads (table2, compile, exec4) repeat a fixed set of
// distinct ops: an op's latency is its fastest repetition and throughput
// that of the fastest round.  The service counts each warm request at its
// program's fastest round trip and takes throughput and the cold-request
// median from its best slice.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "driver/pipeline.hpp"
#include "support/telemetry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: corrupt one expected value after set-up, so the run must
  /// report at least one failed op.
  bool plant_wrong_expected = false;
  /// table2 only: write the per-program Table 2 rows here as JSON.
  std::string table2_rows;
  /// Scratch directory for files the workload writes (service sockets
  /// and HLIB stores).
  std::string work_dir = ".";
};

/// Latency samples of one op class, in milliseconds.
class Samples {
 public:
  void add(double ms) { ms_.push_back(ms); }
  void append(const Samples& other) {
    ms_.insert(ms_.end(), other.ms_.begin(), other.ms_.end());
  }
  [[nodiscard]] std::size_t size() const { return ms_.size(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double p50() const;
  [[nodiscard]] double min() const;

  /// The highest nearest-rank percentile with at least ten samples above
  /// it, but never below p90: with fewer than 21 samples (one per distinct
  /// op) the ten-above rule would fall at or below the median.
  struct Tail {
    double ms = 0.0;
    double percentile = 0.0;
    std::size_t samples = 0;
  };
  [[nodiscard]] Tail tail() const;

 private:
  std::vector<double> ms_;
};

/// The fastest repetition of each distinct op of a run.  The host's speed
/// drifts by up to a third over seconds, so a median over every
/// repetition moves with it from one run to the next; each op's fastest
/// repetition in a run of many rounds does not.
class Fastest {
 public:
  explicit Fastest(std::size_t ops);
  void add(std::size_t op, double ms);
  /// One sample per op that ran at least once.
  [[nodiscard]] Samples samples() const;

 private:
  std::vector<double> ms_;
};

/// Median of a small vector (copies; fine for set-up times).
[[nodiscard]] double median(std::vector<double> values);

/// Counts attempted and failed ops from any thread; the first few
/// failures are described on stderr.
class Checker {
 public:
  /// Records one attempted op; returns `ok`.
  bool record(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex mutex_;
};

/// The observable result of one run: output hash, return value and
/// dynamic instruction count.
struct Expected {
  std::uint64_t output_hash = 0;
  std::int64_t return_value = 0;
  std::uint64_t dynamic_insns = 0;
};

/// True when `run` finished and its output hash and return value equal
/// `semantic`'s and its dynamic instruction count equals `dynamic`'s.
[[nodiscard]] bool matches(const hli::backend::RunResult& run,
                           const Expected& semantic, const Expected& dynamic);

/// All passes off and no HLI: the semantic reference configuration.
[[nodiscard]] hli::driver::PipelineOptions reference_options(
    hli::frontend::Language language);

/// Output hash and return value of `source` built with
/// reference_options(); throws when the reference run itself fails.
[[nodiscard]] Expected reference_run(std::string_view source,
                                     hli::frontend::Language language);

/// Compiles `source` with `options` (a build independent of any build
/// under test) and runs it serially: the expected dynamic instruction
/// count of every run of that configuration.
[[nodiscard]] Expected configuration_run(std::string_view source,
                                         const hli::driver::PipelineOptions& options);

[[nodiscard]] hli::backend::RunResult run_serial(
    const hli::driver::CompiledProgram& compiled);

/// Static RTL instructions of a compiled program.
[[nodiscard]] std::uint64_t code_insns(const hli::driver::CompiledProgram& compiled);

/// FNV-1a over the service's byte-identity surface: render_rtl followed
/// by render_program_stats.
[[nodiscard]] std::uint64_t render_hash(const hli::driver::CompiledProgram& compiled);
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t hash = 0xcbf29ce484222325ull);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Runs set-up three times; returns the median duration in seconds.  The
/// state the last call left behind is the one measured.
[[nodiscard]] double timed_setup(const std::function<void()>& setup);

/// The traced run's collector: one tracer shared by every thread, plus
/// the counters every thread recorded.
class Tracing {
 public:
  hli::telemetry::Tracer tracer;

  /// Installs this collector on the calling thread for its lifetime and
  /// merges the thread's counters in on destruction.
  class Scope {
   public:
    explicit Scope(Tracing* tracing);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracing* tracing_;
    hli::telemetry::CounterSet counters_;
    std::optional<hli::telemetry::ScopedRecorder> recorder_;
  };

  [[nodiscard]] hli::telemetry::CounterSet counters() const;

 private:
  mutable std::mutex mutex_;
  hli::telemetry::CounterSet counters_;
};

/// Per span key: summed duration and self time (duration minus the part
/// covered by nested spans on the same thread).  Spans of category
/// "function" (one per compiled function) share the key "function".
struct SpanTotals {
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::uint64_t count = 0;
};
using SpanTable = std::map<std::string, SpanTotals>;
[[nodiscard]] SpanTable analyze_spans(const hli::telemetry::Tracer& tracer);

/// Timings of the hli::serialize legs on one HLI channel payload (median
/// of three repetitions each).
struct SerializeProbe {
  double write_text_ms = 0.0;
  double read_text_ms = 0.0;
  double write_hlib_ms = 0.0;
  double read_hlib_ms = 0.0;
  double bytes_text = 0.0;
  double bytes_hlib = 0.0;

  SerializeProbe& operator+=(const SerializeProbe& other);
};
[[nodiscard]] SerializeProbe probe_serialize(std::string_view channel);

/// Time of backend::map_items over every function of `source`, on a
/// fresh analyze_unit result (median of three).
[[nodiscard]] double probe_mapping_ms(std::string_view source,
                                      const hli::driver::PipelineOptions& options);

/// Time of the interpreter with a sink that does nothing: the
/// interpreter's share of a simulate() call.
[[nodiscard]] double probe_interp_with_sink_ms(
    const hli::driver::CompiledProgram& compiled);

/// run_program on `int main() { return 1; }`: the interpreter's fixed
/// per-call cost (median of five).
[[nodiscard]] double probe_interp_setup_ms();

/// Named metric values of one run.  Names outside the requested set are
/// ignored at print time; requested names never set print as 0.
class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  [[nodiscard]] double get(const std::string& name) const;
  /// A human-readable line, printed before the result as "# <line>".
  void note(const std::string& line) { notes_.push_back(line); }

  /// Pipeline span times and counters of a traced run, per op.
  void set_pipeline_layers(const SpanTable& spans,
                           const hli::telemetry::CounterSet& counters,
                           double ops);
  /// The hli.* legs: `sum` over probed channels times `per_op`.
  void set_serialize_layers(const SerializeProbe& sum, double per_op);
  /// Layer shares of op wall time and the unaccounted share, as notes
  /// and the trace.unaccounted_share metric.
  void set_accounting(const SpanTable& spans);

  /// Prints the notes and then, as the last line, the result object with
  /// every metric of `names` (name, unit pairs).
  void print(const std::vector<std::pair<std::string, std::string>>& names,
             std::uint64_t attempted, std::uint64_t failed) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
};

/// Sets ops_per_s and the latency metrics from `ops`: one sample per
/// distinct op (its fastest repetition) or, for the service, per request.
/// Without a cache tier no op is cold or warm: cold_ms_p50 and
/// warm_ms_p50 repeat op_ms_p50 (the service workload overrides them).
void set_latency_metrics(Report& report, const Samples& ops,
                         double ops_per_s);

}  // namespace perfbench
