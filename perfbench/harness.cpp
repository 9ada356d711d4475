#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "backend/mapping.hpp"
#include "hli/serialize.hpp"
#include "service/wire.hpp"

namespace perfbench {

using namespace hli;

double Samples::sum() const {
  double total = 0.0;
  for (const double v : ms_) total += v;
  return total;
}

double Samples::p50() const { return median(ms_); }

double Samples::min() const {
  return ms_.empty() ? std::numeric_limits<double>::infinity()
                     : *std::min_element(ms_.begin(), ms_.end());
}

Samples::Tail Samples::tail() const {
  Tail tail;
  tail.samples = ms_.size();
  if (ms_.empty()) return tail;
  std::vector<double> sorted = ms_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  // Nearest rank k (0-based) leaves n-1-k samples above it; p90 is rank
  // ceil(0.9 n).
  const std::size_t p90 = (9 * n + 9) / 10 - 1;
  const std::size_t k = std::max(n > 10 ? n - 11 : 0, p90);
  tail.ms = sorted[k];
  tail.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  return tail;
}

Fastest::Fastest(std::size_t ops)
    : ms_(ops, std::numeric_limits<double>::infinity()) {}

void Fastest::add(std::size_t op, double ms) {
  ms_.at(op) = std::min(ms_[op], ms);
}

Samples Fastest::samples() const {
  Samples samples;
  for (const double ms : ms_) {
    if (std::isfinite(ms)) samples.add(ms);
  }
  return samples;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool Checker::record(bool ok, const std::string& what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (ok) return true;
  const std::uint64_t failures =
      failed_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (failures <= 5) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(stderr, "perfbench: wrong output: %s\n", what.c_str());
  }
  return false;
}

bool matches(const backend::RunResult& run, const Expected& semantic,
             const Expected& dynamic) {
  return run.ok && run.output_hash == semantic.output_hash &&
         run.return_value == semantic.return_value &&
         run.dynamic_insns == dynamic.dynamic_insns;
}

driver::PipelineOptions reference_options(frontend::Language language) {
  return driver::PipelineOptions::paper_table2()
      .with_language(language)
      .with_hli(false)
      .with_cse(false)
      .with_constfold(false)
      .with_dce(false)
      .with_licm(false)
      .with_sched(false);
}

namespace {

Expected expected_of(const backend::RunResult& run) {
  if (!run.ok) throw std::runtime_error("reference run failed: " + run.error);
  return {run.output_hash, run.return_value, run.dynamic_insns};
}

}  // namespace

Expected reference_run(std::string_view source, frontend::Language language) {
  return expected_of(
      run_serial(driver::compile_source(source, reference_options(language))));
}

Expected configuration_run(std::string_view source,
                           const driver::PipelineOptions& options) {
  return expected_of(run_serial(driver::compile_source(source, options)));
}

backend::RunResult run_serial(const driver::CompiledProgram& compiled) {
  return backend::run_program(compiled.rtl);
}

std::uint64_t code_insns(const driver::CompiledProgram& compiled) {
  std::uint64_t total = 0;
  for (const backend::RtlFunction& func : compiled.rtl.functions) {
    total += func.insns.size();
  }
  return total;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t render_hash(const driver::CompiledProgram& compiled) {
  return fnv1a(service::render_program_stats(compiled),
               fnv1a(service::render_rtl(compiled)));
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double timed_setup(const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(ms_since(start) / 1000.0);
  }
  return median(seconds);
}

// -- Traced runs -------------------------------------------------------------

Tracing::Scope::Scope(Tracing* tracing) : tracing_(tracing) {
  if (tracing_ != nullptr) {
    recorder_.emplace(&counters_, &tracing_->tracer, false);
  }
}

Tracing::Scope::~Scope() {
  if (tracing_ == nullptr) return;
  recorder_.reset();
  const std::lock_guard<std::mutex> lock(tracing_->mutex_);
  tracing_->counters_ += counters_;
}

telemetry::CounterSet Tracing::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

namespace {

struct Event {
  std::string key;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  std::uint64_t tid = 0;
  std::uint64_t child_us = 0;
};

std::string_view field_text(std::string_view line, std::string_view key) {
  const std::string pattern = "\"" + std::string(key) + "\":\"";
  const std::size_t start = line.find(pattern);
  if (start == std::string_view::npos) return {};
  const std::size_t begin = start + pattern.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

std::uint64_t field_number(std::string_view line, std::string_view key) {
  const std::string pattern = "\"" + std::string(key) + "\":";
  const std::size_t start = line.find(pattern);
  if (start == std::string_view::npos) return 0;
  return std::strtoull(line.data() + start + pattern.size(), nullptr, 10);
}

}  // namespace

SpanTable analyze_spans(const telemetry::Tracer& tracer) {
  // Tracer::to_json writes one event per line.
  const std::string json = tracer.to_json();
  std::vector<Event> events;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t end = json.find('\n', pos);
    if (end == std::string::npos) end = json.size();
    const std::string_view line(json.data() + pos, end - pos);
    pos = end + 1;
    if (line.find("\"ph\":\"X\"") == std::string_view::npos) continue;
    Event event;
    event.key = field_text(line, "cat") == "function"
                    ? "function"
                    : std::string(field_text(line, "name"));
    event.ts = field_number(line, "ts");
    event.dur = field_number(line, "dur");
    event.tid = field_number(line, "tid");
    events.push_back(std::move(event));
  }
  // Outer spans first: by thread, start, then longest.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    while (!open.empty()) {
      const Event& top = events[open.back()];
      if (top.tid == events[i].tid && events[i].ts < top.ts + top.dur) break;
      open.pop_back();
    }
    if (!open.empty()) events[open.back()].child_us += events[i].dur;
    open.push_back(i);
  }
  SpanTable table;
  for (const Event& event : events) {
    SpanTotals& totals = table[event.key];
    totals.total_ms += static_cast<double>(event.dur) / 1000.0;
    totals.self_ms +=
        static_cast<double>(event.dur - std::min(event.dur, event.child_us)) /
        1000.0;
    ++totals.count;
  }
  return table;
}

namespace {

/// The module each span key is charged to; "" for the op root span.
std::string layer_of(const std::string& key) {
  static const std::map<std::string, std::string> layers = {
      {"frontend", "frontend"},
      {"lower", "frontend"},
      {"hli-generate", "frontend"},
      {"irdep-summary", "analysis.irdep"},
      {"analyze-loops", "analysis.irdep"},
      {"audit-deps", "analysis.irdep"},
      {"verify", "hli.verify"},
      {"cse", "backend.passes"},
      {"constfold", "backend.passes"},
      {"dce", "backend.passes"},
      {"licm", "backend.passes"},
      {"unroll", "backend.passes"},
      {"sched", "backend.passes"},
      {"regalloc", "backend.passes"},
      {"sched2", "backend.passes"},
      {"parallelize", "backend.parexec"},
      {"execute", "backend.interp"},
      {"run_program", "backend.interp"},
      {"simulate", "machine"},
      {"client.compile", "service"},
  };
  if (key == "op") return "";
  const auto it = layers.find(key);
  // compile_source self time, per-function import/mapping spans and the
  // unit-cache fingerprint are the driver's own work.
  return it == layers.end() ? "driver" : it->second;
}

double time_ms(const std::function<void()>& body, int repeats) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point start = Clock::now();
    body();
    ms.push_back(ms_since(start));
  }
  return median(ms);
}

class NullSink final : public backend::TraceSink {
 public:
  void on_insn(const backend::TraceEvent& event) override {
    last_ = event.address;
  }
  std::uint64_t last_ = 0;
};

}  // namespace

SerializeProbe& SerializeProbe::operator+=(const SerializeProbe& other) {
  write_text_ms += other.write_text_ms;
  read_text_ms += other.read_text_ms;
  write_hlib_ms += other.write_hlib_ms;
  read_hlib_ms += other.read_hlib_ms;
  bytes_text += other.bytes_text;
  bytes_hlib += other.bytes_hlib;
  return *this;
}

SerializeProbe probe_serialize(std::string_view channel) {
  SerializeProbe probe;
  const format::HliFile file = serialize::read_any(channel);
  std::string text;
  std::string hlib;
  probe.write_text_ms = time_ms([&] { text = serialize::write_hli(file); }, 3);
  probe.write_hlib_ms = time_ms([&] { hlib = serialize::write_hlib(file); }, 3);
  probe.read_text_ms =
      time_ms([&] { (void)serialize::read_hli(text); }, 3);
  probe.read_hlib_ms =
      time_ms([&] { (void)serialize::read_hlib(hlib); }, 3);
  probe.bytes_text = static_cast<double>(text.size());
  probe.bytes_hlib = static_cast<double>(hlib.size());
  return probe;
}

double probe_mapping_ms(std::string_view source,
                        const driver::PipelineOptions& options) {
  const frontend::AnalyzedUnit unit = frontend::analyze_unit(
      source, options.frontend_options, options.hli_encoding);
  const format::HliFile file = serialize::read_any(unit.hli_bytes);
  return time_ms(
      [&] {
        for (const backend::RtlFunction& func : unit.rtl.functions) {
          const format::HliEntry* entry = file.find_unit(func.name);
          if (entry == nullptr) continue;
          backend::RtlFunction copy = func;
          (void)backend::map_items(copy, *entry);
        }
      },
      3);
}

double probe_interp_with_sink_ms(const driver::CompiledProgram& compiled) {
  NullSink sink;
  const Clock::time_point start = Clock::now();
  (void)backend::run_program(compiled.rtl, "main", &sink);
  return ms_since(start);
}

double probe_interp_setup_ms() {
  const driver::CompiledProgram empty = driver::compile_source(
      "int main() { return 1; }", driver::PipelineOptions::paper_table2());
  return time_ms([&] { (void)backend::run_program(empty.rtl); }, 5);
}

// -- Report ------------------------------------------------------------------

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::set_pipeline_layers(const SpanTable& spans,
                                 const telemetry::CounterSet& counters,
                                 double ops) {
  // Self times: sched2 runs inside the regalloc span.
  const auto span_ms = [&](const std::string& key) {
    const auto it = spans.find(key);
    return it == spans.end() ? 0.0 : it->second.self_ms / ops;
  };
  const auto count = [&](std::string_view name) {
    return static_cast<double>(counters.value(name));
  };
  set("frontend.ms", span_ms("frontend"));
  set("frontend.lower_ms", span_ms("lower"));
  set("frontend.hligen_ms", span_ms("hli-generate"));
  for (const char* pass : {"cse", "constfold", "dce", "licm", "unroll", "sched",
                           "regalloc", "sched2", "parallelize"}) {
    set(std::string(pass) + ".ms", span_ms(pass));
  }
  set("irdep.ms", span_ms("irdep-summary"));
  const auto compile = spans.find("compile_source");
  if (compile != spans.end()) {
    set("driver.compile_ms", compile->second.total_ms / ops);
    set("driver.self_ms", compile->second.self_ms / ops);
  }

  set("mapping.items_mapped", count("map.items_mapped") / ops);
  set("query.batch_pairs", count("query.batch_pairs") / ops);
  set("query.hli_answers", count("query.hli_answers") / ops);
  set("query.batch_fallbacks", count("query.batch_fallbacks") / ops);
  set("sched.mem_queries", count("sched.mem_queries") / ops);
  set("sched.ddg_edges_pruned", count("sched.ddg_edges_pruned") / ops);
  const double gcc_yes = count("sched.gcc_yes");
  set("sched.prune_ratio",
      gcc_yes == 0 ? 0.0 : count("sched.ddg_edges_pruned") / gcc_yes);
  const double blocks = count("sched.blocks");
  set("sched.insns_per_block",
      blocks == 0 ? 0.0 : count("sched.insns_scheduled") / blocks);
  set("cse.exprs_reused", count("cse.exprs_reused") / ops);
  set("licm.pure_hoisted", count("licm.pure_hoisted") / ops);
  set("irdep.fallback_pruned", count("irdep.fallback_pruned") / ops);
  set("store.units_decoded", count("store.units_decoded") / ops);
}

void Report::set_serialize_layers(const SerializeProbe& sum, double per_op) {
  set("hli.write_text_ms", sum.write_text_ms * per_op);
  set("hli.read_text_ms", sum.read_text_ms * per_op);
  set("hli.write_hlib_ms", sum.write_hlib_ms * per_op);
  set("hli.read_hlib_ms", sum.read_hlib_ms * per_op);
  set("hli.bytes_text", sum.bytes_text * per_op);
  set("hli.bytes_hlib", sum.bytes_hlib * per_op);
}

void Report::set_accounting(const SpanTable& spans) {
  const auto root = spans.find("op");
  if (root == spans.end() || root->second.total_ms <= 0.0) return;
  const double wall = root->second.total_ms;
  std::map<std::string, double> layers;
  for (const auto& [key, totals] : spans) {
    const std::string layer = layer_of(key);
    if (!layer.empty()) layers[layer] += totals.self_ms;
  }
  double accounted = 0.0;
  std::string shares = "layer shares of op wall time:";
  for (const auto& [layer, ms] : layers) {
    accounted += ms;
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s=%.4f", layer.c_str(), ms / wall);
    shares += buf;
  }
  note(shares);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "layer self times sum to %.1f ms of %.1f ms op wall time; "
                "unaccounted share %.4f",
                accounted, wall, root->second.self_ms / wall);
  note(buf);
  set("trace.unaccounted_share", root->second.self_ms / wall);
}

void Report::print(const std::vector<std::pair<std::string, std::string>>& names,
                   std::uint64_t attempted, std::uint64_t failed) const {
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& [name, unit] = names[i];
    double value = get(name);
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += i == 0 ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void set_latency_metrics(Report& report, const Samples& ops,
                         double ops_per_s) {
  report.set("ops_per_s", ops_per_s);
  report.set("op_ms_p50", ops.p50());
  const Samples::Tail tail = ops.tail();
  report.set("op_ms_tail", tail.ms);
  report.set("cold_ms_p50", ops.p50());
  report.set("warm_ms_p50", ops.p50());
  char buf[96];
  std::snprintf(buf, sizeof buf, "op_ms_tail is p%.1f of %zu samples",
                tail.percentile, tail.samples);
  report.note(buf);
}

}  // namespace perfbench
