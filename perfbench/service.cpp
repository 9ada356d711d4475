// service: an in-process hlid Server on AF_UNIX with two workers, driven
// in a closed loop from two client connections, production() options.
//   * warm requests (7 of every 8 a client sends) resend the 17 in-tree
//     programs in turn, in a seeded order per client, importing from
//     their server-side HLIB stores; set-up already sent each once, so
//     they are answered from the caches;
//   * cold requests (1 of every 8) send a never-seen seeded testgen
//     program with no store.
// The response tier holds 16 entries, fewer than the 17 warm requests, so
// warm traffic that misses it is answered by the unit tier and the shared
// store.  One op is one request.
#include <unistd.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <thread>
#include <tuple>

#include "service/client.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hli;

namespace {

constexpr unsigned kClients = 2;
constexpr unsigned kWorkers = 2;
constexpr std::size_t kResponseEntries = 16;
constexpr unsigned kColdEvery = 8;  ///< Cold share 1/8.
constexpr unsigned kColdStmts = 24;
constexpr unsigned kColdHelpers = 3;
constexpr std::size_t kColdPool = 512;
/// The client phase runs in this many equal slices; ops_per_s,
/// op_ms_tail and cold_ms_p50 are those of the best slice: the host's
/// speed drifts by up to a third over seconds.
constexpr int kSlices = 4;
/// Serial runs of the 17 in-tree builds after the clients stop.
constexpr int kSerialPasses = 2;

driver::PipelineOptions options_for(frontend::Language language) {
  return driver::PipelineOptions::production().with_language(language);
}

std::uint64_t reply_hash(const service::UnitResult& unit) {
  return fnv1a(unit.stats, fnv1a(unit.rtl));
}

/// A cold program handed out to a client, and what the server answered.
struct ColdRequest {
  std::size_t index = 0;
  std::uint64_t reply = 0;
};

struct State {
  std::string socket_path;
  std::vector<Program> programs;
  std::vector<std::string> store_paths;
  std::vector<driver::CompiledProgram> references;  ///< Imported from stores.
  std::vector<std::uint64_t> reference_hashes;
  std::vector<std::size_t> channel_bytes;
  std::vector<Program> cold;  ///< Grows on demand beyond the pool.
  std::mutex cold_mutex;
  std::size_t next_cold = 0;
  std::unique_ptr<service::Server> server;
  std::vector<service::Client> clients;

  ~State() { stop(); }

  void stop() {
    for (service::Client& client : clients) client.close();
    clients.clear();
    if (server) server->stop();
    server.reset();
    for (const std::string& path : store_paths) std::remove(path.c_str());
    if (!socket_path.empty()) std::remove(socket_path.c_str());
  }

  /// The next never-sent cold program and its index in `cold`.
  std::pair<std::size_t, Program> take_cold(std::uint64_t seed) {
    const std::lock_guard<std::mutex> lock(cold_mutex);
    if (next_cold == cold.size()) {
      for (Program& p :
           generated_programs(seed ^ 0xc01d, cold.size(), kColdPool, kColdStmts,
                              kColdHelpers)) {
        cold.push_back(std::move(p));
      }
    }
    const std::size_t index = next_cold++;
    return {index, cold[index]};
  }
};

struct ClientLog {
  explicit ClientLog(std::size_t programs = 0) : warm(programs) {}

  Samples all;
  Samples cold;
  std::vector<Samples> warm;  ///< Per in-tree program.
  std::vector<ColdRequest> cold_requests;

  void append(const ClientLog& other) {
    all.append(other.all);
    cold.append(other.cold);
    warm.resize(std::max(warm.size(), other.warm.size()));
    for (std::size_t i = 0; i < other.warm.size(); ++i) {
      warm[i].append(other.warm[i]);
    }
    cold_requests.insert(cold_requests.end(), other.cold_requests.begin(),
                         other.cold_requests.end());
  }
};

/// The best of the slices' throughput and cold-request median.
struct BestSlice {
  double ops_per_s = 0;
  double cold_p50 = std::numeric_limits<double>::infinity();

  void add(const ClientLog& slice, double wall_s) {
    ops_per_s = std::max(ops_per_s,
                         static_cast<double>(slice.all.size()) / wall_s);
    if (slice.cold.size() > 0) cold_p50 = std::min(cold_p50, slice.cold.p50());
  }
};

}  // namespace

void run_service(const Args& args, Report& report, Checker& checker) {
  std::unique_ptr<State> state;
  const std::string prefix =
      args.work_dir + "/hlid-" + std::to_string(::getpid());
  const auto send_warm = [&](service::Client& client, std::size_t i) {
    return client.compile({state->programs[i].source},
                          options_for(state->programs[i].language),
                          state->store_paths[i]);
  };
  const double setup_s = timed_setup([&] {
    state.reset();
    state = std::make_unique<State>();
    State& s = *state;
    s.programs = in_tree_programs();
    const std::size_t n = s.programs.size();
    s.store_paths.resize(n);
    s.references.resize(n);
    s.reference_hashes.resize(n);
    s.channel_bytes.resize(n);
    parallel(n, 4, nullptr, [&](std::size_t i) {
      const Program& p = s.programs[i];
      const driver::CompiledProgram direct =
          driver::compile_source(p.source, options_for(p.language));
      s.store_paths[i] = prefix + "-" + std::to_string(i) + ".hlib";
      std::ofstream(s.store_paths[i], std::ios::binary) << direct.hli_text;
      s.channel_bytes[i] = direct.hli_text.size();
      const HliStore store(direct.hli_text);
      s.references[i] = driver::compile_source(
          p.source, options_for(p.language).with_store(&store));
      s.reference_hashes[i] = render_hash(s.references[i]);
    });
    s.cold = generated_programs(args.seed ^ 0xc01d, 0, kColdPool, kColdStmts,
                                kColdHelpers);
    s.socket_path = prefix + ".sock";
    service::ServerOptions options;
    options.unix_path = s.socket_path;
    options.workers = kWorkers;
    options.compile_jobs = 1;
    options.response_entries = kResponseEntries;
    s.server = std::make_unique<service::Server>(options);
    s.server->start();
    for (unsigned c = 0; c < kClients; ++c) {
      s.clients.push_back(service::Client::connect_unix(s.socket_path));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const service::CompileReply reply = send_warm(s.clients[0], i);
      checker.record(reply_hash(reply.programs.at(0)) == s.reference_hashes[i],
                     "service warm-up reply for " + s.programs[i].name);
    }
  });
  State& s = *state;
  if (args.plant_wrong_expected) s.reference_hashes[0] ^= 1;
  const std::size_t n = s.programs.size();

  // One closed-loop client: request k is cold when k % kColdEvery is the
  // last slot, else a warm resend of a seeded in-tree pick.
  const auto drive = [&](unsigned c, double seconds, Tracing* tracing,
                         ClientLog& log) {
    const Tracing::Scope scope(tracing);
    const std::vector<std::size_t> order =
        shuffled(n, args.seed * 31 + c + (tracing != nullptr ? 7 : 0));
    std::size_t warm_sent = 0;
    const Clock::time_point start = Clock::now();
    for (std::uint64_t k = 0; ms_since(start) < seconds * 1000.0; ++k) {
      const bool cold = k % kColdEvery == kColdEvery - 1;
      std::size_t i = 0;
      Program p;
      if (cold) {
        std::tie(i, p) = s.take_cold(args.seed);
      } else {
        i = order[warm_sent++ % n];
        p = s.programs[i];
      }
      service::CompileReply reply;
      const Clock::time_point sent = Clock::now();
      try {
        const telemetry::Span op_span("op", "bench");
        const telemetry::Span span("client.compile", "bench");
        reply = cold ? s.clients[c].compile({p.source}, options_for(p.language))
                     : send_warm(s.clients[c], i);
      } catch (const std::exception& e) {
        checker.record(false, "service request for " + p.name + ": " + e.what());
        continue;
      }
      const double ms = ms_since(sent);
      log.all.add(ms);
      (cold ? log.cold : log.warm.at(i)).add(ms);
      const std::uint64_t hash = reply_hash(reply.programs.at(0));
      if (cold) {
        log.cold_requests.push_back({i, hash});
      } else {
        checker.record(hash == s.reference_hashes[i],
                       "service warm reply for " + p.name);
      }
    }
  };
  // Runs the clients for `seconds`; returns their merged log and adds the
  // wall time to `best`.
  const auto run_clients = [&](double seconds, Tracing* tracing,
                               BestSlice& best) {
    std::vector<ClientLog> logs(kClients, ClientLog(n));
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back(drive, c, seconds, tracing, std::ref(logs[c]));
    }
    for (std::thread& t : threads) t.join();
    const double wall_s = ms_since(start) / 1000.0;
    ClientLog merged;
    for (const ClientLog& log : logs) merged.append(log);
    best.add(merged, wall_s);
    return merged;
  };

  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  ClientLog merged;
  std::vector<ClientLog> slices;
  BestSlice best;
  for (int slice = 0; slice < kSlices; ++slice) {
    slices.push_back(run_clients(seconds / kSlices, nullptr, best));
    merged.append(slices.back());
  }
  // Serial runs of the in-tree builds, checked in the check phase.
  Fastest serial(n);
  std::vector<backend::RunResult> serial_runs;
  for (int pass = 0; pass < kSerialPasses; ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point run_start = Clock::now();
      serial_runs.push_back(run_serial(s.references[i]));
      serial.add(i, ms_since(run_start));
    }
  }
  // A warm request repeats an in-tree program: like the round-based
  // workloads' ops, it counts its program's fastest round trip in the
  // run.  Cold requests never repeat and count their own.
  Fastest warm(n);
  for (std::size_t i = 0; i < n; ++i) warm.add(i, merged.warm[i].min());
  const auto requests = [&](const ClientLog& log) {
    Samples samples = log.cold;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < log.warm[i].size(); ++k) {
        samples.add(merged.warm[i].min());
      }
    }
    return samples;
  };
  Samples::Tail tail;
  tail.ms = std::numeric_limits<double>::infinity();
  for (const ClientLog& slice : slices) {
    const Samples::Tail t = requests(slice).tail();
    if (t.ms < tail.ms) tail = t;
  }
  report.set("setup_s", setup_s);
  report.set("ops_per_s", best.ops_per_s);
  report.set("op_ms_p50", requests(merged).p50());
  report.set("op_ms_tail", tail.ms);
  report.set("cold_ms_p50", best.cold_p50);
  report.set("warm_ms_p50", warm.samples().p50());
  report.set("interp.serial_ms_p50", serial.samples().p50());
  char note[160];
  std::snprintf(note, sizeof note,
                "service: ops_per_s, op_ms_tail and cold_ms_p50 best of %d "
                "slices; op_ms_tail is p%.2f of %zu requests in its slice",
                kSlices, tail.percentile, tail.samples);
  report.note(note);

  if (args.trace) {
    Tracing tracing;
    Samples traced;
    BestSlice traced_best;
    const telemetry::CounterSet units_before = s.server->unit_cache().counters();
    const telemetry::CounterSet responses_before = s.server->counters();
    const std::size_t latencies_before = s.server->latency_samples_us().size();
    for (int slice = 0; slice < kSlices; ++slice) {
      const ClientLog log =
          run_clients(seconds / kSlices, &tracing, traced_best);
      traced.append(log.all);
      merged.cold_requests.insert(merged.cold_requests.end(),
                                  log.cold_requests.begin(),
                                  log.cold_requests.end());
    }
    const std::size_t traced_requests = traced.size();
    const auto delta = [](const telemetry::CounterSet& after,
                          const telemetry::CounterSet& before,
                          std::string_view name) {
      return static_cast<double>(after.value(name) - before.value(name));
    };
    const telemetry::CounterSet units_after = s.server->unit_cache().counters();
    const telemetry::CounterSet responses_after = s.server->counters();
    const double unit_hits =
        delta(units_after, units_before, "service.cache_hits");
    const double unit_misses =
        delta(units_after, units_before, "service.cache_misses");
    const double requests =
        delta(responses_after, responses_before, "service.requests");
    report.set("service.unit_hit_ratio",
               unit_hits + unit_misses == 0
                   ? 0.0
                   : unit_hits / (unit_hits + unit_misses));
    report.set("service.response_hit_ratio",
               delta(responses_after, responses_before, "service.request_hits") /
                   requests);
    report.set("service.units_compiled",
               delta(responses_after, responses_before,
                     "service.units_compiled") /
                   static_cast<double>(traced_requests));
    const std::vector<std::uint64_t> latencies = s.server->latency_samples_us();
    double server_ms = 0;
    for (std::size_t i = latencies_before; i < latencies.size(); ++i) {
      server_ms += static_cast<double>(latencies[i]) / 1000.0;
    }
    server_ms /= static_cast<double>(latencies.size() - latencies_before);
    const double rtt_ms = traced.sum() / static_cast<double>(traced_requests);
    report.set("service.rtt_ms", rtt_ms);
    report.set("service.server_ms", server_ms);
    report.set("service.queue_ms", rtt_ms - server_ms);
    report.set("trace.overhead",
               1.0 - traced_best.ops_per_s / report.get("ops_per_s"));
    report.set_accounting(analyze_spans(tracing.tracer));
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "cold share 1/%u of requests; unit-tier hit ratio %.4f; "
                  "response-tier hit ratio %.4f",
                  kColdEvery, report.get("service.unit_hit_ratio"),
                  report.get("service.response_hit_ratio"));
    report.note(buf);
    report.note("hli encoding: hlib (production preset)");
  }

  // Check phase: every cold reply against a direct compile_source (four
  // threads; traced with --trace 1, giving the pipeline's layer times per
  // cold request), then the in-tree references simulated and run.
  // The replay collects spans and counters as an ambient sink: the
  // compile options stay those of the service, so renderings still match.
  Tracing replay;
  parallel(merged.cold_requests.size(), 4, args.trace ? &replay : nullptr,
           [&](std::size_t k) {
    const ColdRequest& request = merged.cold_requests[k];
    const Program& p = s.cold[request.index];
    const driver::CompiledProgram direct =
        driver::compile_source(p.source, options_for(p.language));
    checker.record(render_hash(direct) == request.reply,
                   "service cold reply for " + p.name);
  });
  std::vector<std::array<std::uint64_t, 2>> cycles(n);
  std::vector<Expected> semantic(n);
  parallel(2 * n, 4, nullptr, [&](std::size_t k) {
    const std::size_t i = k / 2;
    const bool r4600 = k % 2 == 0;
    if (r4600) {
      semantic[i] = reference_run(s.programs[i].source, s.programs[i].language);
    }
    cycles[i][r4600 ? 0 : 1] =
        driver::simulate(s.references[i],
                         r4600 ? machine::r4600() : machine::r10000())
            .cycles;
  });
  double dynamic_insns = 0;
  double insns = 0;
  double hli_bytes = 0;
  double cycles_r4600 = 0;
  double cycles_r10000 = 0;
  for (std::size_t k = 0; k < serial_runs.size(); ++k) {
    const std::size_t i = k % n;
    const backend::RunResult& run = serial_runs[k];
    checker.record(run.ok && run.output_hash == semantic[i].output_hash &&
                       run.return_value == semantic[i].return_value,
                   "service: serial run of " + s.programs[i].name);
    if (k >= n) continue;
    dynamic_insns += static_cast<double>(run.dynamic_insns);
    insns += static_cast<double>(code_insns(s.references[i]));
    hli_bytes += static_cast<double>(s.channel_bytes[i]);
    cycles_r4600 += static_cast<double>(cycles[i][0]);
    cycles_r10000 += static_cast<double>(cycles[i][1]);
  }
  report.set("cycles_r4600", cycles_r4600);
  report.set("cycles_r10000", cycles_r10000);
  report.set("dynamic_insns", dynamic_insns);
  report.set("code_insns", insns);
  report.set("hli_bytes", hli_bytes);

  if (args.trace) {
    const double cold_compiles =
        static_cast<double>(merged.cold_requests.size());
    report.set_pipeline_layers(analyze_spans(replay.tracer), replay.counters(),
                               cold_compiles);
    // Units the shared stores decoded, over the whole run: decode-once
    // bounds it by the in-tree unit count however many requests came.
    double decoded = 0;
    for (const std::string& path : s.store_paths) {
      decoded += static_cast<double>(s.server->store_units_decoded(path));
    }
    report.set("store.units_decoded", decoded);
    // The codec legs of one warm request and its reply.
    const Program& p = s.programs[0];
    const std::string reply_rtl = service::render_rtl(s.references[0]);
    const std::string reply_stats =
        service::render_program_stats(s.references[0]);
    constexpr int kRepeats = 200;
    const Clock::time_point wire_start = Clock::now();
    for (int k = 0; k < kRepeats; ++k) {
      const std::string options_text =
          service::encode_options(options_for(p.language));
      std::string request;
      service::append_u64_field(request, service::Field::RequestId, 1);
      service::append_field(request, service::Field::Options, options_text);
      service::append_field(request, service::Field::Source, p.source);
      service::append_field(request, service::Field::StorePath, s.store_paths[0]);
      const std::string frame =
          service::encode_frame(service::FrameType::Request, request);
      const std::vector<service::Tlv> fields = service::parse_fields(request);
      (void)service::decode_options(
          service::find_field(fields, service::Field::Options)->value);
      std::string response;
      service::append_u64_field(response, service::Field::RequestId, 1);
      service::append_field(response, service::Field::RtlDump, reply_rtl);
      service::append_field(response, service::Field::StatsText, reply_stats);
      const std::string reply_frame =
          service::encode_frame(service::FrameType::Response, response);
      (void)service::parse_fields(response);
      if (frame.empty() || reply_frame.empty()) std::abort();
    }
    report.set("service.wire_ms", ms_since(wire_start) / kRepeats);
  }
  state->stop();
}

}  // namespace perfbench
