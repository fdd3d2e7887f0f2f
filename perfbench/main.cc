// crnkit benchmark program. One process runs one workload for --seconds,
// checks every operation's answer, and prints one JSON result line:
//
//   perfbench --workload proof|serve_hot|serve_cold|ensemble --seed N
//             --seconds S --trace 0|1 --reference FILE [--out-dir DIR]
//             [--source-digest HEX] [--inject-wrong-expected] [--setup-only]
//   perfbench --dump-inputs N --seed N     (print the generated inputs)
//
// --trace 0 measures the end-to-end metrics (setup_s, req_p50_ms,
// req_per_s, peak_rss_mb) over requests: a proof round, a
// served line, or an ensemble call pair. --trace 1 repeats the untraced pass,
// then a traced pass with benchmark spans around every public call plus
// the program's own obs::Tracer spans, and prints the per-layer metrics;
// the spans go to a Chrome trace and a self-time table under --out-dir.
// The system is driven only through public functions: svc::Service and
// svc::Server for the timed operations, module functions for the layers.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "compile/circuit_expr.h"
#include "crn/passes.h"
#include "inputs.h"
#include "lint/analyzer.h"
#include "obs/trace.h"
#include "scenario/circuits.h"
#include "scenario/registry.h"
#include "sim/compiled_network.h"
#include "support.h"
#include "svc/serialize.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/workload.h"
#include "util/json_value.h"
#include "util/task_pool.h"
#include "util/version.h"
#include "verify/reachability.h"
#include "verify/stable.h"

namespace perfbench {
namespace {

using crnkit::util::JsonValue;
namespace svc = crnkit::svc;
namespace scenario = crnkit::scenario;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_path = "perfbench/reference.json";
  std::string out_dir = ".bench_build/perfbench-traces";
  std::string source_digest = "unknown";
  bool inject_wrong_expected = false;
  bool setup_only = false;
  long dump_inputs = -1;
};

int nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Counts attempted and failed operations; keeps the first messages.
class Checker {
 public:
  void pass() { attempted_.fetch_add(1); }
  void fail(const std::string& what) {
    attempted_.fetch_add(1);
    if (failed_.fetch_add(1) < 8) {
      std::lock_guard<std::mutex> lock(mu_);
      std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
    }
  }
  void check(bool ok, const std::string& what) { ok ? pass() : fail(what); }
  [[nodiscard]] std::size_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::size_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::size_t> attempted_{0};
  std::atomic<std::size_t> failed_{0};
  std::mutex mu_;
};

/// What one timed pass measured.
struct Pass {
  std::vector<double> latencies;  ///< seconds per request
  double wall = 0.0;
  std::vector<double> proof_1t, proof_mt;  ///< per round (proof)
  std::uint64_t events = 0;  ///< ensemble
  double peak_rss_mb = 0.0;  ///< at the end of the timed loop
  crnkit::util::TaskPool::Counters pool;       ///< delta over the pass
  svc::ProofCache::Stats cache;                ///< delta over the pass
  svc::Server::Stats server;                   ///< delta over the pass
};

/// Raw per-layer inputs; every workload fills what it exercises and the
/// rest stays zero, so each declared metric prints on every workload.
struct Layers {
  std::vector<double> explore, scc, post_scc, teardown;
  double explored_configs = 0.0;  ///< configs over the explore spans
  std::uint64_t configs = 0, edges = 0, levels = 0, frontier_peak = 0,
                arena_bytes = 0;
  std::vector<double> dispatch, transport, execute_verify, execute_show,
      execute_analyze, execute_compose, serialize, cache_lookup;
  std::vector<double> json_parse, resolve, canonical_hash, optimize, analyze;
  std::vector<double> sim_compile, ensemble_run;
  /// Over the first ensemble request (calls 0 and 1): exact for a seed.
  std::uint64_t sim_events = 0, sim_trajectories = 0;
};

crnkit::util::TaskPool::Counters pool_delta(
    const crnkit::util::TaskPool::Counters& a,
    const crnkit::util::TaskPool::Counters& b) {
  return {b.jobs - a.jobs, b.tasks - a.tasks, b.steals - a.steals,
          b.parks - a.parks};
}

svc::ProofCache::Stats cache_delta(const svc::ProofCache::Stats& a,
                                   const svc::ProofCache::Stats& b) {
  svc::ProofCache::Stats d = b;
  d.hits -= a.hits;
  d.misses -= a.misses;
  d.insertions -= a.insertions;
  d.evictions -= a.evictions;
  d.coalesced -= a.coalesced;
  return d;
}

// ------------------------------------------------------ answer digests --

/// The status, verdict and count fields of one response, as one string:
/// equal digests mean the same answer (timing fields are left out).
std::string digest(const std::string& op, const std::string& response) {
  JsonValue v;
  try {
    v = JsonValue::parse(response);
  } catch (const std::exception& e) {
    return std::string("unparsable: ") + e.what();
  }
  if (v.has("error")) return "error: " + v.get_string("error", "?");
  std::ostringstream d;
  if (op == "verify") {
    d << v.get_string("scenario", "") << '|' << v.get_bool("skipped", false)
      << '|' << v.get_bool("ok", false) << '|' << v.get_int("proved", -1)
      << '|' << v.get_int("failed", -1) << '|'
      << v.get_int("inconclusive", -1);
    if (const JsonValue* points = v.find("points")) {
      for (const JsonValue& p : points->items()) {
        d << "|" << p.get_string("x", "") << ':' << p.get_int("expected", -1)
          << ':' << p.get_bool("ok", false) << ':'
          << p.get_bool("complete", false) << ':' << p.get_int("configs", -1)
          << ':' << p.get_string("status", "");
      }
    }
  } else if (op == "show") {
    d << v.get_string("name", "") << '|' << v.get_int("species", -1) << '|'
      << v.get_int("reactions", -1) << '|' << v.get_int("arity", -1) << '|'
      << v.get_bool("leader", false) << '|'
      << (v.has("verify_points") ? v.get("verify_points").size() : 0);
  } else if (op == "analyze") {
    d << v.get_bool("ok", false) << '|' << v.get_int("errors", -1) << '|'
      << v.get_int("warnings", -1);
    if (const JsonValue* reports = v.find("reports")) {
      for (const JsonValue& r : reports->items()) {
        d << '|' << r.get_string("scenario", "") << ':'
          << r.get_int("species", -1) << ':' << r.get_int("reactions", -1)
          << ':'
          << (r.has("conservation_laws") ? r.get("conservation_laws").size()
                                         : 0)
          << ':' << (r.has("diagnostics") ? r.get("diagnostics").size() : 0);
      }
    }
  } else if (op == "compose") {
    d << v.get_string("name", "") << '|' << v.get_bool("certified", false)
      << '|' << v.get_bool("ok", false) << '|' << v.get_int("species", -1)
      << '|' << v.get_int("reactions", -1);
    if (const JsonValue* ver = v.find("verify")) {
      d << '|' << ver->get_int("points", -1) << ':'
        << ver->get_int("proved", -1) << ':' << ver->get_int("failed", -1)
        << ':' << ver->get_int("inconclusive", -1);
    }
  }
  return d.str();
}

/// Checks a verify response against the scenario's reference function:
/// every point proved, complete, and expecting f(x) as the benchmark
/// evaluates it. With `allow_truncated`, a point may instead be
/// inconclusive with exactly `max_configs` explored: the request's budget
/// ran out, which is a truncated answer, not a wrong one. Returns "" when
/// correct, else the first discrepancy.
std::string verdict_error(const svc::VerifyResponse& resp,
                          const scenario::Scenario& s,
                          bool allow_truncated = false) {
  if (resp.skipped) return s.name + ": skipped";
  if (!s.reference) return s.name + ": no reference function";
  if (resp.points.size() != s.verify_points.size()) {
    return s.name + ": point count mismatch";
  }
  for (std::size_t i = 0; i < s.verify_points.size(); ++i) {
    const svc::VerifyPointReport& p = resp.points[i];
    const crnkit::fn::Point& x = s.verify_points[i];
    const bool proved = p.status == "proved" && p.ok && p.complete;
    const bool truncated = allow_truncated && p.status == "inconclusive" &&
                           !p.complete && p.configs == resp.max_configs;
    if (p.x != scenario::point_to_string(x) ||
        p.expected != (*s.reference)(x) || !(proved || truncated)) {
      return s.name + " at x=" + p.x + ": " + p.status;
    }
  }
  return "";
}

/// How many grid points of `req` (a `compose --verify` of a circuit/random
/// target) an honest answer reports inconclusive: the points whose
/// exploration of the optimized network stops at exactly req.max_configs.
/// Explores directly, without the service.
int budget_truncated_points(const svc::ComposeRequest& req, int arity) {
  const auto params = scenario::parse_random_circuit_name(req.target);
  if (!params) throw std::invalid_argument("not a random circuit");
  const crnkit::crn::Crn network =
      crnkit::crn::optimize(
          crnkit::compile::lower_circuit_expr(
              crnkit::compile::random_circuit_expr(params->modules,
                                                   params->seed),
              req.target)
              .crn)
          .crn;
  crnkit::verify::ExploreOptions opts;
  opts.max_configs = req.max_configs;
  int truncated = 0;
  for (const crnkit::fn::Point& x : scenario::grid_points(arity, req.grid)) {
    const crnkit::verify::ReachabilityGraph graph = crnkit::verify::explore(
        network, network.initial_configuration(x), opts);
    if (!graph.complete && graph.size() == req.max_configs) ++truncated;
  }
  return truncated;
}

// ----------------------------------------------------------- workloads --

class Workload {
 public:
  explicit Workload(const Options& options)
      : options_(options), nproc_(nproc()) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// Builds the state the timed passes run against. Called once per
  /// process: registry build, pool spin-up and other one-time work land
  /// in it.
  virtual void setup() = 0;
  /// The timed loop. Answers that are cheap to check are checked inline;
  /// the rest wait for check_after(), which runs untimed and untraced.
  virtual Pass run(double seconds) = 0;
  virtual void check_after() {}
  /// After a traced pass: derives the per-layer inputs.
  virtual void layers(Layers& out) = 0;
  Checker& checker() { return checker_; }

 protected:
  Options options_;
  int nproc_;
  Checker checker_;
};

/// post-SCC time per stable check: the verify.stable_check span minus the
/// verify.explore and verify.scc spans it contains on its thread.
std::vector<double> post_scc_samples(const std::vector<SpanRecord>& spans) {
  std::map<std::int64_t, std::vector<const SpanRecord*>> by_tid;
  for (const SpanRecord& s : spans) {
    if (s.program) by_tid[s.tid].push_back(&s);
  }
  std::vector<double> out;
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                return a->start_ns < b->start_ns;
              });
    for (std::size_t i = 0; i < list.size(); ++i) {
      const SpanRecord& check = *list[i];
      if (check.name != "verify.stable_check") continue;
      double inner = 0.0;
      for (std::size_t j = i + 1;
           j < list.size() && list[j]->start_ns < check.end_ns; ++j) {
        const SpanRecord& s = *list[j];
        if (s.end_ns <= check.end_ns &&
            (s.name == "verify.explore" || s.name == "verify.scc")) {
          inner += s.seconds();
        }
      }
      out.push_back(check.seconds() - inner);
    }
  }
  return out;
}

/// The per-exploration timings of the program's own verify spans.
void program_verify_spans(Layers& out) {
  const Tracing& tracing = Tracing::get();
  out.explore = tracing.durations("verify.explore");
  out.scc = tracing.durations("verify.scc");
  out.post_scc = post_scc_samples(tracing.spans());
  out.explored_configs = tracing.arg_sum("verify.explore", "configs");
}

/// The exploration budget Service::verify uses for `s` when the request
/// names `requested` (0 = none): the request's, else the scenario's hint,
/// else the checker default.
std::size_t verify_budget(const scenario::Scenario& s, std::size_t requested) {
  if (requested > 0) return requested;
  return s.verify_max_configs > 0
             ? s.verify_max_configs
             : crnkit::verify::StableCheckOptions{}.max_configs;
}

/// Explores every point of `s` directly (verify::explore at one thread),
/// adds the graph counts, and times each graph's destructor.
void explore_and_teardown(const scenario::Scenario& s, std::size_t budget,
                          Layers& out) {
  for (const crnkit::fn::Point& x : s.verify_points) {
    crnkit::verify::ExploreOptions opts;
    opts.max_configs = budget;
    std::optional<crnkit::verify::ReachabilityGraph> graph;
    graph.emplace(
        crnkit::verify::explore(s.crn, s.crn.initial_configuration(x), opts));
    out.configs += graph->size();
    out.edges += graph->edge_count();
    out.levels += graph->stats.levels;
    out.frontier_peak = std::max<std::uint64_t>(out.frontier_peak,
                                                graph->stats.frontier_peak);
    out.arena_bytes =
        std::max<std::uint64_t>(out.arena_bytes, graph->stats.arena_bytes);
    const auto start = Clock::now();
    {
      Span span("verify.teardown");
      graph.reset();
    }
    out.teardown.push_back(seconds_since(start));
  }
}

// ---------------------------------------------------------------- proof --

class ProofWorkload : public Workload {
 public:
  explicit ProofWorkload(const Options& options) : Workload(options) {
    const JsonValue ref = [&] {
      std::ifstream in(options.reference_path);
      if (!in) {
        throw std::runtime_error("cannot read " + options.reference_path);
      }
      std::stringstream text;
      text << in.rdbuf();
      return JsonValue::parse(text.str());
    }();
    for (const auto& [target, points] : ref.get("proof").members()) {
      for (const JsonValue& p : points.items()) {
        expected_[target].push_back(
            {p.get("x").as_string(),
             static_cast<std::size_t>(p.get("configs").as_int()),
             static_cast<std::size_t>(p.get("edges").as_int())});
      }
    }
    if (options.inject_wrong_expected) {
      ++expected_.at("chain/compose-24").back().configs;
    }
  }

  void setup() override {
    for (const char* target : {"chain/compose-24", "thm52/fig7"}) {
      scenarios_.emplace(target, scenario::Registry::builtin().build(target));
    }
    service_ = std::make_unique<svc::Service>();
    crnkit::util::TaskPool::instance().ensure_workers(nproc_);
  }

  Pass run(double seconds) override {
    Pass pass;
    const auto pool0 = crnkit::util::TaskPool::instance().counters();
    const auto start = Clock::now();
    do {
      // One request is one round: the whole proof set, each scenario at 1
      // and at nproc threads, in a seed-permuted order.
      double t1 = 0.0, tm = 0.0;
      for (const ProofCall& call :
           proof_round(options_.seed, rounds_, nproc_)) {
        svc::VerifyRequest req;
        req.target = call.target;
        req.threads = call.threads;
        req.use_cache = false;
        const auto t0 = Clock::now();
        svc::VerifyResponse resp;
        {
          Span span("svc.execute_verify", rounds_ + 1);
          resp = service_->verify(req);
        }
        (call.threads == 1 ? t1 : tm) += seconds_since(t0);
        check(call.target, resp);
      }
      pass.latencies.push_back(t1 + tm);
      pass.proof_1t.push_back(t1);
      pass.proof_mt.push_back(tm);
      ++rounds_;
    } while (seconds_since(start) < seconds);
    pass.wall = seconds_since(start);
    pass.peak_rss_mb = peak_rss_mb();
    pass.pool =
        pool_delta(pool0, crnkit::util::TaskPool::instance().counters());
    return pass;
  }

  void layers(Layers& out) override {
    program_verify_spans(out);
    out.execute_verify = Tracing::get().durations("svc.execute_verify");
    for (const auto& [name, s] : scenarios_) {
      explore_and_teardown(s, verify_budget(s, 0), out);
    }
  }

 private:
  struct PointCounts {
    std::string x;
    std::size_t configs = 0;
    std::size_t edges = 0;
  };

  void check(const std::string& target, const svc::VerifyResponse& resp) {
    const scenario::Scenario& s = scenarios_.at(target);
    std::string error = verdict_error(resp, s);
    const std::vector<PointCounts>& want = expected_.at(target);
    if (error.empty() && want.size() != resp.points.size()) {
      error = target + ": reference lists another point count";
    }
    for (std::size_t i = 0; error.empty() && i < want.size(); ++i) {
      const svc::VerifyPointReport& p = resp.points[i];
      if (p.x != want[i].x || p.configs != want[i].configs ||
          p.edges != want[i].edges) {
        error = target + " at x=" + p.x + ": " + std::to_string(p.configs) +
                " configs / " + std::to_string(p.edges) +
                " edges, reference " + std::to_string(want[i].configs) +
                " / " + std::to_string(want[i].edges);
      }
    }
    checker_.check(error.empty(), error);
  }

  std::map<std::string, std::vector<PointCounts>> expected_;
  std::map<std::string, scenario::Scenario> scenarios_;
  std::unique_ptr<svc::Service> service_;
  std::uint64_t rounds_ = 0;
};

// ---------------------------------------------------------------- serve --

/// serve_hot and serve_cold: a closed loop of `clients_` line-JSON
/// connections (2 on a 4-core host, so client and handler threads fit in
/// nproc) to an in-process svc::Server on loopback.
class ServeWorkload : public Workload {
  struct Sent {
    std::uint64_t index;
    double latency;
    /// serve_cold: the response's digest, checked after the pass. Only the
    /// digest is kept, so the benchmark's own memory (and peak_rss_mb)
    /// does not grow with the request count.
    std::string digest;
  };

 public:
  ServeWorkload(const Options& options, bool hot)
      : Workload(options),
        hot_(hot),
        clients_(std::max(1, std::min(2, nproc_ / 2))) {}

  void setup() override {
    svc::Service::Options opts;
    // serve_cold keeps the cache small so inserts evict.
    if (!hot_) opts.cache.max_bytes = 256u << 10;
    cache_options_ = opts;
    service_ = std::make_unique<svc::Service>(opts);
    server_ = std::make_unique<svc::Server>(*service_);
    server_->start();
    for (int c = 0; c < clients_; ++c) {
      conns_.push_back(
          std::make_unique<LineClient>("127.0.0.1", server_->port()));
      conns_.back()->roundtrip("{\"op\": \"ping\"}");
    }
    if (hot_) {
      warm();
    } else {
      // Lazy start-up (handler threads, the circuit family, allocator and
      // huge-page state) is set-up, not request latency: serve a few cold
      // circuits before timing. They come from one fixed stream, so
      // set-up does the same work whatever the seed (drawn from the run's
      // seed, set-up took 0.05-0.18 s across seeds on a 4-core VM).
      constexpr std::uint64_t kWarmupSeed = 0x5e7795eedULL;
      for (std::uint64_t i = 0; i < 32; ++i) {
        (void)conns_[i % conns_.size()]->roundtrip(cold_line(kWarmupSeed, i));
      }
    }
  }

  ~ServeWorkload() override { stop(); }

  Pass run(double seconds) override {
    Pass pass;
    const auto pool0 = crnkit::util::TaskPool::instance().counters();
    const auto cache0 = service_->proof_cache().stats();
    const auto server0 = server_->stats();
    std::vector<std::vector<Sent>> sent(static_cast<std::size_t>(clients_));
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients_; ++c) {
      threads.emplace_back([&, c] {
        LineClient& conn = *conns_[static_cast<std::size_t>(c)];
        std::unordered_map<std::string, std::string> verified;
        while (seconds_since(start) < seconds) {
          const std::uint64_t i = next_index_.fetch_add(1);
          const std::string line = make_line(i);
          const auto t0 = Clock::now();
          std::string response;
          try {
            Span span("client.request", i + 1);
            response = conn.roundtrip(line);
          } catch (const std::exception& e) {
            // A broken connection ends this client; the request counts as
            // failed and the run as incorrect.
            checker_.fail(line + ": " + e.what());
            return;
          }
          const double lat = seconds_since(t0);
          std::string kept;
          if (hot_) {
            check_hot(line, response, verified);
          } else {
            kept = digest(op_of(line), response);
          }
          sent[static_cast<std::size_t>(c)].push_back(
              {i, lat, std::move(kept)});
        }
      });
    }
    for (std::thread& t : threads) t.join();
    pass.wall = seconds_since(start);
    pass.peak_rss_mb = peak_rss_mb();
    pass.pool =
        pool_delta(pool0, crnkit::util::TaskPool::instance().counters());
    pass.cache = cache_delta(cache0, service_->proof_cache().stats());
    const auto server1 = server_->stats();
    pass.server = {server1.connections - server0.connections,
                   server1.requests - server0.requests,
                   server1.errors - server0.errors,
                   server1.shed - server0.shed};

    last_pass_.clear();
    for (auto& v : sent) {
      for (Sent& s : v) last_pass_.push_back(std::move(s));
    }
    std::sort(last_pass_.begin(), last_pass_.end(),
              [](const Sent& a, const Sent& b) { return a.index < b.index; });
    for (const Sent& s : last_pass_) pass.latencies.push_back(s.latency);
    return pass;
  }

  void check_after() override {
    if (!hot_) check_cold();
  }

  void layers(Layers& out) override {
    program_verify_spans(out);
    // Replays the first kReplayLines lines of the traced pass in process,
    // timing dispatch_line and then each public call the dispatch makes,
    // on services in the same state as the server's: the warm service
    // itself for serve_hot (hits leave it unchanged), fresh ones with the
    // same options for serve_cold (every line is new to them too).
    std::unique_ptr<svc::Service> cold_dispatch, cold_typed;
    if (!hot_) {
      cold_dispatch = std::make_unique<svc::Service>(cache_options_);
      cold_typed = std::make_unique<svc::Service>(cache_options_);
    }
    svc::Service& dispatch_service = hot_ ? *service_ : *cold_dispatch;
    svc::Service& typed = hot_ ? *service_ : *cold_typed;
    for (std::size_t k = 0; k < last_pass_.size() && k < kReplayLines; ++k) {
      const Sent& sent = last_pass_[k];
      const std::string line = make_line(sent.index);
      Span request("svc.request", sent.index + 1);
      {
        const auto t0 = Clock::now();
        {
          Span span("svc.dispatch");
          (void)svc::Server::dispatch_line(dispatch_service, line);
        }
        const double d = seconds_since(t0);
        out.dispatch.push_back(d);
        out.transport.push_back(std::max(0.0, sent.latency - d));
      }
      decompose(line, typed, out);
    }
    if (!hot_) {
      // Graph counts and teardown over a fixed set of lines, the first
      // kReplayLines of every run of this seed, so the counts repeat
      // exactly whatever the host speed.
      for (std::uint64_t i = 0; i < kReplayLines; ++i) {
        const JsonValue v = JsonValue::parse(make_line(i));
        if (v.get("op").as_string() != "verify") continue;
        const svc::Workload w =
            svc::load_workload(v.get("target").as_string());
        const auto requested =
            static_cast<std::size_t>(v.get_int("max_configs", 0));
        explore_and_teardown(w.scenario, verify_budget(w.scenario, requested),
                             out);
      }
    }
  }

 private:
  std::string make_line(std::uint64_t i) const {
    return hot_ ? hot_line(options_.seed, i, scenarios_)
                : cold_line(options_.seed, i);
  }

  void stop() {
    conns_.clear();
    if (server_) server_->stop();
    server_.reset();
    service_.reset();
  }

  static std::string op_of(const std::string& line) {
    return JsonValue::parse(line).get("op").as_string();
  }

  /// The typed Service call for `line`, serialized as the server would.
  /// Sets *error when the answer fails its independent check. A verify
  /// runs at `verify_threads` when given: neither the verdict nor the
  /// cache key depends on the thread count.
  std::string typed_call(svc::Service& service, const std::string& line,
                         std::string* error, int verify_threads = 0) const {
    // serve_cold lines carry a max_configs budget (see cold_line()).
    const bool truncated_ok = !hot_;
    const JsonValue v = JsonValue::parse(line);
    const std::string op = v.get("op").as_string();
    if (op == "verify") {
      svc::VerifyRequest req = svc::parse_verify_request(v);
      if (verify_threads > 0) req.threads = verify_threads;
      const svc::VerifyResponse resp = service.verify(req);
      *error = verdict_error(
          resp, scenario::Registry::builtin().build(req.target), truncated_ok);
      return svc::to_json(resp);
    }
    if (op == "show") {
      const svc::ShowResponse resp =
          service.show(svc::parse_show_request(v));
      if (resp.summary.name != v.get("target").as_string()) {
        *error = "show answered for another scenario";
      }
      return svc::to_json(resp);
    }
    if (op == "analyze") {
      const svc::AnalyzeResponse resp =
          service.analyze(svc::parse_analyze_request(v));
      if (!resp.ok) *error = "analyze reported errors";
      return svc::to_json(resp);
    }
    if (op == "compose") {
      const svc::ComposeRequest req = svc::parse_compose_request(v);
      const svc::ComposeResponse resp = service.compose(req);
      if (!resp.compiled || !resp.certified || !resp.verify ||
          resp.verify->failed != 0 ||
          (resp.verify->inconclusive != 0 && !truncated_ok) ||
          resp.verify->proved + resp.verify->inconclusive !=
              static_cast<int>(resp.verify->points)) {
        *error = "compose not certified and proved";
      } else if (resp.verify->inconclusive != 0) {
        // Inconclusive is correct only where the budget ran out.
        const int truncated = budget_truncated_points(req, resp.arity);
        if (truncated != resp.verify->inconclusive) {
          *error = "compose: " +
                   std::to_string(resp.verify->inconclusive) +
                   " inconclusive points, " + std::to_string(truncated) +
                   " explorations reach the budget";
        }
      }
      return svc::to_json(resp);
    }
    throw std::invalid_argument("unknown op " + op);
  }

  /// The untimed warm pass of serve_hot: one typed call per distinct line
  /// on the server's own service, which fills its proof cache, and gives
  /// the reference answer every served response is compared with.
  void warm() {
    scenarios_ = hot_scenarios();
    reference_.clear();
    for (const std::string& line : hot_distinct_lines(scenarios_)) {
      std::string error;
      const std::string ref = typed_call(*service_, line, &error, nproc_);
      reference_[line] = error.empty() ? digest(op_of(line), ref)
                                       : "reference check failed: " + error;
    }
    if (options_.inject_wrong_expected) {
      reference_.at(hot_distinct_lines(scenarios_).front()) += "|injected";
    }
  }

  void check_hot(const std::string& line, const std::string& response,
                 std::unordered_map<std::string, std::string>& verified) {
    const auto it = verified.find(line);
    if (it != verified.end() && it->second == response) {
      checker_.pass();  // byte-equal to an already verified answer
      return;
    }
    const std::string got = digest(op_of(line), response);
    const std::string& want = reference_.at(line);
    if (got == want) {
      verified[line] = response;
      checker_.pass();
    } else {
      checker_.fail(line + ": got " + got.substr(0, 160) + " want " +
                    want.substr(0, 160));
    }
  }

  /// serve_cold's check, after the timed pass: each served answer against
  /// a direct typed call on a fresh service, on nproc threads.
  void check_cold() {
    const std::vector<Sent>& all = last_pass_;
    svc::Service reference(cache_options_);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < nproc_; ++t) {
      threads.emplace_back([&] {
        for (std::size_t k = next.fetch_add(1); k < all.size();
             k = next.fetch_add(1)) {
          const std::string line = make_line(all[k].index);
          std::string error;
          std::string want;
          try {
            want = digest(op_of(line), typed_call(reference, line, &error));
          } catch (const std::exception& e) {
            error = e.what();
          }
          if (options_.inject_wrong_expected && all[k].index == all[0].index) {
            want += "|injected";
          }
          const std::string& got = all[k].digest;
          if (!error.empty()) {
            checker_.fail(line + ": " + error);
          } else if (got != want) {
            checker_.fail(line + ": got " + got.substr(0, 160) + " want " +
                          want.substr(0, 160));
          } else {
            checker_.pass();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  /// Times the public calls one dispatch of `line` makes, each in its own
  /// span, on `service`.
  void decompose(const std::string& line, svc::Service& service,
                 Layers& out) {
    const auto timed = [](const char* name, std::vector<double>& samples,
                          const std::function<void()>& fn) {
      const auto t0 = Clock::now();
      {
        Span span(name);
        fn();
      }
      samples.push_back(seconds_since(t0));
    };
    JsonValue v;
    timed("util.json_parse", out.json_parse,
          [&] { v = JsonValue::parse(line); });
    const std::string op = v.get("op").as_string();
    const std::string target = v.get("target").as_string();
    svc::Workload w;
    timed("scenario.resolve", out.resolve,
          [&] { w = svc::load_workload(target); });
    std::uint64_t hash = 0;
    timed("crn.canonical_hash", out.canonical_hash,
          [&] { hash = crnkit::crn::canonical_hash(w.scenario.crn); });
    if (const auto p = scenario::parse_random_circuit_name(target)) {
      const crnkit::compile::LoweredCircuit lowered =
          crnkit::compile::lower_circuit_expr(
              crnkit::compile::random_circuit_expr(p->modules, p->seed),
              target);
      timed("crn.optimize", out.optimize,
            [&] { (void)crnkit::crn::optimize(lowered.crn); });
    }
    if (op == "analyze" || op == "compose") {
      timed("lint.analyze", out.analyze,
            [&] { (void)crnkit::lint::analyze(w.scenario.crn); });
    }
    // The typed call, then its serialization, as dispatch_line runs them.
    const auto execute = [&](const char* name, std::vector<double>& samples,
                             auto call) {
      decltype(call()) resp;
      timed(name, samples, [&] { resp = call(); });
      timed("svc.serialize", out.serialize,
            [&] { (void)svc::to_json(resp); });
    };
    if (op == "verify") {
      const std::size_t budget = verify_budget(
          w.scenario, static_cast<std::size_t>(v.get_int("max_configs", 0)));
      timed("svc.cache_lookup", out.cache_lookup, [&] {
        for (const crnkit::fn::Point& x : w.scenario.verify_points) {
          (void)service.proof_cache().lookup(
              svc::ProofKey{hash, x, (*w.scenario.reference)(x)}, budget);
        }
      });
      execute("svc.execute_verify", out.execute_verify,
              [&] { return service.verify(svc::parse_verify_request(v)); });
    } else if (op == "show") {
      execute("svc.execute_show", out.execute_show,
              [&] { return service.show(svc::parse_show_request(v)); });
    } else if (op == "analyze") {
      execute("svc.execute_analyze", out.execute_analyze,
              [&] { return service.analyze(svc::parse_analyze_request(v)); });
    } else if (op == "compose") {
      execute("svc.execute_compose", out.execute_compose,
              [&] { return service.compose(svc::parse_compose_request(v)); });
    }
  }

  /// Lines the traced run replays in process.
  static constexpr std::size_t kReplayLines = 400;

  bool hot_;
  int clients_;  ///< connections, one client thread each
  svc::Service::Options cache_options_;
  std::unique_ptr<svc::Service> service_;
  std::unique_ptr<svc::Server> server_;
  std::vector<std::unique_ptr<LineClient>> conns_;
  std::vector<std::string> scenarios_;
  std::unordered_map<std::string, std::string> reference_;
  std::atomic<std::uint64_t> next_index_{0};
  std::vector<Sent> last_pass_;  ///< the last pass, in index order
};

// ------------------------------------------------------------- ensemble --

class EnsembleWorkload : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    for (const char* target : {"chain/compose-256", "thm52/fig7"}) {
      scenarios_.emplace(target, scenario::Registry::builtin().build(target));
    }
    service_ = std::make_unique<svc::Service>();
    crnkit::util::TaskPool::instance().ensure_workers(nproc_);
  }

  Pass run(double seconds) override {
    Pass pass;
    const auto pool0 = crnkit::util::TaskPool::instance().counters();
    const auto start = Clock::now();
    while (pass.latencies.empty() || seconds_since(start) < seconds) {
      // One request: a compose-256 ensemble and a fig7 ensemble.
      double latency = 0.0;
      for (int part = 0; part < 2; ++part) {
        const std::uint64_t i = next_index_++;
        const SimCall call = ensemble_call(options_.seed, i);
        const auto t0 = Clock::now();
        svc::SimulateResponse resp;
        {
          Span span("svc.execute_simulate", i / 2 + 1);
          resp = simulate(call);
        }
        latency += seconds_since(t0);
        pass.events += resp.total_events;
        check(call, resp, i);
      }
      pass.latencies.push_back(latency);
    }
    pass.wall = seconds_since(start);
    pass.peak_rss_mb = peak_rss_mb();
    pass.pool =
        pool_delta(pool0, crnkit::util::TaskPool::instance().counters());
    return pass;
  }

  void check_after() override {
    // Same seed, same events: repeat the first call of each kind.
    for (std::uint64_t i = 0; i < 2 && i < next_index_; ++i) {
      const svc::SimulateResponse again =
          simulate(ensemble_call(options_.seed, i));
      const svc::SimulateResponse& first = first_[i];
      checker_.check(again.total_events == first.total_events &&
                         again.output == first.output,
                     "sim.events not reproducible for call " +
                         std::to_string(i));
    }
  }

  void layers(Layers& out) override {
    out.ensemble_run = Tracing::get().durations("sim.ensemble_run");
    for (const svc::SimulateResponse& first : first_) {
      out.sim_events += first.total_events;
      out.sim_trajectories += first.trajectories;
    }
    for (int rep = 0; rep < 10; ++rep) {
      for (const auto& [name, s] : scenarios_) {
        const auto t0 = Clock::now();
        {
          Span span("sim.compile");
          const crnkit::sim::CompiledNetwork compiled(s.crn);
          (void)compiled;
        }
        out.sim_compile.push_back(seconds_since(t0));
      }
    }
  }

 private:
  svc::SimulateResponse simulate(const SimCall& call) const {
    svc::SimulateRequest req;
    req.target = call.target;
    req.method = call.method;
    req.trajectories = call.trajectories;
    req.seed = call.seed;
    req.threads = nproc_;
    return service_->simulate(req);
  }

  void check(const SimCall& call, const svc::SimulateResponse& resp,
             std::uint64_t i) {
    const scenario::Scenario& s = scenarios_.at(call.target);
    crnkit::math::Int want = (*s.reference)(s.sim_input);
    if (options_.inject_wrong_expected && i == 0) ++want;
    if (i < 2) first_[i] = resp;
    checker_.check(
        resp.ok && resp.compared && resp.output_consistent &&
            resp.cancelled == 0 && !resp.deadline_exceeded &&
            resp.trajectories ==
                static_cast<std::size_t>(call.trajectories) &&
            resp.output == want && resp.total_events > 0,
        call.target + " output " + std::to_string(resp.output) + ", want " +
            std::to_string(want));
  }

  std::map<std::string, scenario::Scenario> scenarios_;
  std::unique_ptr<svc::Service> service_;
  std::uint64_t next_index_ = 0;
  svc::SimulateResponse first_[2];  ///< calls 0 and 1
};

// ---------------------------------------------------------------- main --

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "proof") {
    return std::make_unique<ProofWorkload>(options);
  }
  if (options.workload == "serve_hot") {
    return std::make_unique<ServeWorkload>(options, true);
  }
  if (options.workload == "serve_cold") {
    return std::make_unique<ServeWorkload>(options, false);
  }
  if (options.workload == "ensemble") {
    return std::make_unique<EnsembleWorkload>(options);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

void add_per_layer(const Layers& l, const Pass& untraced, Metrics& m) {
  m.add_timing("verify.explore_s", l.explore);
  m.add_timing("verify.scc_s", l.scc);
  m.add_timing("verify.post_scc_s", l.post_scc);
  m.add_timing("verify.teardown_s", l.teardown);
  const double explore_total = sum(l.explore);
  m.add("verify.configs_per_s",
        explore_total > 0 ? l.explored_configs / explore_total : 0.0, "1/s");
  m.add("verify.configs", static_cast<double>(l.configs), "count");
  m.add("verify.edges", static_cast<double>(l.edges), "count");
  m.add("verify.levels", static_cast<double>(l.levels), "count");
  m.add("verify.frontier_peak", static_cast<double>(l.frontier_peak),
        "count");
  m.add("verify.arena_bytes", static_cast<double>(l.arena_bytes), "B");
  m.add("util.pool_tasks", static_cast<double>(untraced.pool.tasks), "count");
  m.add("util.pool_steals", static_cast<double>(untraced.pool.steals),
        "count");
  m.add("util.pool_parks", static_cast<double>(untraced.pool.parks), "count");
  m.add_timing("svc.dispatch_s", l.dispatch);
  m.add_timing("svc.transport_s", l.transport);
  m.add_timing("svc.execute_verify_s", l.execute_verify);
  m.add_timing("svc.execute_show_s", l.execute_show);
  m.add_timing("svc.execute_analyze_s", l.execute_analyze);
  m.add_timing("svc.execute_compose_s", l.execute_compose);
  m.add_timing("svc.serialize_s", l.serialize);
  m.add_timing("svc.cache_lookup_s", l.cache_lookup);
  const auto& c = untraced.cache;
  const double lookups = static_cast<double>(c.hits + c.misses);
  m.add("svc.cache_hit_ratio",
        lookups > 0 ? static_cast<double>(c.hits) / lookups : 0.0, "frac");
  m.add("svc.cache_lookups", lookups, "count");
  m.add("svc.cache_insertions", static_cast<double>(c.insertions), "count");
  m.add("svc.cache_evictions", static_cast<double>(c.evictions), "count");
  m.add("svc.cache_coalesced", static_cast<double>(c.coalesced), "count");
  m.add("svc.server_errors", static_cast<double>(untraced.server.errors),
        "count");
  m.add("svc.server_shed", static_cast<double>(untraced.server.shed),
        "count");
  m.add_timing("util.json_parse_s", l.json_parse);
  m.add_timing("scenario.resolve_s", l.resolve);
  m.add_timing("crn.canonical_hash_s", l.canonical_hash);
  m.add_timing("crn.optimize_s", l.optimize);
  m.add_timing("lint.analyze_s", l.analyze);
  m.add_timing("sim.compile_s", l.sim_compile);
  m.add_timing("sim.ensemble_run_s", l.ensemble_run);
  m.add("sim.events", static_cast<double>(l.sim_events), "count");
  m.add("sim.trajectories", static_cast<double>(l.sim_trajectories),
        "count");
  // Headline figures that only one workload has (0 elsewhere), from
  // the untraced pass.
  m.add("req_p99_ms", percentile(untraced.latencies, 0.99) * 1e3, "ms");
  m.add("proof_1t_s", median(untraced.proof_1t), "s");
  m.add("proof_mt_s", median(untraced.proof_mt), "s");
  m.add("sim_events_per_s",
        static_cast<double>(untraced.events) / untraced.wall, "1/s");
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void dump_inputs(const Options& o) {
  const auto n = static_cast<std::uint64_t>(o.dump_inputs);
  const int threads = nproc();
  for (std::uint64_t r = 0; r < 2; ++r) {
    for (const ProofCall& c : proof_round(o.seed, r, threads)) {
      std::printf("proof %llu %s threads=%d\n",
                  static_cast<unsigned long long>(r), c.target.c_str(),
                  c.threads);
    }
  }
  const std::vector<std::string> hot = hot_scenarios();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::printf("serve_hot %s\n", hot_line(o.seed, i, hot).c_str());
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    std::printf("serve_cold %s\n", cold_line(o.seed, i).c_str());
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const SimCall c = ensemble_call(o.seed, i);
    std::printf("ensemble %s %s trajectories=%d seed=%llu\n", c.target.c_str(),
                c.method.c_str(), c.trajectories,
                static_cast<unsigned long long>(c.seed));
  }
}

int run(const Options& options, Clock::time_point process_start) {
  std::unique_ptr<Workload> workload = make_workload(options);

  // One set-up per process, timed from process start to the first timed
  // operation. run.py repeats --setup-only processes and reports the
  // median of them and this one.
  workload->setup();
  const double setup_s = seconds_since(process_start);
  if (options.setup_only) {
    std::printf("{\"setup_s\": %s}\n", fmt(setup_s).c_str());
    std::fflush(stdout);
    return 0;
  }

  const Pass untraced = workload->run(options.seconds);
  workload->check_after();
  Metrics metrics;
  if (!options.trace) {
    metrics.add("setup_s", setup_s, "s");
    metrics.add("req_p50_ms", median(untraced.latencies) * 1e3, "ms");
    metrics.add("req_per_s",
                static_cast<double>(untraced.latencies.size()) / untraced.wall,
                "1/s");
    metrics.add("peak_rss_mb", untraced.peak_rss_mb, "MB");
  } else {
    Tracing& tracing = Tracing::get();
    tracing.enable(true);
    crnkit::obs::Tracer::start();
    const std::uint64_t anchor = Tracing::now_ns();
    { crnkit::obs::Span anchor_span("perfbench.anchor"); }
    const Pass traced = workload->run(options.seconds);
    crnkit::obs::Tracer::stop();
    tracing.enable(false);
    const auto trace_dropped =
        static_cast<double>(crnkit::obs::Tracer::dropped());
    tracing.import_program_trace(anchor);
    workload->check_after();
    // The in-process replay records benchmark spans only.
    tracing.enable(true);
    Layers layers;
    workload->layers(layers);
    tracing.enable(false);

    add_per_layer(layers, untraced, metrics);
    metrics.add("obs.trace_overhead_frac",
                sum(traced.latencies) / traced.latencies.size() /
                        (sum(untraced.latencies) / untraced.latencies.size()) -
                    1.0,
                "frac");
    metrics.add("obs.trace_dropped", trace_dropped, "count");

    const std::string stem = options.out_dir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed);
    const std::string selftime =
        tracing.write(stem + ".json", stem + "-selftime.txt");
    std::fprintf(stderr, "perfbench: trace written to %s.json\n%s",
                 stem.c_str(), selftime.c_str());
  }
  const Checker& checker = workload->checker();
  const double fail_frac =
      checker.attempted() > 0
          ? static_cast<double>(checker.failed()) / checker.attempted()
          : 1.0;
  if (options.trace) metrics.add("op_fail_frac", fail_frac, "frac");

  // Run metadata: results from other hosts or builds must not be
  // compared silently.
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %d, \"cpu_model\": \"%s\", \"compiler\": "
      "\"%s\", \"build_type\": \"%s\", \"version\": \"%s\", "
      "\"git_describe\": \"%s\", \"source_digest\": \"%s\", "
      "\"requests\": %zu, \"req_p99_rule\": \"nearest rank; the maximum "
      "below 100 requests\"}}\n",
      options.workload.c_str(),
      static_cast<unsigned long long>(options.seed),
      fmt(options.seconds).c_str(), options.trace ? 1 : 0, nproc(),
      json_escape(cpu_model()).c_str(), CRNKIT_COMPILER, CRNKIT_BUILD_TYPE,
      crnkit::kVersion, json_escape(crnkit::kGitDescribe).c_str(),
      json_escape(options.source_digest).c_str(), untraced.latencies.size());
  if (std::string(CRNKIT_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: WARNING: %s build, not comparable\n",
                 CRNKIT_BUILD_TYPE);
  }

  std::string line = "{\"correct\": ";
  line += checker.failed() == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(checker.attempted());
  line += ", \"failed\": " + std::to_string(checker.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics.entries()) {
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            fmt(vu.first) + ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return checker.failed() == 0 ? 0 : 1;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--reference") {
      o.reference_path = value();
    } else if (arg == "--out-dir") {
      o.out_dir = value();
    } else if (arg == "--source-digest") {
      o.source_digest = value();
    } else if (arg == "--inject-wrong-expected") {
      o.inject_wrong_expected = true;
    } else if (arg == "--setup-only") {
      o.setup_only = true;
    } else if (arg == "--dump-inputs") {
      o.dump_inputs = std::stol(value());
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  try {
    const perfbench::Options options = perfbench::parse_args(argc, argv);
    if (options.dump_inputs >= 0) {
      perfbench::dump_inputs(options);
      return 0;
    }
    return perfbench::run(options, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
