// chaos_replay: the fault-injection acceptance harness for the serving
// stack. It arms the util::FaultInjector failpoints (accept drops, read
// and write resets, dispatch delays, journal short-writes), drives >= 1k
// mixed line-JSON requests through real sockets with svc::Client (whose
// call() reconnects on resets and backs off on typed sheds), and asserts
// the robustness contract:
//
//   * zero crashes — the daemon survives every armed fault class;
//   * every shed or refused request is TYPED retriable (the line-JSON
//     `overloaded` shape with retry_after_ms), never a silent drop with
//     the connection left readable;
//   * the proof cache snapshot + journal written under fire load back
//     cleanly into a fresh cache (no corrupt cache loads);
//   * tail latency stays bounded (p99 under --p99-budget-ms).
//
// Modes:
//   chaos_replay                       self-hosting: in-process Server on
//                                      a loopback port, tight admission
//                                      limits, faults armed in-process
//   chaos_replay --connect HOST:PORT   hammer a live `crnc serve`
//                                      (arm its faults via --faults)
//
// Exits 0 when every assertion holds, 1 otherwise.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "svc/client.h"
#include "svc/proof_cache.h"
#include "svc/server.h"
#include "svc/service.h"
#include "util/fault_injector.h"
#include "util/hash.h"
#include "util/json_value.h"

namespace {

using crnkit::util::JsonValue;
using crnkit::util::splitmix_uniform;

/// The default armed fault classes for the self-hosting mode: every
/// server-side failpoint plus journal short-writes, at rates high enough
/// that 1k requests hit each class many times.
constexpr const char* kDefaultFaults =
    "server.accept=prob:0.02,server.read.reset=prob:0.03,"
    "server.write.reset=prob:0.03,server.dispatch.delay=prob:0.05:arg=5,"
    "cache.journal.short_write=prob:0.05:arg=16";

struct Tally {
  std::size_t completed = 0;    ///< requests that got a full JSON reply
  std::size_t sheds = 0;        ///< typed retriable refusals received
  std::size_t untyped = 0;      ///< refusals NOT carrying the typed shape
  std::size_t resets = 0;       ///< connection resets (reconnect + retry)
  std::size_t retries = 0;
  std::size_t hard_failures = 0;  ///< reset budget exhausted
  std::vector<double> latencies_ms;
};

/// The mixed request stream: mostly cheap cached verifies, with shows,
/// pings, and small simulates mixed in — the shapes a real client sends.
/// In --spill mode a quarter of the stream is an over-budget verify that
/// runs out-of-core, so the armed spill failpoints have traffic to hit
/// (the first one explores and spills; the rest coalesce or hit cache).
std::string pick_request(std::uint64_t& state, bool spill) {
  const double u = splitmix_uniform(state);
  if (spill && u < 0.25) {
    return R"({"op": "verify", "target": "chain/compose-18", "input": "6"})";
  }
  if (u < 0.45) return R"({"op": "verify", "target": "fig1/min"})";
  if (u < 0.65) return R"({"op": "verify", "target": "fig1/twice"})";
  if (u < 0.80) return R"({"op": "show", "target": "fig1/min"})";
  if (u < 0.90) return R"({"op": "ping"})";
  return R"({"op": "simulate", "target": "fig1/twice", "trajectories": 2,)"
         R"( "max_events": 20000})";
}

/// One request through the client's retry contract, tallied. A final
/// refusal means the shed budget ran out on backpressure (tolerated by
/// design) — but only if it carries the typed retriable shape; call()
/// throwing means the reset budget ran out.
void drive_one(crnkit::svc::Client& client, const std::string& request,
               Tally& tally) {
  const auto t0 = std::chrono::steady_clock::now();
  std::string response;
  try {
    response = client.call(request);
  } catch (const std::runtime_error&) {
    ++tally.hard_failures;
    return;
  }
  try {
    const JsonValue v = JsonValue::parse(response);
    if (!v.get_string("error", "").empty()) {
      // Any refusal (`overloaded` backpressure, `spill_io` disk trouble,
      // ...) must carry the typed retriable shape; call() returns an
      // untyped one at once.
      if (!v.get_bool("retriable", false) ||
          v.get_int("retry_after_ms", 0) <= 0) {
        ++tally.untyped;
      }
      return;
    }
  } catch (const std::invalid_argument&) {
    ++tally.untyped;  // not even JSON: a contract violation
    return;
  }
  ++tally.completed;
  tally.latencies_ms.push_back(std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
}

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1))];
}

int run(int argc, char** argv) {
  std::size_t count = 1200;
  std::size_t threads = 4;
  std::uint64_t seed = 1;
  double p99_budget_ms = 30'000;
  // Per-request retry budget, for sheds and for resets each (the
  // svc::Client contract). 8 is ample on a native build; sanitizer CI
  // (TSan slows the server ~10x, so injected resets pile onto loaded
  // accept queues much longer) raises it — the contract checked there is
  // "no races, no crashes, typed sheds", not the retry SLO.
  int max_attempts = 8;
  bool spill = false;
  std::optional<std::string> connect;
  std::string faults = kDefaultFaults;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(std::string(flag) + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--count") {
      count = std::stoull(need_value("--count"));
    } else if (arg == "--threads") {
      threads = std::max<std::size_t>(1, std::stoull(need_value("--threads")));
    } else if (arg == "--seed") {
      seed = std::stoull(need_value("--seed"));
    } else if (arg == "--connect") {
      connect = need_value("--connect");
    } else if (arg == "--faults") {
      faults = need_value("--faults");
    } else if (arg == "--p99-budget-ms") {
      p99_budget_ms = std::stod(need_value("--p99-budget-ms"));
    } else if (arg == "--max-attempts") {
      max_attempts = std::max(1, std::stoi(need_value("--max-attempts")));
    } else if (arg == "--spill") {
      spill = true;
    } else {
      std::fprintf(stderr,
                   "usage: chaos_replay [--count N] [--threads N] [--seed S] "
                   "[--connect HOST:PORT] [--faults SPEC] [--spill] "
                   "[--p99-budget-ms N] [--max-attempts N]\n");
      return 2;
    }
  }
  if (spill) {
    // Out-of-core chaos: arm the spill-segment failpoints on top of the
    // serving faults. Writes die with short writes (disk full) and reads
    // fail outright; both must surface as the typed retriable `spill_io`
    // shed, never a crash or a wrong verdict.
    faults += ",spill.write.short_write=prob:0.05:arg=64,"
              "spill.read=prob:0.02";
  }

  std::string host = "127.0.0.1";
  int port = 0;
  std::optional<crnkit::svc::Service> service;
  std::optional<crnkit::svc::Server> server;
  std::string journal_path;
  std::string snapshot_path;
  std::string spill_dir;
  if (connect) {
    const auto colon = connect->rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "chaos_replay: --connect wants HOST:PORT\n");
      return 2;
    }
    host = connect->substr(0, colon);
    port = std::stoi(connect->substr(colon + 1));
  } else {
    // Self-hosting: tight admission limits so the inflight and connection
    // gates actually fire under the single-threaded driver, journal armed
    // so its failpoints have something to hit.
    const std::string dir = [] {
      const char* env = std::getenv("TMPDIR");
      return std::string(env != nullptr ? env : "/tmp");
    }();
    journal_path =
        dir + "/chaos_cache_journal." + std::to_string(::getpid());
    snapshot_path =
        dir + "/chaos_cache_snapshot." + std::to_string(::getpid());
    crnkit::util::FaultInjector::instance().configure(faults);
    crnkit::svc::Service::Options service_options;
    service_options.default_deadline_ms = 10'000;
    if (spill) {
      // A 4 MiB budget the compose-18 point (~10 MiB arena) must
      // overflow: the ladder sends it out-of-core instead of degrading.
      service_options.memory_budget_bytes = std::size_t{4} << 20;
      spill_dir = dir + "/chaos_spill." + std::to_string(::getpid());
      service_options.spill_dir = spill_dir;
    }
    service.emplace(service_options);
    service->proof_cache().enable_journal(journal_path);
    crnkit::svc::Server::Options server_options;
    server_options.port = 0;  // ephemeral
    server_options.max_connections = 32;
    server_options.max_inflight = 2;
    // The retry hint must roughly match how long the gate stays busy: a
    // spilled exploration holds a worker for ~100 ms+, so a 5 ms hint
    // would burn every client's whole retry budget inside one window.
    server_options.retry_after_ms = spill ? 50 : 5;
    server.emplace(*service, server_options);
    server->start();
    port = server->port();
  }

  // Concurrent drivers so the inflight gate actually sheds (self-host
  // mode caps it at 2); each worker gets its own client, request stream,
  // and tally, merged afterwards.
  std::vector<Tally> tallies(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      std::uint64_t stream = seed + w * 0x51ed2701ULL;
      Tally& tally = tallies[w];
      try {
        crnkit::svc::Client client(host, port, max_attempts, ~stream);
        const std::size_t quota = count / threads + (w < count % threads);
        for (std::size_t i = 0; i < quota; ++i) {
          // Fresh connections now and then so the accept failpoint and
          // the connection gate see steady traffic.
          if (i > 0 && i % 16 == 0) client.disconnect();
          drive_one(client, pick_request(stream, spill), tally);
        }
        tally.sheds = client.counters().sheds;
        tally.resets = client.counters().resets;
        tally.retries = client.counters().retries;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "chaos_replay: %s\n", e.what());
        ++tally.hard_failures;  // could not even connect
      }
    });
  }
  for (std::thread& t : workers) t.join();
  Tally tally;
  for (const Tally& t : tallies) {
    tally.completed += t.completed;
    tally.sheds += t.sheds;
    tally.untyped += t.untyped;
    tally.resets += t.resets;
    tally.retries += t.retries;
    tally.hard_failures += t.hard_failures;
    tally.latencies_ms.insert(tally.latencies_ms.end(),
                              t.latencies_ms.begin(), t.latencies_ms.end());
  }

  bool corrupt_cache = false;
  std::size_t replayed = 0;
  if (server) {
    server->stop();
    // The durability check: what the cache persisted under fire must load
    // cleanly into a fresh instance. Disarm faults first — this is the
    // recovery path, not the chaos path.
    crnkit::util::FaultInjector::instance().reset();
    try {
      service->proof_cache().save(snapshot_path);
      crnkit::svc::ProofCache fresh;
      fresh.load(snapshot_path);
      replayed = fresh.replay_journal(journal_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "chaos_replay: corrupt cache: %s\n", e.what());
      corrupt_cache = true;
    }
    ::unlink(journal_path.c_str());
    ::unlink(snapshot_path.c_str());
    // SpillPool unlinks its own segments; just drop the directory.
    if (!spill_dir.empty()) ::rmdir(spill_dir.c_str());
  }

  std::sort(tally.latencies_ms.begin(), tally.latencies_ms.end());
  const double p50 = percentile(tally.latencies_ms, 0.50);
  const double p99 = percentile(tally.latencies_ms, 0.99);

  const auto fault_stats = crnkit::util::FaultInjector::instance().stats();
  std::printf("chaos_replay: %zu requests -> %zu completed, %zu shed, "
              "%zu resets, %zu retries, %zu hard failures\n",
              count, tally.completed, tally.sheds, tally.resets,
              tally.retries, tally.hard_failures);
  std::printf("  latency: p50 %.1f ms, p99 %.1f ms (budget %.0f ms)\n", p50,
              p99, p99_budget_ms);
  std::printf("  journal replay after the run: %zu entries\n", replayed);
  for (const auto& s : fault_stats) {
    std::printf("  fault %-28s hits=%llu fired=%llu\n", s.site.c_str(),
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.fired));
  }

  bool ok = true;
  if (tally.completed == 0) {
    std::fprintf(stderr, "chaos_replay: FAIL — nothing completed\n");
    ok = false;
  }
  if (tally.untyped > 0) {
    std::fprintf(stderr,
                 "chaos_replay: FAIL — %zu refusals were not typed "
                 "retriable overloaded responses\n",
                 tally.untyped);
    ok = false;
  }
  if (tally.hard_failures > 0) {
    std::fprintf(stderr,
                 "chaos_replay: FAIL — %zu requests exhausted the retry "
                 "budget\n",
                 tally.hard_failures);
    ok = false;
  }
  if (corrupt_cache) {
    std::fprintf(stderr,
                 "chaos_replay: FAIL — cache persisted under faults did "
                 "not load back\n");
    ok = false;
  }
  if (p99 > p99_budget_ms) {
    std::fprintf(stderr,
                 "chaos_replay: FAIL — p99 %.1f ms above the %.0f ms "
                 "budget\n",
                 p99, p99_budget_ms);
    ok = false;
  }
  std::printf("chaos_replay: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos_replay: %s\n", e.what());
    return 1;
  }
}
