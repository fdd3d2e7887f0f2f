// serve_replay: replays a request mix against the crnc service twice —
// a cold pass and a warm pass over the same sequence — and reports p50/p99
// latency and throughput for each, plus the proof-cache counters. The mix
// is zipf-distributed over the scenario registry (popular networks
// dominate, the tail keeps the cache honest), weighted toward verify so
// the cached path is what is being measured.
//
// Modes:
//   serve_replay                        in-process Service (default)
//   serve_replay --connect HOST:PORT    line-JSON over TCP to a live
//                                       `crnc serve` (one connection per
//                                       pass; the daemon must be fresh for
//                                       the cold pass to be cold)
//   serve_replay --requests FILE        replay FILE (one JSON request per
//                                       line) instead of the generated mix
//
// Emits BENCH_serve.json (override with --out). --assert-warm-faster exits
// nonzero unless warm p50 < cold p50 — the CI regression gate for the
// cache. CRNKIT_BENCH_FAST=1 trims the generated mix for smoke runs.
//
// Observability hooks: --scrape polls the `metrics` op before and after
// the two passes and embeds the counter deltas in BENCH_serve.json (what
// did this workload actually cost, in requests/configs/cache traffic);
// --metrics-out FILE dumps the final Prometheus text exposition (the
// payload tools/metrics_check validates in CI).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/registry.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/service.h"
#include "util/hash.h"
#include "util/json_value.h"
#include "util/json_writer.h"

namespace {

using crnkit::util::splitmix_uniform;

struct PassReport {
  std::size_t requests = 0;
  std::size_t errors = 0;
  std::size_t retries = 0;  ///< shed/reset retries (connect mode)
  double wall_seconds = 0;
  double requests_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
};

double percentile(std::vector<double> sorted_us, double q) {
  if (sorted_us.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[idx];
}

/// The generated mix: zipf over the verifiable registry scenarios, ops
/// weighted verify 70% / show 20% / simulate 10% (simulate is never
/// cached, so it stays a small fraction of the measured traffic).
std::vector<std::string> generate_requests(std::size_t count,
                                           std::uint64_t seed) {
  std::vector<std::string> names;
  for (const crnkit::scenario::Scenario& s :
       crnkit::scenario::Registry::builtin().build_all()) {
    if (s.has_tag("large") || s.unverifiable()) continue;
    names.push_back(s.name);
  }
  if (names.empty()) throw std::runtime_error("no verifiable scenarios");

  std::vector<double> cumulative;
  double total = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cumulative.push_back(total);
  }

  std::uint64_t state = seed;
  std::vector<std::string> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = splitmix_uniform(state) * total;
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), u);
    const std::string& name =
        names[static_cast<std::size_t>(it - cumulative.begin())];
    const double op = splitmix_uniform(state);
    if (op < 0.70) {
      requests.push_back("{\"op\": \"verify\", \"target\": \"" + name +
                         "\"}");
    } else if (op < 0.90) {
      requests.push_back("{\"op\": \"show\", \"target\": \"" + name + "\"}");
    } else {
      requests.push_back("{\"op\": \"simulate\", \"target\": \"" + name +
                         "\", \"trajectories\": 4, \"max_events\": 50000}");
    }
  }
  return requests;
}

/// Counter series from a `metrics` op response: {"series{labels}": value}.
std::map<std::string, std::int64_t> parse_counters(
    const std::string& response) {
  std::map<std::string, std::int64_t> out;
  const crnkit::util::JsonValue v = crnkit::util::JsonValue::parse(response);
  for (const auto& [key, value] :
       v.get("metrics").get("counters").members()) {
    out[key] = value.as_int();
  }
  return out;
}

std::vector<std::string> read_requests(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("cannot read request file '" + path + "'");
  }
  std::vector<std::string> requests;
  std::string line;
  while (std::getline(file, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    requests.push_back(line);
  }
  return requests;
}

template <typename Dispatch>
PassReport run_pass(const std::vector<std::string>& requests,
                    Dispatch&& dispatch) {
  using Clock = std::chrono::steady_clock;
  PassReport report;
  std::vector<double> latencies_us;
  latencies_us.reserve(requests.size());
  std::vector<std::string> responses;
  responses.reserve(requests.size());

  const auto pass_start = Clock::now();
  for (const std::string& request : requests) {
    const auto start = Clock::now();
    responses.push_back(dispatch(request));
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
  }
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - pass_start).count();

  report.requests = requests.size();
  for (const std::string& response : responses) {
    try {
      if (crnkit::util::JsonValue::parse(response).has("error")) {
        ++report.errors;
      }
    } catch (const std::invalid_argument&) {
      ++report.errors;
    }
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  report.p50_us = percentile(latencies_us, 0.50);
  report.p99_us = percentile(latencies_us, 0.99);
  report.requests_per_sec =
      report.wall_seconds > 0
          ? static_cast<double>(report.requests) / report.wall_seconds
          : 0;
  return report;
}

void write_pass(crnkit::util::JsonWriter& w, const char* key,
                const PassReport& report) {
  w.key(key)
      .begin_object()
      .kv("requests", report.requests)
      .kv("errors", report.errors)
      .kv("retries", report.retries)
      .kv_fixed("wall_seconds", report.wall_seconds, 6)
      .kv_fixed("requests_per_sec", report.requests_per_sec, 2)
      .kv_fixed("p50_us", report.p50_us, 2)
      .kv_fixed("p99_us", report.p99_us, 2)
      .end_object();
}

int run(int argc, char** argv) {
  std::size_t count = std::getenv("CRNKIT_BENCH_FAST") ? 48 : 160;
  std::uint64_t seed = 1;
  std::string out_path = "BENCH_serve.json";
  std::optional<std::string> requests_path;
  std::optional<std::string> connect;
  std::optional<std::string> metrics_out;
  bool assert_warm_faster = false;
  bool scrape = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(std::string(flag) + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--count") {
      count = static_cast<std::size_t>(std::stoull(need_value("--count")));
    } else if (arg == "--seed") {
      seed = std::stoull(need_value("--seed"));
    } else if (arg == "--out") {
      out_path = need_value("--out");
    } else if (arg == "--requests") {
      requests_path = need_value("--requests");
    } else if (arg == "--connect") {
      connect = need_value("--connect");
    } else if (arg == "--assert-warm-faster") {
      assert_warm_faster = true;
    } else if (arg == "--scrape") {
      scrape = true;
    } else if (arg == "--metrics-out") {
      metrics_out = need_value("--metrics-out");
    } else {
      std::fprintf(stderr,
                   "usage: serve_replay [--count N] [--seed S] [--out FILE] "
                   "[--requests FILE] [--connect HOST:PORT] "
                   "[--assert-warm-faster] [--scrape] "
                   "[--metrics-out FILE]\n");
      return 2;
    }
  }

  const std::vector<std::string> requests =
      requests_path ? read_requests(*requests_path)
                    : generate_requests(count, seed);
  if (requests.empty()) {
    std::fprintf(stderr, "serve_replay: empty request list\n");
    return 2;
  }

  std::map<std::string, std::size_t> mix;
  for (const std::string& request : requests) {
    std::string op = "?";
    try {
      op = crnkit::util::JsonValue::parse(request).get_string("op", "?");
    } catch (const std::invalid_argument&) {
    }
    ++mix[op];
  }

  PassReport cold;
  PassReport warm;
  crnkit::svc::ProofCache::Stats cache;
  bool have_cache = false;
  std::map<std::string, std::int64_t> counters_before;
  std::map<std::string, std::int64_t> counters_after;
  std::string prometheus_text;
  if (connect) {
    const auto colon = connect->rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "serve_replay: --connect wants HOST:PORT\n");
      return 2;
    }
    const std::string host = connect->substr(0, colon);
    const int port = std::stoi(connect->substr(colon + 1));
    // One connection per pass; sheds and resets are retried under the
    // client's contract (5 of each per request) and reported per pass.
    const auto remote_pass = [&](std::uint64_t jitter_seed) {
      crnkit::svc::Client client(host, port, 5, jitter_seed);
      PassReport report = run_pass(requests, [&](const std::string& line) {
        return client.call(line);
      });
      report.retries = client.counters().retries;
      return report;
    };
    if (scrape) {
      crnkit::svc::Client client(host, port);
      counters_before =
          parse_counters(client.call("{\"op\": \"metrics\"}"));
    }
    cold = remote_pass(seed);
    warm = remote_pass(seed + 1);
    if (scrape || metrics_out) {
      crnkit::svc::Client client(host, port);
      if (scrape) {
        counters_after =
            parse_counters(client.call("{\"op\": \"metrics\"}"));
      }
      if (metrics_out) {
        prometheus_text =
            crnkit::util::JsonValue::parse(
                client.call(
                    "{\"op\": \"metrics\", \"format\": \"prometheus\"}"))
                .get("prometheus")
                .as_string();
      }
    }
  } else {
    crnkit::svc::Service service;
    const auto dispatch = [&](const std::string& line) {
      return crnkit::svc::Server::dispatch_line(service, line);
    };
    if (scrape) {
      counters_before = parse_counters(dispatch("{\"op\": \"metrics\"}"));
    }
    cold = run_pass(requests, dispatch);
    warm = run_pass(requests, dispatch);
    cache = service.proof_cache().stats();
    have_cache = true;
    if (scrape) {
      counters_after = parse_counters(dispatch("{\"op\": \"metrics\"}"));
    }
    if (metrics_out) {
      prometheus_text =
          crnkit::util::JsonValue::parse(
              dispatch("{\"op\": \"metrics\", \"format\": \"prometheus\"}"))
              .get("prometheus")
              .as_string();
    }
  }

  const double throughput_ratio =
      cold.requests_per_sec > 0
          ? warm.requests_per_sec / cold.requests_per_sec
          : 0;
  const double p50_speedup =
      warm.p50_us > 0 ? cold.p50_us / warm.p50_us : 0;

  crnkit::util::JsonWriter w;
  w.begin_object()
      .kv("schema_version", 1)
      .kv("bench", "serve_replay")
      .kv("mode", connect ? "connect" : "inprocess")
      .kv("seed", seed)
      .kv("requests", requests.size())
      .key("mix")
      .begin_object();
  for (const auto& [op, n] : mix) w.kv(op, n);
  w.end_object();
  write_pass(w, "cold", cold);
  write_pass(w, "warm", warm);
  w.kv_fixed("cached_throughput_ratio", throughput_ratio, 3)
      .kv_fixed("warm_p50_speedup", p50_speedup, 3);
  if (have_cache) {
    w.key("cache")
        .begin_object()
        .kv("hits", cache.hits)
        .kv("misses", cache.misses)
        .kv("insertions", cache.insertions)
        .kv("evictions", cache.evictions)
        .kv("entries", cache.entries)
        .kv("bytes", cache.bytes)
        .end_object();
  }
  if (scrape) {
    // What this workload cost, as counter deltas between the bracketing
    // `metrics` scrapes (zero-delta series are omitted).
    w.key("scrape").begin_object();
    w.kv("series_before", counters_before.size())
        .kv("series_after", counters_after.size());
    w.key("counter_deltas").begin_object();
    for (const auto& [key, value] : counters_after) {
      const auto it = counters_before.find(key);
      const std::int64_t delta =
          value - (it == counters_before.end() ? 0 : it->second);
      if (delta != 0) w.kv(key, delta);
    }
    w.end_object().end_object();
  }
  w.end_object();

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "serve_replay: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  out << w.str() << "\n";

  if (metrics_out) {
    std::ofstream prom(*metrics_out, std::ios::trunc);
    if (!prom) {
      std::fprintf(stderr, "serve_replay: cannot write %s\n",
                   metrics_out->c_str());
      return 1;
    }
    prom << prometheus_text;
  }

  std::printf(
      "serve_replay: %zu requests (%zu errors cold, %zu warm)\n"
      "  cold: %8.1f req/s  p50 %9.1f us  p99 %9.1f us\n"
      "  warm: %8.1f req/s  p50 %9.1f us  p99 %9.1f us\n"
      "  cached throughput ratio %.2fx, warm p50 speedup %.2fx -> %s\n",
      requests.size(), cold.errors, warm.errors, cold.requests_per_sec,
      cold.p50_us, cold.p99_us, warm.requests_per_sec, warm.p50_us,
      warm.p99_us, throughput_ratio, p50_speedup, out_path.c_str());
  if (have_cache) {
    std::printf("  cache: %zu hits / %zu misses, %zu entries, %zu bytes\n",
                static_cast<std::size_t>(cache.hits),
                static_cast<std::size_t>(cache.misses), cache.entries,
                cache.bytes);
  }

  if (assert_warm_faster && !(warm.p50_us < cold.p50_us)) {
    std::fprintf(stderr,
                 "serve_replay: FAIL — warm p50 (%.1f us) is not below cold "
                 "p50 (%.1f us)\n",
                 warm.p50_us, cold.p50_us);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_replay: %s\n", e.what());
    return 1;
  }
}
