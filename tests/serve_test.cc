// End-to-end tests for the `crnc serve` daemon core (svc::Server): the
// line-JSON protocol over real sockets, HTTP auto-detection on the same
// port, cross-connection proof-cache reuse, batch scheduling, 64-way
// concurrent clients with verdicts bit-identical to a one-shot service
// run, and clean shutdown with connections (and requests) in flight.
// All of it goes through svc::Client, whose call() retry contract (typed
// sheds, resets, spent budgets) is tested here too.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "svc/client.h"
#include "svc/server.h"
#include "svc/service.h"
#include "util/fault_injector.h"
#include "util/json_value.h"

namespace crnkit::svc {
namespace {

using util::JsonValue;

constexpr const char* kHost = "127.0.0.1";
constexpr const char* kShowMin = "{\"op\": \"show\", \"target\": \"fig1/min\"}";
constexpr const char* kVerifyMin =
    "{\"op\": \"verify\", \"target\": \"fig1/min\"}";

/// A served verify verdict matches a one-shot run point for point.
void expect_same_verdict(const JsonValue& got, const JsonValue& want) {
  EXPECT_TRUE(got.get_bool("ok", false));
  EXPECT_EQ(got.get_int("proved", -1), want.get_int("proved", -2));
  EXPECT_EQ(got.get_int("failed", -1), 0);
  const auto& want_points = want.get("points").items();
  const auto& got_points = got.get("points").items();
  ASSERT_EQ(got_points.size(), want_points.size());
  for (std::size_t p = 0; p < want_points.size(); ++p) {
    EXPECT_EQ(got_points[p].get_string("x", "?"),
              want_points[p].get_string("x", "!"));
    EXPECT_EQ(got_points[p].get_int("configs", -1),
              want_points[p].get_int("configs", -2));
    EXPECT_EQ(got_points[p].get_string("status", "?"),
              want_points[p].get_string("status", "!"));
  }
}

TEST(Serve, LineProtocolAnswersAndCachesAcrossConnections) {
  Service service;
  Server server(service);
  server.start();

  {
    Client client(kHost, server.port());
    const JsonValue pong = JsonValue::parse(client.roundtrip("{\"op\": \"ping\"}"));
    EXPECT_EQ(pong.get_int("schema_version", -1), 1);
    EXPECT_TRUE(pong.get_bool("pong", false));

    const JsonValue cold = JsonValue::parse(client.roundtrip(
        "{\"op\": \"verify\", \"target\": \"fig1/min\"}"));
    EXPECT_TRUE(cold.get_bool("ok", false));
    EXPECT_EQ(cold.get_int("cache_hits", -1), 0);
    EXPECT_GT(cold.get_int("cache_misses", 0), 0);
  }
  {
    // A new connection hits the entries the first one populated.
    Client client(kHost, server.port());
    const JsonValue warm = JsonValue::parse(client.roundtrip(
        "{\"op\": \"verify\", \"target\": \"fig1/min\"}"));
    EXPECT_TRUE(warm.get_bool("ok", false));
    EXPECT_EQ(warm.get_int("cache_misses", -1), 0);
    EXPECT_EQ(warm.get_int("cache_hits", 0),
              static_cast<std::int64_t>(warm.get("points").size()));
    for (const JsonValue& point : warm.get("points").items()) {
      EXPECT_TRUE(point.get_bool("cached", false));
    }
  }

  server.stop();
  EXPECT_EQ(server.stats().connections, 2u);
  EXPECT_EQ(server.stats().errors, 0u);
}

TEST(Serve, MalformedAndUnknownRequestsGetErrorResponses) {
  Service service;
  Server server(service);
  server.start();

  Client client(kHost, server.port());
  const JsonValue bad = JsonValue::parse(client.roundtrip("{not json"));
  EXPECT_EQ(bad.get_int("schema_version", -1), 1);
  EXPECT_TRUE(bad.has("error"));
  EXPECT_FALSE(bad.get_bool("ok", true));

  const JsonValue unknown =
      JsonValue::parse(client.roundtrip("{\"op\": \"frobnicate\"}"));
  EXPECT_TRUE(unknown.has("error"));

  server.stop();
  EXPECT_EQ(server.stats().errors, 2u);
}

TEST(Serve, BatchSchedulesSubRequestsAndKeepsOrder) {
  Service service;
  Server server(service);
  server.start();

  Client client(kHost, server.port());
  const JsonValue batch = JsonValue::parse(client.roundtrip(
      "{\"op\": \"batch\", \"requests\": ["
      "{\"op\": \"show\", \"target\": \"fig1/min\"}, "
      "{\"op\": \"verify\", \"target\": \"fig1/twice\"}, "
      "{\"op\": \"nope\"}]}"));
  EXPECT_EQ(batch.get_int("schema_version", -1), 1);
  ASSERT_EQ(batch.get("results").size(), 3u);
  EXPECT_EQ(batch.get("results").at(0).get_string("name", ""), "fig1/min");
  EXPECT_TRUE(batch.get("results").at(1).get_bool("ok", false));
  EXPECT_TRUE(batch.get("results").at(2).has("error"));

  server.stop();
}

TEST(Serve, HttpPostAndHealthzOnTheSamePort) {
  Service service;
  Server server(service);
  server.start();

  {
    Client client(kHost, server.port());
    const std::string body = "{\"target\": \"fig1/min\"}";
    client.send("POST /v1/verify HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body);
    const std::string response = client.read_to_eof();
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    const auto blank = response.find("\r\n\r\n");
    ASSERT_NE(blank, std::string::npos);
    const JsonValue parsed = JsonValue::parse(response.substr(blank + 4));
    EXPECT_EQ(parsed.get_int("schema_version", -1), 1);
    EXPECT_TRUE(parsed.get_bool("ok", false));
  }
  {
    Client client(kHost, server.port());
    client.send("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    const std::string response = client.read_to_eof();
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    const auto blank = response.find("\r\n\r\n");
    ASSERT_NE(blank, std::string::npos);
    const JsonValue health = JsonValue::parse(response.substr(blank + 4));
    EXPECT_EQ(health.get_int("schema_version", -1), 1);
    EXPECT_FALSE(health.get_string("version", "").empty());
    EXPECT_FALSE(health.get_string("git", "").empty());
    EXPECT_GE(health.get("uptime_seconds").as_double(), 0.0);
    // The POST above verified fig1/min, so the shared cache has entries.
    EXPECT_GT(health.get_int("cache_entries", -1), 0);
    EXPECT_TRUE(health.get_bool("ok", false));
  }
  {
    Client client(kHost, server.port());
    client.send("GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_NE(client.read_to_eof().find("404"), std::string::npos);
  }

  server.stop();
}

TEST(Serve, SixtyFourConcurrentClientsGetIdenticalVerdicts) {
  // The acceptance bar: >= 64 concurrent mixed requests, every verdict
  // bit-identical to a one-shot run against a fresh service.
  Service reference;
  const std::string want_min = Server::dispatch_line(
      reference, "{\"op\": \"verify\", \"target\": \"fig1/min\"}");
  const std::string want_sim = Server::dispatch_line(
      reference,
      "{\"op\": \"simulate\", \"target\": \"fig1/twice\", "
      "\"trajectories\": 4, \"seed\": 7}");
  const JsonValue want_min_json = JsonValue::parse(want_min);
  const JsonValue want_sim_json = JsonValue::parse(want_sim);

  Service service;
  Server server(service);
  server.start();

  constexpr int kClients = 64;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client(kHost, server.port());
      const auto slot = static_cast<std::size_t>(i);
      if (i % 3 != 2) {
        responses[slot] = client.roundtrip(
            "{\"op\": \"verify\", \"target\": \"fig1/min\"}");
      } else {
        responses[slot] = client.roundtrip(
            "{\"op\": \"simulate\", \"target\": \"fig1/twice\", "
            "\"trajectories\": 4, \"seed\": 7}");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server.stop();

  for (int i = 0; i < kClients; ++i) {
    const JsonValue got =
        JsonValue::parse(responses[static_cast<std::size_t>(i)]);
    if (i % 3 != 2) {
      SCOPED_TRACE(i);
      expect_same_verdict(got, want_min_json);
    } else {
      EXPECT_EQ(got.get_int("output", -1),
                want_sim_json.get_int("output", -2))
          << i;
      EXPECT_EQ(got.get_int("total_events", -1),
                want_sim_json.get_int("total_events", -2))
          << i;
      EXPECT_TRUE(got.get_bool("ok", false)) << i;
    }
  }
  EXPECT_EQ(server.stats().connections, 64u);
  EXPECT_EQ(server.stats().requests, 64u);
  EXPECT_EQ(server.stats().errors, 0u);
}

/// The per-op request counter's value for one exact series key, from the
/// structured `metrics` op (0 when the series does not exist yet).
std::int64_t scraped_counter(int port, const std::string& series) {
  Client client(kHost, port);
  const JsonValue doc =
      JsonValue::parse(client.roundtrip("{\"op\": \"metrics\"}"));
  const JsonValue* value = doc.get("metrics").get("counters").find(series);
  return value == nullptr ? 0 : value->as_int();
}

/// The sample value for `series` in a Prometheus text exposition (-1 when
/// the series is absent).
std::int64_t prom_counter(const std::string& text, const std::string& series) {
  const std::size_t at = text.find(series + " ");
  if (at == std::string::npos) return -1;
  return std::strtoll(text.c_str() + at + series.size() + 1, nullptr, 10);
}

TEST(Serve, MetricsScrapeAgreesWithAuthoritativeCountsUnderLoad) {
  // 64 clients hammer verify while a scraper polls GET /metrics the whole
  // time: scraped counters never decrease (sharded cells are monotone),
  // and once the clients drain, the scraped totals equal the
  // authoritative ones (server stats, proof-cache stats). The registry is
  // process-global, so everything is asserted as a before/after delta.
  const std::string kVerifyLine =
      "crnkit_server_requests_total{op=\"verify\",proto=\"line\"}";

  Service service;
  Server server(service);
  server.start();

  const std::int64_t requests_before =
      scraped_counter(server.port(), kVerifyLine);
  const std::int64_t hits_before =
      scraped_counter(server.port(), "crnkit_cache_hits_total");
  const std::int64_t misses_before =
      scraped_counter(server.port(), "crnkit_cache_misses_total");

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    std::int64_t last = requests_before;
    while (!done.load()) {
      Client client(kHost, server.port());
      client.send("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
      const std::string response = client.read_to_eof();
      EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
      EXPECT_NE(response.find("text/plain; version=0.0.4"),
                std::string::npos);
      const std::int64_t now = prom_counter(response, kVerifyLine);
      if (now >= 0) {
        EXPECT_GE(now, last) << "scraped counter went backwards";
        last = now;
      }
      ++scrapes;
    }
  });

  constexpr int kClients = 64;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      Client client(kHost, server.port());
      const JsonValue got = JsonValue::parse(client.roundtrip(
          "{\"op\": \"verify\", \"target\": \"fig1/min\"}"));
      EXPECT_TRUE(got.get_bool("ok", false));
    });
  }
  for (std::thread& t : threads) t.join();
  done.store(true);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0);

  // Every client's roundtrip() returned, so every finish_request() ran:
  // the scrape must now agree exactly with the authoritative counters.
  EXPECT_EQ(scraped_counter(server.port(), kVerifyLine) - requests_before,
            kClients);
  const ProofCache::Stats cache = service.proof_cache().stats();
  EXPECT_EQ(scraped_counter(server.port(), "crnkit_cache_hits_total") -
                hits_before,
            static_cast<std::int64_t>(cache.hits));
  EXPECT_EQ(scraped_counter(server.port(), "crnkit_cache_misses_total") -
                misses_before,
            static_cast<std::int64_t>(cache.misses));
  server.stop();
}

TEST(Serve, AccessLogRecordsOpStatusAndCacheOutcome) {
  std::ostringstream log;
  Service service;
  Server::Options options;
  options.access_log = &log;
  Server server(service, options);
  server.start();

  {
    Client client(kHost, server.port());
    client.roundtrip("{\"op\": \"verify\", \"target\": \"fig1/min\"}");
    client.roundtrip("{\"op\": \"verify\", \"target\": \"fig1/min\"}");
    client.roundtrip("{not json");
  }
  server.stop();

  const std::string lines = log.str();
  // Cold verify misses the proof cache, the repeat hits it, the malformed
  // request logs as op=? with a 400.
  EXPECT_NE(lines.find("op=verify proto=line status=200"),
            std::string::npos);
  EXPECT_NE(lines.find("cache=miss"), std::string::npos);
  EXPECT_NE(lines.find("cache=hit"), std::string::npos);
  EXPECT_NE(lines.find("op=? proto=line status=400"), std::string::npos);
}

TEST(Serve, StopWithConnectionsAndRequestsInFlightIsClean) {
  Service service;
  auto server = std::make_unique<Server>(service);
  server->start();

  // One idle connection, one with a half-sent request, one mid-request.
  Client idle(kHost, server->port());
  Client half(kHost, server->port());
  half.send("{\"op\": \"verify\", \"target\":");
  Client busy(kHost, server->port());
  busy.send("{\"op\": \"verify\", \"target\": \"fig1/min\"}\n");

  // stop() must shut all three down and join without hanging; the
  // in-flight dispatch either finishes (full response line) or the
  // connection closes — never a torn response.
  server->stop();
  const std::string leftover = busy.read_to_eof();
  if (!leftover.empty()) {
    EXPECT_EQ(leftover.back(), '\n');
    const JsonValue parsed =
        JsonValue::parse(leftover.substr(0, leftover.size() - 1));
    EXPECT_EQ(parsed.get_int("schema_version", -1), 1);
  }
  EXPECT_EQ(idle.read_to_eof(), "");
  EXPECT_EQ(half.read_to_eof(), "");

  // A stopped server can be restarted on a fresh port.
  server = std::make_unique<Server>(service);
  server->start();
  Client again(kHost, server->port());
  EXPECT_TRUE(JsonValue::parse(again.roundtrip("{\"op\": \"ping\"}"))
                  .get_bool("pong", false));
  server->stop();
}

TEST(Serve, ConnectionGateShedsWithTypedRefusal) {
  Service service;
  Server::Options options;
  options.max_connections = 1;
  options.retry_after_ms = 120;
  Server server(service, options);
  server.start();

  // One connection holds the only slot (the ping proves its handler is
  // up and counted before anyone else connects).
  auto holder = std::make_unique<Client>(kHost, server.port());
  EXPECT_TRUE(JsonValue::parse(holder->roundtrip("{\"op\": \"ping\"}"))
                  .get_bool("pong", false));

  {
    // A line client over the limit: one typed retriable refusal, then
    // the server closes the connection.
    Client extra(kHost, server.port());
    const JsonValue shed = JsonValue::parse(
        extra.roundtrip("{\"op\": \"verify\", \"target\": \"fig1/min\"}"));
    EXPECT_EQ(shed.get_int("schema_version", -1), 1);
    EXPECT_EQ(shed.get_string("error", ""), "overloaded");
    EXPECT_TRUE(shed.get_bool("retriable", false));
    EXPECT_EQ(shed.get_int("retry_after_ms", -1), 120);
    EXPECT_FALSE(shed.get_bool("ok", true));
    EXPECT_EQ(extra.read_to_eof(), "");
  }
  {
    // An HTTP client over the limit: the same body under 503 with a
    // whole-seconds Retry-After hint (120ms rounds up to 1).
    Client extra(kHost, server.port());
    extra.send(
        "POST /v1/verify HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}");
    const std::string response = extra.read_to_eof();
    EXPECT_NE(response.find("HTTP/1.1 503 Service Unavailable"),
              std::string::npos);
    EXPECT_NE(response.find("Retry-After: 1"), std::string::npos);
    const auto blank = response.find("\r\n\r\n");
    ASSERT_NE(blank, std::string::npos);
    const JsonValue body = JsonValue::parse(response.substr(blank + 4));
    EXPECT_EQ(body.get_string("error", ""), "overloaded");
    EXPECT_TRUE(body.get_bool("retriable", false));
  }

  // Releasing the held slot restores service (the handler notices the
  // close asynchronously, so poll).
  holder.reset();
  bool recovered = false;
  for (int i = 0; i < 200 && !recovered; ++i) {
    Client probe(kHost, server.port());
    recovered = JsonValue::parse(probe.roundtrip("{\"op\": \"ping\"}"))
                    .get_bool("pong", false);
    if (!recovered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(recovered) << "capacity never came back after the holder left";

  server.stop();
  EXPECT_GE(server.stats().shed, 2u);
}

TEST(Serve, InflightGateShedsRequestsButPingStillAnswers) {
  // The dispatch-delay failpoint holds the single inflight slot for long
  // enough that concurrent requests deterministically hit the gate.
  util::FaultInjector::instance().configure(
      "server.dispatch.delay=always:arg=600");
  Service service;
  Server::Options options;
  options.max_inflight = 1;
  options.retry_after_ms = 25;
  Server server(service, options);
  server.start();

  constexpr int kClients = 6;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client(kHost, server.port());
      responses[static_cast<std::size_t>(i)] = client.roundtrip(
          "{\"op\": \"show\", \"target\": \"fig1/min\"}");
    });
  }
  // By now the first request holds the slot for ~600ms; a saturated
  // server must still answer ping (how clients probe an overloaded
  // daemon) and must 503 an HTTP POST.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  {
    Client http(kHost, server.port());
    http.send(
        "POST /v1/show HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}");
    const std::string response = http.read_to_eof();
    EXPECT_NE(response.find("503"), std::string::npos);
    EXPECT_NE(response.find("Retry-After:"), std::string::npos);
  }
  {
    Client probe(kHost, server.port());
    EXPECT_TRUE(JsonValue::parse(probe.roundtrip("{\"op\": \"ping\"}"))
                    .get_bool("pong", false));
  }
  for (std::thread& t : threads) t.join();
  server.stop();
  util::FaultInjector::instance().reset();

  int served = 0;
  std::uint64_t shed = 0;
  for (const std::string& response : responses) {
    const JsonValue parsed = JsonValue::parse(response);
    if (parsed.get_string("error", "") == "overloaded") {
      ++shed;
      EXPECT_TRUE(parsed.get_bool("retriable", false));
      EXPECT_EQ(parsed.get_int("retry_after_ms", -1), 25);
    } else {
      ++served;
      EXPECT_EQ(parsed.get_string("name", ""), "fig1/min");
    }
  }
  EXPECT_GT(served, 0) << "the gate must admit work, not just refuse it";
  EXPECT_GT(shed, 0u) << "six concurrent requests against one slot";
  // Every line-protocol shed is counted (the HTTP 503 above adds one more).
  EXPECT_EQ(server.stats().shed, shed + 1);
}

/// Blocks until `server` has counted `n` line requests, so a request sent
/// from another thread is known to hold its inflight slot.
void wait_for_requests(const Server& server, std::uint64_t n) {
  for (int i = 0; i < 2000 && server.stats().requests < n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.stats().requests, n);
}

/// A server whose single inflight slot is held for `hold_ms` by a show
/// request sent from `holder`; requests behind it are shed with a
/// `retry_after_ms` hint.
struct BusyServer {
  BusyServer(int hold_ms, int retry_after_ms) {
    util::FaultInjector::instance().configure(
        "server.dispatch.delay=always:arg=" + std::to_string(hold_ms));
    Server::Options options;
    options.max_inflight = 1;
    options.retry_after_ms = retry_after_ms;
    server = std::make_unique<Server>(service, options);
    server->start();
    holder = std::thread([this] {
      Client client(kHost, server->port());
      EXPECT_EQ(JsonValue::parse(client.roundtrip(kShowMin))
                    .get_string("name", ""),
                "fig1/min");
    });
    wait_for_requests(*server, 1);
  }
  ~BusyServer() {
    holder.join();
    server->stop();
    util::FaultInjector::instance().reset();
  }

  Service service;
  std::unique_ptr<Server> server;
  std::thread holder;
};

TEST(ServeClient, CallRetriesAnInflightShedUntilTheVerdict) {
  BusyServer busy(/*hold_ms=*/300, /*retry_after_ms=*/20);
  Client client(kHost, busy.server->port(), /*max_attempts=*/100);
  const JsonValue got = JsonValue::parse(client.call(kShowMin));
  EXPECT_FALSE(got.has("error"));
  EXPECT_EQ(got.get_string("name", ""), "fig1/min");
  EXPECT_GT(client.counters().sheds, 0u);
  EXPECT_EQ(client.counters().retries, client.counters().sheds);
  EXPECT_EQ(client.counters().resets, 0u);
}

TEST(ServeClient, CallReturnsANonRetriableErrorAtOnce) {
  Service service;
  Server server(service);
  server.start();
  Client client(kHost, server.port());
  const JsonValue bad = JsonValue::parse(client.call("{not json"));
  server.stop();
  EXPECT_TRUE(bad.has("error"));
  EXPECT_FALSE(bad.get_bool("retriable", false));
  EXPECT_EQ(client.counters().retries, 0u);
  EXPECT_EQ(client.counters().sheds, 0u);
  EXPECT_EQ(server.stats().requests, 1u);
}

TEST(ServeClient, CallReconnectsThroughResetsToTheOneShotVerdict) {
  Service reference;
  const JsonValue want =
      JsonValue::parse(Server::dispatch_line(reference, kVerifyMin));

  // Deterministic resets on both sides of the wire: every 3rd server read
  // and every 4th server write drops the connection.
  util::FaultInjector::instance().configure(
      "server.read.reset=every:3,server.write.reset=every:4");
  Service service;
  Server server(service);
  server.start();
  Client client(kHost, server.port(), /*max_attempts=*/10);
  std::vector<std::string> responses;
  for (int i = 0; i < 8; ++i) responses.push_back(client.call(kVerifyMin));
  server.stop();
  util::FaultInjector::instance().reset();

  EXPECT_GT(client.counters().resets, 0u);
  EXPECT_EQ(client.counters().retries, client.counters().resets);
  for (const std::string& response : responses) {
    expect_same_verdict(JsonValue::parse(response), want);
  }
}

TEST(ServeClient, SpentBudgetsReturnTheLastShedOrThrow) {
  BusyServer busy(/*hold_ms=*/400, /*retry_after_ms=*/10);
  {
    // Sheds: the first answer plus two retries, then the last shed.
    Client client(kHost, busy.server->port(), /*max_attempts=*/2);
    const JsonValue shed = JsonValue::parse(client.call(kShowMin));
    EXPECT_EQ(shed.get_string("error", ""), "overloaded");
    EXPECT_TRUE(shed.get_bool("retriable", false));
    EXPECT_EQ(client.counters().sheds, 3u);
    EXPECT_EQ(client.counters().retries, 2u);
  }
  {
    // Resets: every read fails, so the third fault is rethrown.
    util::FaultInjector::instance().configure("server.read.reset=always");
    Client client(kHost, busy.server->port(), /*max_attempts=*/2);
    EXPECT_THROW((void)client.call(kShowMin), std::runtime_error);
    EXPECT_EQ(client.counters().resets, 3u);
    EXPECT_EQ(client.counters().retries, 2u);
    EXPECT_EQ(client.counters().sheds, 0u);
  }
}

}  // namespace
}  // namespace crnkit::svc
