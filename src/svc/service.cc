#include "svc/service.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "crn/bimolecular.h"
#include "crn/checks.h"
#include "crn/io.h"
#include "crn/passes.h"
#include "lint/analyzer.h"
#include "lint/guide.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "sim/ensemble.h"
#include "svc/workload.h"

namespace crnkit::svc {

namespace {

/// Maps a method name (silent | direct | next-reaction | population) to
/// the ensemble method; throws std::invalid_argument otherwise. Simulate
/// and bench accept the same spellings.
sim::EnsembleMethod parse_method(const std::string& name) {
  if (name == "silent") return sim::EnsembleMethod::kSilentRun;
  if (name == "direct") return sim::EnsembleMethod::kDirect;
  if (name == "next-reaction") return sim::EnsembleMethod::kNextReaction;
  if (name == "population") return sim::EnsembleMethod::kPopulation;
  throw std::invalid_argument(
      "unknown method '" + name +
      "' (expected silent, direct, next-reaction, or population)");
}

ScenarioSummary summarize(const scenario::Scenario& s) {
  ScenarioSummary out;
  out.name = s.name;
  out.title = s.title;
  out.paper_ref = s.paper_ref;
  out.tags = s.tags;
  out.species = s.crn.species_count();
  out.reactions = s.crn.reactions().size();
  out.arity = s.crn.input_arity();
  out.leader = s.crn.leader().has_value();
  out.output_oblivious = crn::is_output_oblivious(s.crn);
  out.verify_points = s.verify_points.size();
  out.sim_input = scenario::point_to_string(s.sim_input);
  out.unverifiable_reason = s.unverifiable_reason;
  return out;
}

}  // namespace

Service::Service() : Service(Options{}) {}

Service::Service(const Options& options)
    : options_(options), cache_(options.cache) {}

namespace {

/// Static floor for the non-arena bytes the explorer holds per config:
/// id_hash (8) + ~2 packed hash slots at the 5/8 load factor (16) +
/// succ_off (8) + CSR successors at a typical edge density (~6 edges at
/// 4 B) + parent + parent_reaction (8) + applicability mask (8) + one
/// in-flight frontier candidate (24). The old estimate (8 + 16 + 24)
/// ignored the CSR and BFS-tree arrays entirely and overshot the budget
/// by ~2x on every composed scenario. The verdict pass after exploration
/// adds ~24 B per config on top of the graph (Tarjan node state 8,
/// component summary <= 12, output column 4) plus its DFS stacks, down
/// from ~90 B plus one heap block per component when it kept a successor
/// list per component.
constexpr std::size_t kClampOverheadFloor = 100;

}  // namespace

std::size_t Service::clamp_overhead_per_config() const {
  return std::max(kClampOverheadFloor,
                  observed_overhead_per_config_.load(
                      std::memory_order_relaxed));
}

std::size_t Service::clamp_to_memory_budget(std::size_t max_configs,
                                            std::size_t width,
                                            bool* degraded) const {
  if (options_.memory_budget_bytes == 0) return max_configs;
  // Deliberately conservative: the clamp must undershoot, never
  // overshoot, the real footprint — so the overhead term is the static
  // floor raised to the actuals this process has already seen.
  const std::size_t per_config =
      width * sizeof(std::int32_t) + clamp_overhead_per_config();
  const std::size_t budget_configs =
      options_.memory_budget_bytes / std::max<std::size_t>(1, per_config);
  if (budget_configs < max_configs) {
    if (degraded != nullptr) *degraded = true;
    return std::max<std::size_t>(1, budget_configs);
  }
  return max_configs;
}

ListResponse Service::list(const ListRequest& req) const {
  std::vector<scenario::Scenario> scenarios =
      scenario::Registry::builtin().build_all();
  if (req.tag) {
    scenarios.erase(std::remove_if(scenarios.begin(), scenarios.end(),
                                   [&](const scenario::Scenario& s) {
                                     return !s.has_tag(*req.tag);
                                   }),
                    scenarios.end());
  }
  ListResponse resp;
  resp.scenarios.reserve(scenarios.size());
  for (const scenario::Scenario& s : scenarios) {
    resp.scenarios.push_back(summarize(s));
  }
  return resp;
}

ShowResponse Service::show(const ShowRequest& req) const {
  const Workload workload = load_workload(req.target);
  const scenario::Scenario& s = workload.scenario;
  const std::vector<math::Int> expected = s.expected_outputs();

  ShowResponse resp;
  resp.summary = summarize(s);
  resp.from_registry = workload.from_registry;
  resp.output_monotonic = crn::is_output_monotonic(s.crn);
  resp.max_reaction_order = crn::max_reaction_order(s.crn);
  resp.reference = s.reference ? s.reference->name() : "";
  for (std::size_t i = 0; i < s.verify_points.size(); ++i) {
    ShowVerifyPoint point;
    point.x = scenario::point_to_string(s.verify_points[i]);
    if (s.reference) {
      point.has_expected = true;
      point.expected = expected[i];
    }
    resp.verify_points.push_back(std::move(point));
  }
  resp.crn_text = crn::to_text(s.crn);
  return resp;
}

CompileResponse Service::compile(const CompileRequest& req) const {
  Workload workload = load_workload(req.target);
  crn::Crn network = std::move(workload.scenario.crn);
  if (req.bimolecular) network = crn::to_bimolecular(network);
  const std::string text = crn::to_text(network);

  if (!req.out_path.empty()) {
    std::ofstream file(req.out_path);
    if (!file) {
      throw std::invalid_argument("cannot write '" + req.out_path + "'");
    }
    file << text;
  }

  CompileResponse resp;
  resp.name = network.name();
  resp.species = network.species_count();
  resp.reactions = network.reactions().size();
  resp.bimolecular = req.bimolecular;
  resp.out = req.out_path;
  resp.crn_text = text;
  return resp;
}

SimulateResponse Service::simulate(const SimulateRequest& req) const {
  const Workload workload = load_workload(req.target);
  const scenario::Scenario& s = workload.scenario;
  const fn::Point x =
      req.input ? scenario::point_from_string(*req.input) : s.sim_input;

  sim::EnsembleOptions options;
  options.trajectories = req.trajectories;
  options.seed = req.seed;
  options.threads = req.threads;
  if (req.max_steps) options.max_steps = *req.max_steps;
  if (req.max_events) options.max_events = *req.max_events;
  options.method = parse_method(req.method);
  const std::int64_t deadline_ms =
      req.deadline_ms > 0 ? req.deadline_ms : options_.default_deadline_ms;
  const util::CancelToken token(deadline_ms);
  options.cancel = &token;

  const sim::EnsembleRunner runner(s.crn);
  const sim::EnsembleResult result = runner.run_for_input(x, options);

  SimulateResponse resp;
  resp.scenario = s.name;
  resp.input = scenario::point_to_string(x);
  resp.method = req.method;
  resp.trajectories = result.trajectories.size();
  resp.threads = options.threads;
  resp.seed = options.seed;
  resp.silent = result.silent_count;
  resp.total_events = result.total_events;
  resp.wall_seconds = result.wall_seconds;
  resp.events_per_sec = result.events_per_second();
  resp.output_consistent = result.output_consistent;
  resp.all_silent =
      result.silent_count == static_cast<int>(result.trajectories.size());
  // Only silent trajectories have settled: with none, output_consistent is
  // vacuously true and no comparison against the reference happened.
  resp.compared = result.silent_count > 0;
  resp.output = result.output;
  resp.summary = result.summary();
  resp.cancelled = result.cancelled_count;
  resp.deadline_exceeded = result.cancelled_count > 0;

  bool ok = result.output_consistent && !resp.deadline_exceeded;
  resp.has_expected = s.reference.has_value();
  if (resp.has_expected) {
    resp.expected = (*s.reference)(x);
    // A consistent silent output that disagrees with the reference is a
    // genuine failure.
    if (resp.compared && result.output_consistent &&
        result.output != resp.expected) {
      ok = false;
    }
  }
  resp.ok = ok;
  return resp;
}

BenchResponse Service::bench(const BenchRequest& req) const {
  sim::EnsembleOptions options;
  options.trajectories = req.trajectories;
  options.seed = req.seed;
  options.threads = req.threads;
  options.method = parse_method(req.method);
  // Split the budget across trajectories so the batch measures the same
  // amount of work regardless of the batch size.
  const std::uint64_t per_trajectory = std::max<std::uint64_t>(
      1, req.events / static_cast<std::uint64_t>(
                          std::max(1, req.trajectories)));
  options.max_events = per_trajectory;
  options.max_steps = per_trajectory;
  options.max_interactions = per_trajectory;

  const Workload workload = load_workload(req.target);
  const scenario::Scenario& s = workload.scenario;
  const fn::Point x =
      req.input ? scenario::point_from_string(*req.input) : s.sim_input;

  const sim::EnsembleRunner runner(s.crn);
  const sim::EnsembleResult result = runner.run_for_input(x, options);

  BenchResponse resp;
  resp.name = s.name;
  resp.input = scenario::point_to_string(x);
  resp.method = req.method;
  resp.trajectories = req.trajectories;
  resp.species = s.crn.species_count();
  resp.reactions = s.crn.reactions().size();
  resp.events_per_sec = result.events_per_second();
  resp.wall_seconds = result.wall_seconds;
  resp.events = result.total_events;
  return resp;
}

Service::CheckOutcome Service::check_point(
    const crn::Crn& crn, std::uint64_t crn_hash, const fn::Point& x,
    math::Int expected, const verify::StableCheckOptions& options,
    bool use_cache) {
  const ProofKey key{crn_hash, x, expected};
  CheckOutcome out;
  out.report.x = scenario::point_to_string(x);
  out.report.expected = expected;

  // Single-flight: claim the (key, budget) slot BEFORE the first lookup,
  // so a burst of identical cold requests runs exactly one exploration —
  // the leader misses, explores, and inserts while the followers wait on
  // the claim, then hit the verdict it cached. Held to end of scope; a
  // leader that exits without inserting promotes the next waiter.
  std::optional<ProofCache::Flight> flight;
  if (use_cache) flight.emplace(cache_, key, options.max_configs);

  if (use_cache) {
    if (auto hit = cache_.lookup(key, options.max_configs)) {
      out.report.ok = hit->ok;
      out.report.complete = hit->complete;
      out.report.configs = hit->num_configs;
      out.report.edges = hit->num_edges;
      out.report.cached = true;
      out.report.wall_seconds = hit->stats.wall_seconds;
      out.report.frontier_peak = hit->stats.frontier_peak;
      out.report.arena_bytes = hit->stats.arena_bytes;
      out.report.spilled = hit->stats.spilled;
      out.report.spill_bytes_written = hit->stats.spill_bytes_written;
      out.report.spill_bytes_read = hit->stats.spill_bytes_read;
      out.report.witness = std::move(hit->witness);
      out.report.invariants = std::move(hit->invariants);
      out.stats = hit->stats;
    }
  }
  if (!out.report.cached) {
    // Certificates of the conservation laws at this point's I_x; stamped
    // into the report and the cached verdict so a later hit still carries
    // the invariants its exploration ran under.
    if (options.invariants != nullptr && !options.invariants->empty()) {
      const crn::Config initial = crn.initial_configuration(x);
      out.report.invariants = lint::certificates(
          lint::make_guide(*options.invariants, initial), initial);
    }
    const verify::StableCheckResult result =
        verify::check_stable_computation(crn, x, expected, options);
    out.report.ok = result.ok;
    out.report.complete = result.complete;
    out.report.configs = result.num_configs;
    out.report.edges = result.num_edges;
    out.report.wall_seconds = result.explore_stats.wall_seconds;
    out.report.frontier_peak = result.explore_stats.frontier_peak;
    out.report.arena_bytes = result.explore_stats.arena_bytes;
    out.report.spilled = result.explore_stats.spilled;
    out.report.spill_bytes_written = result.explore_stats.spill_bytes_written;
    out.report.spill_bytes_read = result.explore_stats.spill_bytes_read;
    out.report.witness = result.counterexample_path;
    out.stats = result.explore_stats;
    out.fresh = true;
    if (result.num_configs > 0) {
      // Bytes-per-config actuals for the memory-budget clamp: every
      // non-arena array the explorer held for this graph, with the CSR
      // term from the real edge density instead of a guess.
      const std::size_t actual =
          8 + 16 + 8 + 8 + 8 + 24 +
          (4 * result.num_edges) / result.num_configs;
      std::size_t seen =
          observed_overhead_per_config_.load(std::memory_order_relaxed);
      while (actual > seen &&
             !observed_overhead_per_config_.compare_exchange_weak(
                 seen, actual, std::memory_order_relaxed)) {
      }
    }
    if (result.cancelled) {
      // Where the deadline cut the exploration off is wall-clock luck,
      // not content — never cache it, and surface the typed status.
      out.report.status = "deadline_exceeded";
      return out;
    }
    if (use_cache) {
      ProofVerdict verdict;
      verdict.ok = result.ok;
      verdict.complete = result.complete;
      verdict.budget = options.max_configs;
      verdict.num_configs = result.num_configs;
      verdict.num_edges = result.num_edges;
      verdict.stats = result.explore_stats;
      verdict.witness = result.counterexample_path;
      verdict.invariants = out.report.invariants;
      cache_.insert(key, std::move(verdict));
    }
  }
  const bool proof = out.report.ok && out.report.complete;
  out.report.status = proof                ? "proved"
                      : out.report.complete ? "FAILED"
                                            : "inconclusive";
  return out;
}

VerifyResponse Service::verify(const VerifyRequest& req) {
  const Workload workload = load_workload(req.target);
  const scenario::Scenario& s = workload.scenario;

  VerifyResponse resp;
  resp.scenario = s.name;
  resp.want_stats = req.stats;

  if (s.unverifiable() && !req.force) {
    resp.skipped = true;
    resp.reason = s.unverifiable_reason;
    resp.ok = true;
    return resp;
  }

  // Resolve the points to check and their expected outputs.
  std::vector<fn::Point> points;
  std::vector<math::Int> expected;
  if (req.input) {
    points.push_back(scenario::point_from_string(*req.input));
    if (req.expect) {
      expected.push_back(scenario::point_from_string(*req.expect).front());
    } else if (s.reference) {
      expected.push_back((*s.reference)(points.front()));
    } else {
      throw std::invalid_argument(
          "file workloads have no reference function; pass --expect V");
    }
  } else {
    if (!s.reference) {
      throw std::invalid_argument(
          "file workloads have no reference function; pass --input and "
          "--expect");
    }
    if (req.grid) {
      const math::Int m = scenario::point_from_string(*req.grid).front();
      points = scenario::grid_points(s.crn.input_arity(), m);
    } else {
      points = s.verify_points;
    }
    for (const fn::Point& x : points) expected.push_back((*s.reference)(x));
  }
  if (points.empty()) {
    throw std::invalid_argument("no verify points for '" + s.name + "'");
  }

  verify::StableCheckOptions options;
  if (req.max_configs > 0) {
    options.max_configs = req.max_configs;
  } else if (s.verify_max_configs > 0) {
    options.max_configs = s.verify_max_configs;
  }
  options.threads = req.threads;
  bool would_degrade = false;
  const std::size_t clamped = clamp_to_memory_budget(
      options.max_configs, s.crn.species_count(), &would_degrade);
  if (would_degrade && !options_.spill_dir.empty()) {
    // Graceful-degradation ladder, exact rung: instead of truncating to
    // the clamp, keep the requested budget and have the explorer spill
    // cold arena pages into checksummed segment files — same graph, same
    // verdict, annotated `spilled`. Truncation (`degraded`) remains the
    // last rung when no spill directory is configured.
    options.spill_dir = options_.spill_dir;
    options.memory_budget_bytes = options_.memory_budget_bytes;
  } else {
    options.max_configs = clamped;
    resp.degraded = would_degrade;
  }
  if (points.size() == 1) {
    // One checkpoint file describes one exploration; multi-point
    // requests would overwrite it per point, so gate it to single-point
    // runs (the `crnc verify --input` shape the CLI flags produce).
    options.checkpoint_path = req.checkpoint_path;
    options.checkpoint_every_secs = req.checkpoint_every_secs;
    options.resume = req.resume;
  }
  resp.max_configs = options.max_configs;
  resp.threads_resolved = options.threads;

  // One token covers the whole request: points checked after expiry
  // return deadline_exceeded immediately instead of each getting a
  // fresh budget.
  const std::int64_t deadline_ms =
      req.deadline_ms > 0 ? req.deadline_ms : options_.default_deadline_ms;
  const util::CancelToken token(deadline_ms);
  options.cancel = &token;

  // Conservation laws are a property of the CRN: extract once, then each
  // point derives its own bounds from them at I_x inside the checker.
  std::vector<lint::ConservationLaw> laws;
  if (req.use_invariants) {
    laws = lint::extract_conservation_laws(s.crn);
    if (!laws.empty()) options.invariants = &laws;
  }
  resp.conservation_laws = laws.size();

  const std::uint64_t crn_hash = crn::canonical_hash(s.crn);
  for (std::size_t i = 0; i < points.size(); ++i) {
    CheckOutcome outcome = check_point(s.crn, crn_hash, points[i],
                                       expected[i], options, req.use_cache);
    const VerifyPointReport& report = outcome.report;
    if (report.status == "deadline_exceeded") {
      ++resp.deadline_exceeded;
      ++resp.inconclusive;
    } else if (report.ok && report.complete) {
      ++resp.proved;
    } else if (!report.complete) {
      ++resp.inconclusive;
    } else {
      ++resp.failed;
    }
    resp.max_configs_explored =
        std::max(resp.max_configs_explored, report.configs);
    resp.total_configs += report.configs;
    resp.total_edges += report.edges;
    resp.frontier_peak = std::max(resp.frontier_peak, report.frontier_peak);
    resp.arena_bytes_peak =
        std::max(resp.arena_bytes_peak, report.arena_bytes);
    if (report.spilled) resp.spilled = true;
    resp.spill_bytes_written += report.spill_bytes_written;
    resp.spill_bytes_read += report.spill_bytes_read;
    if (outcome.fresh) {
      // Cache hits are free: wall time and pool counters aggregate over
      // the explorations this request actually ran.
      resp.total_seconds += outcome.stats.wall_seconds;
      resp.pool_tasks += outcome.stats.pool_tasks;
      resp.pool_steals += outcome.stats.pool_steals;
      resp.pool_parks += outcome.stats.pool_parks;
      resp.threads_resolved = outcome.stats.threads;
      ++resp.cache_misses;
    } else {
      ++resp.cache_hits;
    }
    resp.points.push_back(std::move(outcome.report));
  }
  if (!req.use_cache) {
    resp.cache_hits = 0;
    resp.cache_misses = 0;
  }
  resp.ok = resp.failed == 0 && resp.inconclusive == 0;
  return resp;
}

}  // namespace crnkit::svc
