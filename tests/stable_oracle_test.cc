// Differential test of check_stable_computation against a
// definition-literal checker that uses no SCCs, plus deep-graph tests of
// the single-pass verdict.
//
// The oracle restates Section 2.2 directly on the explored graph: a node
// is "bad" iff it can reach a configuration whose output differs from the
// expected value (so a node is not bad iff every configuration reachable
// from it, itself included, is output-stable at f(x)); the CRN stably
// computes f(x) iff every node can reach a node that is not bad. Both
// marks are reverse BFS over the CSR edges. A disagreement is a bug in
// the verifier, not in the oracle.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "broken_networks.h"
#include "compile/oned.h"
#include "fn/examples.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "verify/reachability.h"
#include "verify/stable.h"

namespace crnkit::verify {
namespace {

using math::Int;

struct OracleVerdict {
  bool ok = false;
  std::optional<int> counterexample;  ///< first unmarked node id
  std::size_t depth = 0;  ///< BFS distance from the root to it
};

/// Marks every node that can reach a seeded node, by BFS over `pred`
/// (predecessor CSR) from all seeds at once.
void mark_backward(const std::vector<std::size_t>& pred_off,
                   const std::vector<int>& pred, std::vector<char>& marked) {
  std::deque<int> queue;
  for (std::size_t v = 0; v < marked.size(); ++v) {
    if (marked[v] != 0) queue.push_back(static_cast<int>(v));
  }
  while (!queue.empty()) {
    const auto v = static_cast<std::size_t>(queue.front());
    queue.pop_front();
    for (std::size_t k = pred_off[v]; k < pred_off[v + 1]; ++k) {
      const auto u = static_cast<std::size_t>(pred[k]);
      if (marked[u] == 0) {
        marked[u] = 1;
        queue.push_back(pred[k]);
      }
    }
  }
}

OracleVerdict oracle_verdict(const crn::Crn& crn,
                             const ReachabilityGraph& graph, Int expected) {
  const std::size_t n = graph.size();
  const auto y = static_cast<std::size_t>(crn.output_or_throw());
  std::vector<std::size_t> pred_off(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) {
    for (const std::int32_t w : graph.successors(static_cast<int>(u))) {
      ++pred_off[static_cast<std::size_t>(w) + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) pred_off[v + 1] += pred_off[v];
  std::vector<int> pred(pred_off[n]);
  std::vector<std::size_t> fill(pred_off.begin(), pred_off.end() - 1);
  for (std::size_t u = 0; u < n; ++u) {
    for (const std::int32_t w : graph.successors(static_cast<int>(u))) {
      pred[fill[static_cast<std::size_t>(w)]++] = static_cast<int>(u);
    }
  }

  std::vector<char> bad(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    bad[v] = graph.config(static_cast<int>(v))[y] != expected ? 1 : 0;
  }
  mark_backward(pred_off, pred, bad);
  std::vector<char> reaches_good(n, 0);
  for (std::size_t v = 0; v < n; ++v) reaches_good[v] = bad[v] == 0 ? 1 : 0;
  mark_backward(pred_off, pred, reaches_good);

  OracleVerdict verdict;
  verdict.ok = true;
  for (std::size_t v = 0; v < n; ++v) {
    if (reaches_good[v] == 0) {
      verdict.ok = false;
      verdict.counterexample = static_cast<int>(v);
      break;
    }
  }
  if (!graph.complete && verdict.ok) verdict.ok = false;
  if (verdict.counterexample) {
    // Forward BFS distance from the root: the witness must be a shortest
    // path, since exploration numbers nodes level by level.
    std::vector<std::size_t> dist(n, n);
    std::deque<int> queue{0};
    dist[0] = 0;
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      for (const std::int32_t w : graph.successors(u)) {
        auto& d = dist[static_cast<std::size_t>(w)];
        if (d == n) {
          d = dist[static_cast<std::size_t>(u)] + 1;
          queue.push_back(w);
        }
      }
    }
    verdict.depth = dist[static_cast<std::size_t>(*verdict.counterexample)];
  }
  return verdict;
}

/// Applies `path` from I_x, failing on an inapplicable step.
crn::Config replay(const crn::Crn& crn, const fn::Point& x,
                   const std::vector<int>& path) {
  crn::Config c = crn.initial_configuration(x);
  for (const int r : path) {
    const crn::Reaction& reaction =
        crn.reactions().at(static_cast<std::size_t>(r));
    EXPECT_TRUE(reaction.applicable(c)) << "witness step " << r;
    if (!reaction.applicable(c)) break;
    reaction.apply_in_place(c);
  }
  return c;
}

std::string spill_dir(const std::string& stem) {
  return testing::TempDir() + stem + "." + std::to_string(::getpid());
}

enum class Mode { kSerial, kThreads, kSpilled };

StableCheckOptions options_for(Mode mode, std::size_t max_configs) {
  StableCheckOptions options;
  options.max_configs = max_configs;
  if (mode == Mode::kThreads) options.threads = 4;
  if (mode == Mode::kSpilled) {
    options.threads = 2;
    options.spill_dir = spill_dir("stable_oracle_spill");
    options.memory_budget_bytes = 4096;
    options.spill_page_bytes = 4096;
  }
  return options;
}

/// The oracle's graph: an in-RAM serial exploration. Graphs are identical
/// for every thread count and spill setting.
ReachabilityGraph reference_graph(const crn::Crn& crn, const fn::Point& x,
                                  std::size_t max_configs) {
  ExploreOptions options;
  options.max_configs = max_configs;
  return explore(crn, crn.initial_configuration(x), options);
}

/// Runs the verifier in `mode` at the budget `graph` was explored with and
/// the oracle on `graph`; returns the verifier's verdict.
bool expect_agrees(const crn::Crn& crn, const fn::Point& x,
                   const ReachabilityGraph& graph, std::size_t max_configs,
                   Int expected, Mode mode, const std::string& label) {
  SCOPED_TRACE(label);
  const OracleVerdict want = oracle_verdict(crn, graph, expected);
  const StableCheckOptions options = options_for(mode, max_configs);
  const StableCheckResult got =
      check_stable_computation(crn, x, expected, options);
  if (mode == Mode::kSpilled) std::filesystem::remove_all(options.spill_dir);

  EXPECT_EQ(got.num_configs, graph.size());
  EXPECT_EQ(got.num_edges, graph.edge_count());
  EXPECT_EQ(got.complete, graph.complete);
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.counterexample.has_value(), want.counterexample.has_value());
  if (want.counterexample && got.counterexample) {
    EXPECT_EQ(*got.counterexample, graph.config(*want.counterexample));
    EXPECT_EQ(replay(crn, x, got.counterexample_path), *got.counterexample);
    EXPECT_EQ(got.counterexample_path.size(), want.depth);
  } else {
    EXPECT_TRUE(got.counterexample_path.empty());
  }
  return got.ok;
}

TEST(StableOracle, AgreesOnRegistryPointsUnder50kConfigs) {
  constexpr std::size_t kMaxConfigs = 50'000;
  int compared = 0;
  for (const scenario::Scenario& s :
       scenario::Registry::builtin().build_all()) {
    if (!s.reference) continue;
    for (const fn::Point& x : s.verify_points) {
      const ReachabilityGraph graph = reference_graph(s.crn, x, kMaxConfigs);
      if (!graph.complete) continue;
      const std::string label =
          s.name + " at x = " + scenario::point_to_string(x);
      const Int expected = (*s.reference)(x);
      (void)expect_agrees(s.crn, x, graph, kMaxConfigs, expected,
                          Mode::kSerial, label);
      (void)expect_agrees(s.crn, x, graph, kMaxConfigs, expected,
                          Mode::kThreads, label + " (4 threads)");
      // A wrong expected value turns every proof into a failure with a
      // counterexample at the root's component or below.
      (void)expect_agrees(s.crn, x, graph, kMaxConfigs, expected + 1,
                          Mode::kSerial, label + " (expected + 1)");
      ++compared;
    }
  }
  EXPECT_GT(compared, 50);
}

TEST(StableOracle, AgreesOnSpilledRegistryPoints) {
  // Tiny pages evict every frozen page; spilled graphs are small here so
  // the oracle's per-row reads stay cheap.
  constexpr std::size_t kMaxConfigs = 5'000;
  int compared = 0;
  for (const std::string name : {"fig1/min", "thm52/fig7", "chain/compose-4",
                                 "circuit/random-8-3"}) {
    const scenario::Scenario s = scenario::Registry::builtin().build(name);
    for (const fn::Point& x : s.verify_points) {
      const std::string label = name + " at x = " +
                                scenario::point_to_string(x) + " (spilled)";
      const ReachabilityGraph graph = reference_graph(s.crn, x, kMaxConfigs);
      const Int expected = (*s.reference)(x);
      (void)expect_agrees(s.crn, x, graph, kMaxConfigs, expected,
                          Mode::kSpilled, label);
      (void)expect_agrees(s.crn, x, graph, kMaxConfigs, expected + 1,
                          Mode::kSpilled, label + " (expected + 1)");
      ++compared;
    }
  }
  EXPECT_GT(compared, 4);
}

TEST(StableOracle, AgreesOnBrokenNetworks) {
  const auto f = fn::examples::floor_3x_over_2();
  const crn::Crn good = compile::compile_oned(f);
  int failures = 0;
  for (std::size_t j = 0; j < good.reactions().size(); ++j) {
    for (const bool drop : {true, false}) {
      const crn::Crn broken = drop ? test::without_reaction(good, j)
                                   : test::with_extra_output(good, j);
      for (Int x = 0; x <= 8; ++x) {
        const auto mode =
            static_cast<Mode>((j + static_cast<std::size_t>(x)) % 3);
        const bool ok = expect_agrees(
            broken, {x}, reference_graph(broken, {x}, 20'000), 20'000, f(x),
            mode,
            broken.name() + " (reaction " + std::to_string(j) +
                ") at x = " + std::to_string(x));
        if (!ok) ++failures;
      }
    }
  }
  EXPECT_GT(failures, 0);
}

/// A random small CRN: 2-4 species, 1-4 reactions of order <= 2 with
/// stoichiometry <= 2, first species (and sometimes the second) as
/// inputs, last species as output, sometimes a leader.
crn::Crn random_crn(std::mt19937_64& rng, int seed) {
  const char* names[] = {"A", "B", "C", "D"};
  std::uniform_int_distribution<int> species_count(2, 4);
  const int s = species_count(rng);
  crn::Crn crn("random-" + std::to_string(seed));
  for (int i = 0; i < s; ++i) crn.add_species(names[i]);
  std::uniform_int_distribution<int> pick(0, s - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> reaction_count(1, 4);
  const int target = reaction_count(rng);
  for (int attempt = 0; static_cast<int>(crn.reactions().size()) < target &&
                        attempt < 32;
       ++attempt) {
    std::vector<crn::Term> reactants;
    std::vector<crn::Term> products;
    reactants.push_back(
        {static_cast<crn::SpeciesId>(pick(rng)), 1 + coin(rng)});
    if (coin(rng) == 1) {
      reactants.push_back({static_cast<crn::SpeciesId>(pick(rng)), 1});
    }
    const int product_terms = pick(rng) % 3;
    for (int k = 0; k < product_terms; ++k) {
      products.push_back(
          {static_cast<crn::SpeciesId>(pick(rng)), 1 + coin(rng)});
    }
    try {
      crn.add_reaction(
          crn::Reaction(std::move(reactants), std::move(products)));
    } catch (const std::invalid_argument&) {
      // R == P after merging: draw again.
    }
  }
  std::vector<std::string> inputs{names[0]};
  if (s > 2 && coin(rng) == 1) inputs.push_back(names[1]);
  crn.set_input_species(inputs);
  crn.set_output_species(names[s - 1]);
  if (s > 2 && coin(rng) == 1 && inputs.size() == 1) {
    crn.set_leader_species(names[1]);
  }
  return crn;
}

TEST(StableOracle, AgreesOnRandomSmallCrns) {
  constexpr std::size_t kMaxConfigs = 2'000;
  int passes = 0;
  int fails = 0;
  for (int seed = 0; seed < 240; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 7919 + 17);
    const crn::Crn crn = random_crn(rng, seed);
    std::uniform_int_distribution<Int> input(0, 4);
    fn::Point x;
    for (int i = 0; i < crn.input_arity(); ++i) x.push_back(input(rng));
    // Candidate expected values: the output of the last-discovered
    // configuration (often terminal, so often the computed value), the
    // root's output (often the low end of a component's output range)
    // and a random small value.
    const ReachabilityGraph graph = reference_graph(crn, x, kMaxConfigs);
    const auto y = static_cast<std::size_t>(crn.output_or_throw());
    const Int last = graph.config(static_cast<int>(graph.size()) - 1)[y];
    const Int root = graph.config(0)[y];
    const Mode mode = static_cast<Mode>(seed % 3);
    for (const Int expected : {last, root, input(rng)}) {
      const std::string label = crn.to_string() + " at x = " +
                                scenario::point_to_string(x) +
                                ", expected " + std::to_string(expected);
      if (expect_agrees(crn, x, graph, kMaxConfigs, expected, mode, label)) {
        ++passes;
      } else {
        ++fails;
      }
    }
  }
  // The sweep must exercise both verdicts to mean anything.
  EXPECT_GE(passes, 20);
  EXPECT_GE(fails, 20);
}

// The verdict pass must not recurse: one component of 100k+ nodes and a
// DFS spine 100k+ levels deep both run in bounded native stack.

TEST(StableDeepGraph, GiantComponentFailsWithReplayableWitness) {
  // X <-> Y over n molecules: all n + 1 configurations form one strongly
  // connected component whose output Y ranges over [0, n], so nothing is
  // output-stable and the root itself is the counterexample.
  crn::Crn crn("flip");
  crn.add_reaction_str("X -> Y");
  crn.add_reaction_str("Y -> X");
  crn.set_input_species({"X"});
  crn.set_output_species("Y");
  constexpr Int kN = 100'000;
  // Either end of the output range must fail: the component's range is
  // folded across the whole DFS spine, not just the root's neighbours.
  for (const Int expected : {kN, Int{0}}) {
    SCOPED_TRACE(expected);
    const StableCheckResult r = check_stable_computation(crn, {kN}, expected);
    EXPECT_TRUE(r.complete);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.num_configs, static_cast<std::size_t>(kN) + 1);
    EXPECT_EQ(r.num_edges, 2 * static_cast<std::size_t>(kN));
    ASSERT_TRUE(r.counterexample.has_value());
    EXPECT_EQ(*r.counterexample, crn.initial_configuration({kN}));
    EXPECT_EQ(replay(crn, {kN}, r.counterexample_path), *r.counterexample);
  }
}

TEST(StableDeepGraph, IrreversibleChainPasses) {
  // X -> Y over n molecules: a chain of n + 1 singleton components, n
  // levels deep, ending in the silent configuration Y = n.
  crn::Crn crn("drain");
  crn.add_reaction_str("X -> Y");
  crn.set_input_species({"X"});
  crn.set_output_species("Y");
  constexpr Int kN = 100'000;
  const StableCheckResult r = check_stable_computation(crn, {kN}, kN);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.ok) << r.summary(crn);
  EXPECT_EQ(r.num_configs, static_cast<std::size_t>(kN) + 1);
  EXPECT_EQ(r.num_edges, static_cast<std::size_t>(kN));
  EXPECT_FALSE(r.counterexample.has_value());
  EXPECT_FALSE(r.overproduction.has_value());
}

}  // namespace
}  // namespace crnkit::verify
