#include "verify/stable.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "geom/arrangement.h"
#include "lint/guide.h"
#include "math/check.h"
#include "obs/trace.h"

namespace crnkit::verify {

namespace {

/// Verdict summary of one strongly connected component: the min and max
/// output count reachable from it, and whether it can reach a correct
/// stable component (one whose reachable outputs are all `expected`).
struct ComponentSummary {
  ConfigStore::Count lo;
  ConfigStore::Count hi;
  bool good;
};
static_assert(sizeof(ComponentSummary) == 12);

/// Tarjan bookkeeping per node: DFS index (-1 = unvisited) and component
/// id (-1 while the node is still on the Tarjan stack).
struct NodeState {
  std::int32_t index = -1;
  std::int32_t comp = -1;
};
static_assert(sizeof(NodeState) == 8);

struct SccVerdict {
  std::vector<NodeState> node;
  std::vector<ComponentSummary> comp;

  [[nodiscard]] bool good(std::size_t v) const {
    return comp[static_cast<std::size_t>(node[v].comp)].good;
  }
};

/// One iterative Tarjan pass over the CSR adjacency that also folds the
/// verdict. Tarjan finishes components sinks first, so every component an
/// edge leaves to is already final when the edge is scanned. Each DFS
/// frame carries its subtree's running fold (lowlink, output range,
/// "reaches a good component"): an edge into a finished component folds
/// that component's summary in; a returning child either finishes its own
/// component (the parent folds the summary) or lies in the parent's
/// component and merges its frame into the parent's. When a component's
/// root returns, its frame holds the whole component's fold.
SccVerdict fold_scc_verdict(const ReachabilityGraph& graph,
                            const std::vector<ConfigStore::Count>& out,
                            math::Int expected) {
  struct Frame {
    std::int32_t node;
    std::int32_t low;
    std::uint64_t edge;  ///< next CSR position to scan
    std::uint64_t end;
    ConfigStore::Count lo;
    ConfigStore::Count hi;
    bool reach_good;
  };
  const std::size_t n = graph.size();
  SccVerdict v;
  v.node.resize(n);
  std::vector<Frame> frames;
  std::vector<std::int32_t> stack;
  std::int32_t next_index = 0;

  const auto enter = [&](std::int32_t w) {
    const auto u = static_cast<std::size_t>(w);
    v.node[u].index = next_index;
    frames.push_back({w, next_index, graph.succ_off[u], graph.succ_off[u + 1],
                      out[u], out[u], false});
    ++next_index;
    stack.push_back(w);
  };
  // Every edge between components must point at a finished one with a
  // smaller id.
  const auto fold_component = [&](Frame& frame, std::int32_t c) {
    ensure(c >= 0 && static_cast<std::size_t>(c) < v.comp.size(),
           "check_stable_computation: SCC order violated");
    const ComponentSummary& s = v.comp[static_cast<std::size_t>(c)];
    frame.lo = std::min(frame.lo, s.lo);
    frame.hi = std::max(frame.hi, s.hi);
    frame.reach_good = frame.reach_good || s.good;
  };

  for (std::size_t root = 0; root < n; ++root) {
    if (v.node[root].index != -1) continue;
    enter(static_cast<std::int32_t>(root));
    while (!frames.empty()) {
      Frame& frame = frames.back();
      if (frame.edge < frame.end) {
        const std::int32_t w = graph.succ[frame.edge++];
        const NodeState s = v.node[static_cast<std::size_t>(w)];
        if (s.index == -1) {
          enter(w);  // invalidates `frame`
        } else if (s.comp == -1) {
          frame.low = std::min(frame.low, s.index);
        } else {
          fold_component(frame, s.comp);
        }
        continue;
      }
      const Frame done = frame;
      frames.pop_back();
      if (done.low != v.node[static_cast<std::size_t>(done.node)].index) {
        // Not a root: the parent lies in the same component.
        Frame& parent = frames.back();
        parent.low = std::min(parent.low, done.low);
        parent.lo = std::min(parent.lo, done.lo);
        parent.hi = std::max(parent.hi, done.hi);
        parent.reach_good = parent.reach_good || done.reach_good;
        continue;
      }
      const auto c = static_cast<std::int32_t>(v.comp.size());
      v.comp.push_back(
          {done.lo, done.hi,
           done.reach_good || (done.lo == done.hi && done.lo == expected)});
      std::int32_t w = -1;
      while (w != done.node) {
        w = stack.back();
        stack.pop_back();
        v.node[static_cast<std::size_t>(w)].comp = c;
      }
      if (!frames.empty()) fold_component(frames.back(), c);
    }
  }
  return v;
}

}  // namespace

std::string StableCheckResult::summary(const crn::Crn& crn) const {
  std::ostringstream os;
  os << (ok ? "OK" : "FAIL") << " expected=" << expected
     << " configs=" << num_configs << (complete ? "" : " (INCOMPLETE)");
  if (counterexample) {
    os << " counterexample=" << crn.config_to_string(*counterexample);
  }
  if (overproduction) {
    os << " overproduction=" << crn.config_to_string(*overproduction);
  }
  return os.str();
}

StableCheckResult check_stable_computation(const crn::Crn& crn,
                                           const fn::Point& x,
                                           math::Int expected,
                                           const StableCheckOptions& options) {
  StableCheckResult result;
  result.expected = expected;
  obs::Span check_span("verify.stable_check");

  const crn::Config initial = crn.initial_configuration(x);
  ExploreOptions explore_options;
  explore_options.max_configs = options.max_configs;
  explore_options.threads = options.threads;
  explore_options.cancel = options.cancel;
  explore_options.checkpoint_path = options.checkpoint_path;
  explore_options.checkpoint_every_secs = options.checkpoint_every_secs;
  explore_options.resume = options.resume;
  explore_options.spill_dir = options.spill_dir;
  explore_options.memory_budget_bytes = options.memory_budget_bytes;
  explore_options.spill_page_bytes = options.spill_page_bytes;
  lint::InvariantGuide guide;
  if (options.invariants != nullptr && !options.invariants->empty()) {
    guide = lint::make_guide(*options.invariants, initial);
    explore_options.species_bounds = &guide.bounds;
    explore_options.expected_configs = guide.reachable_bound;
  }
  const ReachabilityGraph graph = explore(crn, initial, explore_options);
  result.complete = graph.complete;
  result.cancelled = graph.cancelled;
  result.num_configs = graph.size();
  result.num_edges = graph.edge_count();
  result.explore_stats = graph.stats;

  const auto y = static_cast<std::size_t>(crn.output_or_throw());

  // One streamed copy of the output column feeds both the overproduction
  // scan and the verdict pass: under out-of-core exploration per-node
  // view() reads would fault evicted pages back one witness at a time;
  // collect_column streams each spilled segment exactly once instead.
  std::vector<ConfigStore::Count> out_column;
  {
    obs::Span scan_span("verify.output_scan");
    graph.store.collect_column(y, out_column);
    // Overproduction is meaningful on its own (even from incomplete graphs).
    if (const auto over = find_output_exceeding(out_column, expected)) {
      result.overproduction = graph.config(*over);
    }
  }

  SccVerdict verdict;
  {
    obs::Span scc_span("verify.scc");
    verdict = fold_scc_verdict(graph, out_column, expected);
    scc_span.arg("nodes", static_cast<std::int64_t>(graph.size()));
    scc_span.arg("components", static_cast<std::int64_t>(verdict.comp.size()));
  }

  {
    obs::Span verdict_span("verify.verdict");
    result.ok = true;
    for (std::size_t node = 0; node < graph.size(); ++node) {
      if (!verdict.good(node)) {
        result.ok = false;
        result.counterexample = graph.config(static_cast<int>(node));
        result.counterexample_path =
            path_from_root(graph, static_cast<int>(node));
        break;
      }
    }
  }
  // An incomplete exploration cannot prove success.
  if (!graph.complete && result.ok) {
    result.ok = false;
    result.counterexample.reset();
    result.counterexample_path.clear();
  }
  check_span.arg("ok", result.ok ? 1 : 0);
  return result;
}

GridCheckResult check_stable_computation_on_grid(
    const crn::Crn& crn, const fn::DiscreteFunction& f, math::Int grid_max,
    const StableCheckOptions& options) {
  require(crn.input_arity() == f.dimension(),
          "check_stable_computation_on_grid: arity mismatch");
  GridCheckResult result;
  geom::for_each_grid_point(
      f.dimension(), grid_max, [&](const std::vector<math::Int>& x) {
        ++result.points_checked;
        const auto check = check_stable_computation(crn, x, f(x), options);
        if (!check.ok) {
          result.all_ok = false;
          result.failures.push_back(x);
        }
      });
  return result;
}

}  // namespace crnkit::verify
