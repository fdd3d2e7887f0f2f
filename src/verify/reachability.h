// Exact reachability graphs (Section 2.2's reachability relation ->*).
//
// Level-synchronous BFS over configurations from an initial configuration,
// on a compiled, cache-friendly representation: configurations live in a
// flat arena (verify::ConfigStore — no per-node heap allocation),
// successor generation runs through the sim::CompiledNetwork CSR delta
// kernels with incremental Zobrist hashing, and edges land in a
// deduplicated CSR adjacency (succ_off/succ) that feeds the SCC passes of
// stable.h directly.
//
// Exploration is deterministic at every thread count: within a level,
// discovered configurations are numbered by (shard of their hash, order
// of first discovery in (source node, reaction) order), and a hash shard
// is only ever advanced by one thread at a time, in frontier-slice order —
// so node ids, parents, and edges are bit-identical whether explored with
// 1 thread or 64 (the reproducibility contract sim::EnsembleRunner
// established for trajectories, extended to proofs).
//
// Parallel levels run on the persistent util::TaskPool (work-stealing
// deques, parked workers) instead of spawning threads per level, and the
// generate -> intern hand-off is pipelined: as each frontier slice
// finishes generating, its per-shard candidate buckets flow to whichever
// worker owns the shard's intern cursor, with only the id-assigning
// commit left as a per-level barrier.
//
// Exploration is bounded by a configurable node budget; `complete`
// reports whether the whole reachable set was enumerated (all
// stable-computation *proofs* require complete graphs; incomplete graphs
// still yield counterexample witnesses, and parents stay valid so
// path_from_root works on every retained node).
#ifndef CRNKIT_VERIFY_REACHABILITY_H_
#define CRNKIT_VERIFY_REACHABILITY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crn/network.h"
#include "sim/compiled_network.h"
#include "util/deadline.h"
#include "verify/config_store.h"
#include "verify/spill.h"

namespace crnkit::verify {

/// Perf counters of one exploration (surfaced by `crnc verify --stats`
/// and BENCH_verification.json).
struct ExploreStats {
  double wall_seconds = 0.0;
  std::size_t frontier_peak = 0;  ///< largest BFS level, in nodes
  std::size_t levels = 0;         ///< BFS depth explored
  std::size_t arena_bytes = 0;    ///< ConfigStore arena + hash tables
  int threads = 1;  ///< resolved worker count (small levels still run serial)
  // util::TaskPool utilization during this exploration. tasks and steals
  // are attributed exactly to this exploration's own jobs through a
  // TaskPool::CounterScope on the submitting thread — concurrent
  // explorations on the shared pool no longer bleed into each other
  // (asserted by parallel_explore_test). parks stay a process-global
  // delta: workers park between jobs, when no exploration owns them, so
  // the CLI treats that one as informational.
  std::uint64_t pool_tasks = 0;   ///< chunks of this exploration's jobs
  std::uint64_t pool_steals = 0;  ///< steals within this exploration's jobs
  std::uint64_t pool_parks = 0;   ///< worker condvar parks (global delta)
  /// Out-of-core mode: true iff at least one arena page was evicted to a
  /// spill segment. The verdict is still exact — spilling changes where
  /// bytes live, never which configurations exist.
  bool spilled = false;
  std::uint64_t spill_segments_written = 0;
  std::uint64_t spill_segments_read = 0;
  std::uint64_t spill_bytes_written = 0;
  std::uint64_t spill_bytes_read = 0;
};

struct ReachabilityGraph {
  ConfigStore store;                       ///< node id -> configuration
  std::vector<std::uint64_t> succ_off;     ///< CSR offsets, size()+1 entries
  std::vector<std::int32_t> succ;          ///< deduplicated successor ids
  std::vector<std::int32_t> parent;        ///< BFS tree parent (-1 for root)
  std::vector<std::int32_t> parent_reaction;  ///< reaction reaching node
  bool complete = true;   ///< false iff node budget was hit or cancelled
  /// True iff exploration stopped at a level boundary because its cancel
  /// token expired (deadline or explicit cancel); implies !complete
  /// unless the graph happened to be fully enumerated already.
  bool cancelled = false;
  ExploreStats stats;
  /// Out-of-core mode: owns the spill pool so evicted arena pages stay
  /// readable (store.config(), collect_column) through the verdict
  /// passes that run after exploration. Null in in-RAM mode. Only the
  /// explorer itself may call shed() on it — after the graph is moved,
  /// the pool's back-reference to the store is stale for eviction (row
  /// reads go through the stable arena base pointer and stay valid).
  std::unique_ptr<SpillPool> spill;

  explicit ReachabilityGraph(std::size_t width) : store(width) {}

  [[nodiscard]] std::size_t size() const { return store.size(); }
  [[nodiscard]] std::size_t edge_count() const { return succ.size(); }

  /// Node id -> counts in the arena (store.width() values, 32-bit).
  [[nodiscard]] const ConfigStore::Count* view(int node) const {
    return store.view(static_cast<std::int32_t>(node));
  }
  /// Materialized copy (results and error messages; hot paths use view).
  [[nodiscard]] crn::Config config(int node) const {
    return store.config(static_cast<std::int32_t>(node));
  }
  /// Successor node ids, deduplicated, in first-discovery order.
  [[nodiscard]] sim::Span<std::int32_t> successors(int node) const {
    return {succ.data() + succ_off[static_cast<std::size_t>(node)],
            succ.data() + succ_off[static_cast<std::size_t>(node) + 1]};
  }
};

struct ExploreOptions {
  std::size_t max_configs = 2'000'000;
  /// Worker threads; 0 means std::thread::hardware_concurrency(). The
  /// resulting graph is identical for every value.
  int threads = 1;
  /// Cooperative cancellation, polled once per BFS level; an expired
  /// token stops exploration at the next level boundary with
  /// graph.cancelled set (and a final checkpoint saved, when enabled).
  const util::CancelToken* cancel = nullptr;
  /// When non-empty, the explorer snapshots its state to this file at
  /// level boundaries (atomically — a crash never corrupts a previous
  /// checkpoint) every `checkpoint_every_secs`; 0 means every level.
  std::string checkpoint_path;
  double checkpoint_every_secs = 30.0;
  /// Resume from `checkpoint_path` when it holds a valid checkpoint of
  /// this exact exploration (network, root, width, budget); otherwise
  /// explore from scratch. Determinism makes the resumed graph
  /// bit-identical to an uninterrupted run.
  bool resume = false;
  /// Static-analysis guidance (lint::InvariantGuide): per-species
  /// reachable-count bounds derived from conservation laws at the root
  /// (-1 = unbounded), borrowed for the duration of the call. Candidates
  /// violating a bound are rejected before interning. The bounds are
  /// invariants of exact exploration, so a correct guide never changes
  /// the resulting graph — guided and unguided runs are bit-identical.
  const std::vector<math::Int>* species_bounds = nullptr;
  /// Static upper bound on the reachable-set size
  /// (lint::InvariantGuide::reachable_bound); <= 0 means unknown. Used
  /// together with max_configs to right-size the arena reservation and
  /// pre-size the hash shards (skipping their growth rehashes).
  math::Int expected_configs = -1;
  /// Out-of-core mode: when `spill_dir` is non-empty and
  /// memory_budget_bytes > 0, frozen arena pages are evicted to
  /// checksummed segment files in `spill_dir` whenever resident bytes
  /// exceed the budget, and faulted back on demand. The verdict stays
  /// exact and the graph bit-identical to an in-RAM run; disk failures
  /// raise SpillError (typed, retriable) instead of truncating.
  std::string spill_dir;
  std::size_t memory_budget_bytes = 0;
  /// Eviction page size override (tests force tiny pages to spill small
  /// graphs); 0 = the 4 MiB default.
  std::size_t spill_page_bytes = 0;
};

/// Enumerates configurations reachable from `initial`.
[[nodiscard]] ReachabilityGraph explore(const crn::Crn& crn,
                                        const crn::Config& initial,
                                        const ExploreOptions& options = {});

/// The reaction sequence along the BFS tree from the root to `node`
/// (indices into crn.reactions()).
[[nodiscard]] std::vector<int> path_from_root(const ReachabilityGraph& graph,
                                              int node);

/// First node (in id order) whose output count exceeds `bound`, if any.
[[nodiscard]] std::optional<int> find_output_exceeding(
    const crn::Crn& crn, const ReachabilityGraph& graph, math::Int bound);

/// The same scan over an output column already gathered with
/// ConfigStore::collect_column (callers that need the column for more
/// than this scan read it once).
[[nodiscard]] std::optional<int> find_output_exceeding(
    const std::vector<ConfigStore::Count>& column, math::Int bound);

}  // namespace crnkit::verify

#endif  // CRNKIT_VERIFY_REACHABILITY_H_
