#include "verify/reachability.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

#include "math/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/task_pool.h"
#include "verify/checkpoint.h"

namespace crnkit::verify {

namespace {

/// Always-on exploration metrics. Bumped at most once per BFS level (never
/// per config), so the whole set stays inside the <2% bench budget.
struct ExploreMetrics {
  obs::Counter& explorations;
  obs::Counter& configs;
  obs::Counter& edges;
  obs::Counter& levels;
  obs::Histogram& seconds;

  static ExploreMetrics& get() {
    static ExploreMetrics m{
        obs::Registry::instance().counter("crnkit_verify_explorations_total",
                                          "reachability explorations run"),
        obs::Registry::instance().counter(
            "crnkit_verify_configs_total",
            "configurations interned across all explorations"),
        obs::Registry::instance().counter(
            "crnkit_verify_edges_total",
            "deduplicated reachability edges recorded"),
        obs::Registry::instance().counter("crnkit_verify_levels_total",
                                          "BFS levels expanded"),
        obs::Registry::instance().histogram(
            "crnkit_verify_explore_seconds",
            "wall seconds per reachability exploration",
            obs::latency_buckets_seconds()),
    };
    return m;
  }
};

constexpr int kShards = ConfigStore::kShards;
/// Levels smaller than this are expanded on the calling thread: the graph
/// is identical either way, and scheduling pool tasks only pays off once
/// a level carries real work.
constexpr std::size_t kMinParallelFrontier = 256;
/// Smallest frontier slice worth a task of its own; levels are cut into
/// up to kSlicesPerThread slices per worker above this, so the
/// work-stealing deques have slack to balance uneven successor counts.
constexpr std::size_t kMinSliceNodes = 128;
constexpr std::size_t kSlicesPerThread = 4;
/// Probe-prefetch lookahead in the interning loops.
constexpr std::size_t kPrefetchAhead = 8;

/// A successor candidate awaiting id resolution: the source node, the
/// producing reaction, the successor's hash, and the ConfigStore handle
/// from stage()/find(). Candidate configurations are *not* stored — they
/// are rebuilt from (src, reaction) against the arena when needed, which
/// keeps the per-level footprint at 24 bytes per candidate.
struct Candidate {
  std::int32_t src;
  std::int32_t reaction;
  std::uint64_t hash;
  std::int64_t handle;
};

/// Per-slice state: the candidate list generated from a contiguous
/// frontier slice, per-shard candidate index lists for the interning
/// phase, and the local CSR piece built in the edge phase. Slices are the
/// task-pool chunks; their concatenation in slice order is exactly
/// (node, reaction) order, which is what keeps the graph bit-identical at
/// every thread count.
struct SliceBuf {
  std::vector<Candidate> cands;
  std::array<std::vector<std::uint32_t>, kShards> by_shard;
  std::int32_t lo = 0;  ///< frontier slice [lo, hi)
  std::int32_t hi = 0;
  std::vector<std::int32_t> succ;       ///< local edges
  std::vector<std::uint32_t> succ_end;  ///< per-node end offset into succ
  bool saw_dropped = false;
};

/// Per-shard interning state for the pipelined generate->intern flow.
/// A shard is only ever advanced by the thread holding its mutex, and
/// always in slice order — so the staging order within a shard is the
/// global (node, reaction) order filtered to the shard, independent of
/// which worker interns which bucket when.
struct ShardFlow {
  std::mutex mu;
  std::uint32_t next_slice = 0;
  /// (src, reaction) per created entry, stage order.
  std::vector<std::pair<std::int32_t, std::int32_t>> parents;
};

}  // namespace

ReachabilityGraph explore(const crn::Crn& crn, const crn::Config& initial,
                          const ExploreOptions& options) {
  require(initial.size() == crn.species_count(),
          "explore: initial configuration width mismatch");
  require(options.max_configs <= (std::size_t{1} << 31) - 2,
          "explore: max_configs exceeds the 2^31 node id space");
  const auto t0 = std::chrono::steady_clock::now();
  util::TaskPool& pool = util::TaskPool::instance();
  // tasks/steals come from the scope (attributed to this exploration's
  // own jobs); parks stay a global delta — see the ExploreStats comment.
  const std::uint64_t parks_before = pool.counters().parks;
  util::TaskPool::CounterScope pool_scope;
  ExploreMetrics& metrics = ExploreMetrics::get();
  obs::Span explore_span("verify.explore");

  const sim::CompiledNetwork net(crn);
  const std::size_t width = crn.species_count();
  const std::size_t n_reactions = net.reaction_count();
  int threads = options.threads;
  if (threads <= 0) {
    threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  threads = std::min(threads, kShards);

  ReachabilityGraph graph(width);
  graph.stats.threads = threads;
  ConfigStore& store = graph.store;
  // Arena sizing: the invariant guide's reachable-set bound caps the
  // reservation below the node budget when the CRN's conservation laws
  // prove the space is smaller; with a guide present the hash shards are
  // also pre-sized to their final capacity, so the exploration never
  // pays a growth rehash. Out-of-core mode must reserve the full node
  // budget up front: eviction relies on the arena never reallocating
  // (address space is cheap — untouched reservation costs nothing).
  const bool use_spill =
      !options.spill_dir.empty() && options.memory_budget_bytes > 0;
  std::size_t reserve_configs =
      use_spill ? options.max_configs
                : std::min<std::size_t>(options.max_configs, 4'000'000);
  if (options.expected_configs > 0 &&
      static_cast<std::size_t>(options.expected_configs) < reserve_configs) {
    reserve_configs = static_cast<std::size_t>(options.expected_configs);
  }
  store.reserve(reserve_configs);
  if (options.expected_configs > 0) store.reserve_slots(reserve_configs);
  const math::Int* bounds = nullptr;
  if (options.species_bounds != nullptr) {
    require(options.species_bounds->size() == width,
            "explore: species_bounds width mismatch");
    bounds = options.species_bounds->data();
  }

  // Per-node applicability bitmasks, maintained through the compiled
  // reaction dependency graph: a node differs from its BFS parent only in
  // the parent reaction's deltas, so only dependents(parent_reaction) can
  // change applicability — O(deg) per node instead of O(R), and successor
  // generation walks set bits instead of scanning every reaction.
  const bool use_masks = n_reactions > 0 && n_reactions <= 64;
  std::vector<std::uint64_t> app_mask;
  const auto full_mask = [&](const auto* config) {
    std::uint64_t m = 0;
    for (std::size_t j = 0; j < n_reactions; ++j) {
      if (net.applicable(j, config)) m |= std::uint64_t{1} << j;
    }
    return m;
  };

  // Rebuilds the applicability mask of one restored node from its
  // parent's (same incremental rule as the in-level mask pass; parents
  // always have smaller ids, so id order is a valid evaluation order).
  const auto mask_from_parent = [&](std::size_t id) {
    const auto p = static_cast<std::size_t>(graph.parent[id]);
    const auto r = static_cast<std::size_t>(graph.parent_reaction[id]);
    const ConfigStore::Count* row = store.view(static_cast<std::int32_t>(id));
    std::uint64_t m = app_mask[p];
    for (const std::uint32_t j : net.dependents(r)) {
      const std::uint64_t bit = std::uint64_t{1} << j;
      if (net.applicable(j, row)) {
        m |= bit;
      } else {
        m &= ~bit;
      }
    }
    app_mask[id] = m;
  };

  const std::uint64_t root_hash = store.hash(initial.data());
  const std::uint64_t crn_fp = options.checkpoint_path.empty()
                                   ? 0
                                   : concrete_crn_fingerprint(crn);
  std::int32_t level_begin = 0;
  std::int32_t level_end = 1;
  bool resumed = false;
  if (options.resume && !options.checkpoint_path.empty()) {
    ExploreCheckpoint ckpt;
    if (load_checkpoint(options.checkpoint_path, &ckpt) &&
        ckpt.crn_hash == crn_fp && ckpt.initial_hash == root_hash &&
        ckpt.width == width && ckpt.max_configs == options.max_configs) {
      store.restore(std::move(ckpt.pool), std::move(ckpt.id_hash));
      graph.succ_off = std::move(ckpt.succ_off);
      graph.succ = std::move(ckpt.succ);
      graph.parent = std::move(ckpt.parent);
      graph.parent_reaction = std::move(ckpt.parent_reaction);
      graph.complete = ckpt.complete != 0;
      graph.stats.levels = ckpt.levels;
      graph.stats.frontier_peak = ckpt.frontier_peak;
      level_begin = static_cast<std::int32_t>(ckpt.level_begin);
      level_end = static_cast<std::int32_t>(ckpt.level_end);
      resumed = true;
      if (use_masks) {
        app_mask.resize(store.size());
        app_mask[0] = full_mask(store.view(0));
        for (std::size_t id = 1; id < store.size(); ++id) {
          mask_from_parent(id);
        }
      }
    }
  }

  // Intern the root (id 0; stored even under a zero budget, like the
  // original explorer).
  if (!resumed) {
    (void)store.stage(root_hash, initial.data());
    const std::size_t got = store.commit(1);
    ensure(got == 1, "explore: root interning failed");
    store.finish_level();
    graph.parent.push_back(-1);
    graph.parent_reaction.push_back(-1);
    graph.succ_off.push_back(0);
    if (use_masks) app_mask.push_back(full_mask(initial.data()));
  }

  if (use_spill) {
    // restore() above may have adopted the checkpoint's own (smaller)
    // arena vector; re-reserve the full bound first so the pool's base
    // pointer stays stable for the whole exploration.
    store.reserve(reserve_configs);
    SpillPool::Options spill_options;
    spill_options.dir = options.spill_dir;
    spill_options.budget_bytes = options.memory_budget_bytes;
    if (options.spill_page_bytes > 0) {
      spill_options.page_bytes = options.spill_page_bytes;
    }
    graph.spill =
        std::make_unique<SpillPool>(store, reserve_configs, spill_options);
    store.attach_spill(graph.spill.get());
  }

  // Generates all successor candidates of node u into `out`: hashes are
  // derived incrementally from the node's stored hash across each
  // reaction's deltas. With masks, only the applicable bits are visited;
  // the fallback (R > 64) checks every reaction against the arena row.
  const auto emit_candidate = [&](std::int32_t u,
                                  const ConfigStore::Count* row,
                                  std::uint64_t h0, std::size_t j,
                                  std::vector<Candidate>& out) {
    const auto ds = net.delta_species(j);
    const auto dv = net.delta_values(j);
    std::uint64_t h = h0;
    for (std::size_t k = 0; k < ds.size(); ++k) {
      const std::size_t s = ds[k];
      const auto value = static_cast<math::Int>(row[s]);
      // Invariant-guided rejection: a successor that would push a species
      // past its conservation-law bound cannot be reachable, so it is
      // dropped before hashing completes or the store is probed. On exact
      // exploration the bounds hold on every successor of a reachable
      // config, so this never fires — which is what keeps guided runs
      // bit-identical — but it is what makes truncated or speculative
      // exploration modes safe to guide.
      if (bounds != nullptr && bounds[s] >= 0 && value + dv[k] > bounds[s]) {
        return;
      }
      h ^= store.elem_hash(s, value);
      h ^= store.elem_hash(s, value + dv[k]);
    }
    out.push_back({u, static_cast<std::int32_t>(j), h,
                   ConfigStore::kDroppedHandle});
  };
  const auto generate_node = [&](std::int32_t u,
                                 std::vector<Candidate>& out) {
    const ConfigStore::Count* row = store.view(u);
    const std::uint64_t h0 = store.id_hash(u);
    if (use_masks) {
      std::uint64_t m = app_mask[static_cast<std::size_t>(u)];
      while (m != 0) {
        const auto j =
            static_cast<std::size_t>(__builtin_ctzll(m));
        m &= m - 1;
        emit_candidate(u, row, h0, j, out);
      }
      return;
    }
    for (std::size_t j = 0; j < n_reactions; ++j) {
      if (!net.applicable(j, row)) continue;
      emit_candidate(u, row, h0, j, out);
    }
  };

  // Interns candidate `cand`: the configuration is described as (source
  // row, reaction delta) and only materialized by the store when it turns
  // out to be new. Records (src, reaction) when it creates the entry.
  const auto intern_candidate =
      [&](Candidate& cand, bool budget_full,
          std::vector<std::pair<std::int32_t, std::int32_t>>& parents) {
        const auto j = static_cast<std::size_t>(cand.reaction);
        const auto ds = net.delta_species(j);
        const auto dv = net.delta_values(j);
        const ConfigStore::Count* base = store.view(cand.src);
        if (budget_full) {
          cand.handle = store.find_delta(cand.hash, base, ds.begin(),
                                         dv.begin(), ds.size());
        } else {
          const auto staged = store.stage_delta(cand.hash, base, ds.begin(),
                                                dv.begin(), ds.size());
          cand.handle = staged.handle;
          if (staged.created) parents.push_back({cand.src, cand.reaction});
        }
      };

  // Reused across levels. gen_done[k] publishes slice k's candidate
  // buckets to the shard drains; flows carry the per-shard intern cursors.
  std::vector<SliceBuf> bufs;
  std::array<ShardFlow, kShards> flows;
  const std::size_t max_slices =
      static_cast<std::size_t>(threads) * kSlicesPerThread;
  std::vector<std::atomic<std::uint8_t>> gen_done(
      std::max<std::size_t>(max_slices, 1));

  // Snapshots the current level boundary; all explorer state is in flat
  // arrays here, and determinism makes a resume from this file converge
  // to the bit-identical graph.
  const auto save_ckpt = [&]() {
    ExploreCheckpointView view;
    view.crn_hash = crn_fp;
    view.initial_hash = root_hash;
    view.width = width;
    view.max_configs = options.max_configs;
    view.level_begin = static_cast<std::uint64_t>(level_begin);
    view.level_end = static_cast<std::uint64_t>(level_end);
    view.levels = graph.stats.levels;
    view.frontier_peak = graph.stats.frontier_peak;
    view.complete = graph.complete ? 1 : 0;
    view.pool = &store.pool();
    view.id_hash = &store.id_hashes();
    view.succ_off = &graph.succ_off;
    view.succ = &graph.succ;
    view.parent = &graph.parent;
    view.parent_reaction = &graph.parent_reaction;
    if (graph.spill) {
      // Evicted pages read as poison in the arena vector; stream the
      // true bytes (resident memcpy, spilled pages from their segments)
      // so the checkpoint file is byte-identical to an in-RAM save.
      view.read_pool_rows = [&graph](std::size_t first_row,
                                     std::size_t n_rows,
                                     ConfigStore::Count* dst) {
        graph.spill->read_rows(first_row, n_rows, dst);
      };
    }
    obs::Span ckpt_span("verify.checkpoint");
    (void)save_checkpoint(options.checkpoint_path, view);
  };

  auto last_ckpt = std::chrono::steady_clock::now();
  while (level_begin < level_end) {
    if (options.cancel != nullptr && options.cancel->expired()) {
      // Stop at the level boundary: save a resume point first (the CSR
      // offsets still mark exactly the expanded prefix), then pad the
      // offsets so unexpanded nodes read as successor-free — the graph
      // stays structurally valid, just incomplete. The checkpoint keeps
      // the pre-cancel completeness: stopping early is recoverable on
      // resume, only budget truncation is not.
      graph.cancelled = true;
      if (!options.checkpoint_path.empty()) save_ckpt();
      graph.complete = false;
      while (graph.succ_off.size() < store.size() + 1) {
        graph.succ_off.push_back(graph.succ.size());
      }
      break;
    }
    const std::size_t level_nodes =
        static_cast<std::size_t>(level_end - level_begin);
    graph.stats.frontier_peak =
        std::max(graph.stats.frontier_peak, level_nodes);
    ++graph.stats.levels;
    metrics.levels.inc();
    obs::Span level_span("verify.level");
    level_span.arg("level",
                   static_cast<std::int64_t>(graph.stats.levels - 1));
    level_span.arg("frontier", static_cast<std::int64_t>(level_nodes));
    const bool budget_full = store.size() >= options.max_configs;
    // Slice count for this level. The graph is identical for any value:
    // candidate order is (node, reaction) regardless of slicing, and
    // per-shard staging order is that order filtered to the shard.
    const bool parallel =
        threads > 1 && level_nodes >= kMinParallelFrontier;
    const std::size_t n_slices =
        parallel ? std::min<std::size_t>(
                       max_slices,
                       std::max<std::size_t>(1, level_nodes / kMinSliceNodes))
                 : 1;
    if (bufs.size() < n_slices) bufs.resize(n_slices);
    const std::size_t chunk =
        (level_nodes + n_slices - 1) / n_slices;
    for (ShardFlow& flow : flows) {
      flow.next_slice = 0;
      flow.parents.clear();
    }
    for (std::size_t k = 0; k < n_slices; ++k) {
      gen_done[k].store(0, std::memory_order_relaxed);
    }

    // Interns every not-yet-drained bucket of shard s whose slice has
    // finished generating. try_lock keeps generators moving when another
    // worker already owns the shard; the final sweep below (all slices
    // done) picks up whatever the opportunistic passes left behind. A
    // staggered prefetch pipeline hides the table's and the arena's DRAM
    // latency behind real interning work.
    const auto drain_shard = [&](int s, bool blocking) {
      ShardFlow& flow = flows[static_cast<std::size_t>(s)];
      std::unique_lock<std::mutex> lk(flow.mu, std::defer_lock);
      if (blocking) {
        lk.lock();
      } else if (!lk.try_lock()) {
        return;
      }
      std::uint32_t k = flow.next_slice;
      while (k < n_slices &&
             gen_done[k].load(std::memory_order_acquire) != 0) {
        SliceBuf& buf = bufs[k];
        const auto& list = buf.by_shard[static_cast<std::size_t>(s)];
        for (std::size_t i = 0; i < list.size(); ++i) {
#if defined(__GNUC__) || defined(__clang__)
          // Four-distance pipeline: candidate struct, its probe slot,
          // its source row, and the row it will be compared against
          // each get a full DRAM round-trip of lead time.
          if (i + 2 * kPrefetchAhead < list.size()) {
            __builtin_prefetch(&buf.cands[list[i + 2 * kPrefetchAhead]]);
          }
          if (i + kPrefetchAhead < list.size()) {
            store.prefetch(buf.cands[list[i + kPrefetchAhead]].hash);
          }
          if (i + kPrefetchAhead / 2 + 2 < list.size()) {
            __builtin_prefetch(store.view(
                buf.cands[list[i + kPrefetchAhead / 2 + 2]].src));
          }
          if (i + kPrefetchAhead / 2 < list.size()) {
            store.prefetch_row(
                buf.cands[list[i + kPrefetchAhead / 2]].hash);
          }
#endif
          intern_candidate(buf.cands[list[i]], budget_full, flow.parents);
        }
        ++k;
      }
      flow.next_slice = k;
    };

    // Generate: slices take contiguous frontier ranges, so the
    // concatenation of their buffers is exactly (node, reaction) order.
    // As soon as a slice's buckets are published, the generating worker
    // pipelines into interning whatever shards are free — candidates flow
    // to shard owners per chunk, not at a level barrier.
    const auto generate_slice = [&](std::size_t k) {
      SliceBuf& buf = bufs[k];
      buf.cands.clear();
      for (auto& v : buf.by_shard) v.clear();
      buf.lo = level_begin +
               static_cast<std::int32_t>(k * chunk);
      buf.hi = std::min<std::int32_t>(
          level_end, buf.lo + static_cast<std::int32_t>(chunk));
      buf.lo = std::min(buf.lo, buf.hi);
      for (std::int32_t u = buf.lo; u < buf.hi; ++u) {
        generate_node(u, buf.cands);
      }
      for (std::uint32_t i = 0;
           i < static_cast<std::uint32_t>(buf.cands.size()); ++i) {
        buf.by_shard[static_cast<std::size_t>(
                         ConfigStore::shard_of(buf.cands[i].hash))]
            .push_back(i);
      }
      gen_done[k].store(1, std::memory_order_release);
      for (int s = 0; s < kShards; ++s) drain_shard(s, /*blocking=*/false);
    };

    {
      obs::Span generate_span("verify.generate");
      if (!parallel) {
        generate_slice(0);
        // generate_slice already drained every shard (single thread, no
        // contention), but keep the sweep for the empty-bucket cursors.
        for (int s = 0; s < kShards; ++s) drain_shard(s, /*blocking=*/true);
      } else {
        pool.parallel_for(n_slices, 1, generate_slice, threads);
        // Finish the pipeline: every slice is generated now, so a blocking
        // sweep (sharded across tasks, one owner per shard) interns every
        // bucket the opportunistic drains skipped over.
        pool.parallel_for(
            kShards, 8, [&](std::size_t s) {
              drain_shard(static_cast<int>(s), /*blocking=*/true);
            },
            threads);
      }
    }

    // Number the level: ids are consecutive in (shard, stage-order)
    // order, capped by the node budget.
    const std::size_t before = store.size();
    const std::size_t remaining =
        options.max_configs > before ? options.max_configs - before : 0;
    std::size_t accepted = 0;
    {
      obs::Span commit_span("verify.commit");
      accepted = store.commit(remaining);
      for (int s = 0; s < kShards; ++s) {
        const auto& parents = flows[static_cast<std::size_t>(s)].parents;
        for (std::size_t local = 0; local < parents.size(); ++local) {
          if (store.committed_id(s, local) < 0) break;  // rejects: a suffix
          graph.parent.push_back(parents[local].first);
          graph.parent_reaction.push_back(parents[local].second);
        }
      }
      commit_span.arg("accepted", static_cast<std::int64_t>(accepted));
    }
    ensure(graph.parent.size() == store.size(),
           "explore: parent/id bookkeeping diverged");
    metrics.configs.inc(accepted);
    if (use_masks) {
      obs::Span mask_span("verify.mask");
      // A new node's applicability differs from its parent's only on the
      // dependents of the reaction that produced it. Parents always sit in
      // an earlier level, so the new rows are independent of each other
      // and safe to compute in parallel.
      app_mask.resize(store.size());
      const auto mask_node = [&](std::size_t id_off) {
        mask_from_parent(before + id_off);
      };
      if (parallel && accepted >= kMinParallelFrontier) {
        pool.parallel_for(accepted, 4096, mask_node, threads);
      } else {
        for (std::size_t i = 0; i < accepted; ++i) mask_node(i);
      }
    }

    // Edges: each slice resolves its own candidates in (node, reaction)
    // order into a local CSR piece, deduplicating successors per node; a
    // candidate dropped by the budget leaves the graph incomplete. The
    // pieces are stitched in slice order, preserving id order.
    const auto edge_slice = [&](std::size_t k) {
      SliceBuf& buf = bufs[k];
      buf.succ.clear();
      buf.succ_end.clear();
      buf.saw_dropped = false;
      std::size_t next_cand = 0;
      for (std::int32_t u = buf.lo; u < buf.hi; ++u) {
        const std::size_t node_start = buf.succ.size();
        while (next_cand < buf.cands.size() &&
               buf.cands[next_cand].src == u) {
          const std::int32_t id =
              store.resolve(buf.cands[next_cand].handle);
          ++next_cand;
          if (id < 0) {
            buf.saw_dropped = true;
            continue;
          }
          bool seen = false;
          for (std::size_t i = node_start; i < buf.succ.size(); ++i) {
            if (buf.succ[i] == id) {
              seen = true;
              break;
            }
          }
          if (!seen) buf.succ.push_back(id);
        }
        buf.succ_end.push_back(static_cast<std::uint32_t>(buf.succ.size()));
      }
    };
    {
      obs::Span edges_span("verify.edges");
      const std::size_t edges_before = graph.succ.size();
      if (!parallel) {
        edge_slice(0);
      } else {
        pool.parallel_for(n_slices, 1, edge_slice, threads);
      }
      for (std::size_t k = 0; k < n_slices; ++k) {
        const SliceBuf& buf = bufs[k];
        const std::uint64_t base = graph.succ.size();
        graph.succ.insert(graph.succ.end(), buf.succ.begin(), buf.succ.end());
        for (const std::uint32_t end : buf.succ_end) {
          graph.succ_off.push_back(base + end);
        }
        if (buf.saw_dropped) graph.complete = false;
      }
      const std::size_t level_edges = graph.succ.size() - edges_before;
      edges_span.arg("edges", static_cast<std::int64_t>(level_edges));
      metrics.edges.inc(level_edges);
    }

    store.finish_level();
    level_begin = static_cast<std::int32_t>(before);
    level_end = static_cast<std::int32_t>(before + accepted);

    if (graph.spill) {
      // A fault-back that failed on a worker thread left garbage in some
      // compare; everything staged since is suspect, so the whole
      // exploration is discarded here, at the barrier — a typed,
      // retriable failure, never a truncated or wrong graph.
      if (graph.spill->io_error()) {
        throw SpillError(
            "spill: segment read failed during exploration; "
            "proof discarded (retriable)");
      }
      // Shed toward the budget: everything below the new frontier is
      // frozen (BFS successors land at distance +-1 of their source, so
      // rows >= level_begin are the only ones still written or read as
      // generation sources; older rows are only touched via rare
      // hash-tag collisions, which ensure_row faults back on demand).
      const std::size_t aux_bytes =
          graph.succ.capacity() * sizeof(std::int32_t) +
          graph.succ_off.capacity() * sizeof(std::uint64_t) +
          graph.parent.capacity() * sizeof(std::int32_t) +
          graph.parent_reaction.capacity() * sizeof(std::int32_t) +
          app_mask.capacity() * sizeof(std::uint64_t);
      const std::size_t resident =
          store.bytes() + aux_bytes - graph.spill->evicted_bytes();
      if (resident > options.memory_budget_bytes) {
        graph.spill->shed(resident - options.memory_budget_bytes,
                          static_cast<std::size_t>(level_begin),
                          store.size());
      }
    }

    if (!options.checkpoint_path.empty() && level_begin < level_end) {
      const auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(now - last_ckpt).count() >=
          options.checkpoint_every_secs) {
        save_ckpt();
        last_ckpt = now;
      }
    }
  }

  ensure(graph.succ_off.size() == store.size() + 1,
         "explore: CSR offsets diverged from node count");
  if (graph.spill) {
    if (graph.spill->io_error()) {
      throw SpillError(
          "spill: segment read failed during exploration; "
          "proof discarded (retriable)");
    }
    const SpillPool::Stats spill_stats = graph.spill->stats();
    graph.stats.spilled = graph.spill->spilled();
    graph.stats.spill_segments_written = spill_stats.segments_written;
    graph.stats.spill_segments_read = spill_stats.segments_read;
    graph.stats.spill_bytes_written = spill_stats.bytes_written;
    graph.stats.spill_bytes_read = spill_stats.bytes_read;
  }
  graph.stats.arena_bytes = store.bytes();
  const util::TaskPool::Counters scoped = pool_scope.collected();
  graph.stats.pool_tasks = scoped.tasks;
  graph.stats.pool_steals = scoped.steals;
  graph.stats.pool_parks = pool.counters().parks - parks_before;
  graph.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  metrics.explorations.inc();
  metrics.seconds.observe(graph.stats.wall_seconds);
  explore_span.arg("configs", static_cast<std::int64_t>(graph.size()));
  explore_span.arg("edges", static_cast<std::int64_t>(graph.edge_count()));
  explore_span.arg("levels", static_cast<std::int64_t>(graph.stats.levels));
  return graph;
}

std::vector<int> path_from_root(const ReachabilityGraph& graph, int node) {
  require(node >= 0 && static_cast<std::size_t>(node) < graph.size(),
          "path_from_root: bad node");
  std::vector<int> reactions;
  int current = node;
  while (graph.parent[static_cast<std::size_t>(current)] != -1) {
    reactions.push_back(
        graph.parent_reaction[static_cast<std::size_t>(current)]);
    current = graph.parent[static_cast<std::size_t>(current)];
  }
  std::reverse(reactions.begin(), reactions.end());
  return reactions;
}

std::optional<int> find_output_exceeding(const crn::Crn& crn,
                                         const ReachabilityGraph& graph,
                                         math::Int bound) {
  const auto y = static_cast<std::size_t>(crn.output_or_throw());
  // Gather the output column once: in-RAM this is a strided sweep of the
  // arena; under spill it streams evicted pages from their segments
  // without re-materializing the arena.
  std::vector<ConfigStore::Count> column;
  graph.store.collect_column(y, column);
  return find_output_exceeding(column, bound);
}

std::optional<int> find_output_exceeding(
    const std::vector<ConfigStore::Count>& column, math::Int bound) {
  for (std::size_t i = 0; i < column.size(); ++i) {
    if (column[i] > bound) return static_cast<int>(i);
  }
  return std::nullopt;
}

}  // namespace crnkit::verify
