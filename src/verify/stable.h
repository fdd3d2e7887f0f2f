// Exact decision of stable computation (Section 2.2) on a single input:
// "C stably computes f on x" iff from every configuration reachable from
// I_x, some stable configuration O with O(Y) = f(x) remains reachable.
//
// Implemented on the exact reachability graph in one iterative Tarjan
// pass that folds the verdict while it finds the SCCs. Tarjan finishes
// components sinks first, so when a component's root pops, every
// component it has an edge to is already final: the component's summary
// is the min/max output count reachable from it (it is stable iff that
// range is a single value) and whether it reaches a correct stable
// component (it is one itself iff its range is exactly {expected}). The
// CRN stably computes f(x) iff every explored SCC reaches a correct
// stable SCC. This is a *proof* when exploration is complete.
#ifndef CRNKIT_VERIFY_STABLE_H_
#define CRNKIT_VERIFY_STABLE_H_

#include <optional>
#include <string>
#include <vector>

#include "fn/function.h"
#include "lint/diagnostics.h"
#include "verify/reachability.h"

namespace crnkit::verify {

struct StableCheckResult {
  bool ok = false;        ///< stably computes the expected value
  bool complete = true;   ///< exploration enumerated all reachable configs
  /// Exploration stopped early because the cancel token expired
  /// (deadline or explicit cancel); implies !complete and withholds the
  /// verdict the same way a budget truncation does.
  bool cancelled = false;
  math::Int expected = 0;
  std::size_t num_configs = 0;
  std::size_t num_edges = 0;   ///< deduplicated reachability edges
  ExploreStats explore_stats;  ///< perf counters of the exploration
  /// A reachable configuration from which no correct stable configuration
  /// is reachable (present iff !ok).
  std::optional<crn::Config> counterexample;
  /// Reaction indices along the BFS tree from I_x to `counterexample` — a
  /// replayable witness: applying them in order from the initial
  /// configuration reproduces the counterexample. Empty when ok (or when
  /// an incomplete exploration withheld the verdict without a witness).
  std::vector<int> counterexample_path;
  /// A reachable configuration whose output exceeds the expected value
  /// (the signature failure mode of non-output-oblivious behavior).
  std::optional<crn::Config> overproduction;

  [[nodiscard]] std::string summary(const crn::Crn& crn) const;
};

struct StableCheckOptions {
  std::size_t max_configs = 2'000'000;
  /// Exploration worker threads; 0 means hardware concurrency. The graph
  /// and verdict are identical for every value.
  int threads = 1;
  /// Optional cooperative cancellation, polled per BFS level (see
  /// ExploreOptions::cancel).
  const util::CancelToken* cancel = nullptr;
  /// Checkpoint/resume pass-through to the explorer (CLI-only paths —
  /// never populated from daemon requests).
  std::string checkpoint_path;
  double checkpoint_every_secs = 30.0;
  bool resume = false;
  /// Conservation laws from the static analyzer (lint), borrowed for the
  /// duration of the call. When present, per-species count bounds are
  /// derived at each point's I_x and fed to the explorer (see
  /// ExploreOptions::species_bounds / expected_configs). Verdicts and
  /// graphs are bit-identical with and without a (correct) guide.
  const std::vector<lint::ConservationLaw>* invariants = nullptr;
  /// Out-of-core pass-through (see ExploreOptions::spill_dir): spill
  /// frozen arena pages to this directory instead of truncating when
  /// resident bytes exceed memory_budget_bytes. Verdicts stay exact.
  std::string spill_dir;
  std::size_t memory_budget_bytes = 0;
  std::size_t spill_page_bytes = 0;  ///< test override; 0 = default
};

/// Decides whether `crn` stably computes `expected` on input x.
[[nodiscard]] StableCheckResult check_stable_computation(
    const crn::Crn& crn, const fn::Point& x, math::Int expected,
    const StableCheckOptions& options = {});

/// Sweep over the full grid [0, grid_max]^d against a reference function.
struct GridCheckResult {
  bool all_ok = true;
  int points_checked = 0;
  std::vector<fn::Point> failures;
};

[[nodiscard]] GridCheckResult check_stable_computation_on_grid(
    const crn::Crn& crn, const fn::DiscreteFunction& f, math::Int grid_max,
    const StableCheckOptions& options = {});

}  // namespace crnkit::verify

#endif  // CRNKIT_VERIFY_STABLE_H_
