#include "inputs.h"

#include <algorithm>
#include <stdexcept>

#include "scenario/registry.h"
#include "util/hash.h"

namespace perfbench {

using crnkit::util::splitmix64;

std::uint64_t Prng::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  return splitmix64(state_);
}

namespace {

/// A stream private to (seed, salt, index).
Prng stream(std::uint64_t seed, std::uint64_t salt, std::uint64_t index) {
  return Prng(splitmix64(splitmix64(seed ^ salt) + index));
}

constexpr std::uint64_t kProofSalt = 0x70726f6fULL;
constexpr std::uint64_t kHotSalt = 0x686f74ULL;
constexpr std::uint64_t kColdSalt = 0x636f6c64ULL;
constexpr std::uint64_t kSimSalt = 0x73696dULL;

/// Exploration budget of every serve_cold request. About one 5-6 module
/// circuit in a thousand has a reachable set far past it (up to millions
/// of configurations); the budget cuts those to a sub-second truncated
/// (inconclusive) answer instead of a multi-second outlier. At that rate
/// every run meets some, so neither throughput nor peak memory depends on
/// whether a seed happens to draw one.
constexpr std::size_t kColdMaxConfigs = 50'000;

}  // namespace

std::vector<ProofCall> proof_round(std::uint64_t seed, std::uint64_t round,
                                   int nproc) {
  std::vector<ProofCall> calls;
  for (const char* target : {"chain/compose-24", "thm52/fig7"}) {
    calls.push_back({target, 1});
    calls.push_back({target, nproc});
  }
  Prng prng = stream(seed, kProofSalt, round);
  for (std::size_t i = calls.size() - 1; i > 0; --i) {
    std::swap(calls[i], calls[prng.next() % (i + 1)]);
  }
  return calls;
}

std::vector<std::string> hot_scenarios() {
  std::vector<std::string> names;
  for (const crnkit::scenario::Scenario& s :
       crnkit::scenario::Registry::builtin().build_all()) {
    if (s.has_tag("large") || s.unverifiable()) continue;
    names.push_back(s.name);
  }
  if (names.empty()) throw std::runtime_error("no verifiable scenarios");
  return names;
}

namespace {

std::string line_for(const char* op, const std::string& target) {
  return std::string("{\"op\": \"") + op + "\", \"target\": \"" + target +
         "\"}";
}

}  // namespace

std::string hot_line(std::uint64_t seed, std::uint64_t index,
                     const std::vector<std::string>& scenarios) {
  double total = 0.0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    total += 1.0 / static_cast<double>(i + 1);
  }
  Prng prng = stream(seed, kHotSalt, index);
  double u = prng.uniform() * total;
  std::size_t pick = 0;
  for (; pick + 1 < scenarios.size(); ++pick) {
    u -= 1.0 / static_cast<double>(pick + 1);
    if (u < 0) break;
  }
  // tools/serve_replay's mix, with its simulate share given to analyze.
  const double op = prng.uniform();
  const char* name = op < 0.70 ? "verify" : op < 0.90 ? "show" : "analyze";
  return line_for(name, scenarios[pick]);
}

std::vector<std::string> hot_distinct_lines(
    const std::vector<std::string>& scenarios) {
  std::vector<std::string> lines;
  for (const std::string& s : scenarios) {
    for (const char* op : {"verify", "show", "analyze"}) {
      lines.push_back(line_for(op, s));
    }
  }
  return lines;
}

std::string cold_line(std::uint64_t seed, std::uint64_t index) {
  Prng prng = stream(seed, kColdSalt, index);
  // serve_replay's verify share; the rest goes to the other op that
  // explores and inserts into the cache.
  const bool compose = prng.uniform() >= 0.70;
  const std::uint64_t n = 5 + prng.next() % 2;
  // Unique per index within a run; the base moves with the seed.
  const std::uint64_t base = (splitmix64(seed ^ kColdSalt) >> 24) << 20;
  const std::string target = "circuit/random-" + std::to_string(n) + "-" +
                             std::to_string(base + index);
  return std::string("{\"op\": \"") + (compose ? "compose" : "verify") +
         "\", \"target\": \"" + target + "\"" +
         (compose ? ", \"verify\": true" : "") +
         ", \"max_configs\": " + std::to_string(kColdMaxConfigs) + "}";
}

SimCall ensemble_call(std::uint64_t seed, std::uint64_t index) {
  Prng prng = stream(seed, kSimSalt, index);
  // Each call kind takes 0.3-0.5 s at 4 threads on a 2020s x86 core.
  if (index % 2 == 0) {
    return {"chain/compose-256", "direct", 16, prng.next()};
  }
  return {"thm52/fig7", "next-reaction", 256, prng.next()};
}

}  // namespace perfbench
