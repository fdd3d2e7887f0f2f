// Seeded input generation. Every input a workload sends is a pure function
// of (--seed, index): the same seed gives byte-identical request
// sequences, circuit sets and ensemble seeds; another seed gives others.
// The program under test only ever sees the generated requests.
#ifndef CRNKIT_PERFBENCH_INPUTS_H_
#define CRNKIT_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One `Service::verify` call of the proof set.
struct ProofCall {
  std::string target;
  int threads = 1;
};

/// One `Service::simulate` call of the ensemble workload.
struct SimCall {
  std::string target;
  std::string method;
  int trajectories = 0;
  std::uint64_t seed = 0;
};

/// Deterministic splitmix64 stream.
class Prng {
 public:
  explicit Prng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// The proof set: every registry verify point of chain/compose-24 and
/// thm52/fig7, each scenario once at 1 thread and once at `nproc`
/// threads. The seed only permutes the call order of each round.
std::vector<ProofCall> proof_round(std::uint64_t seed, std::uint64_t round,
                                   int nproc);

/// The serve_hot population: registry scenarios that are neither tagged
/// `large` nor unverifiable, in registry order (zipf rank order).
std::vector<std::string> hot_scenarios();

/// serve_hot request `index`: a zipf-chosen scenario with the op mix
/// verify 70% / show 20% / analyze 10%. This is tools/serve_replay's mix
/// (verify 70 / show 20 / simulate 10) with the simulate share moved to
/// analyze, since simulate bypasses the proof cache. Lines are canonical,
/// so equal (op, scenario) pairs give byte-equal lines.
std::string hot_line(std::uint64_t seed, std::uint64_t index,
                     const std::vector<std::string>& scenarios);

/// The distinct lines hot_line() can produce, in a fixed order.
std::vector<std::string> hot_distinct_lines(
    const std::vector<std::string>& scenarios);

/// serve_cold request `index`: `verify` (70%, serve_replay's verify share)
/// or `compose --verify` (30%, the rest of serve_replay's mix)
/// of circuit/random-<n>-<s> with n in {5, 6} and a 50k-configuration
/// budget, which about one request in a thousand reaches. The circuit
/// seed s is unique per (seed, index), so no two requests of a run name
/// the same circuit.
std::string cold_line(std::uint64_t seed, std::uint64_t index);

/// ensemble call `index`: even calls run chain/compose-256 (direct
/// method), odd calls thm52/fig7 (next-reaction), each with its own
/// derived seed. Calls 2k and 2k+1 form one ensemble request.
SimCall ensemble_call(std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench

#endif  // CRNKIT_PERFBENCH_INPUTS_H_
