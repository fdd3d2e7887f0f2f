// Shared 64-bit mixing primitives: the splitmix64 finalizer (the same
// function verify::ConfigStore uses for Zobrist seeds and shard choice),
// a uniform stream over it, and a chain combiner for content hashes —
// crn::canonical_hash and the proof-cache keys/persistence checksums
// build on these. Header-only so layers below verify/ can hash without a
// dependency inversion.
#ifndef CRNKIT_UTIL_HASH_H_
#define CRNKIT_UTIL_HASH_H_

#include <cstdint>

namespace crnkit::util {

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One step of a splitmix64 counter stream: advances `state` and returns
/// a uniform double in [0, 1). Seeded request mixes and backoff jitter
/// draw from it, so a seed replays the same sequence everywhere.
[[nodiscard]] inline double splitmix_uniform(std::uint64_t& state) {
  state = splitmix64(state + 0x9e3779b97f4a7c15ULL);
  return static_cast<double>(state >> 11) * 0x1.0p-53;
}

/// Order-sensitive chain step: folds `v` into the running hash `h`.
[[nodiscard]] inline std::uint64_t hash_chain(std::uint64_t h,
                                              std::uint64_t v) {
  return splitmix64(h ^ splitmix64(v));
}

}  // namespace crnkit::util

#endif  // CRNKIT_UTIL_HASH_H_
