#include "util/rng.hpp"

#include <cmath>

namespace hycim::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fork_seed(std::uint64_t root_seed, std::uint64_t stream_id) {
  // Whiten the root first so that adjacent roots do not produce related
  // stream families, then inject the stream id and hash again.  Each step is
  // a bijection of the 64-bit state, so (root, id) -> seed never collides
  // for a fixed root.
  std::uint64_t state = root_seed;
  state = splitmix64(state) ^ stream_id;
  return splitmix64(state);
}

Rng fork_stream(std::uint64_t root_seed, std::uint64_t stream_id) {
  return Rng(fork_seed(root_seed, stream_id));
}

Rng::Rng(std::uint64_t seed) {
  // xoshiro256** must not start from the all-zero state; splitmix64 seeding
  // guarantees that with overwhelming probability, and we guard regardless.
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::gaussian() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_gaussian_;
  }
  // Box–Muller; u is kept away from zero so log(u) is finite.
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  const double v = uniform();
  const double r = std::sqrt(-2.0 * std::log(u));
  const double theta = 2.0 * M_PI * v;
  spare_gaussian_ = r * std::sin(theta);
  has_spare_ = true;
  return r * std::cos(theta);
}

double Rng::gaussian(double mean, double stddev) {
  return mean + stddev * gaussian();
}

Rng Rng::split() { return Rng(next_u64()); }

std::vector<std::uint8_t> Rng::random_bits(std::size_t n, double p) {
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = bernoulli(p) ? 1 : 0;
  return bits;
}

}  // namespace hycim::util
