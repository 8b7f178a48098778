// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Fast thread-local pseudo-random generators for workload drivers: uniform,
// Zipfian (YCSB-style), TPC-C NURand, and random alphanumeric strings.
#ifndef ERMIA_COMMON_RANDOM_H_
#define ERMIA_COMMON_RANDOM_H_

#include <cmath>
#include <cstdint>
#include <string>

#include "common/macros.h"

namespace ermia {

// xoshiro256** by Blackman & Vigna: fast, high-quality, and seedable per
// worker so benchmark runs are reproducible.
class FastRandom {
 public:
  explicit FastRandom(uint64_t seed = 0x9E3779B97F4A7C15ull) { Seed(seed); }

  void Seed(uint64_t seed) {
    // SplitMix64 to spread a small seed over the full state.
    for (auto& word : state_) {
      seed += 0x9E3779B97F4A7C15ull;
      uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      word = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [lo, hi] inclusive.
  uint64_t UniformU64(uint64_t lo, uint64_t hi) {
    ERMIA_DCHECK(lo <= hi);
    return lo + Next() % (hi - lo + 1);
  }

  int64_t Uniform(int64_t lo, int64_t hi) {
    return static_cast<int64_t>(UniformU64(0, static_cast<uint64_t>(hi - lo))) +
           lo;
  }

  double NextDouble() {  // [0, 1)
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  bool Bernoulli(double p) { return NextDouble() < p; }

  // TPC-C 2.1.6 non-uniform random. C values chosen once per run is fine for
  // benchmarking purposes.
  uint64_t NURand(uint64_t a, uint64_t x, uint64_t y) {
    const uint64_t c = c_for_a_ ? c_for_a_ : 42;
    return (((UniformU64(0, a) | UniformU64(x, y)) + c) % (y - x + 1)) + x;
  }

  std::string AlphaString(size_t min_len, size_t max_len) {
    static const char kChars[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    const size_t len = UniformU64(min_len, max_len);
    std::string s(len, ' ');
    for (auto& ch : s) ch = kChars[UniformU64(0, sizeof(kChars) - 2)];
    return s;
  }

  std::string NumString(size_t min_len, size_t max_len) {
    const size_t len = UniformU64(min_len, max_len);
    std::string s(len, '0');
    for (auto& ch : s) ch = static_cast<char>('0' + UniformU64(0, 9));
    return s;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
  uint64_t c_for_a_ = 0;
};

// Zipfian generator over [0, n) with parameter theta (0 = uniform-ish,
// paper's "80-20" skew corresponds to theta ~= 0.83). Gray et al. method.
// Holds only the distribution's constants (zeta takes O(n) to compute), so
// one instance is shared by every worker; each draw consumes the caller's
// own seeded generator.
class ZipfianRandom {
 public:
  ZipfianRandom(uint64_t n, double theta) : n_(n), theta_(theta) {
    zetan_ = Zeta(n_, theta_);
    zeta2_ = Zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
  }

  uint64_t Next(FastRandom& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    return static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }

 private:
  static double Zeta(uint64_t n, double theta) {
    double sum = 0;
    for (uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(i, theta);
    return sum;
  }

  uint64_t n_;
  double theta_;
  double zetan_, zeta2_, alpha_, eta_;
};

}  // namespace ermia

#endif  // ERMIA_COMMON_RANDOM_H_
