#pragma once

/// \file rng.hpp
/// Deterministic pseudo-random number generation (xoshiro256**). All
/// stochastic components of the framework (weight init, synthetic data,
/// stress tests) draw from this so runs are reproducible from a seed.

#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <utility>

namespace tincy {

namespace core {
class ThreadPool;
}

/// xoshiro256** generator seeded via SplitMix64. Satisfies the needs of
/// UniformRandomBitGenerator so it can also feed <random> distributions.
class Rng {
 public:
  using result_type = uint64_t;

  /// fill_normal runs in the caller below this many values.
  static constexpr int64_t kBulkNormalFloor = int64_t{1} << 17;
  /// Uniform pairs per band of the pooled fill_normal path; its two band
  /// buffers hold 256 KB.
  static constexpr int64_t kNormalBandPairs = int64_t{1} << 13;

  explicit Rng(uint64_t seed = 0x7113C401D2018ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  /// Next raw 64-bit value.
  uint64_t operator()() {
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return to_unit((*this)()); }

  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi);

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t uniform_int(int64_t lo, int64_t hi);

  /// Standard normal via Box–Muller.
  float normal() {
    if (have_cached_normal_) {
      have_cached_normal_ = false;
      return cached_normal_;
    }
    const double u1 = uniform();
    const auto [z0, z1] = box_muller(u1, uniform());
    cached_normal_ = z1;
    have_cached_normal_ = true;
    return z0;
  }

  /// Normal with the given mean and standard deviation.
  float normal(float mean, float stddev) { return mean + stddev * normal(); }

  /// Fills `out` with out.size() normal(mean, stddev) draws, bit for bit
  /// the values and end state of that many scalar calls (a cached second
  /// normal is consumed first and one is left cached after an odd tail).
  /// Below kBulkNormalFloor values it is that loop. Above it the uniform
  /// pairs are drawn in order, kNormalBandPairs at a time, into buffers
  /// freed on return, and the Box–Muller transforms of each band run on
  /// `pool` (null -> ThreadPool::shared()) while one pool item draws the
  /// next band.
  void fill_normal(std::span<float> out, float mean, float stddev,
                   core::ThreadPool* pool = nullptr);

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) { return uniform() < p; }

 private:
  static uint64_t rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// 53 high-quality bits -> [0, 1).
  static double to_unit(uint64_t x) {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  /// The two normals of one uniform pair: {r·cos θ, r·sin θ}, r =
  /// sqrt(−2 ln u1) (u1 guarded against log(0)), θ = 2π·u2. Shared by
  /// normal() and fill_normal() so the two paths cannot drift apart.
  static std::pair<float, float> box_muller(double u1, double u2) {
    if (u1 < 1e-300) u1 = 1e-300;
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    return {static_cast<float>(r * std::cos(theta)),
            static_cast<float>(r * std::sin(theta))};
  }

  struct NormalBand;
  static void transform_band(int64_t lo, int64_t hi, void* ctx);

  uint64_t s_[4];
  bool have_cached_normal_ = false;
  float cached_normal_ = 0.0f;
};

}  // namespace tincy
