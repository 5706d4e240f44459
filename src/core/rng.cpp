#include "core/rng.hpp"

#include <algorithm>
#include <memory>

#include "core/thread_pool.hpp"

namespace tincy {
namespace {

uint64_t splitmix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  for (auto& s : s_) s = splitmix64(seed);
}

float Rng::uniform(float lo, float hi) {
  return lo + static_cast<float>(uniform()) * (hi - lo);
}

int64_t Rng::uniform_int(int64_t lo, int64_t hi) {
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>((*this)() % range);
}

/// One parallel_for of fill_normal: item 0 draws the next band's uniform
/// pairs (in order, on whichever thread claims it), items 1.. transform
/// the current band's pairs, `per_item` pairs each.
struct Rng::NormalBand {
  const uint64_t* uniforms;  ///< current band: 2 per pair, in draw order
  float* out;                ///< 2 per pair
  int64_t pairs;
  int64_t per_item;
  float mean;
  float stddev;
  Rng* rng;
  uint64_t* next;  ///< receives the next band's uniforms
  int64_t next_pairs;
};

void Rng::transform_band(int64_t lo, int64_t hi, void* ctx) {
  const NormalBand& b = *static_cast<const NormalBand*>(ctx);
  for (int64_t item = lo; item < hi; ++item) {
    if (item == 0) {
      for (int64_t k = 0; k < 2 * b.next_pairs; ++k) b.next[k] = (*b.rng)();
      continue;
    }
    const int64_t k0 = (item - 1) * b.per_item;
    const int64_t k1 = std::min(b.pairs, k0 + b.per_item);
    for (int64_t k = k0; k < k1; ++k) {
      const auto [z0, z1] = box_muller(to_unit(b.uniforms[2 * k]),
                                       to_unit(b.uniforms[2 * k + 1]));
      // normal(mean, stddev)'s expression, so the floats are the same.
      b.out[2 * k] = b.mean + b.stddev * z0;
      b.out[2 * k + 1] = b.mean + b.stddev * z1;
    }
  }
}

void Rng::fill_normal(std::span<float> out, float mean, float stddev,
                      core::ThreadPool* pool) {
  const auto n = static_cast<int64_t>(out.size());
  int64_t i = 0;
  if (n < kBulkNormalFloor) {
    for (; i < n; ++i) out[i] = normal(mean, stddev);
    return;
  }
  if (have_cached_normal_) out[i++] = normal(mean, stddev);

  // Two band buffers: while band k is transformed, one item of the same
  // parallel_for draws band k + 1, so the serial xoshiro stream overlaps
  // the transforms instead of preceding them.
  core::ThreadPool& tp = pool ? *pool : core::ThreadPool::shared();
  const int64_t pairs = (n - i) / 2;
  const int64_t band = std::min(pairs, kNormalBandPairs);
  const auto buffers = std::make_unique_for_overwrite<uint64_t[]>(
      static_cast<size_t>(4 * band));
  uint64_t* cur = buffers.get();
  uint64_t* next = cur + 2 * band;
  // Items of ~500 pairs (~15 µs of transforms) keep the tail balanced.
  const int64_t items = std::min<int64_t>(int64_t{tp.threads()} * 4, 16);
  for (int64_t k = 0; k < 2 * band; ++k) cur[k] = (*this)();
  for (int64_t p0 = 0; p0 < pairs; p0 += band) {
    const int64_t count = std::min(band, pairs - p0);
    NormalBand b{.uniforms = cur,
                 .out = out.data() + i + 2 * p0,
                 .pairs = count,
                 .per_item = (count + items - 1) / items,
                 .mean = mean,
                 .stddev = stddev,
                 .rng = this,
                 .next = next,
                 .next_pairs = std::clamp<int64_t>(pairs - p0 - band, 0, band)};
    tp.parallel_for(0, items + 1, items + 1, transform_band, &b);
    std::swap(cur, next);
  }
  // An odd tail draws one more pair and leaves its second normal cached.
  if ((n - i) % 2) out[n - 1] = normal(mean, stddev);
}

}  // namespace tincy
