// Differential conformance harness of the bit-plane popcount engine
// (fabric/bitserial.hpp): every dispatchable micro-kernel tier (scalar
// baseline, popcnt, AVX-512 VPOPCNTDQ when the machine has them) must be
// *bit-identical* — raw accumulators and threshold codes — to two
// independent oracles:
//   * the per-column paper-unit models: SlidingWindowUnit emits each
//     output pixel's footprint and Mvtu accumulates/thresholds it;
//   * a direct byte-level dot product over the CHW codes.
// The sweep covers channel counts around and between the 64-bit word
// boundaries (window edges at every word shift, tail words), kernel
// 1/3/5, stride 1/2, pad 0/1/same, act_bits 1–4, the bipolar
// W1A1 encoding, 1×1-spatial FC stages as offload/import builds them for
// MLP-4, batch 1–8, negative-slope (ascending=false) thresholds, forced
// sharding on a private ThreadPool (the TSan target), the fused max-pool
// against the pool unit, and the seven Tincy YOLO @416 hidden-layer
// geometries on a row subset. A second part checks
// that a warm layer pass performs zero heap allocations.
//
// Rep count scales with TINCY_CONFORMANCE_REPS (default 1 random draw per
// sweep point); the tier2-conformance ctest entry raises it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "fabric/accelerator.hpp"
#include "fabric/bitserial.hpp"
#include "fabric/mvtu.hpp"
#include "fabric/pool_unit.hpp"
#include "fabric/sliding_window.hpp"
#include "gemm/scratch.hpp"
#include "nn/builder.hpp"
#include "nn/zoo.hpp"
#include "offload/import.hpp"

// --- Global operator new instrumentation (zero-allocation test) ---------
// Same instrument as test_gemm_engine: counts every heap acquisition in the
// process, on every thread.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<int64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tincy::fabric {
namespace {

int conformance_reps() {
  if (const char* env = std::getenv("TINCY_CONFORMANCE_REPS")) {
    const int reps = std::atoi(env);
    if (reps > 0) return reps;
  }
  return 1;
}

/// One randomized engine problem: weights, thresholds and a batch of
/// CHW code maps.
struct Problem {
  gemm::ConvGeometry g;
  int64_t rows = 0;
  int act_bits = 1;
  ActEncoding enc = ActEncoding::kUnsigned;
  int64_t batch = 1;
  quant::BinaryMatrix weights;
  std::vector<ThresholdChannel> thresholds;
  std::vector<uint8_t> inputs;

  int64_t pixels() const { return g.num_patches(); }
  int64_t frame_numel() const {
    return g.in_channels * g.in_height * g.in_width;
  }
  int64_t out_numel() const { return batch * rows * pixels(); }
};

/// Random thresholds around the accumulator's spread; every third row
/// has a negative slope (ascending = false, comparisons flip).
std::vector<ThresholdChannel> random_thresholds(Rng& rng, int64_t rows,
                                                int64_t cols, int act_bits,
                                                ActEncoding enc) {
  const int levels = enc == ActEncoding::kBipolar ? 1 : (1 << act_bits) - 1;
  const int spread = std::max(
      2, static_cast<int>(std::sqrt(static_cast<double>(cols)) * levels));
  std::vector<ThresholdChannel> th(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    ThresholdChannel& ch = th[static_cast<size_t>(r)];
    ch.ascending = r % 3 != 1;
    for (int k = 0; k < levels; ++k)
      ch.thresholds.push_back(rng.uniform_int(-spread, spread));
    std::sort(ch.thresholds.begin(), ch.thresholds.end());
  }
  return th;
}

Problem make_problem(Rng& rng, const gemm::ConvGeometry& g, int64_t rows,
                     int act_bits, ActEncoding enc, int64_t batch) {
  Problem p;
  p.g = g;
  p.rows = rows;
  p.act_bits = act_bits;
  p.enc = enc;
  p.batch = batch;
  Tensor w(Shape{rows, g.patch_size()});
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
  p.weights = quant::binarize(w);
  p.thresholds = random_thresholds(rng, rows, g.patch_size(), act_bits, enc);
  p.inputs.resize(static_cast<size_t>(batch * p.frame_numel()));
  const int max_code = (1 << act_bits) - 1;
  for (auto& c : p.inputs)
    c = static_cast<uint8_t>(rng.uniform_int(0, max_code));
  return p;
}

BitSerialEngine make_engine(const Problem& p) {
  return BitSerialEngine(p.g, p.weights, p.thresholds, p.act_bits, p.enc);
}

/// Oracle 1: the per-column paper units (SWU footprint + MVTU).
void column_oracle(const Problem& p, std::vector<int32_t>& acc,
                   std::vector<uint8_t>& codes) {
  const SlidingWindowUnit swu(p.g);
  const Mvtu mvtu(p.weights, p.thresholds, p.act_bits, p.enc);
  const int64_t n = p.pixels(), rows = p.rows;
  acc.assign(static_cast<size_t>(p.out_numel()), 0);
  codes.assign(static_cast<size_t>(p.out_numel()), 0);
  std::vector<uint8_t> column(static_cast<size_t>(swu.column_size()));
  std::vector<int32_t> col_acc(static_cast<size_t>(rows));
  std::vector<uint8_t> col_codes(static_cast<size_t>(rows));
  for (int64_t f = 0; f < p.batch; ++f) {
    const std::span<const uint8_t> image(
        p.inputs.data() + f * p.frame_numel(),
        static_cast<size_t>(p.frame_numel()));
    for (int64_t j = 0; j < n; ++j) {
      swu.emit_column(image, j, column);
      mvtu.accumulate(column, col_acc);
      mvtu.compute(column, col_codes);
      for (int64_t r = 0; r < rows; ++r) {
        const size_t o = static_cast<size_t>((f * rows + r) * n + j);
        acc[o] = col_acc[static_cast<size_t>(r)];
        codes[o] = col_codes[static_cast<size_t>(r)];
      }
    }
  }
}

/// Oracle 2: direct byte-level dot over the CHW codes. A padding tap is
/// code 0 (the unsigned zero; −1 under the bipolar encoding, as the SWU
/// emits it).
std::vector<int32_t> direct_oracle(const Problem& p) {
  const gemm::ConvGeometry& g = p.g;
  const int64_t n = p.pixels(), K = g.kernel, ow = g.out_width();
  std::vector<int32_t> acc(static_cast<size_t>(p.out_numel()));
  for (int64_t f = 0; f < p.batch; ++f) {
    const uint8_t* image = p.inputs.data() + f * p.frame_numel();
    for (int64_t r = 0; r < p.rows; ++r) {
      const BitVector& wr = p.weights.row_bits[static_cast<size_t>(r)];
      for (int64_t j = 0; j < n; ++j) {
        const int64_t oy = j / ow, ox = j % ow;
        int32_t sum = 0;
        for (int64_t c = 0; c < g.in_channels; ++c)
          for (int64_t kh = 0; kh < K; ++kh)
            for (int64_t kw = 0; kw < K; ++kw) {
              const int64_t iy = oy * g.stride - g.pad + kh;
              const int64_t ix = ox * g.stride - g.pad + kw;
              const bool inside = iy >= 0 && iy < g.in_height && ix >= 0 &&
                                  ix < g.in_width;
              const int32_t code =
                  inside ? image[(c * g.in_height + iy) * g.in_width + ix] : 0;
              const int32_t a = p.enc == ActEncoding::kBipolar
                                    ? (code ? 1 : -1)
                                    : code;
              sum += wr.get((c * K + kh) * K + kw) ? a : -a;
            }
        acc[static_cast<size_t>((f * p.rows + r) * n + j)] = sum;
      }
    }
  }
  return acc;
}

template <typename T>
int64_t first_mismatch(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return 0;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return static_cast<int64_t>(i);
  return -1;
}

std::string describe(const Problem& p) {
  return "C=" + std::to_string(p.g.in_channels) + " H=" +
         std::to_string(p.g.in_height) + " W=" + std::to_string(p.g.in_width) +
         " K=" + std::to_string(p.g.kernel) + " s=" +
         std::to_string(p.g.stride) + " pad=" + std::to_string(p.g.pad) +
         " rows=" + std::to_string(p.rows) + " A=" +
         std::to_string(p.act_bits) +
         (p.enc == ActEncoding::kBipolar ? " bipolar" : "") +
         " batch=" + std::to_string(p.batch);
}

/// Checks every dispatchable tier against both oracles (accumulators and
/// codes). `opts_base` lets callers force sharding.
void expect_every_tier_conforms(const Problem& p,
                                BitSerialOptions opts_base = [] {
                                  BitSerialOptions o;
                                  o.min_ops_to_thread = INT64_MAX;
                                  return o;
                                }()) {
  std::vector<int32_t> oracle_acc;
  std::vector<uint8_t> oracle_codes;
  column_oracle(p, oracle_acc, oracle_codes);
  ASSERT_EQ(first_mismatch(oracle_acc, direct_oracle(p)), -1)
      << "the two oracles disagree: " << describe(p);

  const BitSerialEngine engine = make_engine(p);
  for (const PopcountTier tier : dispatchable_popcount_tiers()) {
    BitSerialOptions opts = opts_base;
    opts.tier = tier;
    std::vector<int32_t> acc(static_cast<size_t>(p.out_numel()), -7);
    std::vector<uint8_t> codes(static_cast<size_t>(p.out_numel()), 0xEE);
    engine.accumulate(p.inputs, p.batch, acc, opts);
    engine.run(p.inputs, p.batch, codes, opts);
    const int64_t bad_acc = first_mismatch(acc, oracle_acc);
    ASSERT_EQ(bad_acc, -1) << popcount_tier_name(tier) << " accumulator "
                           << bad_acc << ": " << describe(p);
    const int64_t bad_code = first_mismatch(codes, oracle_codes);
    ASSERT_EQ(bad_code, -1) << popcount_tier_name(tier) << " code "
                            << bad_code << ": " << describe(p);
  }
}

// --- Dispatch table ------------------------------------------------------

TEST(PopcountTiers, DispatchTableIsConsistent) {
  EXPECT_FALSE(popcount_tier_supported(PopcountTier::kAuto));
  EXPECT_TRUE(popcount_tier_supported(PopcountTier::kScalar));
  const auto tiers = dispatchable_popcount_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), PopcountTier::kScalar);
  EXPECT_EQ(resolve_popcount_tier(PopcountTier::kAuto), tiers.back());
  for (const PopcountTier t : tiers) {
    EXPECT_TRUE(popcount_tier_supported(t));
    EXPECT_EQ(resolve_popcount_tier(t), t) << popcount_tier_name(t);
  }
  for (const PopcountTier t :
       {PopcountTier::kScalar, PopcountTier::kPopcnt,
        PopcountTier::kAvx512Vpopcntdq}) {
    if (!popcount_tier_supported(t)) {
      EXPECT_EQ(resolve_popcount_tier(t), tiers.back());
    }
  }
  EXPECT_STREQ(popcount_tier_name(PopcountTier::kAvx512Vpopcntdq),
               "avx512_vpopcntdq");
}

// --- Geometry sweeps -----------------------------------------------------

// Channel counts around the 64-bit word boundary and between: a kernel
// row is K·C dense bits, so C = 16, 21, 33 and 48 put window edges at
// every shift of a word, and 32, 64, 130 at whole and half words.
constexpr int64_t kChannelCounts[] = {1,  3,  16, 21, 32, 33,
                                      48, 63, 64, 65, 130};
constexpr int64_t kKernels[] = {1, 3, 5};

/// Pads 0 and 1, and the "same" pad (K − 1)/2 when it is larger.
std::vector<int64_t> pads_for(int64_t k) {
  std::vector<int64_t> pads{0, 1};
  if ((k - 1) / 2 > 1) pads.push_back((k - 1) / 2);
  return pads;
}

TEST(BinaryConformance, UnsignedGeometrySweepEveryTier) {
  Rng rng(1301);
  for (int rep = 0; rep < conformance_reps(); ++rep)
    for (const int64_t c : kChannelCounts)
      for (const int64_t k : kKernels)
        for (const int64_t stride : {1, 2})
          for (const int64_t pad : pads_for(k))
            for (int bits = 1; bits <= 4; ++bits) {
              const gemm::ConvGeometry g{c, rng.uniform_int(k, k + 5),
                                         rng.uniform_int(k, k + 5), k, stride,
                                         pad};
              const Problem p =
                  make_problem(rng, g, rng.uniform_int(1, 19), bits,
                               ActEncoding::kUnsigned, rng.uniform_int(1, 3));
              expect_every_tier_conforms(p);
              if (HasFatalFailure()) return;
            }
}

TEST(BinaryConformance, BipolarGeometrySweepEveryTier) {
  Rng rng(1302);
  for (int rep = 0; rep < conformance_reps(); ++rep)
    for (const int64_t c : kChannelCounts)
      for (const int64_t k : kKernels)
        for (const int64_t stride : {1, 2})
          for (const int64_t pad : pads_for(k)) {
            const gemm::ConvGeometry g{c, rng.uniform_int(k, k + 5),
                                       rng.uniform_int(k, k + 5), k, stride,
                                       pad};
            const Problem p =
                make_problem(rng, g, rng.uniform_int(1, 19), 1,
                             ActEncoding::kBipolar, rng.uniform_int(1, 3));
            expect_every_tier_conforms(p);
            if (HasFatalFailure()) return;
          }
}

TEST(BinaryConformance, BatchOneToEightMatchesPerFrame) {
  Rng rng(1303);
  const gemm::ConvGeometry g{65, 7, 6, 3, 1, 1};
  for (int64_t batch = 1; batch <= 8; ++batch) {
    const Problem p = make_problem(rng, g, 11, 3, ActEncoding::kUnsigned,
                                   batch);
    expect_every_tier_conforms(p);
    if (HasFatalFailure()) return;

    // The batched pass equals the per-frame passes, frame by frame.
    const BitSerialEngine engine = make_engine(p);
    std::vector<uint8_t> batched(static_cast<size_t>(p.out_numel()));
    engine.run(p.inputs, batch, batched);
    const int64_t frame_out = p.rows * p.pixels();
    for (int64_t f = 0; f < batch; ++f) {
      std::vector<uint8_t> single(static_cast<size_t>(frame_out));
      engine.run(std::span<const uint8_t>(p.inputs).subspan(
                     static_cast<size_t>(f * p.frame_numel()),
                     static_cast<size_t>(p.frame_numel())),
                 1, single);
      const std::vector<uint8_t> slice(batched.begin() + f * frame_out,
                                       batched.begin() + (f + 1) * frame_out);
      EXPECT_EQ(slice, single) << "frame " << f << " of batch " << batch;
    }
  }
}

TEST(BinaryConformance, FullyConnectedStagesLikeMlp4) {
  // MLP-4's hidden stack as offload/import maps it: each connected layer
  // is a 1×1-spatial stage over the flattened input (784 = 12·64 + 16
  // channels: a tail word). One bipolar and one unsigned 2-bit chain.
  for (const bool bipolar : {true, false}) {
    std::string cfg = "[net]\nwidth=28\nheight=28\nchannels=1\n";
    for (int l = 0; l < 3; ++l)
      cfg += std::string("[connected]\noutput=") + (l == 2 ? "200" : "256") +
             "\nactivation=linear\nbinary=1\n" +
             (bipolar ? "abits=1\nbipolar=1\n" : "abits=2\n") +
             "in_scale=1\nout_scale=1\n";
    Rng rng(bipolar ? 1304 : 1305);
    auto subnet = nn::build_network_from_string(cfg);
    nn::zoo::randomize(*subnet, rng);
    const auto stages = offload::extract_stages(*subnet);
    ASSERT_EQ(stages.size(), 3u);
    for (const auto& st : stages) {
      ASSERT_EQ(st.spec.in_height, 1);
      ASSERT_EQ(st.spec.kernel, 1);
      for (const int64_t batch : {1, 5, 8}) {
        Problem p;
        p.g = st.spec.conv_geometry();
        p.rows = st.spec.filters;
        p.act_bits = st.spec.act_bits_in;
        p.enc = st.spec.bipolar ? ActEncoding::kBipolar
                                : ActEncoding::kUnsigned;
        p.batch = batch;
        p.weights = st.weights;
        p.thresholds = st.thresholds;
        p.inputs.resize(static_cast<size_t>(batch * p.frame_numel()));
        for (auto& c : p.inputs)
          c = static_cast<uint8_t>(rng.uniform_int(0, (1 << p.act_bits) - 1));
        expect_every_tier_conforms(p);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(BinaryConformance, ForcedShardingOnPrivatePool) {
  // Every block chunk on a 4-thread pool, threading floor off; two caller
  // threads share the engine and the pool (the TSan target).
  core::ThreadPool pool(4);
  BitSerialOptions sharded;
  sharded.pool = &pool;
  sharded.min_ops_to_thread = 0;
  Rng rng(1306);
  const Problem problems[] = {
      make_problem(rng, {130, 9, 11, 3, 1, 1}, 37, 3, ActEncoding::kUnsigned,
                   3),
      make_problem(rng, {64, 12, 12, 3, 2, 1}, 16, 2, ActEncoding::kUnsigned,
                   2),
      make_problem(rng, {63, 8, 8, 3, 1, 0}, 9, 1, ActEncoding::kBipolar, 4),
      make_problem(rng, {16, 14, 13, 3, 1, 1}, 20, 3, ActEncoding::kUnsigned,
                   2),
  };
  for (const Problem& p : problems) {
    expect_every_tier_conforms(p, sharded);
    if (HasFatalFailure()) return;
  }

  const Problem& p = problems[0];
  const BitSerialEngine engine = make_engine(p);
  std::vector<uint8_t> expected(static_cast<size_t>(p.out_numel()));
  BitSerialOptions single;
  single.min_ops_to_thread = INT64_MAX;
  engine.run(p.inputs, p.batch, expected, single);
  std::atomic<int> mismatches{0};
  const auto caller = [&] {
    std::vector<uint8_t> got(static_cast<size_t>(p.out_numel()));
    for (int i = 0; i < 6; ++i) {
      engine.run(p.inputs, p.batch, got, sharded);
      if (got != expected) mismatches.fetch_add(1);
    }
  };
  std::thread a(caller), b(caller);
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(BinaryConformance, FusedPoolMatchesPoolUnit) {
  // run_pooled == max_pool_codes_batch over the per-column oracle's codes,
  // for non-overlapping (2/2, 3/3) and overlapping (2/1, 3/2) windows on
  // odd and even conv extents, every tier, one thread and forced sharding.
  core::ThreadPool pool(3);
  BitSerialOptions sharded;
  sharded.pool = &pool;
  sharded.min_ops_to_thread = 0;
  BitSerialOptions single;
  single.min_ops_to_thread = INT64_MAX;
  Rng rng(1309);
  const std::pair<int64_t, int64_t> windows[] = {{2, 2}, {2, 1}, {3, 2},
                                                 {3, 3}};
  for (const auto& [size, stride] : windows)
    for (const int64_t hw : {7, 8, 13}) {
      const Problem p = make_problem(rng, {65, hw, hw + 1, 3, 1, 1}, 10, 3,
                                     ActEncoding::kUnsigned, 2);
      std::vector<int32_t> acc;
      std::vector<uint8_t> conv;
      column_oracle(p, acc, conv);
      const PoolSpec ps{p.rows, p.g.out_height(), p.g.out_width(), size,
                        stride};
      std::vector<uint8_t> expected(
          static_cast<size_t>(p.batch * p.rows * ps.out_height() *
                              ps.out_width()));
      max_pool_codes_batch(ps, conv, expected, p.batch);
      const BitSerialEngine engine = make_engine(p);
      for (const PopcountTier tier : dispatchable_popcount_tiers())
        for (BitSerialOptions opts : {single, sharded}) {
          opts.tier = tier;
          std::vector<uint8_t> got(expected.size(), 0xEE);
          engine.run_pooled(p.inputs, p.batch, ps, got, opts);
          ASSERT_EQ(first_mismatch(got, expected), -1)
              << popcount_tier_name(tier) << " pool " << size << "/"
              << stride << ": " << describe(p);
        }
    }
}

TEST(BinaryConformance, TincyYolo416HiddenGeometries) {
  // The seven W1A3 hidden convs of Tincy YOLO @416 (input C×H×W, filters),
  // each once at full spatial size on a 3-row subset of the filters.
  struct Layer {
    int64_t c, hw, filters;
  };
  constexpr Layer kLayers[] = {{16, 208, 64},  {64, 104, 64}, {64, 52, 128},
                               {128, 26, 256}, {256, 13, 512}, {512, 13, 512},
                               {512, 13, 512}};
  Rng rng(1307);
  for (const Layer& l : kLayers) {
    const Problem p = make_problem(rng, {l.c, l.hw, l.hw, 3, 1, 1}, 3, 3,
                                   ActEncoding::kUnsigned, 1);
    // Dense window words: 3·ceil(3·16/64) = 3 per plane for the C = 16
    // layer; 3·(3·C/64), one word per tap and 64 channels, for the rest.
    EXPECT_EQ(make_engine(p).words_per_plane(), l.c == 16 ? 3 : 9 * l.c / 64)
        << "C=" << l.c;
    expect_every_tier_conforms(p);
    if (HasFatalFailure()) return;
  }
}

// --- Zero-allocation steady state ----------------------------------------

QnnLayerSpec spec_of(int64_t c, int64_t hw, int64_t filters, bool pool) {
  QnnLayerSpec s;
  s.in_channels = c;
  s.in_height = hw;
  s.in_width = hw;
  s.filters = filters;
  s.pool_after = pool;
  return s;
}

TEST(ZeroAllocation, WarmLayerPassesDoNotTouchTheHeap) {
  Rng rng(1308);
  QnnAccelerator acc;
  const QnnLayerSpec specs[] = {spec_of(16, 12, 32, true),
                                spec_of(32, 6, 70, false)};
  for (const QnnLayerSpec& s : specs) {
    const Problem p = make_problem(rng, s.conv_geometry(), s.filters, 3,
                                   ActEncoding::kUnsigned, 1);
    acc.add_layer(s, p.weights, p.thresholds);
  }
  const int64_t batch = 4;
  std::vector<std::vector<uint8_t>> in, out;
  for (const QnnLayerSpec& s : specs) {
    in.emplace_back(static_cast<size_t>(batch * s.in_channels * s.in_height *
                                        s.in_width),
                    5);
    out.emplace_back(static_cast<size_t>(batch * s.output_shape().numel()));
  }
  // A private pool with forced sharding exercises the workers' arenas.
  core::ThreadPool pool(2);
  BitSerialOptions sharded;
  sharded.pool = &pool;
  sharded.min_ops_to_thread = 0;
  const Problem p = make_problem(rng, {20, 9, 9, 3, 1, 1}, 24, 3,
                                 ActEncoding::kUnsigned, 2);
  const BitSerialEngine engine = make_engine(p);
  std::vector<uint8_t> codes(static_cast<size_t>(p.out_numel()));

  const auto run_frame = [&] {
    for (int64_t i = 0; i < acc.num_layers(); ++i) {
      const auto& s = specs[static_cast<size_t>(i)];
      const size_t in_numel =
          static_cast<size_t>(s.in_channels * s.in_height * s.in_width);
      const size_t out_numel = static_cast<size_t>(s.output_shape().numel());
      acc.run_layer_batched(i, in[static_cast<size_t>(i)], batch,
                            out[static_cast<size_t>(i)]);
      acc.run_layer_batched(
          i, std::span<const uint8_t>(in[static_cast<size_t>(i)]).first(in_numel),
          1, std::span<uint8_t>(out[static_cast<size_t>(i)]).first(out_numel));
    }
    engine.run(p.inputs, p.batch, codes, sharded);
  };

  // Warm-up: sizes every participating thread's arena, spins up the
  // shared pool and resolves the telemetry instruments.
  for (int i = 0; i < 20; ++i) run_frame();

  const int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  const int64_t blocks_before = gemm::arena_blocks_acquired();
  // Arena blocks double in size, so a per-pass leak shows as a new block
  // only after many passes; 50 cover one doubling past the warm-up.
  for (int i = 0; i < 50; ++i) run_frame();
  const int64_t blocks_after = gemm::arena_blocks_acquired();
  const int64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "steady-state layer passes must not allocate";
  EXPECT_EQ(blocks_after - blocks_before, 0)
      << "no arena (caller or pool worker) may grow after warm-up";
}

}  // namespace
}  // namespace tincy::fabric
