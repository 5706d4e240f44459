// Tests of the packed/tiled/threaded low-precision GEMM engine
// (gemm_packed.hpp): bit-exact parity with the scalar oracles across
// awkward shapes, the pack layout contract, accumulator auto-selection,
// the incremental im2col strip, the zero-allocation steady state of the
// hot paths (the first16_acc16 ConvLayer forward among them), and thread-pool correctness under concurrent load (the
// latter is the TINCY_SANITIZE=thread target).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <tuple>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "gemm/gemm_lowp.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/im2col.hpp"
#include "gemm/scratch.hpp"
#include "nn/conv_layer.hpp"
#include "quant/affine.hpp"
#include "telemetry/metrics.hpp"

// --- Global operator new instrumentation (zero-allocation smoke test) ---
// Counts every heap acquisition in the process so the steady-state claim
// "warm GEMM hot paths never allocate" is checked against reality, not
// against the arena's own bookkeeping.
//
// GCC pairs inlined allocations with the *implicit* operator new
// declaration and flags the malloc/free replacement as mismatched; the
// replacement below is self-consistent, so silence the false positive.
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

namespace tincy::gemm {
namespace {

std::vector<uint8_t> random_codes(Rng& rng, int64_t n) {
  std::vector<uint8_t> v(n);
  for (auto& x : v) x = static_cast<uint8_t>(rng.uniform_int(0, 255));
  return v;
}

// --- Parity vs the scalar oracles across awkward shapes ---------------

using Dims = std::tuple<int64_t, int64_t, int64_t>;

class PackedGemmParity : public ::testing::TestWithParam<Dims> {};

TEST_P(PackedGemmParity, I32BitExact) {
  const auto [M, N, K] = GetParam();
  Rng rng(91);
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  const int32_t za = 7, zb = 131;
  std::vector<int32_t> ref(M * N), got(M * N, -1);
  gemm_lowp_i32(M, N, K, a.data(), za, b.data(), zb, ref.data());
  gemm_lowp_packed(M, N, K, a.data(), za, b.data(), zb, got.data(), {});
  EXPECT_EQ(ref, got);
}

TEST_P(PackedGemmParity, I32CachedPackBitExact) {
  const auto [M, N, K] = GetParam();
  Rng rng(92);
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  const int32_t za = 200, zb = 3;
  std::vector<int32_t> ref(M * N), got(M * N, -1);
  gemm_lowp_i32(M, N, K, a.data(), za, b.data(), zb, ref.data());
  const PackedLhs lhs = pack_lhs(a.data(), M, K, za);
  gemm_lowp_packed(lhs, b.data(), zb, N, got.data(), {});
  EXPECT_EQ(ref, got);
}

TEST_P(PackedGemmParity, Shift4BitExact) {
  const auto [M, N, K] = GetParam();
  Rng rng(93);
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  // Extreme zero points wrap/saturate the 16-bit path; the kernel must
  // still match the scalar oracle bit for bit.
  const int32_t za = 5, zb = 250;
  std::vector<int32_t> ref(M * N), got(M * N, -1);
  gemm_lowp_i32_shift4(M, N, K, a.data(), za, b.data(), zb, ref.data());
  GemmOptions opts;
  opts.acc = Accumulator::kI16Shift4;
  gemm_lowp_packed(M, N, K, a.data(), za, b.data(), zb, got.data(), opts);
  EXPECT_EQ(ref, got);
}

TEST_P(PackedGemmParity, ForcedShardingBitExact) {
  const auto [M, N, K] = GetParam();
  Rng rng(94);
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  const int32_t za = 128, zb = 128;
  std::vector<int32_t> ref(M * N), got(M * N, -1);
  gemm_lowp_i32(M, N, K, a.data(), za, b.data(), zb, ref.data());
  core::ThreadPool pool(4);
  GemmOptions opts;
  opts.pool = &pool;
  opts.min_ops_per_shard = 1;  // shard even tiny problems
  opts.min_ops_to_thread = 1;
  gemm_lowp_packed(M, N, K, a.data(), za, b.data(), zb, got.data(), opts);
  EXPECT_EQ(ref, got);
}

TEST(ThreadingHeuristic, SkinnyShapesDeclineThreads) {
  // The layer0 shape (M=16, K=27) runs in well under a millisecond single
  // threaded; fanning it out loses more to worker wake-up than the
  // parallel section saves (the 2.97x < 3x gate miss). The whole-call
  // floor must keep such calls on one thread even with a big pool.
  const int64_t M = 16, N = 1000, K = 27;
  Rng rng(95);
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  const int32_t za = 7, zb = 131;
  std::vector<int32_t> ref(M * N), got(M * N);
  gemm_lowp_i32(M, N, K, a.data(), za, b.data(), zb, ref.data());
  core::ThreadPool pool(4);
  GemmOptions opts;
  opts.pool = &pool;
  ASSERT_LT(2 * M * N * K, opts.min_ops_to_thread);
  gemm_lowp_packed(M, N, K, a.data(), za, b.data(), zb, got.data(), opts);
  EXPECT_EQ(ref, got);
  auto& registry = telemetry::MetricsRegistry::global();
  EXPECT_EQ(registry.snapshot().gauge_value("gemm.threads"), 1.0);

  // A deep-K shape above the floor still fans out on the same pool.
  const int64_t K2 = 1 << 13;
  const auto a2 = random_codes(rng, M * K2);
  const auto b2 = random_codes(rng, K2 * N);
  std::vector<int32_t> got2(M * N);
  gemm_lowp_packed(M, N, K2, a2.data(), za, b2.data(), zb, got2.data(), opts);
  EXPECT_GT(registry.snapshot().gauge_value("gemm.threads"), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, PackedGemmParity,
    ::testing::Values(Dims{4, 16, 8},     // exactly one tile
                      Dims{7, 13, 33},    // nothing divides the tile
                      Dims{1, 50, 9},     // M=1 (single row block)
                      Dims{5, 1, 64},     // N=1 (GEMV fast path)
                      Dims{3, 17, 1},     // K=1
                      Dims{16, 1000, 27},   // layer-0-like, N % 16 != 0
                      Dims{33, 31, 130}));  // partial everything

// --- Accumulator policy ------------------------------------------------

TEST(Acc16Policy, SafePredicate) {
  // Centered codes span +-128 at zero point 128: products max 16384 and
  // small depths keep the shifted sum within int16.
  EXPECT_TRUE(acc16_safe(16, 128, 128));
  // Depth large enough to saturate the shifted sum.
  EXPECT_FALSE(acc16_safe(1024, 128, 128));
  // Asymmetric zero points push single products past int16 (253*131).
  EXPECT_FALSE(acc16_safe(4, 2, 131));
}

TEST(Acc16Policy, AutoSelectsShift4WhenSafe) {
  const int64_t M = 6, N = 33, K = 16;
  Rng rng(95);
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  const int32_t za = 128, zb = 128;
  ASSERT_TRUE(acc16_safe(K, za, zb));
  std::vector<int32_t> oracle(M * N), got(M * N);
  gemm_lowp_i32_shift4(M, N, K, a.data(), za, b.data(), zb, oracle.data());
  GemmOptions opts;
  opts.acc = Accumulator::kAuto;
  gemm_lowp_packed(M, N, K, a.data(), za, b.data(), zb, got.data(), opts);
  EXPECT_EQ(oracle, got);
}

TEST(Acc16Policy, AutoFallsBackToI32WhenUnsafe) {
  const int64_t M = 6, N = 33, K = 200;
  Rng rng(96);
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  const int32_t za = 7, zb = 131;
  ASSERT_FALSE(acc16_safe(K, za, zb));
  std::vector<int32_t> oracle(M * N), got(M * N);
  gemm_lowp_i32(M, N, K, a.data(), za, b.data(), zb, oracle.data());
  GemmOptions opts;
  opts.acc = Accumulator::kAuto;
  gemm_lowp_packed(M, N, K, a.data(), za, b.data(), zb, got.data(), opts);
  EXPECT_EQ(oracle, got);
}

// --- Pack layout contract ---------------------------------------------

TEST(PackLhs, PanelLayoutAndRowSums) {
  const int64_t rows = 5, depth = 3;  // 2 panels, 3 padded rows in panel 1
  std::vector<uint8_t> a(rows * depth);
  for (int64_t i = 0; i < rows * depth; ++i)
    a[i] = static_cast<uint8_t>(10 + i);
  const int32_t zero = 9;
  const PackedLhs p = pack_lhs(a.data(), rows, depth, zero);
  ASSERT_EQ(p.rows, rows);
  ASSERT_EQ(p.depth, depth);
  ASSERT_EQ(static_cast<int64_t>(p.data.size()),
            packed_lhs_bytes(rows, depth));
  for (int64_t r = 0; r < rows; ++r) {
    int32_t sum = 0;
    for (int64_t k = 0; k < depth; ++k) {
      sum += a[r * depth + k];
      // data[panel][k*kMr + lane], panel = r / kMr, lane = r % kMr.
      EXPECT_EQ(p.data[(r / kMr) * kMr * depth + k * kMr + r % kMr],
                a[r * depth + k])
          << "r=" << r << " k=" << k;
    }
    EXPECT_EQ(p.row_sums[r], sum) << r;
  }
  // Padded lanes carry the zero point so they contribute exact zeros.
  for (int64_t r = rows; r < 8; ++r)
    for (int64_t k = 0; k < depth; ++k)
      EXPECT_EQ(p.data[(r / kMr) * kMr * depth + k * kMr + r % kMr], zero);
}

TEST(PackRhsPanel, PadsTailLanesWithZeroPoint) {
  const int64_t depth = 5, cols = 21;
  Rng rng(97);
  const auto b = random_codes(rng, depth * cols);
  const int32_t zero = 77;
  std::vector<uint8_t> panel(depth * kNr);
  std::vector<int32_t> col_sums(kNr);
  const int64_t col0 = 16, width = cols - col0;  // 5-wide tail panel
  pack_rhs_panel(b.data(), depth, cols, col0, width, zero, panel.data(),
                 col_sums.data());
  for (int64_t k = 0; k < depth; ++k)
    for (int64_t j = 0; j < kNr; ++j) {
      const uint8_t want =
          j < width ? b[k * cols + col0 + j] : static_cast<uint8_t>(zero);
      EXPECT_EQ(panel[k * kNr + j], want) << "k=" << k << " j=" << j;
    }
  for (int64_t j = 0; j < width; ++j) {
    int32_t sum = 0;
    for (int64_t k = 0; k < depth; ++k) sum += b[k * cols + col0 + j];
    EXPECT_EQ(col_sums[j], sum) << j;
  }
}

// --- Incremental im2col strip vs the dense reference -------------------

class Im2colStrip : public ::testing::TestWithParam<ConvGeometry> {};

TEST_P(Im2colStrip, MatchesDenseIm2col) {
  const ConvGeometry g = GetParam();
  Rng rng(98);
  const auto image =
      random_codes(rng, g.in_channels * g.in_height * g.in_width);
  const uint8_t pad_value = 113;
  std::vector<uint8_t> dense(g.patch_size() * g.num_patches());
  im2col<uint8_t>(image.data(), g, dense.data(), pad_value);
  // Strips at awkward offsets: mid-row starts, row-crossing widths, tails.
  const int64_t n = g.num_patches();
  const int64_t starts[] = {0, 1, n / 3, n - 5 > 0 ? n - 5 : 0};
  const int64_t widths[] = {1, 3, kNr, n};
  std::vector<uint8_t> strip;
  for (int64_t col0 : starts)
    for (int64_t w : widths) {
      const int64_t width = std::min(w, n - col0);
      if (width <= 0) continue;
      strip.assign(g.patch_size() * width, 0);
      im2col_strip_u8(image.data(), g, col0, width, pad_value, strip.data());
      for (int64_t r = 0; r < g.patch_size(); ++r)
        for (int64_t j = 0; j < width; ++j)
          ASSERT_EQ(strip[r * width + j], dense[r * n + col0 + j])
              << "col0=" << col0 << " width=" << width << " r=" << r
              << " j=" << j;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colStrip,
    ::testing::Values(ConvGeometry{3, 8, 9, 3, 1, 1},   // padded stride 1
                      ConvGeometry{2, 7, 9, 3, 2, 1},   // stride 2 + pad
                      ConvGeometry{1, 5, 5, 3, 1, 0},   // no pad
                      ConvGeometry{4, 6, 6, 1, 1, 0},   // 1x1 kernel
                      ConvGeometry{1, 4, 4, 3, 3, 2},   // stride > kernel-1
                      ConvGeometry{2, 3, 3, 3, 1, 1})); // out == in == 3x3

// --- Conv drivers: raw vs cached-pack overloads ------------------------

TEST(ConvLowp, RawAndPackedOverloadsAgree) {
  const ConvGeometry geoms[] = {
      {3, 10, 11, 3, 1, 1}, {2, 9, 7, 3, 2, 1}, {5, 6, 6, 1, 1, 0}};
  for (const ConvGeometry& g : geoms) {
    const int64_t out_channels = 7;
    Rng rng(99);
    std::vector<float> image(g.in_channels * g.in_height * g.in_width);
    for (auto& v : image) v = rng.uniform(-1.0f, 1.0f);
    std::vector<float> bias(out_channels);
    for (auto& v : bias) v = rng.normal();
    const auto in_params = quant::choose_affine_params(-1.0f, 1.0f);
    const auto w_params = quant::choose_affine_params(-2.0f, 2.0f);
    Rng wrng(100);
    const auto wq = random_codes(wrng, out_channels * g.patch_size());

    std::vector<float> raw_out(out_channels * g.num_patches(), -1.0f);
    std::vector<float> packed_out(out_channels * g.num_patches(), -2.0f);
    conv_lowp_f32out(image.data(), g, in_params, wq.data(), w_params,
                     out_channels, bias.data(), raw_out.data());
    const PackedLhs lhs =
        pack_lhs(wq.data(), out_channels, g.patch_size(), w_params.zero_point);
    conv_lowp_f32out(image.data(), g, in_params, lhs, w_params, bias.data(),
                     packed_out.data());
    EXPECT_EQ(raw_out, packed_out);

    // The fused strip path accumulates the same integers in the same
    // order, so it matches the im2col path exactly as well.
    std::vector<float> fused_out(out_channels * g.num_patches(), -3.0f);
    fused_conv_lowp_f32out(image.data(), g, in_params, lhs, w_params,
                           bias.data(), fused_out.data());
    EXPECT_EQ(raw_out, fused_out);
  }
}

// --- Zero-allocation steady state --------------------------------------

TEST(ZeroAllocation, WarmHotPathsDoNotTouchTheHeap) {
  const ConvGeometry g{3, 24, 24, 3, 1, 1};
  const int64_t out_channels = 16;
  Rng rng(101);
  std::vector<float> image(g.in_channels * g.in_height * g.in_width);
  for (auto& v : image) v = rng.uniform(0.0f, 1.0f);
  std::vector<float> bias(out_channels, 0.1f);
  const auto in_params = quant::choose_affine_params(0.0f, 1.0f);
  const auto w_params = quant::choose_affine_params(-2.0f, 2.0f);
  const auto wq = random_codes(rng, out_channels * g.patch_size());
  const PackedLhs lhs =
      pack_lhs(wq.data(), out_channels, g.patch_size(), w_params.zero_point);
  std::vector<float> out(out_channels * g.num_patches());

  const int64_t M = 24, N = 96, K = 64;
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  const auto out_params = quant::choose_affine_params(-4.0f, 4.0f);
  const quant::Requantizer rq =
      quant::make_requantizer(in_params.scale, w_params.scale, out_params);
  std::vector<uint8_t> cq(M * N);

  auto run_frame = [&] {
    conv_lowp_f32out(image.data(), g, in_params, wq.data(), w_params,
                     out_channels, bias.data(), out.data());
    conv_lowp_f32out(image.data(), g, in_params, lhs, w_params, bias.data(),
                     out.data());
    fused_conv_lowp_f32out(image.data(), g, in_params, lhs, w_params,
                           bias.data(), out.data());
    gemm_lowp_u8(M, N, K, a.data(), in_params.zero_point, b.data(),
                 w_params.zero_point, rq, cq.data());
  };

  // Warm-up: sizes the thread arenas, spins up the shared pool, resolves
  // the telemetry instruments.
  run_frame();
  run_frame();

  const int64_t arena_before = thread_arena().heap_allocations();
  const int64_t blocks_before = arena_blocks_acquired();
  const int64_t heap_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) run_frame();
  const int64_t heap_after = g_heap_allocs.load(std::memory_order_relaxed);
  const int64_t blocks_after = arena_blocks_acquired();
  const int64_t arena_after = thread_arena().heap_allocations();

  EXPECT_EQ(heap_after - heap_before, 0)
      << "steady-state frames must not allocate";
  EXPECT_EQ(arena_after - arena_before, 0)
      << "arena must not grow after warm-up";
  EXPECT_EQ(blocks_after - blocks_before, 0)
      << "no arena (caller or pool worker) may grow after warm-up";
}

TEST(ZeroAllocation, WarmFirstLayerForwardDoesNotTouchTheHeap) {
  // The paper's first layer as a network runs it: a first16_acc16
  // ConvLayer on the packed engine, once below the threading floor (the
  // calling thread alone) and once above it (sharded on the shared pool,
  // image quantization included). Warm frames take every buffer from the
  // thread arenas; 50 passes let a per-pass leak surface as a new block.
  std::vector<std::unique_ptr<nn::ConvLayer>> layers;
  std::vector<Tensor> ins, outs;
  Rng rng(103);
  for (const int64_t w : {24, 200}) {
    nn::ConvConfig cfg;
    cfg.filters = 16;
    cfg.size = 3;
    cfg.batch_normalize = true;
    cfg.kernel = nn::ConvKernel::kFirstLayerAcc16;
    auto layer = std::make_unique<nn::ConvLayer>(cfg, Shape{3, 104, w});
    for (int64_t i = 0; i < layer->weights().numel(); ++i)
      layer->weights()[i] = rng.normal(0.0f, 0.3f);
    Tensor in(Shape{3, 104, w});
    for (int64_t i = 0; i < in.numel(); ++i) in[i] = rng.uniform(0.0f, 1.0f);
    outs.emplace_back(layer->output_shape());
    ins.push_back(std::move(in));
    layers.push_back(std::move(layer));
  }
  auto run_frame = [&] {
    for (size_t i = 0; i < layers.size(); ++i)
      layers[i]->forward(ins[i], outs[i]);
  };
  // Warm-up: fills the layer caches and sizes the arena of every pool
  // worker that claims a panel chunk; 20 frames give each worker many
  // chances to have claimed one.
  for (int i = 0; i < 20; ++i) run_frame();

  const int64_t arena_before = thread_arena().heap_allocations();
  const int64_t blocks_before = arena_blocks_acquired();
  const int64_t heap_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 50; ++i) run_frame();
  const int64_t heap_after = g_heap_allocs.load(std::memory_order_relaxed);
  const int64_t blocks_after = arena_blocks_acquired();
  const int64_t arena_after = thread_arena().heap_allocations();

  EXPECT_EQ(heap_after - heap_before, 0)
      << "warm first-layer frames must not allocate";
  EXPECT_EQ(arena_after - arena_before, 0)
      << "arena must not grow after warm-up";
  EXPECT_EQ(blocks_after - blocks_before, 0)
      << "no arena (caller or pool worker) may grow after warm-up";
}

// --- Thread pool: correctness and concurrent stress (TSan target) ------

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  core::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  struct Ctx {
    std::vector<std::atomic<int>>* hits;
  } ctx{&hits};
  pool.parallel_for(
      0, 1000, 13,
      [](int64_t lo, int64_t hi, void* c) {
        auto* h = static_cast<Ctx*>(c)->hits;
        for (int64_t i = lo; i < hi; ++i)
          (*h)[i].fetch_add(1, std::memory_order_relaxed);
      },
      &ctx);
  for (int64_t i = 0; i < 1000; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, NestedCallsRunInline) {
  core::ThreadPool pool(3);
  struct Outer {
    core::ThreadPool* pool;
    std::atomic<int64_t> sum{0};
  } ctx{&pool};
  pool.parallel_for(
      0, 8, 8,
      [](int64_t lo, int64_t hi, void* c) {
        auto* o = static_cast<Outer*>(c);
        for (int64_t i = lo; i < hi; ++i) {
          // Re-entrant parallel_for from a worker must not deadlock.
          o->pool->parallel_for(
              0, 10, 4,
              [](int64_t l, int64_t h, void* s) {
                static_cast<std::atomic<int64_t>*>(s)->fetch_add(
                    h - l, std::memory_order_relaxed);
              },
              &o->sum);
        }
      },
      &ctx);
  EXPECT_EQ(ctx.sum.load(), 8 * 10);
}

TEST(ThreadPool, ConcurrentGemmCallersStaySane) {
  // Several caller threads drive sharded GEMMs through one pool at once —
  // the shape of pipeline workers sharing the process pool. Run under
  // TINCY_SANITIZE=thread for the data-race audit.
  core::ThreadPool pool(4);
  const int64_t M = 31, N = 130, K = 70;
  Rng rng(102);
  const auto a = random_codes(rng, M * K);
  const auto b = random_codes(rng, K * N);
  const int32_t za = 9, zb = 201;
  std::vector<int32_t> ref(M * N);
  gemm_lowp_i32(M, N, K, a.data(), za, b.data(), zb, ref.data());
  const PackedLhs lhs = pack_lhs(a.data(), M, K, za);

  constexpr int kCallers = 4, kReps = 8;
  std::vector<std::vector<int32_t>> outs(kCallers,
                                         std::vector<int32_t>(M * N));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      GemmOptions opts;
      opts.pool = &pool;
      opts.min_ops_per_shard = 1;
      opts.min_ops_to_thread = 1;
      for (int rep = 0; rep < kReps; ++rep)
        gemm_lowp_packed(lhs, b.data(), zb, N, outs[t].data(), opts);
    });
  }
  for (auto& th : callers) th.join();
  for (int t = 0; t < kCallers; ++t) EXPECT_EQ(outs[t], ref) << t;
}

}  // namespace
}  // namespace tincy::gemm
