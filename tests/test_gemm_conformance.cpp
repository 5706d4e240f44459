// Differential conformance harness of the packed GEMM micro-kernel
// variants (gemm/kernels.hpp): every dispatchable variant (scalar
// baseline, portable lane model, AVX2 when the machine has it) must be
// *bit-identical* to the scalar reference oracles gemm_lowp_i32 and
// gemm_lowp_i32_shift4 — on randomized shapes, on skinny-K/skinny-N
// shapes, on saturation-boundary inputs, at zero-point extremes, on the
// GEMV fast path, and under forced thread sharding (the panel-chunking
// path the TSan preset audits). The same contract covers the paper's
// first layer: a `first16_acc16` / `first16_acc32` ConvLayer runs on the
// packed engine's fused driver and must be bit-identical to the §III-D
// lane models (first_layer_lowp_acc16/acc32) followed by the layer's
// BN/bias/activation pass, saturating inputs included.
//
// This suite is the contract that lets future kernel work (new ISA
// variants, multi-engine scale-out, new topologies) land without parity
// regressions: a vectorized quantized kernel that drifts by one ulp of
// rounding fails here before it ever reaches a network test.
//
// Rep count scales with TINCY_CONFORMANCE_REPS (default 40); the
// tier2-conformance ctest entry raises it and the sanitizer presets
// (ASan/UBSan/TSan) run the same binary unchanged.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "gemm/gemm_lowp.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/first_layer.hpp"
#include "gemm/kernels.hpp"
#include "nn/conv_layer.hpp"
#include "quant/affine.hpp"

namespace tincy::gemm {
namespace {

int conformance_reps() {
  if (const char* env = std::getenv("TINCY_CONFORMANCE_REPS")) {
    const int reps = std::atoi(env);
    if (reps > 0) return reps;
  }
  return 40;
}

/// Saturation-boundary-biased codes: half uniform, half drawn from the
/// values that sit on u8/i16 wrap and saturation edges once centered
/// (0, 255 and the immediate neighbours of the zero points in use).
std::vector<uint8_t> edge_biased_codes(Rng& rng, int64_t n) {
  static constexpr uint8_t kEdges[] = {0, 1, 127, 128, 129, 254, 255};
  std::vector<uint8_t> v(n);
  for (auto& x : v)
    x = rng.uniform_int(0, 1) == 0
            ? static_cast<uint8_t>(rng.uniform_int(0, 255))
            : kEdges[rng.uniform_int(0, 6)];
  return v;
}

/// Zero-point pairs covering the extremes: full-range corners (0/255),
/// the symmetric midpoint, and the asymmetric pairs the real layers use.
constexpr std::pair<int32_t, int32_t> kZeroPoints[] = {
    {0, 0}, {255, 255}, {0, 255}, {255, 0}, {128, 128}, {7, 131}, {1, 254}};

struct Shape {
  int64_t M, N, K;
};

/// Runs one (shape, zero-point) case through every dispatchable kernel
/// variant on both accumulator paths and asserts bit-identity with the
/// scalar oracles. `opts_base` lets callers force sharding.
void expect_all_variants_conform(const Shape& s, int32_t za, int32_t zb,
                                 const std::vector<uint8_t>& a,
                                 const std::vector<uint8_t>& b,
                                 const GemmOptions& opts_base = [] {
                                   GemmOptions o;
                                   o.allow_threads = false;
                                   return o;
                                 }()) {
  std::vector<int32_t> oracle_i32(s.M * s.N), oracle_s4(s.M * s.N);
  gemm_lowp_i32(s.M, s.N, s.K, a.data(), za, b.data(), zb, oracle_i32.data());
  gemm_lowp_i32_shift4(s.M, s.N, s.K, a.data(), za, b.data(), zb,
                       oracle_s4.data());
  std::vector<int32_t> got(s.M * s.N);
  for (Kernel k : dispatchable_kernels()) {
    GemmOptions opts = opts_base;
    opts.kernel = k;

    opts.acc = Accumulator::kI32;
    std::fill(got.begin(), got.end(), -1);
    gemm_lowp_packed(s.M, s.N, s.K, a.data(), za, b.data(), zb, got.data(),
                     opts);
    ASSERT_EQ(oracle_i32, got)
        << "i32 kernel=" << kernel_name(k) << " M=" << s.M << " N=" << s.N
        << " K=" << s.K << " za=" << za << " zb=" << zb;

    opts.acc = Accumulator::kI16Shift4;
    std::fill(got.begin(), got.end(), -1);
    gemm_lowp_packed(s.M, s.N, s.K, a.data(), za, b.data(), zb, got.data(),
                     opts);
    ASSERT_EQ(oracle_s4, got)
        << "shift4 kernel=" << kernel_name(k) << " M=" << s.M << " N=" << s.N
        << " K=" << s.K << " za=" << za << " zb=" << zb;
  }
}

// --- Randomized differential sweep -------------------------------------

TEST(GemmConformance, RandomizedShapeSweep) {
  Rng rng(2018);
  const int reps = conformance_reps();
  for (int rep = 0; rep < reps; ++rep) {
    Shape s{rng.uniform_int(1, 33), rng.uniform_int(1, 49),
            rng.uniform_int(1, 96)};
    // Every third rep pins a skinny dimension: the tail-handling and
    // padded-lane paths are where vector kernels historically drift.
    if (rep % 3 == 1) s.K = rng.uniform_int(1, 3);
    if (rep % 3 == 2) s.N = rng.uniform_int(1, 3);
    const auto [za, zb] = kZeroPoints[rep % std::size(kZeroPoints)];
    const auto a = edge_biased_codes(rng, s.M * s.K);
    const auto b = edge_biased_codes(rng, s.K * s.N);
    expect_all_variants_conform(s, za, zb, a, b);
    if (HasFatalFailure()) return;
  }
}

TEST(GemmConformance, SkinnyAndAwkwardShapes) {
  // The fixed shapes every kernel change must survive: single tiles,
  // nothing-divides-anything, GEMV (N=1), K=1, and the layer-0-like
  // skinny-K wide-N shape that caught the threaded gate miss.
  const Shape shapes[] = {{1, 1, 1},  {4, 16, 8},   {7, 13, 33},
                          {1, 50, 9}, {5, 1, 64},   {3, 17, 1},
                          {2, 3, 2},  {16, 1000, 27}, {33, 31, 130}};
  Rng rng(2019);
  for (const Shape& s : shapes) {
    const auto a = edge_biased_codes(rng, s.M * s.K);
    const auto b = edge_biased_codes(rng, s.K * s.N);
    expect_all_variants_conform(s, 7, 131, a, b);
    if (HasFatalFailure()) return;
  }
}

TEST(GemmConformance, SaturationBoundaryInputs) {
  // All-corner operands at zero-point extremes: centered products hit
  // ±255·255, the shift4 path wraps its i16 product cast and rides the
  // saturating accumulator rails. Conformance must hold bit for bit even
  // in the wrapped/saturated regime (the oracles wrap identically).
  const Shape s{9, 21, 48};
  for (const auto& [za, zb] : kZeroPoints) {
    Rng rng(3000 + za * 7 + zb);
    std::vector<uint8_t> a(s.M * s.K), b(s.K * s.N);
    for (auto& x : a) x = rng.uniform_int(0, 1) ? 255 : 0;
    for (auto& x : b) x = rng.uniform_int(0, 1) ? 255 : 0;
    expect_all_variants_conform(s, za, zb, a, b);
    if (HasFatalFailure()) return;
  }
}

TEST(GemmConformance, ThreadedPanelChunkingConforms) {
  // Forced sharding over a private pool: the panel-chunked (and GEMV
  // row-block) parallel paths must agree with the oracles for every
  // variant. This is the TSan-preset target of the tier2-conformance
  // label — parallel shards writing disjoint C regions.
  core::ThreadPool pool(4);
  GemmOptions forced;
  forced.pool = &pool;
  forced.min_ops_per_shard = 1;
  forced.min_ops_to_thread = 1;
  Rng rng(2020);
  const Shape shapes[] = {{24, 170, 40}, {16, 1000, 27}, {21, 1, 128}};
  for (const Shape& s : shapes) {
    const auto a = edge_biased_codes(rng, s.M * s.K);
    const auto b = edge_biased_codes(rng, s.K * s.N);
    expect_all_variants_conform(s, 128, 128, a, b, forced);
    if (HasFatalFailure()) return;
  }
}

TEST(GemmConformance, GemvFastPathTailHandling) {
  // N == 1 takes the flat-dot fast path; K·kMr lengths that are not
  // multiples of the 16-lane step exercise every variant's scalar tail.
  Rng rng(2021);
  for (int64_t K : {1, 2, 3, 4, 5, 7, 16, 33, 100}) {
    const Shape s{13, 1, K};
    const auto a = edge_biased_codes(rng, s.M * s.K);
    const auto b = edge_biased_codes(rng, s.K * s.N);
    expect_all_variants_conform(s, 254, 3, a, b);
    if (HasFatalFailure()) return;
  }
}

// --- The first layer on the packed engine ------------------------------

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Per-channel BN/bias fold of ConvLayer::apply_post, restated.
std::vector<ChannelAffine> reference_affine(const nn::ConvLayer& layer) {
  std::vector<ChannelAffine> v(static_cast<size_t>(layer.config().filters));
  for (int64_t c = 0; c < layer.config().filters; ++c) {
    ChannelAffine& a = v[static_cast<size_t>(c)];
    if (layer.config().batch_normalize) {
      const float inv_sigma =
          1.0f / std::sqrt(layer.bn_var()[c] + nn::kBatchNormEps);
      a.scale = layer.bn_scales()[c] * inv_sigma;
      a.shift = -layer.bn_mean()[c] * a.scale;
    }
    a.bias = layer.biases()[c];
  }
  return v;
}

/// The oracle of a first16 forward: the §III-D lane model, then the
/// separate BN/bias/activation pass and A-bit snap of ConvLayer.
Tensor first_layer_oracle(const nn::ConvLayer& layer, const Tensor& in,
                          bool acc16) {
  const auto [lo, hi] = quant::min_max(in);
  const quant::AffineParams in_params = quant::choose_affine_params(lo, hi);
  const SymmetricWeights sym = quantize_symmetric(layer.weights());
  Tensor out(layer.output_shape());
  (acc16 ? first_layer_lowp_acc16 : first_layer_lowp_acc32)(
      in.data(), layer.geometry(), in_params, sym, nullptr, out.data());
  const auto affine = reference_affine(layer);
  const int64_t n = layer.geometry().num_patches();
  for (int64_t c = 0; c < layer.config().filters; ++c) {
    const ChannelAffine& a = affine[static_cast<size_t>(c)];
    for (int64_t j = 0; j < n; ++j) {
      float& v = out[c * n + j];
      v = nn::apply(layer.config().activation, v * a.scale + a.shift + a.bias);
    }
  }
  if (layer.config().act_bits < 8) {
    const quant::UniformActQuant q{layer.config().act_bits,
                                   layer.config().out_scale};
    for (int64_t i = 0; i < out.numel(); ++i)
      out[i] = q.dequantize(q.quantize(out[i]));
  }
  return out;
}

struct FirstLayerCase {
  int64_t h, w, stride;
  nn::Activation act;
  bool bn;
  int act_bits = 32;
};

/// A first-layer ConvLayer (16 filters over 3 channels, 3×3) with random
/// weights, biases and BN statistics.
std::unique_ptr<nn::ConvLayer> make_first_layer(const FirstLayerCase& c,
                                                nn::ConvKernel kernel,
                                                Rng& rng) {
  nn::ConvConfig cfg;
  cfg.filters = kFirstLayerChannels;
  cfg.size = 3;
  cfg.stride = c.stride;
  cfg.activation = c.act;
  cfg.batch_normalize = c.bn;
  cfg.act_bits = c.act_bits;
  cfg.kernel = kernel;
  auto layer = std::make_unique<nn::ConvLayer>(cfg, tincy::Shape{3, c.h, c.w});
  Tensor& w = layer->weights();
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal(0.0f, 0.3f);
  for (int64_t i = 0; i < cfg.filters; ++i) {
    layer->biases()[i] = rng.normal(0.0f, 0.2f);
    if (c.bn) {
      layer->bn_scales()[i] = rng.uniform(-1.2f, 1.2f);
      layer->bn_mean()[i] = rng.normal(0.0f, 0.3f);
      layer->bn_var()[i] = rng.uniform(0.5f, 1.5f);
    }
  }
  layer->invalidate_cached_quantization();
  return layer;
}

Tensor random_image(Rng& rng, int64_t h, int64_t w) {
  Tensor in(tincy::Shape{3, h, w});
  // A range straddling zero puts the input zero point mid-scale.
  for (int64_t i = 0; i < in.numel(); ++i) in[i] = rng.uniform(-0.4f, 1.0f);
  return in;
}

/// Restores TINCY_GEMM_KERNEL on scope exit.
struct KernelOverride {
  explicit KernelOverride(Kernel k) {
    setenv("TINCY_GEMM_KERNEL", kernel_name(k), 1);
  }
  ~KernelOverride() { unsetenv("TINCY_GEMM_KERNEL"); }
};

TEST(FirstLayerConformance, ConvLayerMatchesLaneModelOnEveryTier) {
  // Odd extents, N = out_h·out_w not a multiple of kNr, stride 1 and 2,
  // every store activation, with and without BN, and one A-bit snap. The
  // 104×200 case clears the shared pool's threading floor (18 Mop ≥ 2^24),
  // so the frame's sharded route is covered too.
  const FirstLayerCase cases[] = {
      {17, 23, 1, nn::Activation::kLeaky, true},
      {17, 23, 2, nn::Activation::kRelu, false},
      {31, 9, 1, nn::Activation::kLinear, true},
      {31, 9, 2, nn::Activation::kLeaky, false},
      {13, 13, 2, nn::Activation::kRelu, true, 3},
      {5, 4, 1, nn::Activation::kLogistic, true},
      {104, 200, 1, nn::Activation::kLeaky, true},
  };
  Rng rng(1806);
  for (Kernel k : dispatchable_kernels()) {
    KernelOverride env(k);
    for (const FirstLayerCase& c : cases) {
      const Tensor in = random_image(rng, c.h, c.w);
      for (const bool acc16 : {true, false}) {
        auto layer = make_first_layer(
            c,
            acc16 ? nn::ConvKernel::kFirstLayerAcc16
                  : nn::ConvKernel::kFirstLayerAcc32,
            rng);
        const Tensor want = first_layer_oracle(*layer, in, acc16);
        Tensor got(layer->output_shape(), -1.0f);
        layer->forward(in, got);
        ASSERT_TRUE(bitwise_equal(want, got))
            << "kernel=" << kernel_name(k) << (acc16 ? " acc16" : " acc32")
            << " " << c.h << "x" << c.w << " stride " << c.stride
            << " act=" << nn::activation_name(c.act) << " bn=" << c.bn;
        // A warm second frame reuses the cached packed weights and fold.
        std::fill(got.data(), got.data() + got.numel(), -1.0f);
        layer->forward(in, got);
        ASSERT_TRUE(bitwise_equal(want, got)) << "warm frame";
      }
    }
  }
}

TEST(FirstLayerConformance, ForcedSaturationMatchesAndSaturates) {
  // The top code everywhere and ±127 weights of one sign per channel: an
  // interior pixel sums 27 products of 255·127, far past the i16 rail
  // after the shift, so acc16 saturates (positive channels at +32767,
  // negative ones at −32768) while acc32 stays exact.
  FirstLayerCase c{19, 21, 1, nn::Activation::kLinear, false};
  Tensor in(tincy::Shape{3, c.h, c.w}, 1.0f);
  Rng rng(7);
  for (Kernel k : dispatchable_kernels()) {
    KernelOverride env(k);
    Tensor out[2];
    for (const bool acc16 : {true, false}) {
      auto layer = make_first_layer(
          c,
          acc16 ? nn::ConvKernel::kFirstLayerAcc16
                : nn::ConvKernel::kFirstLayerAcc32,
          rng);
      Tensor& w = layer->weights();
      const int64_t patch = layer->geometry().patch_size();
      for (int64_t i = 0; i < w.numel(); ++i)
        w[i] = (i / patch) % 2 == 0 ? 0.5f : -0.5f;
      for (int64_t m = 0; m < kFirstLayerChannels; ++m)
        layer->biases()[m] = 0.0f;
      layer->invalidate_cached_quantization();
      const Tensor want = first_layer_oracle(*layer, in, acc16);
      Tensor& got = out[acc16 ? 0 : 1];
      got = Tensor(layer->output_shape(), -1.0f);
      layer->forward(in, got);
      ASSERT_TRUE(bitwise_equal(want, got))
          << "kernel=" << kernel_name(k) << (acc16 ? " acc16" : " acc32");
    }
    // Saturation really happened: acc16 differs from acc32 exactly where
    // the sum crossed the rail, and there it sits on the rail.
    const int64_t n = out[0].numel() / kFirstLayerChannels;
    const int64_t interior = (c.h / 2) * c.w + c.w / 2;
    EXPECT_FALSE(bitwise_equal(out[0], out[1]));
    EXPECT_LT(out[0][interior], out[1][interior]);       // channel 0: +rail
    EXPECT_GT(out[0][n + interior], out[1][n + interior]);  // channel 1: −rail
    EXPECT_EQ(out[0][interior], out[0][2 * n + interior]);
  }
}

TEST(FirstLayerConformance, ForcedShardingMatchesOneThread) {
  // The fused driver sharded over a private pool (panels and the image
  // quantization both fan out) against one thread and against the lane
  // model, for both accumulators and every tier, with the epilogue. This
  // is the TSan target of the first-layer route.
  core::ThreadPool pool(4);
  GemmOptions forced;
  forced.pool = &pool;
  forced.min_ops_per_shard = 1;
  forced.min_ops_to_thread = 1;
  GemmOptions single;
  single.allow_threads = false;
  Rng rng(2024);
  const FirstLayerCase cases[] = {
      {33, 29, 1, nn::Activation::kLeaky, true},
      {31, 9, 2, nn::Activation::kRelu, true},
  };
  for (const FirstLayerCase& c : cases) {
    const Tensor in = random_image(rng, c.h, c.w);
    const auto [lo, hi] = quant::min_max(in);
    const quant::AffineParams in_params = quant::choose_affine_params(lo, hi);
    for (const bool acc16 : {true, false}) {
      auto layer = make_first_layer(c, nn::ConvKernel::kFirstLayerAcc16, rng);
      const Tensor want = first_layer_oracle(*layer, in, acc16);
      const SymmetricWeights sym = quantize_symmetric(layer->weights());
      const PackedLhs packed = pack_symmetric(sym, kFirstLayerChannels);
      const auto affine = reference_affine(*layer);
      const ConvEpilogue epilogue{affine.data(),
                                  c.act == nn::Activation::kLeaky
                                      ? StoreActivation::kLeaky
                                      : StoreActivation::kRelu};
      const quant::AffineParams w_params{sym.scale, kSymmetricZeroPoint};
      for (Kernel k : dispatchable_kernels()) {
        for (GemmOptions opts : {forced, single}) {
          opts.kernel = k;
          opts.acc = acc16 ? Accumulator::kI16Shift4 : Accumulator::kI32;
          Tensor got(layer->output_shape(), -1.0f);
          fused_conv_lowp_f32out(in.data(), layer->geometry(), in_params,
                                 packed, w_params, nullptr, got.data(), opts,
                                 &epilogue);
          ASSERT_TRUE(bitwise_equal(want, got))
              << "kernel=" << kernel_name(k) << (acc16 ? " acc16" : " acc32")
              << (opts.pool ? " sharded" : " one thread");
        }
      }
    }
  }
}

// --- Dispatch contract --------------------------------------------------

TEST(KernelDispatch, ParseAndNames) {
  EXPECT_EQ(parse_kernel_name("scalar"), Kernel::kScalar);
  EXPECT_EQ(parse_kernel_name("lanes"), Kernel::kLanes);
  EXPECT_EQ(parse_kernel_name("avx2"), Kernel::kAvx2);
  EXPECT_EQ(parse_kernel_name("auto"), Kernel::kAuto);
  EXPECT_EQ(parse_kernel_name("bogus"), Kernel::kAuto);
  EXPECT_EQ(parse_kernel_name(nullptr), Kernel::kAuto);
  for (Kernel k : dispatchable_kernels())
    EXPECT_EQ(parse_kernel_name(kernel_name(k)), k);
}

TEST(KernelDispatch, AutoSelectsWidestSupported) {
  unsetenv("TINCY_GEMM_KERNEL");
  const Kernel widest = widest_supported_kernel();
  EXPECT_TRUE(kernel_supported(widest));
  EXPECT_EQ(resolve_kernel(Kernel::kAuto), widest);
  // The widest variant is a SIMD one — kAuto must never pick the scalar
  // baseline on its own.
  EXPECT_NE(widest, Kernel::kScalar);
  // Explicit requests resolve to themselves when supported.
  EXPECT_EQ(resolve_kernel(Kernel::kScalar), Kernel::kScalar);
  EXPECT_EQ(resolve_kernel(Kernel::kLanes), Kernel::kLanes);
  // An unsupported explicit request falls back to the widest variant.
  if (!kernel_supported(Kernel::kAvx2)) {
    EXPECT_EQ(resolve_kernel(Kernel::kAvx2), widest);
  }
}

TEST(KernelDispatch, EnvOverrideSteersAutoAndEndToEnd) {
  const Shape s{6, 40, 24};
  Rng rng(2022);
  const auto a = edge_biased_codes(rng, s.M * s.K);
  const auto b = edge_biased_codes(rng, s.K * s.N);
  std::vector<int32_t> oracle(s.M * s.N), got(s.M * s.N);
  gemm_lowp_i32(s.M, s.N, s.K, a.data(), 7, b.data(), 131, oracle.data());
  for (Kernel k : dispatchable_kernels()) {
    setenv("TINCY_GEMM_KERNEL", kernel_name(k), 1);
    EXPECT_EQ(resolve_kernel(Kernel::kAuto), k);
    GemmOptions opts;  // kernel = kAuto: must route through the override
    opts.allow_threads = false;
    std::fill(got.begin(), got.end(), -1);
    gemm_lowp_packed(s.M, s.N, s.K, a.data(), 7, b.data(), 131, got.data(),
                     opts);
    EXPECT_EQ(oracle, got) << "env override " << kernel_name(k);
  }
  // An unsupported or garbage override falls back to auto selection.
  setenv("TINCY_GEMM_KERNEL", "bogus", 1);
  EXPECT_EQ(resolve_kernel(Kernel::kAuto), widest_supported_kernel());
  unsetenv("TINCY_GEMM_KERNEL");
}

TEST(KernelDispatch, DispatchableListIsCoherent) {
  const auto variants = dispatchable_kernels();
  ASSERT_GE(variants.size(), 2u);  // scalar + lanes at minimum
  EXPECT_EQ(variants.front(), Kernel::kScalar);
  for (Kernel k : variants) EXPECT_TRUE(kernel_supported(k));
  // kAuto is a request, not a concrete variant.
  EXPECT_FALSE(kernel_supported(Kernel::kAuto));
}

}  // namespace
}  // namespace tincy::gemm
