#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/rng.hpp"
#include "gemm/first_layer.hpp"
#include "gemm/gemm_lowp.hpp"
#include "gemm/gemm_ref.hpp"
#include "gemm/gemm_simd.hpp"
#include "quant/affine.hpp"

namespace tincy::gemm {
namespace {

Tensor random_tensor(Rng& rng, Shape shape, float lo = -1.0f, float hi = 1.0f) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(lo, hi);
  return t;
}

using Dims = std::tuple<int64_t, int64_t, int64_t>;

class GemmProperty : public ::testing::TestWithParam<Dims> {};

TEST_P(GemmProperty, LanesMatchesReference) {
  const auto [M, N, K] = GetParam();
  Rng rng(31);
  const Tensor a = random_tensor(rng, Shape{M, K});
  const Tensor b = random_tensor(rng, Shape{K, N});
  const Tensor expected = gemm_ref(a, b);
  Tensor got(Shape{M, N});
  gemm_f32_lanes(M, N, K, a.data(), b.data(), got.data());
  for (int64_t i = 0; i < expected.numel(); ++i)
    EXPECT_NEAR(got[i], expected[i], 1e-4f) << i;
}

TEST_P(GemmProperty, BlockedMatchesReference) {
  const auto [M, N, K] = GetParam();
  Rng rng(33);
  const Tensor a = random_tensor(rng, Shape{M, K});
  const Tensor b = random_tensor(rng, Shape{K, N});
  const Tensor expected = gemm_ref(a, b);
  Tensor got(Shape{M, N});
  gemm_f32_blocked(M, N, K, a.data(), b.data(), got.data());
  for (int64_t i = 0; i < expected.numel(); ++i)
    EXPECT_NEAR(got[i], expected[i], 1e-4f) << i;
}

TEST(GemmBlocked, CrossesTileBoundaries) {
  // Dimensions straddling the 64/256 tile sizes exercise partial tiles.
  Rng rng(34);
  const int64_t M = 3, N = 300, K = 130;
  const Tensor a = random_tensor(rng, Shape{M, K});
  const Tensor b = random_tensor(rng, Shape{K, N});
  const Tensor expected = gemm_ref(a, b);
  Tensor got(Shape{M, N});
  gemm_f32_blocked(M, N, K, a.data(), b.data(), got.data());
  for (int64_t i = 0; i < expected.numel(); ++i)
    EXPECT_NEAR(got[i], expected[i], 1e-3f) << i;
}

INSTANTIATE_TEST_SUITE_P(Dims, GemmProperty,
                         ::testing::Values(Dims{1, 1, 1}, Dims{2, 8, 3},
                                           Dims{4, 7, 5}, Dims{16, 27, 27},
                                           Dims{3, 33, 10}, Dims{8, 64, 16},
                                           Dims{5, 12, 100}));

TEST(GemmRef, BetaSemantics) {
  Rng rng(41);
  const Tensor a = random_tensor(rng, Shape{3, 4});
  const Tensor b = random_tensor(rng, Shape{4, 5});
  Tensor c0(Shape{3, 5}, 10.0f), c1(Shape{3, 5}, 10.0f);
  gemm_ref(3, 5, 4, a.data(), b.data(), c0.data(), /*beta=*/0.0f);
  gemm_ref(3, 5, 4, a.data(), b.data(), c1.data(), /*beta=*/1.0f);
  for (int64_t i = 0; i < c0.numel(); ++i)
    EXPECT_NEAR(c1[i], c0[i] + 10.0f, 1e-5f);
}

TEST(GemmRef, ShapeMismatchThrows) {
  Tensor a(Shape{2, 3}), b(Shape{4, 5});
  EXPECT_THROW(gemm_ref(a, b), Error);
}

TEST(GemmLowp, ApproximatesFloatWithinQuantError) {
  Rng rng(43);
  const int64_t M = 6, N = 20, K = 30;
  const Tensor af = random_tensor(rng, Shape{M, K}, -2.0f, 2.0f);
  const Tensor bf = random_tensor(rng, Shape{K, N}, -1.0f, 3.0f);
  const auto pa = quant::choose_affine_params(-2.0f, 2.0f);
  const auto pb = quant::choose_affine_params(-1.0f, 3.0f);
  const TensorU8 aq = quant::quantize(af, pa);
  const TensorU8 bq = quant::quantize(bf, pb);
  std::vector<int32_t> acc(static_cast<size_t>(M * N));
  gemm_lowp_i32(M, N, K, aq.data(), pa.zero_point, bq.data(), pb.zero_point,
                acc.data());
  const Tensor expected = gemm_ref(af, bf);
  // Error bound: K terms, each within half a step on both operands.
  const float bound = static_cast<float>(K) *
                      (pa.scale * pb.scale / 4 + pa.scale * 3.0f / 2 +
                       pb.scale * 2.0f / 2);
  for (int64_t i = 0; i < M * N; ++i)
    EXPECT_NEAR(pa.scale * pb.scale * static_cast<float>(acc[static_cast<size_t>(i)]),
                expected[i], bound);
}

TEST(GemmLowp, U8OutputPipeline) {
  Rng rng(47);
  const int64_t M = 4, N = 9, K = 12;
  std::vector<uint8_t> a(static_cast<size_t>(M * K)), b(static_cast<size_t>(K * N));
  for (auto& v : a) v = static_cast<uint8_t>(rng.uniform_int(0, 255));
  for (auto& v : b) v = static_cast<uint8_t>(rng.uniform_int(0, 255));
  const auto out_params = quant::choose_affine_params(-8.0f, 8.0f);
  const auto rq = quant::make_requantizer(0.02f, 0.03f, out_params);
  std::vector<uint8_t> c(static_cast<size_t>(M * N));
  gemm_lowp_u8(M, N, K, a.data(), 128, b.data(), 128, rq, c.data());
  std::vector<int32_t> acc(static_cast<size_t>(M * N));
  gemm_lowp_i32(M, N, K, a.data(), 128, b.data(), 128, acc.data());
  for (int64_t i = 0; i < M * N; ++i)
    EXPECT_EQ(c[static_cast<size_t>(i)], rq.apply(acc[static_cast<size_t>(i)]));
}

class ConvKernelProperty
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {
  // (channels, image size, stride)
};

TEST_P(ConvKernelProperty, FusedMatchesUnfused) {
  const auto [C, S, stride] = GetParam();
  const ConvGeometry g{C, S, S, 3, stride, 1};
  Rng rng(53);
  const Tensor img = random_tensor(rng, Shape{C, S, S});
  const int64_t out_channels = 10;
  const Tensor w = random_tensor(rng, Shape{out_channels, g.patch_size()});
  const Tensor bias = random_tensor(rng, Shape{out_channels});

  Tensor expected(Shape{out_channels, g.num_patches()});
  conv_via_im2col_f32(img.data(), g, w.data(), out_channels, bias.data(),
                      expected.data());
  Tensor got(expected.shape());
  fused_conv_f32(img.data(), g, w.data(), out_channels, bias.data(),
                 got.data());
  for (int64_t i = 0; i < expected.numel(); ++i)
    EXPECT_NEAR(got[i], expected[i], 1e-4f);
}

TEST_P(ConvKernelProperty, FusedLowpMatchesUnfusedLowp) {
  const auto [C, S, stride] = GetParam();
  const ConvGeometry g{C, S, S, 3, stride, 1};
  Rng rng(59);
  const Tensor img = random_tensor(rng, Shape{C, S, S}, 0.0f, 1.0f);
  const int64_t out_channels = 6;
  const Tensor wf = random_tensor(rng, Shape{out_channels, g.patch_size()});
  const auto wp = quant::choose_affine_params(-1.0f, 1.0f);
  const TensorU8 wq = quant::quantize(wf, wp);
  const auto ip = quant::choose_affine_params(0.0f, 1.0f);

  Tensor a(Shape{out_channels, g.num_patches()});
  Tensor b(a.shape());
  conv_lowp_f32out(img.data(), g, ip, wq.data(), wp, out_channels, nullptr,
                   a.data());
  fused_conv_lowp_f32out(img.data(), g, ip, wq.data(), wp, out_channels,
                         nullptr, b.data());
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvKernelProperty,
                         ::testing::Values(std::tuple{3, 8, 1},
                                           std::tuple{3, 9, 2},
                                           std::tuple{1, 12, 1},
                                           std::tuple{5, 7, 1},
                                           std::tuple{2, 16, 2}));

// ---- Specialized 16×27 first-layer kernels ----

class FirstLayerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(61);
    img_ = random_tensor(*rng_, Shape{3, 17, 17}, 0.0f, 1.0f);
    weights_ = random_tensor(*rng_, Shape{16, 27}, -0.5f, 0.5f);
    bias_ = random_tensor(*rng_, Shape{16}, -0.1f, 0.1f);
  }

  ConvGeometry geometry(int64_t stride) const { return {3, 17, 17, 3, stride, 1}; }

  std::unique_ptr<Rng> rng_;
  Tensor img_, weights_, bias_;
};

TEST_F(FirstLayerTest, GeometryGuard) {
  EXPECT_TRUE(first_layer_geometry_ok(geometry(1)));
  const ConvGeometry wrong{4, 17, 17, 3, 1, 1};
  EXPECT_FALSE(first_layer_geometry_ok(wrong));
}

TEST_F(FirstLayerTest, F32MatchesGenericConv) {
  for (const int64_t stride : {1, 2}) {
    const ConvGeometry g = geometry(stride);
    Tensor expected(Shape{16, g.num_patches()});
    conv_via_im2col_f32(img_.data(), g, weights_.data(), 16, bias_.data(),
                        expected.data());
    Tensor got(expected.shape());
    first_layer_f32(img_.data(), g, weights_.data(), bias_.data(), got.data());
    for (int64_t i = 0; i < expected.numel(); ++i)
      EXPECT_NEAR(got[i], expected[i], 1e-4f) << "stride=" << stride;
  }
}

TEST_F(FirstLayerTest, Acc32CloseToFloat) {
  const ConvGeometry g = geometry(2);
  Tensor expected(Shape{16, g.num_patches()});
  conv_via_im2col_f32(img_.data(), g, weights_.data(), 16, bias_.data(),
                      expected.data());

  const auto ip = quant::choose_affine_params(0.0f, 1.0f);
  const SymmetricWeights sw = quantize_symmetric(weights_);
  Tensor got(expected.shape());
  first_layer_lowp_acc32(img_.data(), g, ip, sw, bias_.data(), got.data());
  // Quantization error bound: 27 taps, each operand within half a step.
  const float bound = 27.0f * (ip.scale * 0.5f + sw.scale * 0.5f) + 0.01f;
  for (int64_t i = 0; i < expected.numel(); ++i)
    EXPECT_NEAR(got[i], expected[i], bound);
}

TEST_F(FirstLayerTest, Acc16CloseToAcc32) {
  // The rshift-4 path loses up to 16 accumulator units per tap (27 taps)
  // plus saturation in pathological cases; on realistic data it tracks
  // the 32-bit path within the documented small loss.
  const ConvGeometry g = geometry(2);
  const auto ip = quant::choose_affine_params(0.0f, 1.0f);
  const SymmetricWeights sw = quantize_symmetric(weights_);
  Tensor a32(Shape{16, g.num_patches()}), a16(a32.shape());
  first_layer_lowp_acc32(img_.data(), g, ip, sw, bias_.data(), a32.data());
  first_layer_lowp_acc16(img_.data(), g, ip, sw, bias_.data(), a16.data());
  // Rounding bound: 27 taps × 8 units (half of 2^4) × scale, plus slack.
  const float bound = 27.0f * 8.0f * ip.scale * sw.scale * 16.0f + 0.05f;
  for (int64_t i = 0; i < a32.numel(); ++i)
    EXPECT_NEAR(a16[i], a32[i], bound) << i;
}

TEST(Acc16Step, RoundsThenSaturates) {
  EXPECT_EQ(acc16_step(0, 15), 1);        // 15 >> 4 rounds to 1
  EXPECT_EQ(acc16_step(0, 7), 0);
  EXPECT_EQ(acc16_step(0, -25), -2);
  EXPECT_EQ(acc16_step(32760, 32767), 32767);  // saturating accumulation
  EXPECT_EQ(acc16_step(-32760, -32767), -32768);
}

TEST(QuantizeSymmetric, MaxAbsMapsTo127) {
  Tensor w(Shape{2, 3});
  w.at2(0, 0) = 0.5f;
  w.at2(0, 1) = -1.0f;  // max |w|
  w.at2(0, 2) = 0.25f;
  w.at2(1, 0) = 0.0f;
  w.at2(1, 1) = 0.99f;
  w.at2(1, 2) = -0.25f;
  const SymmetricWeights sw = quantize_symmetric(w);
  EXPECT_FLOAT_EQ(sw.scale, 1.0f / 127.0f);
  EXPECT_EQ(sw.codes[1], -127);
  EXPECT_EQ(sw.codes[3], 0);
}

}  // namespace
}  // namespace tincy::gemm
