#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/rng.hpp"
#include "quant/affine.hpp"
#include "quant/binary.hpp"
#include "quant/thresholds.hpp"

namespace tincy::quant {
namespace {

TEST(Affine, ZeroIsExactlyRepresentable) {
  for (const auto& [lo, hi] : {std::pair{-3.0f, 5.0f}, {0.5f, 2.0f},
                              {-4.0f, -1.0f}, {-1e-3f, 1e3f}}) {
    const AffineParams p = choose_affine_params(lo, hi);
    EXPECT_FLOAT_EQ(p.dequantize(static_cast<uint8_t>(p.zero_point)), 0.0f)
        << lo << ".." << hi;
  }
}

TEST(Affine, RoundTripWithinHalfStep) {
  Rng rng(1);
  const AffineParams p = choose_affine_params(-2.0f, 6.0f);
  for (int i = 0; i < 1000; ++i) {
    const float x = rng.uniform(-2.0f, 6.0f);
    const float back = p.dequantize(p.quantize(x));
    EXPECT_NEAR(back, x, p.scale / 2 + 1e-6f);
  }
}

TEST(Affine, QuantizeClampsOutOfRange) {
  const AffineParams p = choose_affine_params(0.0f, 1.0f);
  EXPECT_EQ(p.quantize(-100.0f), 0);
  EXPECT_EQ(p.quantize(100.0f), 255);
}

TEST(Affine, DegenerateRange) {
  const AffineParams p = choose_affine_params(0.0f, 0.0f);
  EXPECT_EQ(p.quantize(0.0f), 0);
  EXPECT_FLOAT_EQ(p.dequantize(0), 0.0f);
}

TEST(Affine, TensorQuantizeDequantize) {
  Rng rng(2);
  Tensor t(Shape{4, 5});
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(-1.0f, 3.0f);
  const auto [lo, hi] = min_max(t);
  EXPECT_LE(lo, hi);
  const AffineParams p = choose_affine_params(lo, hi);
  const Tensor back = dequantize(quantize(t, p), p);
  for (int64_t i = 0; i < t.numel(); ++i)
    EXPECT_NEAR(back[i], t[i], p.scale / 2 + 1e-6f);
}

TEST(Requantizer, MatchesRealArithmetic) {
  Rng rng(3);
  for (int rep = 0; rep < 200; ++rep) {
    const float ls = rng.uniform(0.001f, 0.05f);
    const float rs = rng.uniform(0.001f, 0.05f);
    const AffineParams out = choose_affine_params(-rng.uniform(0.5f, 4.0f),
                                                  rng.uniform(0.5f, 4.0f));
    const Requantizer rq = make_requantizer(ls, rs, out);
    for (int k = 0; k < 50; ++k) {
      const auto acc = static_cast<int32_t>(rng.uniform_int(-100000, 100000));
      const double real = static_cast<double>(ls) * rs * acc;
      const double expected_code =
          std::clamp(std::round(real / out.scale) + out.zero_point, 0.0, 255.0);
      EXPECT_NEAR(static_cast<double>(rq.apply(acc)), expected_code, 1.0)
          << "acc=" << acc << " ls=" << ls << " rs=" << rs;
    }
  }
}

TEST(Binary, SignEncoding) {
  Tensor w(Shape{2, 3});
  w.at2(0, 0) = 0.5f;
  w.at2(0, 1) = -0.5f;
  w.at2(0, 2) = 0.0f;  // zero maps to +1
  w.at2(1, 0) = -2.0f;
  w.at2(1, 1) = 3.0f;
  w.at2(1, 2) = -0.1f;
  const BinaryMatrix m = binarize(w);
  EXPECT_FLOAT_EQ(m.value(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.value(0, 1), -1.0f);
  EXPECT_FLOAT_EQ(m.value(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(m.value(1, 0), -1.0f);
}

TEST(Binary, XnorNetScale) {
  Tensor w(Shape{1, 4});
  w.at2(0, 0) = 1.0f;
  w.at2(0, 1) = -3.0f;
  w.at2(0, 2) = 2.0f;
  w.at2(0, 3) = -2.0f;
  const BinaryMatrix m = binarize(w, /*with_scale=*/true);
  EXPECT_FLOAT_EQ(m.row_scale[0], 2.0f);  // mean |w|
  EXPECT_FLOAT_EQ(m.value(0, 1), -2.0f);
}

TEST(Binary, DequantizeRoundTripSigns) {
  Rng rng(4);
  Tensor w(Shape{5, 37});
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
  const Tensor back = dequantize(binarize(w));
  for (int64_t r = 0; r < 5; ++r)
    for (int64_t c = 0; c < 37; ++c)
      EXPECT_EQ(back.at2(r, c), w.at2(r, c) >= 0.0f ? 1.0f : -1.0f);
}

TEST(UniformActQuant, ThreeBitGrid) {
  const UniformActQuant q{3, 0.5f};
  EXPECT_EQ(q.levels(), 7);
  EXPECT_EQ(q.quantize(-1.0f), 0);    // ReLU-like clamp at zero
  EXPECT_EQ(q.quantize(0.24f), 0);
  EXPECT_EQ(q.quantize(0.26f), 1);
  EXPECT_EQ(q.quantize(100.0f), 7);
  EXPECT_FLOAT_EQ(q.dequantize(3), 1.5f);
}

TEST(UniformActQuant, InlineQuantizeMatchesRoundAndClamp) {
  // The call-free quantize equals clamp(std::round(x / scale), 0, levels)
  // on ties (k + 0.5)·scale, their float neighbours, negatives, values
  // above the top level and ±0, for several scales and precisions.
  for (const int bits : {1, 3, 8})
    for (const float scale : {1.0f, 0.5f, 0.1f, 0.0375f, 3.0f}) {
      const UniformActQuant q{bits, scale};
      const auto reference = [&](float x) {
        return static_cast<uint8_t>(std::clamp(
            std::round(x / scale), 0.0f, static_cast<float>(q.levels())));
      };
      std::vector<float> xs = {0.0f, -0.0f, -1e-30f, 1e-30f, -scale,
                               -1e9f, 1e9f, INFINITY, -INFINITY};
      for (int k = -2; k <= q.levels() + 2; ++k) {
        const float tie = (static_cast<float>(k) + 0.5f) * scale;
        const float at = static_cast<float>(k) * scale;
        for (const float x : {tie, at})
          xs.insert(xs.end(), {x, std::nextafter(x, -INFINITY),
                               std::nextafter(x, INFINITY)});
      }
      for (const float x : xs)
        EXPECT_EQ(q.quantize(x), reference(x))
            << "x=" << x << " scale=" << scale << " bits=" << bits;
      // The bulk form (16-wide blocks and a scalar tail) agrees, at every
      // length across a block edge.
      for (size_t n = 0; n <= xs.size(); n += n < 40 ? 1 : 7) {
        std::vector<uint8_t> bulk(n + 1, 0xEE);
        q.quantize(xs.data(), static_cast<int64_t>(n), bulk.data());
        for (size_t i = 0; i < n; ++i)
          ASSERT_EQ(bulk[i], reference(xs[i])) << "n=" << n << " i=" << i;
        ASSERT_EQ(bulk[n], 0xEE) << "wrote past n=" << n;
      }
    }
}

TEST(UniformActQuant, InlineQuantizeMatchesOnRandomValues) {
  Rng rng(17);
  const UniformActQuant q{3, 0.173f};
  for (int i = 0; i < 200000; ++i) {
    const float x = rng.uniform(-0.5f, 1.6f);
    const float want = std::clamp(std::round(x / q.scale), 0.0f, 7.0f);
    ASSERT_EQ(q.quantize(x), static_cast<uint8_t>(want)) << "x=" << x;
  }
}

TEST(Thresholds, ApplyCountsCrossings) {
  ThresholdSet ts{{-5, 0, 10}};
  EXPECT_EQ(ts.apply(-6), 0);
  EXPECT_EQ(ts.apply(-5), 1);
  EXPECT_EQ(ts.apply(0), 2);
  EXPECT_EQ(ts.apply(9), 2);
  EXPECT_EQ(ts.apply(10), 3);
}

TEST(Thresholds, FoldMatchesFloatQuantization) {
  // The folded integer thresholds must agree with quantizing the real
  // value (acc_scale·acc + bias) on the out_scale grid, for all acc.
  Rng rng(6);
  for (int rep = 0; rep < 100; ++rep) {
    const int bits = static_cast<int>(rng.uniform_int(1, 4));
    const float acc_scale = rng.uniform(0.01f, 0.5f);
    const float bias = rng.uniform(-2.0f, 2.0f);
    const float out_scale = rng.uniform(0.1f, 1.0f);
    const ThresholdSet ts =
        fold_to_thresholds(bits, acc_scale, bias, out_scale);
    const UniformActQuant q{bits, out_scale};
    for (int32_t acc = -200; acc <= 200; ++acc) {
      const float real = acc_scale * static_cast<float>(acc) + bias;
      // Skip exact rounding boundaries where float vs double differ.
      const float frac = real / out_scale;
      if (std::fabs(frac - std::floor(frac) - 0.5f) < 1e-4f) continue;
      EXPECT_EQ(ts.apply(acc), q.quantize(real))
          << "acc=" << acc << " bits=" << bits;
    }
  }
}

TEST(Bitplanes, RoundTrip) {
  Rng rng(7);
  for (const int bits : {1, 2, 3, 4, 8}) {
    std::vector<uint8_t> codes(257);
    for (auto& c : codes)
      c = static_cast<uint8_t>(rng.uniform_int(0, (1 << bits) - 1));
    const auto planes =
        to_bitplanes(codes.data(), static_cast<int64_t>(codes.size()), bits);
    ASSERT_EQ(planes.size(), static_cast<size_t>(bits));
    EXPECT_EQ(from_bitplanes(planes), codes);
  }
}

TEST(Bitplanes, WeightedSumIdentity) {
  // Σ_b 2^b · plane_b(i) == code(i): the identity the MVTU relies on.
  Rng rng(8);
  std::vector<uint8_t> codes(100);
  for (auto& c : codes) c = static_cast<uint8_t>(rng.uniform_int(0, 7));
  const auto planes = to_bitplanes(codes.data(), 100, 3);
  for (int64_t i = 0; i < 100; ++i) {
    int sum = 0;
    for (int b = 0; b < 3; ++b) sum += planes[static_cast<size_t>(b)].get(i) << b;
    EXPECT_EQ(sum, codes[static_cast<size_t>(i)]);
  }
}

}  // namespace
}  // namespace tincy::quant
