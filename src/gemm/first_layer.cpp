#include "gemm/first_layer.hpp"

#include <cmath>

#include "core/fixed_point.hpp"
#include "simd/vec.hpp"

namespace tincy::gemm {

using namespace simd;

bool first_layer_geometry_ok(const ConvGeometry& g) {
  return g.patch_size() == kFirstLayerPatch;
}

SymmetricWeights quantize_symmetric(const Tensor& weights) {
  SymmetricWeights sw;
  float max_abs = 0.0f;
  for (int64_t i = 0; i < weights.numel(); ++i)
    max_abs = std::max(max_abs, std::fabs(weights[i]));
  sw.scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  sw.codes.resize(static_cast<size_t>(weights.numel()));
  for (int64_t i = 0; i < weights.numel(); ++i)
    sw.codes[static_cast<size_t>(i)] = saturate_cast<int8_t>(
        static_cast<int32_t>(std::lround(weights[i] / sw.scale)));
  return sw;
}

PackedLhs pack_symmetric(const SymmetricWeights& weights, int64_t rows) {
  std::vector<uint8_t> codes(weights.codes.size());
  for (size_t i = 0; i < codes.size(); ++i)
    codes[i] = static_cast<uint8_t>(weights.codes[i] + kSymmetricZeroPoint);
  return pack_lhs(codes.data(), rows,
                  static_cast<int64_t>(codes.size()) / rows,
                  kSymmetricZeroPoint);
}

namespace {

/// Gathers the 27 input taps feeding output position (oh, ow) into `taps`;
/// out-of-image taps read as `pad`.
template <typename T>
void gather_patch(const T* image, const ConvGeometry& g, int64_t oh,
                  int64_t ow, T pad, T* taps) {
  int64_t k = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    const T* plane = image + c * g.in_height * g.in_width;
    for (int64_t kh = 0; kh < g.kernel; ++kh) {
      const int64_t ih = oh * g.stride - g.pad + kh;
      for (int64_t kw = 0; kw < g.kernel; ++kw, ++k) {
        const int64_t iw = ow * g.stride - g.pad + kw;
        taps[k] = (ih < 0 || ih >= g.in_height || iw < 0 || iw >= g.in_width)
                      ? pad
                      : plane[ih * g.in_width + iw];
      }
    }
  }
}

}  // namespace

void first_layer_f32(const float* image, const ConvGeometry& g,
                     const float* weights, const float* bias, float* out) {
  TINCY_CHECK(first_layer_geometry_ok(g));
  const int64_t n = g.num_patches();
  const int64_t out_w = g.out_width();
  // Strip of 4 output positions: 27×4 tap matrix, fully unrolled dot.
  float taps[kFirstLayerPatch][4];
  float column[kFirstLayerPatch];

  for (int64_t col0 = 0; col0 < n; col0 += 4) {
    const int64_t width = std::min<int64_t>(4, n - col0);
    for (int64_t j = 0; j < width; ++j) {
      gather_patch(image, g, (col0 + j) / out_w, (col0 + j) % out_w, 0.0f,
                   column);
      for (int64_t k = 0; k < kFirstLayerPatch; ++k) taps[k][j] = column[k];
    }
    for (int64_t m = 0; m < kFirstLayerChannels; ++m) {
      const float* w = weights + m * kFirstLayerPatch;
      if (width == 4) {
        F32x4 acc = F32x4::splat(bias ? bias[m] : 0.0f);
        // 27 taps, explicitly unrollable fixed trip count.
        for (int64_t k = 0; k < kFirstLayerPatch; ++k)
          acc = mla(acc, F32x4::splat(w[k]), F32x4::load(taps[k]));
        acc.store(out + m * n + col0);
      } else {
        for (int64_t j = 0; j < width; ++j) {
          float acc = bias ? bias[m] : 0.0f;
          for (int64_t k = 0; k < kFirstLayerPatch; ++k)
            acc += w[k] * taps[k][j];
          out[m * n + col0 + j] = acc;
        }
      }
    }
  }
}

void first_layer_lowp_acc32(const float* image, const ConvGeometry& g,
                            const quant::AffineParams& input_params,
                            const SymmetricWeights& weights, const float* bias,
                            float* out) {
  TINCY_CHECK(first_layer_geometry_ok(g));
  TINCY_CHECK(weights.codes.size() ==
              static_cast<size_t>(kFirstLayerChannels * kFirstLayerPatch));
  const int64_t n = g.num_patches();
  const int64_t out_w = g.out_width();
  const int64_t image_size = g.in_channels * g.in_height * g.in_width;
  std::vector<uint8_t> qimage(static_cast<size_t>(image_size));
  for (int64_t i = 0; i < image_size; ++i)
    qimage[static_cast<size_t>(i)] = input_params.quantize(image[i]);
  const auto pad = static_cast<uint8_t>(input_params.zero_point);
  const float real_scale = input_params.scale * weights.scale;

  uint8_t taps[kFirstLayerPatch][4];
  uint8_t column[kFirstLayerPatch];
  for (int64_t col0 = 0; col0 < n; col0 += 4) {
    const int64_t width = std::min<int64_t>(4, n - col0);
    for (int64_t j = 0; j < width; ++j) {
      gather_patch(qimage.data(), g, (col0 + j) / out_w, (col0 + j) % out_w,
                   pad, column);
      for (int64_t k = 0; k < kFirstLayerPatch; ++k) taps[k][j] = column[k];
    }
    for (int64_t m = 0; m < kFirstLayerChannels; ++m) {
      const int8_t* w = weights.codes.data() + m * kFirstLayerPatch;
      I32x4 acc = I32x4::splat(0);
      for (int64_t k = 0; k < kFirstLayerPatch; ++k) {
        // (a − za) fits in i16; product with an i8 weight fits in i32.
        I16x4 a16{};
        for (int64_t j = 0; j < 4; ++j)
          a16.lane[static_cast<size_t>(j)] = static_cast<int16_t>(
              static_cast<int32_t>(taps[k][j < width ? j : 0]) -
              input_params.zero_point);
        acc = add(acc, widening_mul(I16x4::splat(w[k]), a16));
      }
      const float b = bias ? bias[m] : 0.0f;
      for (int64_t j = 0; j < width; ++j)
        out[m * n + col0 + j] =
            real_scale * static_cast<float>(acc.lane[static_cast<size_t>(j)]) +
            b;
    }
  }
}

int16_t acc16_step(int16_t acc, int16_t product) {
  return saturating_add<int16_t>(acc, rounding_right_shift(product, 4));
}

void first_layer_lowp_acc16(const float* image, const ConvGeometry& g,
                            const quant::AffineParams& input_params,
                            const SymmetricWeights& weights, const float* bias,
                            float* out) {
  TINCY_CHECK(first_layer_geometry_ok(g));
  const int64_t n = g.num_patches();
  const int64_t out_w = g.out_width();
  const int64_t image_size = g.in_channels * g.in_height * g.in_width;
  std::vector<uint8_t> qimage(static_cast<size_t>(image_size));
  for (int64_t i = 0; i < image_size; ++i)
    qimage[static_cast<size_t>(i)] = input_params.quantize(image[i]);
  const auto pad = static_cast<uint8_t>(input_params.zero_point);
  // The accumulator carries values pre-shifted right by 4; undo on output.
  const float real_scale = input_params.scale * weights.scale * 16.0f;

  uint8_t taps[kFirstLayerPatch][8];
  uint8_t column[kFirstLayerPatch];
  for (int64_t col0 = 0; col0 < n; col0 += 8) {
    const int64_t width = std::min<int64_t>(8, n - col0);
    for (int64_t j = 0; j < width; ++j) {
      gather_patch(qimage.data(), g, (col0 + j) / out_w, (col0 + j) % out_w,
                   pad, column);
      for (int64_t k = 0; k < kFirstLayerPatch; ++k) taps[k][j] = column[k];
    }
    for (int64_t m = 0; m < kFirstLayerChannels; ++m) {
      const int8_t* w = weights.codes.data() + m * kFirstLayerPatch;
      I16x8 acc = I16x8::splat(0);
      for (int64_t k = 0; k < kFirstLayerPatch; ++k) {
        // Center the u8 taps on the zero point; |a − za| ≤ 255 exceeds i8,
        // so the lanes are widened to i16 as NEON's VSUBL.U8 would.
        I16x8 a16{};
        for (int64_t j = 0; j < 8; ++j)
          a16.lane[static_cast<size_t>(j)] = static_cast<int16_t>(
              static_cast<int32_t>(taps[k][j < width ? j : 0]) -
              input_params.zero_point);
        // 16-bit product (≤ 255·127 < 2^15), VRSHR #4, VQADD.
        I16x8 prod{};
        for (int64_t j = 0; j < 8; ++j)
          prod.lane[static_cast<size_t>(j)] = static_cast<int16_t>(
              static_cast<int32_t>(a16.lane[static_cast<size_t>(j)]) *
              static_cast<int32_t>(w[k]));
        acc = saturating_add(acc, rounding_shift_right(prod, 4));
      }
      const float b = bias ? bias[m] : 0.0f;
      for (int64_t j = 0; j < width; ++j)
        out[m * n + col0 + j] =
            real_scale * static_cast<float>(acc.lane[static_cast<size_t>(j)]) +
            b;
    }
  }
}

}  // namespace tincy::gemm
