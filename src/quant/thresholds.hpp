#pragma once

/// \file thresholds.hpp
/// FINN-style multi-threshold activation quantization.
///
/// In the FINN architecture the paper's accelerator derives from, a
/// quantized activation function (and any preceding batch-norm and bias)
/// collapses into a set of integer thresholds applied to the raw dot
/// product accumulator: the A-bit output level is simply the number of
/// thresholds the accumulator reaches. This file provides the uniform
/// activation quantizer used on feature maps (the paper's 3-bit data),
/// the threshold form of it over integer accumulators, and bit-plane
/// decomposition for XNOR-popcount dot products.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/bitvector.hpp"
#include "core/tensor.hpp"

namespace tincy::quant {

/// Uniform unsigned activation quantizer: code = clamp(round(x / scale),
/// 0, 2^bits − 1). Models the paper's 3-bit feature-map data (A3); ReLU is
/// implicit in the clamping at 0.
struct UniformActQuant {
  int bits = 3;
  float scale = 1.0f;

  int levels() const { return (1 << bits) - 1; }

  /// clamp(std::round(x / scale), 0, levels()), branch- and call-free so
  /// a feature-map loop over it vectorizes. Clamping first is the same
  /// (the bounds are integers); inside [0, levels()] the truncation t and
  /// c − t are exact (Sterbenz), so rounding half away from zero is
  /// t + (c − t ≥ 0.5). NaN maps to 0.
  uint8_t quantize(float x) const {
    const float c =
        std::min(std::max(0.0f, x / scale), static_cast<float>(levels()));
    const auto t = static_cast<int32_t>(c);
    return static_cast<uint8_t>(t + (c - static_cast<float>(t) >= 0.5f));
  }

  /// quantize() of n values into `out`. The blocks of 16 have a fixed trip
  /// count, which lets -O2's vectorizer take the loop.
  void quantize(const float* __restrict x, int64_t n,
                uint8_t* __restrict out) const {
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
      for (int64_t k = 0; k < 16; ++k) out[i + k] = quantize(x[i + k]);
    for (; i < n; ++i) out[i] = quantize(x[i]);
  }
  float dequantize(uint8_t code) const { return scale * static_cast<float>(code); }
};

/// Quantizes a float feature map into A-bit codes (stored one per byte).
TensorU8 quantize_activations(const Tensor& t, const UniformActQuant& q);

/// Reconstructs float values from A-bit codes.
Tensor dequantize_activations(const TensorU8& t, const UniformActQuant& q);

/// Ascending integer thresholds mapping an int32 accumulator to an A-bit
/// level: level(acc) = |{ k : acc >= thresholds[k] }|. One instance per
/// output channel in the MVTU.
struct ThresholdSet {
  std::vector<int32_t> thresholds;  ///< size 2^A − 1, ascending.

  /// The quantized output level of a raw accumulator.
  uint8_t apply(int32_t acc) const;
};

/// Builds the ThresholdSet equivalent to `scale_out`-uniform quantization of
/// (acc_scale * acc + bias) after ReLU: level k is reached when
/// acc_scale*acc + bias >= scale_out*(k − 0.5), i.e. the standard FINN
/// fold of bias/batch-norm + activation into thresholds.
ThresholdSet fold_to_thresholds(int act_bits, float acc_scale, float bias,
                                float out_scale);

/// Bipolar (±1) activation quantizer — the fully binarized W1A1 encoding
/// of Hubara et al. used by the MLP-4 / CNV-6 workloads: bit 1 encodes
/// +scale, bit 0 encodes −scale. With ±1 weights the dot product becomes
/// 2·xnor_popcount − n.
struct BipolarActQuant {
  float scale = 1.0f;

  uint8_t quantize(float x) const { return x >= 0.0f ? 1 : 0; }
  float dequantize(uint8_t code) const { return code ? scale : -scale; }
};

/// Splits a vector of A-bit activation codes into A bit-planes; plane b
/// holds bit b of every code. This is the input format of the bit-serial
/// MVTU dot product.
std::vector<BitVector> to_bitplanes(const uint8_t* codes, int64_t n, int bits);

/// Reassembles codes from bit-planes (inverse of to_bitplanes).
std::vector<uint8_t> from_bitplanes(const std::vector<BitVector>& planes);

}  // namespace tincy::quant
