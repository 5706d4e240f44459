#pragma once

/// \file first_layer.hpp
/// Lane models of the paper's specialized first-layer kernels, and the
/// oracles of the route that runs that layer in a frame.
///
/// Tincy YOLO's input layer has a 16×27 weight matrix (16 output channels,
/// 3 input channels × 3×3 taps): "The 16 divides nicely by all lane counts
/// that a NEON implementation might use, and 27 is small enough to be
/// unrolled explicitly" (§III-D). Three variants mirror the paper's
/// progression for this layer:
///   * f32            — 620 ms → 160 ms on the A53 (3.8×),
///   * 8-bit, i32 acc — 140 ms,
///   * 8-bit, i16 acc — 120 ms, requiring a rounding right shift by 4
///     before accumulation to avoid destructive overflow (small accuracy
///     loss; the float kernel stays available as a drop-in reference).
///
/// The functions below model those NEON lanes with scalar loops; they feed
/// the §III-D ladder benchmarks and the accumulator ablation. A network's
/// `first16_acc16` / `first16_acc32` layer does not call them: ConvLayer
/// packs the symmetric codes with pack_symmetric() and runs the packed
/// engine's fused conv driver (gemm_lowp.hpp) with the kI16Shift4 / kI32
/// accumulator, which is bit-identical to first_layer_lowp_acc16 /
/// first_layer_lowp_acc32 on every micro-kernel tier.

#include <cstdint>
#include <vector>

#include "core/tensor.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/im2col.hpp"
#include "quant/affine.hpp"

namespace tincy::gemm {

/// Compile-time geometry of the specialized kernel.
inline constexpr int64_t kFirstLayerChannels = 16;
inline constexpr int64_t kFirstLayerPatch = 27;

/// True if `g` matches the specialization (patch size 27); the number of
/// output channels must separately equal kFirstLayerChannels.
bool first_layer_geometry_ok(const ConvGeometry& g);

/// Symmetrically quantized int8 weights (zero point fixed at 0) as used by
/// the 8-bit first-layer kernels.
struct SymmetricWeights {
  std::vector<int8_t> codes;  ///< out_channels × patch, row-major.
  float scale = 1.0f;         ///< real = scale * code.
};

/// Quantizes a float weight matrix to int8 with a single symmetric scale
/// (max-abs mapping to ±127).
SymmetricWeights quantize_symmetric(const Tensor& weights);

/// Zero point of pack_symmetric's offset-binary codes.
inline constexpr int32_t kSymmetricZeroPoint = 128;

/// Packs symmetric weights (`rows` × codes.size()/rows) for the packed
/// engine as u8 code + 128 with zero point 128, so every centered product
/// the engine forms is code·(a − za), exactly the lane model's.
PackedLhs pack_symmetric(const SymmetricWeights& weights, int64_t rows);

/// f32 variant: fused strip im2col + fully unrolled 27-tap dot products in
/// 4 float lanes. `weights` is 16×27 row-major, `bias` length 16 (nullable).
void first_layer_f32(const float* image, const ConvGeometry& g,
                     const float* weights, const float* bias, float* out);

/// 8-bit variant with 32-bit lane accumulators; same 4-lane structure as
/// the float kernel ("the 32-bit integer accumulation can actually not
/// utilize more vector lanes than the floating-point implementation") but
/// with the better data locality of u8 inputs.
void first_layer_lowp_acc32(const float* image, const ConvGeometry& g,
                            const quant::AffineParams& input_params,
                            const SymmetricWeights& weights, const float* bias,
                            float* out);

/// 8-bit variant with 16-bit lane accumulators (8 lanes): every 16-bit
/// product is rounding-right-shifted by 4 (NEON VRSHR) before being added
/// with saturation (VQADD); the accumulator is re-scaled by 16 on output.
/// The paper's fastest first-layer kernel on the A53, and slightly lossy.
void first_layer_lowp_acc16(const float* image, const ConvGeometry& g,
                            const quant::AffineParams& input_params,
                            const SymmetricWeights& weights, const float* bias,
                            float* out);

/// Exact integer model of the acc16 inner step for one product, exposed for
/// property tests: rshift-4 then saturating add into the running i16 value.
int16_t acc16_step(int16_t acc, int16_t product);

}  // namespace tincy::gemm
