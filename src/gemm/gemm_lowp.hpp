#pragma once

/// \file gemm_lowp.hpp
/// Self-contained low-precision GEMM with the gemmlowp contract the paper's
/// 8-bit NEON path builds on: uint8 operands with zero-point offsets,
/// int32 accumulation, and an optional integer requantization pipeline
/// producing uint8 output.

#include <cstdint>

#include "core/tensor.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/im2col.hpp"
#include "quant/affine.hpp"

namespace tincy::gemm {

/// C_i32 (M×N) = Σ_k (A[i,k] − lhs_zero) · (B[k,j] − rhs_zero); plain
/// scalar reference form.
void gemm_lowp_i32(int64_t M, int64_t N, int64_t K, const uint8_t* A,
                   int32_t lhs_zero, const uint8_t* B, int32_t rhs_zero,
                   int32_t* C);

/// Full quantized GEMM: int32 accumulation followed by the requantization
/// pipeline into uint8 output codes.
void gemm_lowp_u8(int64_t M, int64_t N, int64_t K, const uint8_t* A,
                  int32_t lhs_zero, const uint8_t* B, int32_t rhs_zero,
                  const quant::Requantizer& requant, uint8_t* C);

/// Quantized convolution in the paper's §III-D style: im2col quantizes the
/// image data "while arranging the multiplicand matrix", then a lowp GEMM
/// produces int32 accumulators which are dequantized to float output (the
/// form the surrounding float network consumes). `weights` are uint8 codes
/// with `weight_params`; `bias` (length out_channels, may be null) is added
/// in real space.
void conv_lowp_f32out(const float* image, const ConvGeometry& g,
                      const quant::AffineParams& input_params,
                      const uint8_t* weights,
                      const quant::AffineParams& weight_params,
                      int64_t out_channels, const float* bias, float* out);

/// Overload running against a weight matrix already packed with pack_lhs
/// (the per-layer cached form; skips the per-call packing cost). The
/// packed zero_point must be weight_params.zero_point.
void conv_lowp_f32out(const float* image, const ConvGeometry& g,
                      const quant::AffineParams& input_params,
                      const PackedLhsView& weights,
                      const quant::AffineParams& weight_params,
                      const float* bias, float* out);

/// Activation a fused conv store applies per element, with nn::apply's
/// expressions for the same functions.
enum class StoreActivation { kLinear, kRelu, kLeaky, kLogistic };

/// One output channel's batch-norm and bias fold: y = x·scale + shift + bias.
struct ChannelAffine {
  float scale = 1.0f;
  float shift = 0.0f;
  float bias = 0.0f;
};

/// Per-output-channel epilogue of the fused conv store. With it the store
/// writes act((real_scale·acc + b)·scale + shift + bias), the float order
/// of a separate post pass over the plain store's real_scale·acc + b, so
/// the two give bit-identical output.
struct ConvEpilogue {
  const ChannelAffine* channels = nullptr;  ///< out_channels entries
  StoreActivation act = StoreActivation::kLinear;
};

/// Fused sliced variant of conv_lowp_f32out (strip im2col, immediate GEMM).
void fused_conv_lowp_f32out(const float* image, const ConvGeometry& g,
                            const quant::AffineParams& input_params,
                            const uint8_t* weights,
                            const quant::AffineParams& weight_params,
                            int64_t out_channels, const float* bias,
                            float* out);

/// Packed-weight overload of the fused path. `opts` picks the accumulator
/// (kI16Shift4 runs the paper's first-layer arithmetic; its tile holds
/// 16·acc, so real_scale stays input·weight scale), the micro-kernel tier
/// and the pool; the call shards by shard_count() and, when it does, also
/// quantizes the image on the pool. A non-null `epilogue` applies the
/// per-channel fold and activation in the store.
void fused_conv_lowp_f32out(const float* image, const ConvGeometry& g,
                            const quant::AffineParams& input_params,
                            const PackedLhsView& weights,
                            const quant::AffineParams& weight_params,
                            const float* bias, float* out,
                            const GemmOptions& opts = {},
                            const ConvEpilogue* epilogue = nullptr);

/// Strip im2col over uint8 codes: writes rows [0, patch_size) of columns
/// [col0, col0+width) of the full column matrix, rows contiguous with
/// stride `width`. Iterates (oh, ow) incrementally — no div/mod per
/// element. Exposed for the fused path's tests.
void im2col_strip_u8(const uint8_t* image, const ConvGeometry& g,
                     int64_t col0, int64_t width, uint8_t pad_value,
                     uint8_t* strip);

}  // namespace tincy::gemm
