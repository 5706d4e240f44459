#pragma once

/// \file conv_layer.hpp
/// Convolutional layer with every execution path the paper develops:
///
///  * kReference      — Darknet's generic im2col + GEMM in float,
///  * kFused          — fused sliced im2col+GEMM, NEON float lanes (§III-D),
///  * kLowp           — 8-bit gemmlowp-style path (explicit im2col),
///  * kFusedLowp      — 8-bit fused sliced path,
///  * kFirstLayerF32   — the fully specialized 16×27 float kernel,
///  * kFirstLayerAcc32 / kFirstLayerAcc16
///                    — the paper's 8-bit 16×27 first layer with 32- or
///                      16-bit (rshift-4, saturating) accumulators, run on
///                      the packed engine's fused driver with BN, bias and
///                      activation applied in its store,
///  * kQuantReference — bit-exact W1A<abits> QNN semantics (binarized
///    weights, thresholded activations); this is the golden model the
///    fabric accelerator must reproduce exactly.
///
/// Batch normalization is applied inference-style from stored statistics;
/// in the quantized path it folds into the activation thresholds just as
/// FINN folds it in hardware.

#include <optional>
#include <vector>

#include "gemm/first_layer.hpp"
#include "gemm/gemm_lowp.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/im2col.hpp"
#include "nn/activation.hpp"
#include "nn/layer.hpp"
#include "quant/binary.hpp"
#include "quant/thresholds.hpp"

namespace tincy::nn {

/// Which kernel implementation executes the layer.
enum class ConvKernel {
  kReference,
  kFused,
  kLowp,
  kFusedLowp,
  kFirstLayerF32,
  kFirstLayerAcc32,
  kFirstLayerAcc16,
  kQuantReference,
};

/// Static configuration of a convolutional layer (the cfg-file view).
struct ConvConfig {
  int64_t filters = 1;
  int64_t size = 3;
  int64_t stride = 1;
  bool pad = true;  ///< Darknet semantics: pad flag -> padding = size/2.
  Activation activation = Activation::kLeaky;
  bool batch_normalize = false;
  bool binary_weights = false;  ///< cfg `binary=1`: ±1 weights (W1).
  int act_bits = 32;            ///< <8 enables quantized activations (A bits).
  float in_scale = 1.0f;        ///< activation grid of the incoming codes.
  float out_scale = 1.0f;       ///< activation grid this layer emits.
  /// cfg `bipolar=1`: activations are ±scale (W1A1, Hubara et al.) rather
  /// than the unsigned grid. Requires act_bits == 1; applies to both the
  /// incoming codes and the emitted ones.
  bool bipolar = false;
  ConvKernel kernel = ConvKernel::kReference;
};

class ConvLayer final : public Layer {
 public:
  /// Sizes all parameters for an input of shape (C, H, W); weights start
  /// zero (callers use zoo helpers or load_weights).
  ConvLayer(const ConvConfig& cfg, Shape input_shape);

  std::string type_name() const override { return "convolutional"; }
  Shape output_shape() const override;
  void forward(const Tensor& in, Tensor& out) override;
  void load_weights(WeightReader& r) override;
  void save_weights(WeightWriter& w) const override;
  OpsCount ops() const override;
  Precision precision() const override;

  const ConvConfig& config() const { return cfg_; }
  const gemm::ConvGeometry& geometry() const { return geom_; }

  /// Weight matrix, filters × (C·K·K) row-major.
  Tensor& weights() { return weights_; }
  const Tensor& weights() const { return weights_; }
  Tensor& biases() { return biases_; }
  const Tensor& biases() const { return biases_; }
  Tensor& bn_scales() { return bn_scales_; }
  Tensor& bn_mean() { return bn_mean_; }
  Tensor& bn_var() { return bn_var_; }
  const Tensor& bn_scales() const { return bn_scales_; }
  const Tensor& bn_mean() const { return bn_mean_; }
  const Tensor& bn_var() const { return bn_var_; }

  /// Per-output-channel activation thresholds of the quantized path, as the
  /// fabric consumes them. Channel c compares the raw ±1/A-bit accumulator:
  /// with positive batch-norm slope the level is |{k : acc >= T_k}|, with
  /// negative slope the comparison flips. Only valid for quantized layers.
  struct ChannelThresholds {
    quant::ThresholdSet set;
    bool ascending = true;  ///< false when the BN slope is negative.
    uint8_t apply(int32_t acc) const;
  };
  /// Derives (and caches) the fold of bias/BN/activation into thresholds.
  const std::vector<ChannelThresholds>& quant_thresholds() const;

  /// Binarized weight matrix of the quantized path (bit = sign).
  const quant::BinaryMatrix& binary_weights() const;

  /// Invalidate caches after mutating weights (training, quantizing).
  void invalidate_cached_quantization();

 private:
  void forward_float(const Tensor& in, Tensor& out, ConvKernel k);
  void forward_lowp(const Tensor& in, Tensor& out, ConvKernel k);
  void forward_quant_reference(const Tensor& in, Tensor& out);
  /// Applies BN (from statistics), bias and activation in place, then
  /// snap_activations.
  void apply_post(Tensor& out) const;
  /// Snaps the output onto the A-bit (or bipolar) activation grid of
  /// quantized-activation layers; a no-op for 8-bit and float layers.
  void snap_activations(Tensor& out) const;
  /// Channel c's fold of BN statistics and bias: y = x·scale + shift + bias.
  gemm::ChannelAffine channel_affine(int64_t c) const;

  ConvConfig cfg_;
  gemm::ConvGeometry geom_;
  Tensor weights_;    // filters × patch
  Tensor biases_;     // filters
  Tensor bn_scales_;  // filters (gamma)
  Tensor bn_mean_;    // filters
  Tensor bn_var_;     // filters

  // Lazy caches of derived quantized weight forms.
  mutable std::optional<quant::BinaryMatrix> binary_cache_;
  mutable std::optional<Tensor> binary_float_cache_;
  mutable std::optional<std::vector<ChannelThresholds>> threshold_cache_;
  mutable std::optional<TensorU8> lowp_codes_;
  mutable std::optional<quant::AffineParams> lowp_params_;
  /// Weight panels pre-packed for the GEMM engine (pack/compute split:
  /// packed once per weight mutation, reused every frame).
  mutable std::optional<gemm::PackedLhs> packed_lowp_;
  mutable std::optional<gemm::SymmetricWeights> sym_weight_cache_;
  /// channel_affine() of every channel, for the fused store's epilogue.
  mutable std::optional<std::vector<gemm::ChannelAffine>> affine_cache_;
};

/// Batch-norm epsilon shared by inference and the threshold fold.
inline constexpr float kBatchNormEps = 1e-5f;

}  // namespace tincy::nn
