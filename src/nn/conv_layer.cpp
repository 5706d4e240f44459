#include "nn/conv_layer.hpp"

#include <cmath>
#include <limits>

#include "gemm/gemm_lowp.hpp"
#include "gemm/gemm_ref.hpp"
#include "gemm/gemm_simd.hpp"
#include "nn/weights_io.hpp"
#include "quant/affine.hpp"

namespace tincy::nn {

namespace {

/// The fused conv store's form of `a`.
gemm::StoreActivation store_activation(Activation a) {
  switch (a) {
    case Activation::kLinear: return gemm::StoreActivation::kLinear;
    case Activation::kRelu: return gemm::StoreActivation::kRelu;
    case Activation::kLeaky: return gemm::StoreActivation::kLeaky;
    case Activation::kLogistic: return gemm::StoreActivation::kLogistic;
  }
  throw Error("activation without a store form");
}

}  // namespace

ConvLayer::ConvLayer(const ConvConfig& cfg, Shape input_shape) : cfg_(cfg) {
  TINCY_CHECK_MSG(input_shape.rank() == 3,
                  "conv input " << input_shape.to_string());
  geom_.in_channels = input_shape.channels();
  geom_.in_height = input_shape.height();
  geom_.in_width = input_shape.width();
  geom_.kernel = cfg.size;
  geom_.stride = cfg.stride;
  geom_.pad = cfg.pad ? cfg.size / 2 : 0;
  TINCY_CHECK_MSG(geom_.out_height() > 0 && geom_.out_width() > 0,
                  "degenerate conv output for input " << input_shape.to_string());
  if (cfg.bipolar) {
    TINCY_CHECK_MSG(cfg.act_bits == 1, "bipolar requires abits=1");
    TINCY_CHECK_MSG(cfg.activation == Activation::kLinear,
                    "bipolar layers use the sign itself as activation");
  }

  weights_ = Tensor(Shape{cfg.filters, geom_.patch_size()});
  biases_ = Tensor(Shape{cfg.filters});
  if (cfg.batch_normalize) {
    bn_scales_ = Tensor(Shape{cfg.filters}, 1.0f);
    bn_mean_ = Tensor(Shape{cfg.filters});
    bn_var_ = Tensor(Shape{cfg.filters}, 1.0f);
  }
}

Shape ConvLayer::output_shape() const {
  return Shape{cfg_.filters, geom_.out_height(), geom_.out_width()};
}

void ConvLayer::invalidate_cached_quantization() {
  binary_cache_.reset();
  binary_float_cache_.reset();
  threshold_cache_.reset();
  lowp_codes_.reset();
  lowp_params_.reset();
  packed_lowp_.reset();
  sym_weight_cache_.reset();
  affine_cache_.reset();
}

const quant::BinaryMatrix& ConvLayer::binary_weights() const {
  if (!binary_cache_) binary_cache_ = quant::binarize(weights_);
  return *binary_cache_;
}

uint8_t ConvLayer::ChannelThresholds::apply(int32_t acc) const {
  // At most 2^A − 1 (= 7 for A3) comparators, evaluated in parallel by the
  // fabric; a scan is exact and fast enough for the golden model.
  int level = 0;
  for (const int32_t t : set.thresholds)
    level += ascending ? (acc >= t) : (acc <= t);
  return static_cast<uint8_t>(level);
}

const std::vector<ConvLayer::ChannelThresholds>& ConvLayer::quant_thresholds()
    const {
  if (threshold_cache_) return *threshold_cache_;
  TINCY_CHECK_MSG(cfg_.act_bits < 8,
                  "thresholds requested for non-quantized layer");
  std::vector<ChannelThresholds> all;
  all.reserve(static_cast<size_t>(cfg_.filters));
  const int levels = cfg_.bipolar ? 1 : (1 << cfg_.act_bits) - 1;
  for (int64_t c = 0; c < cfg_.filters; ++c) {
    // Affine form of bias/batch-norm over the raw accumulator:
    //   z = slope · acc + intercept, with acc in integer activation units.
    double slope = cfg_.in_scale;
    double intercept = biases_[c];
    if (cfg_.batch_normalize) {
      const double inv_sigma =
          1.0 / std::sqrt(static_cast<double>(bn_var_[c]) + kBatchNormEps);
      slope *= bn_scales_[c] * inv_sigma;
      intercept -= bn_scales_[c] * inv_sigma * bn_mean_[c];
    }
    ChannelThresholds ct;
    ct.set.thresholds.reserve(static_cast<size_t>(levels));
    for (int k = 1; k <= levels; ++k) {
      // Bipolar output: the single comparator is the sign of z; unsigned
      // grids place a comparator at every half-step.
      const double target =
          cfg_.bipolar ? 0.0 : static_cast<double>(cfg_.out_scale) * (k - 0.5);
      if (slope > 0.0) {
        ct.ascending = true;
        ct.set.thresholds.push_back(static_cast<int32_t>(
            std::ceil((target - intercept) / slope - 1e-9)));
      } else if (slope < 0.0) {
        ct.ascending = false;
        ct.set.thresholds.push_back(static_cast<int32_t>(
            std::floor((target - intercept) / slope + 1e-9)));
      } else {
        // Degenerate zero slope: the level is constant in acc.
        ct.ascending = true;
        ct.set.thresholds.push_back(intercept >= target
                                        ? std::numeric_limits<int32_t>::min()
                                        : std::numeric_limits<int32_t>::max());
      }
    }
    all.push_back(std::move(ct));
  }
  threshold_cache_ = std::move(all);
  return *threshold_cache_;
}

gemm::ChannelAffine ConvLayer::channel_affine(int64_t c) const {
  gemm::ChannelAffine a;
  if (cfg_.batch_normalize) {
    const float inv_sigma =
        1.0f / std::sqrt(bn_var_[c] + kBatchNormEps);
    a.scale = bn_scales_[c] * inv_sigma;
    a.shift = -bn_mean_[c] * a.scale;
  }
  a.bias = biases_[c];
  return a;
}

void ConvLayer::apply_post(Tensor& out) const {
  const int64_t n = geom_.num_patches();
  for (int64_t c = 0; c < cfg_.filters; ++c) {
    const gemm::ChannelAffine a = channel_affine(c);
    float* row = out.data() + c * n;
    for (int64_t j = 0; j < n; ++j)
      row[j] = apply(cfg_.activation, row[j] * a.scale + a.shift + a.bias);
  }
  snap_activations(out);
}

void ConvLayer::snap_activations(Tensor& out) const {
  if (cfg_.bipolar) {
    // W1A1: the sign is the activation.
    const quant::BipolarActQuant q{cfg_.out_scale};
    for (int64_t i = 0; i < out.numel(); ++i)
      out[i] = q.dequantize(q.quantize(out[i]));
  } else if (cfg_.act_bits < 8) {
    // Float-domain model of the A-bit activation grid: snap to codes.
    const quant::UniformActQuant q{cfg_.act_bits, cfg_.out_scale};
    for (int64_t i = 0; i < out.numel(); ++i)
      out[i] = q.dequantize(q.quantize(out[i]));
  }
}

void ConvLayer::forward_float(const Tensor& in, Tensor& out, ConvKernel k) {
  const float* w = weights_.data();
  if (cfg_.binary_weights) {
    if (!binary_float_cache_)
      binary_float_cache_ = quant::dequantize(binary_weights());
    w = binary_float_cache_->data();
  }
  switch (k) {
    case ConvKernel::kReference:
      gemm::conv_via_im2col_f32(in.data(), geom_, w, cfg_.filters, nullptr,
                                out.data());
      break;
    case ConvKernel::kFused:
      gemm::fused_conv_f32(in.data(), geom_, w, cfg_.filters, nullptr,
                           out.data());
      break;
    case ConvKernel::kFirstLayerF32:
      TINCY_CHECK(cfg_.filters == gemm::kFirstLayerChannels);
      gemm::first_layer_f32(in.data(), geom_, w, nullptr, out.data());
      break;
    default:
      throw Error("not a float conv kernel");
  }
  apply_post(out);
}

void ConvLayer::forward_lowp(const Tensor& in, Tensor& out, ConvKernel k) {
  // The image data is quantized on the fly (paper: "an im2col
  // implementation that quantized the image data while arranging the
  // multiplicand matrix"); range calibration comes from the frame itself.
  const auto [lo, hi] = quant::min_max(in);
  const quant::AffineParams in_params = quant::choose_affine_params(lo, hi);

  switch (k) {
    case ConvKernel::kLowp:
    case ConvKernel::kFusedLowp: {
      if (!lowp_codes_) {
        const auto [wlo, whi] = quant::min_max(weights_);
        lowp_params_ = quant::choose_affine_params(wlo, whi);
        lowp_codes_ = quant::quantize(weights_, *lowp_params_);
        // Pack/compute split: the GEMM engine's weight panels are derived
        // once here and reused by every subsequent frame.
        packed_lowp_ = gemm::pack_lhs(lowp_codes_->data(), cfg_.filters,
                                      geom_.patch_size(),
                                      lowp_params_->zero_point);
      }
      if (k == ConvKernel::kLowp)
        gemm::conv_lowp_f32out(in.data(), geom_, in_params, *packed_lowp_,
                               *lowp_params_, nullptr, out.data());
      else
        gemm::fused_conv_lowp_f32out(in.data(), geom_, in_params,
                                     *packed_lowp_, *lowp_params_, nullptr,
                                     out.data());
      break;
    }
    case ConvKernel::kFirstLayerAcc32:
    case ConvKernel::kFirstLayerAcc16: {
      TINCY_CHECK(cfg_.filters == gemm::kFirstLayerChannels &&
                  gemm::first_layer_geometry_ok(geom_));
      if (!sym_weight_cache_) {
        sym_weight_cache_ = gemm::quantize_symmetric(weights_);
        packed_lowp_ = gemm::pack_symmetric(*sym_weight_cache_, cfg_.filters);
        affine_cache_.emplace();
        for (int64_t c = 0; c < cfg_.filters; ++c)
          affine_cache_->push_back(channel_affine(c));
      }
      // The packed engine runs the paper's arithmetic: kI16Shift4 is the
      // lane model's rshift-4 + saturating add, in the same K order, so
      // the output is bit-identical to first_layer_lowp_acc16/acc32
      // followed by apply_post. The saturating path is what the paper
      // runs, so it is requested explicitly rather than through kAuto.
      gemm::GemmOptions opts;
      opts.acc = k == ConvKernel::kFirstLayerAcc16
                     ? gemm::Accumulator::kI16Shift4
                     : gemm::Accumulator::kI32;
      const quant::AffineParams w_params{sym_weight_cache_->scale,
                                         gemm::kSymmetricZeroPoint};
      // BN, bias and activation run in the engine's store, in apply_post's
      // float order; only the A-bit snap is left as a separate pass.
      const gemm::ConvEpilogue epilogue{affine_cache_->data(),
                                        store_activation(cfg_.activation)};
      gemm::fused_conv_lowp_f32out(in.data(), geom_, in_params, *packed_lowp_,
                                   w_params, nullptr, out.data(), opts,
                                   &epilogue);
      snap_activations(out);
      return;
    }
    default:
      throw Error("not a lowp conv kernel");
  }
  apply_post(out);
}

void ConvLayer::forward_quant_reference(const Tensor& in, Tensor& out) {
  TINCY_CHECK_MSG(cfg_.binary_weights && cfg_.act_bits < 8,
                  "quant reference path needs binary=1 and abits<8");
  // Incoming floats sit on the activation grid; recover the integer codes.
  TensorU8 codes(in.shape());
  if (cfg_.bipolar) {
    const quant::BipolarActQuant in_q{cfg_.in_scale};
    for (int64_t i = 0; i < in.numel(); ++i) codes[i] = in_q.quantize(in[i]);
    // No exact zero exists in the bipolar code space; padded convolutions
    // would corrupt the arithmetic, so they are rejected here. (FINN's
    // fully binarized nets use valid convolutions / FC layers.)
    TINCY_CHECK_MSG(geom_.pad == 0, "bipolar conv cannot zero-pad");
  } else {
    const quant::UniformActQuant in_q{cfg_.act_bits, cfg_.in_scale};
    codes = quant::quantize_activations(in, in_q);
  }
  // Zero padding is exact on the unsigned grid: real 0.0 is code 0.
  TensorU8 columns = gemm::im2col(codes, geom_, 0);

  const quant::BinaryMatrix& bw = binary_weights();
  const auto& thresholds = quant_thresholds();
  const int64_t patch = geom_.patch_size(), n = geom_.num_patches();
  const quant::BipolarActQuant out_bq{cfg_.out_scale};
  for (int64_t c = 0; c < cfg_.filters; ++c) {
    const auto& row = bw.row_bits[static_cast<size_t>(c)];
    for (int64_t j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int64_t k = 0; k < patch; ++k) {
        // Bipolar codes decode to ±1; unsigned codes are their own value.
        const int32_t a = cfg_.bipolar
                              ? (columns[k * n + j] ? 1 : -1)
                              : static_cast<int32_t>(columns[k * n + j]);
        acc += row.get(k) ? a : -a;
      }
      const uint8_t level = thresholds[static_cast<size_t>(c)].apply(acc);
      out[c * n + j] = cfg_.bipolar
                           ? out_bq.dequantize(level)
                           : cfg_.out_scale * static_cast<float>(level);
    }
  }
}

void ConvLayer::forward(const Tensor& in, Tensor& out) {
  TINCY_CHECK(in.shape() ==
              Shape({geom_.in_channels, geom_.in_height, geom_.in_width}));
  TINCY_CHECK(out.shape() == output_shape());
  switch (cfg_.kernel) {
    case ConvKernel::kReference:
    case ConvKernel::kFused:
    case ConvKernel::kFirstLayerF32:
      forward_float(in, out, cfg_.kernel);
      break;
    case ConvKernel::kLowp:
    case ConvKernel::kFusedLowp:
    case ConvKernel::kFirstLayerAcc32:
    case ConvKernel::kFirstLayerAcc16:
      forward_lowp(in, out, cfg_.kernel);
      break;
    case ConvKernel::kQuantReference:
      forward_quant_reference(in, out);
      break;
  }
}

void ConvLayer::load_weights(WeightReader& r) {
  // Darknet order: biases, then BN statistics, then weights.
  r.read(biases_);
  if (cfg_.batch_normalize) {
    r.read(bn_scales_);
    r.read(bn_mean_);
    r.read(bn_var_);
  }
  r.read(weights_);
  invalidate_cached_quantization();
}

void ConvLayer::save_weights(WeightWriter& w) const {
  w.write(biases_);
  if (cfg_.batch_normalize) {
    w.write(bn_scales_);
    w.write(bn_mean_);
    w.write(bn_var_);
  }
  w.write(weights_);
}

OpsCount ConvLayer::ops() const {
  OpsCount oc;
  oc.ops = 2 * geom_.patch_size() * cfg_.filters * geom_.num_patches();
  oc.precision = precision();
  return oc;
}

Precision ConvLayer::precision() const {
  if (cfg_.binary_weights && cfg_.act_bits < 8) return {1, cfg_.act_bits};
  switch (cfg_.kernel) {
    case ConvKernel::kLowp:
    case ConvKernel::kFusedLowp:
    case ConvKernel::kFirstLayerAcc32:
    case ConvKernel::kFirstLayerAcc16:
      return kW8A8;
    default:
      return kFloat;
  }
}

}  // namespace tincy::nn
