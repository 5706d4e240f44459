#include "gemm/gemm_lowp.hpp"

#include <algorithm>
#include <cmath>

#include "gemm/scratch.hpp"
#include "telemetry/metrics.hpp"

namespace tincy::gemm {

void gemm_lowp_i32(int64_t M, int64_t N, int64_t K, const uint8_t* A,
                   int32_t lhs_zero, const uint8_t* B, int32_t rhs_zero,
                   int32_t* C) {
  for (int64_t i = 0; i < M; ++i) {
    for (int64_t j = 0; j < N; ++j) {
      int32_t acc = 0;
      for (int64_t k = 0; k < K; ++k) {
        const int32_t a = static_cast<int32_t>(A[i * K + k]) - lhs_zero;
        const int32_t b = static_cast<int32_t>(B[k * N + j]) - rhs_zero;
        acc += a * b;
      }
      C[i * N + j] = acc;
    }
  }
}

void gemm_lowp_u8(int64_t M, int64_t N, int64_t K, const uint8_t* A,
                  int32_t lhs_zero, const uint8_t* B, int32_t rhs_zero,
                  const quant::Requantizer& requant, uint8_t* C) {
  // Accumulate through the packed engine (bit-identical to gemm_lowp_i32)
  // into arena scratch: no heap allocation in steady state.
  auto& arena = thread_arena();
  ScratchScope scope(arena);
  int32_t* acc = arena.alloc<int32_t>(M * N);
  gemm_lowp_packed(M, N, K, A, lhs_zero, B, rhs_zero, acc);
  for (int64_t i = 0; i < M * N; ++i) C[i] = requant.apply(acc[i]);
}

namespace {

/// Shared implementation of the unfused conv path over a packed weight
/// view: quantize + im2col into arena scratch, one packed GEMM, f32 out.
void conv_lowp_impl(const float* image, const ConvGeometry& g,
                    const quant::AffineParams& input_params,
                    const PackedLhsView& weights,
                    const quant::AffineParams& weight_params,
                    const float* bias, float* out) {
  // Same im2col vs. GEMM attribution as the float path (Table III).
  auto& registry = telemetry::MetricsRegistry::global();
  static telemetry::Histogram& im2col_hist =
      registry.histogram("gemm.im2col_ms");
  static telemetry::Histogram& gemm_hist = registry.histogram("gemm.gemm_ms");

  const int64_t patch = g.patch_size(), n = g.num_patches();
  const int64_t out_channels = weights.rows;
  auto& arena = thread_arena();
  ScratchScope scope(arena);
  uint8_t* qimage =
      arena.alloc<uint8_t>(g.in_channels * g.in_height * g.in_width);
  uint8_t* columns = arena.alloc<uint8_t>(patch * n);
  {
    // Quantize the image while arranging the multiplicand (paper §III-D):
    // quantize once, then im2col over codes with the zero-point as padding.
    telemetry::ScopedTimer span(im2col_hist);
    const int64_t pixels = g.in_channels * g.in_height * g.in_width;
    for (int64_t i = 0; i < pixels; ++i)
      qimage[i] = input_params.quantize(image[i]);
    im2col(qimage, g, columns, static_cast<uint8_t>(input_params.zero_point));
  }

  telemetry::ScopedTimer span(gemm_hist);
  int32_t* acc = arena.alloc<int32_t>(out_channels * n);
  gemm_lowp_packed(weights, columns, input_params.zero_point, n, acc);
  const float real_scale = input_params.scale * weight_params.scale;
  for (int64_t m = 0; m < out_channels; ++m) {
    const float b = bias ? bias[m] : 0.0f;
    for (int64_t j = 0; j < n; ++j)
      out[m * n + j] = real_scale * static_cast<float>(acc[m * n + j]) + b;
  }
}

}  // namespace

void conv_lowp_f32out(const float* image, const ConvGeometry& g,
                      const quant::AffineParams& input_params,
                      const PackedLhsView& weights,
                      const quant::AffineParams& weight_params,
                      const float* bias, float* out) {
  conv_lowp_impl(image, g, input_params, weights, weight_params, bias, out);
}

void conv_lowp_f32out(const float* image, const ConvGeometry& g,
                      const quant::AffineParams& input_params,
                      const uint8_t* weights,
                      const quant::AffineParams& weight_params,
                      int64_t out_channels, const float* bias, float* out) {
  static telemetry::Histogram& pack_hist =
      telemetry::MetricsRegistry::global().histogram("gemm.pack_ms");
  const int64_t patch = g.patch_size();
  auto& arena = thread_arena();
  ScratchScope scope(arena);
  uint8_t* panels = arena.alloc<uint8_t>(packed_lhs_bytes(out_channels, patch));
  int32_t* row_sums = arena.alloc<int32_t>(out_channels);
  {
    telemetry::ScopedTimer span(pack_hist);
    pack_lhs_into(weights, out_channels, patch, weight_params.zero_point,
                  panels, row_sums);
  }
  PackedLhsView view;
  view.data = panels;
  view.row_sums = row_sums;
  view.rows = out_channels;
  view.depth = patch;
  view.zero_point = weight_params.zero_point;
  conv_lowp_impl(image, g, input_params, view, weight_params, bias, out);
}

void im2col_strip_u8(const uint8_t* image, const ConvGeometry& g,
                     int64_t col0, int64_t width, uint8_t pad_value,
                     uint8_t* strip) {
  const int64_t out_w = g.out_width();
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    const uint8_t* plane = image + c * g.in_height * g.in_width;
    for (int64_t kh = 0; kh < g.kernel; ++kh) {
      for (int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
        uint8_t* out_row = strip + row * width;
        // One div/mod per strip row; the patch walk is incremental.
        int64_t ow = col0 % out_w;
        int64_t ih = (col0 / out_w) * g.stride - g.pad + kh;
        int64_t iw = ow * g.stride - g.pad + kw;
        for (int64_t j = 0; j < width; ++j) {
          out_row[j] = (ih < 0 || ih >= g.in_height || iw < 0 ||
                        iw >= g.in_width)
                           ? pad_value
                           : plane[ih * g.in_width + iw];
          iw += g.stride;
          if (++ow == out_w) {
            ow = 0;
            iw = kw - g.pad;
            ih += g.stride;
          }
        }
      }
    }
  }
}

namespace {

/// Strip im2col straight into a packed K×kNr RHS panel (row stride kNr,
/// zero-point padding past `width`, per-column sums) — the fused path's
/// "quantize while arranging the multiplicand" without an intermediate
/// column matrix.
void im2col_panel_u8(const uint8_t* image, const ConvGeometry& g,
                     int64_t col0, int64_t width, uint8_t pad_value,
                     uint8_t* panel, int32_t* col_sums) {
  const int64_t out_w = g.out_width();
  for (int64_t j = 0; j < kNr; ++j) col_sums[j] = 0;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    const uint8_t* plane = image + c * g.in_height * g.in_width;
    for (int64_t kh = 0; kh < g.kernel; ++kh) {
      for (int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
        uint8_t* out_row = panel + row * kNr;
        int64_t ow = col0 % out_w;
        int64_t ih = (col0 / out_w) * g.stride - g.pad + kh;
        int64_t iw = ow * g.stride - g.pad + kw;
        for (int64_t j = 0; j < width; ++j) {
          const uint8_t v = (ih < 0 || ih >= g.in_height || iw < 0 ||
                             iw >= g.in_width)
                                ? pad_value
                                : plane[ih * g.in_width + iw];
          out_row[j] = v;
          col_sums[j] += v;
          iw += g.stride;
          if (++ow == out_w) {
            ow = 0;
            iw = kw - g.pad;
            ih += g.stride;
          }
        }
        for (int64_t j = width; j < kNr; ++j) {
          out_row[j] = pad_value;
          col_sums[j] += pad_value;
        }
      }
    }
  }
}

/// parallel_for context of the fused conv path's image quantization.
struct QuantizeShardCtx {
  const float* image;
  const quant::AffineParams* params;
  uint8_t* qimage;
};

void run_quantize_shard(int64_t lo, int64_t hi, void* p) {
  auto& ctx = *static_cast<QuantizeShardCtx*>(p);
  for (int64_t i = lo; i < hi; ++i)
    ctx.qimage[i] = ctx.params->quantize(ctx.image[i]);
}

/// parallel_for context of the fused conv path: shards of column panels,
/// each im2col'd and multiplied in the worker's own arena.
struct FusedShardCtx {
  const uint8_t* qimage;
  const ConvGeometry* g;
  PackedLhsView weights;
  int32_t input_zero;
  uint8_t pad;
  float real_scale;
  const float* bias;
  const ConvEpilogue* epilogue;
  Accumulator acc;
  Kernel kernel;
  float* out;
  int64_t n;
};

/// Writes one panel's accumulators (out_channels × width, row-major) to
/// columns [col0, col0+width) of the output. This TU is built without
/// target attributes, so no FMA contraction changes the float order.
void store_panel(const FusedShardCtx& ctx, const int32_t* acc, int64_t col0,
                 int64_t width) {
  for (int64_t m = 0; m < ctx.weights.rows; ++m) {
    const float b = ctx.bias ? ctx.bias[m] : 0.0f;
    const int32_t* src = acc + m * width;
    float* dst = ctx.out + m * ctx.n + col0;
    if (!ctx.epilogue) {
      for (int64_t j = 0; j < width; ++j)
        dst[j] = ctx.real_scale * static_cast<float>(src[j]) + b;
      continue;
    }
    const ChannelAffine ch = ctx.epilogue->channels[m];
    const auto affine = [&](int32_t a) {
      return (ctx.real_scale * static_cast<float>(a) + b) * ch.scale +
             ch.shift + ch.bias;
    };
    switch (ctx.epilogue->act) {
      case StoreActivation::kLinear:
        for (int64_t j = 0; j < width; ++j) dst[j] = affine(src[j]);
        break;
      case StoreActivation::kRelu:
        for (int64_t j = 0; j < width; ++j) {
          const float x = affine(src[j]);
          dst[j] = x > 0.0f ? x : 0.0f;
        }
        break;
      case StoreActivation::kLeaky:
        for (int64_t j = 0; j < width; ++j) {
          const float x = affine(src[j]);
          dst[j] = x > 0.0f ? x : 0.1f * x;
        }
        break;
      case StoreActivation::kLogistic:
        for (int64_t j = 0; j < width; ++j)
          dst[j] = 1.0f / (1.0f + std::exp(-affine(src[j])));
        break;
    }
  }
}

void run_fused_shard(int64_t lo, int64_t hi, void* p) {
  auto& ctx = *static_cast<FusedShardCtx*>(p);
  const int64_t patch = ctx.weights.depth;
  const int64_t out_channels = ctx.weights.rows;
  auto& arena = thread_arena();
  ScratchScope scope(arena);
  uint8_t* panel = arena.alloc<uint8_t>(patch * kNr);
  int32_t* acc = arena.alloc<int32_t>(out_channels * kNr);
  for (int64_t pi = lo; pi < hi; ++pi) {
    const int64_t col0 = pi * kNr;
    const int64_t width = std::min<int64_t>(kNr, ctx.n - col0);
    int32_t col_sums[kNr];
    im2col_panel_u8(ctx.qimage, *ctx.g, col0, width, ctx.pad, panel, col_sums);
    gemm_lowp_packed_panel(ctx.weights, panel, col_sums, 0, width, width,
                           ctx.input_zero, ctx.acc, acc, ctx.kernel);
    store_panel(ctx, acc, col0, width);
  }
}

void fused_conv_lowp_impl(const float* image, const ConvGeometry& g,
                          const quant::AffineParams& input_params,
                          const PackedLhsView& weights,
                          const quant::AffineParams& weight_params,
                          const float* bias, float* out,
                          const GemmOptions& opts,
                          const ConvEpilogue* epilogue) {
  // The fused path has no separable im2col stage; one span covers it.
  auto& registry = telemetry::MetricsRegistry::global();
  static telemetry::Histogram& fused_hist = registry.histogram("gemm.fused_ms");
  static telemetry::Gauge& threads_gauge = registry.gauge("gemm.threads");
  telemetry::ScopedTimer timer(fused_hist);

  const int64_t patch = g.patch_size(), n = g.num_patches();
  const int64_t out_channels = weights.rows;
  core::ThreadPool& pool = opts.pool ? *opts.pool : core::ThreadPool::shared();
  const int64_t shards =
      shard_count(opts, pool, 2 * out_channels * n * patch);
  threads_gauge.set(static_cast<double>(shards));
  Accumulator acc = opts.acc;
  if (acc == Accumulator::kAuto)
    acc = acc16_safe(patch, weights.zero_point, input_params.zero_point)
              ? Accumulator::kI16Shift4
              : Accumulator::kI32;

  auto& arena = thread_arena();
  ScratchScope scope(arena);
  const int64_t pixels = g.in_channels * g.in_height * g.in_width;
  uint8_t* qimage = arena.alloc<uint8_t>(pixels);
  QuantizeShardCtx qctx{image, &input_params, qimage};
  pool.parallel_for(0, pixels, shards, run_quantize_shard, &qctx);

  FusedShardCtx ctx{qimage,
                    &g,
                    weights,
                    input_params.zero_point,
                    static_cast<uint8_t>(input_params.zero_point),
                    input_params.scale * weight_params.scale,
                    bias,
                    epilogue,
                    acc,
                    resolve_kernel(opts.kernel),
                    out,
                    n};
  const int64_t num_panels = (n + kNr - 1) / kNr;
  const int64_t chunks =
      shards == 1 ? 1 : std::min<int64_t>(num_panels, shards * 4);
  pool.parallel_for(0, num_panels, chunks, run_fused_shard, &ctx);
}

}  // namespace

void fused_conv_lowp_f32out(const float* image, const ConvGeometry& g,
                            const quant::AffineParams& input_params,
                            const PackedLhsView& weights,
                            const quant::AffineParams& weight_params,
                            const float* bias, float* out,
                            const GemmOptions& opts,
                            const ConvEpilogue* epilogue) {
  fused_conv_lowp_impl(image, g, input_params, weights, weight_params, bias,
                       out, opts, epilogue);
}

void fused_conv_lowp_f32out(const float* image, const ConvGeometry& g,
                            const quant::AffineParams& input_params,
                            const uint8_t* weights,
                            const quant::AffineParams& weight_params,
                            int64_t out_channels, const float* bias,
                            float* out) {
  static telemetry::Histogram& pack_hist =
      telemetry::MetricsRegistry::global().histogram("gemm.pack_ms");
  const int64_t patch = g.patch_size();
  auto& arena = thread_arena();
  ScratchScope scope(arena);
  uint8_t* panels = arena.alloc<uint8_t>(packed_lhs_bytes(out_channels, patch));
  int32_t* row_sums = arena.alloc<int32_t>(out_channels);
  {
    telemetry::ScopedTimer span(pack_hist);
    pack_lhs_into(weights, out_channels, patch, weight_params.zero_point,
                  panels, row_sums);
  }
  PackedLhsView view;
  view.data = panels;
  view.row_sums = row_sums;
  view.rows = out_channels;
  view.depth = patch;
  view.zero_point = weight_params.zero_point;
  fused_conv_lowp_impl(image, g, input_params, view, weight_params, bias, out,
                       {}, nullptr);
}

}  // namespace tincy::gemm
