#include "quant/thresholds.hpp"

#include <algorithm>
#include <cmath>

namespace tincy::quant {

TensorU8 quantize_activations(const Tensor& t, const UniformActQuant& q) {
  TensorU8 out(t.shape());
  q.quantize(t.data(), t.numel(), out.data());
  return out;
}

Tensor dequantize_activations(const TensorU8& t, const UniformActQuant& q) {
  Tensor out(t.shape());
  for (int64_t i = 0; i < t.numel(); ++i) out[i] = q.dequantize(t[i]);
  return out;
}

uint8_t ThresholdSet::apply(int32_t acc) const {
  // Thresholds are ascending, so the level is the partition point. The
  // count is at most 2^A − 1 and fits a byte for any sane A.
  const auto it =
      std::upper_bound(thresholds.begin(), thresholds.end(), acc);
  return static_cast<uint8_t>(it - thresholds.begin());
}

ThresholdSet fold_to_thresholds(int act_bits, float acc_scale, float bias,
                                float out_scale) {
  TINCY_CHECK_MSG(act_bits >= 1 && act_bits <= 8, "act_bits " << act_bits);
  TINCY_CHECK_MSG(acc_scale > 0.0f && out_scale > 0.0f,
                  acc_scale << ", " << out_scale);
  ThresholdSet ts;
  const int levels = (1 << act_bits) - 1;
  ts.thresholds.reserve(static_cast<size_t>(levels));
  for (int k = 1; k <= levels; ++k) {
    // Level k is reached when round((acc_scale*acc + bias)/out_scale) >= k,
    // i.e. acc >= (out_scale*(k − 0.5) − bias) / acc_scale.
    const double real_threshold =
        (static_cast<double>(out_scale) * (k - 0.5) - bias) / acc_scale;
    ts.thresholds.push_back(
        static_cast<int32_t>(std::ceil(real_threshold - 1e-9)));
  }
  return ts;
}

std::vector<BitVector> to_bitplanes(const uint8_t* codes, int64_t n,
                                    int bits) {
  std::vector<BitVector> planes;
  planes.reserve(static_cast<size_t>(bits));
  for (int b = 0; b < bits; ++b) planes.emplace_back(n);
  for (int64_t i = 0; i < n; ++i)
    for (int b = 0; b < bits; ++b)
      if ((codes[i] >> b) & 1) planes[static_cast<size_t>(b)].set(i, true);
  return planes;
}

std::vector<uint8_t> from_bitplanes(const std::vector<BitVector>& planes) {
  TINCY_CHECK(!planes.empty());
  const int64_t n = planes.front().size();
  std::vector<uint8_t> codes(static_cast<size_t>(n), 0);
  for (size_t b = 0; b < planes.size(); ++b) {
    TINCY_CHECK(planes[b].size() == n);
    for (int64_t i = 0; i < n; ++i)
      if (planes[b].get(i))
        codes[static_cast<size_t>(i)] |= static_cast<uint8_t>(1u << b);
  }
  return codes;
}

}  // namespace tincy::quant
