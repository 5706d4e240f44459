#pragma once

/// \file mvtu.hpp
/// Matrix–Vector–Threshold Unit: the compute core of the FINN-style
/// accelerator. Weights are ±1 bit-packed rows; activations arrive as
/// A-bit codes which the unit processes bit-serially: the dot product of a
/// ±1 row with an A-bit vector is the weighted sum of per-bit-plane
/// XNOR-popcount terms, Σ_b 2^b · (popcount(w∧a_b) − popcount(¬w∧a_b)).
/// The raw accumulator then passes the per-channel threshold unit which
/// subsumes bias, batch normalization and the quantized activation.
///
/// This is the per-column model of the paper's unit. The accelerator
/// executes layers on fabric/bitserial.hpp's BitSerialEngine, which
/// tests/test_binary_conformance.cpp checks against this class.

#include <cstdint>
#include <span>
#include <vector>

#include "core/bitvector.hpp"
#include "fabric/folding.hpp"
#include "quant/binary.hpp"

namespace tincy::fabric {

/// Per-output-channel threshold unit: level = count of satisfied
/// comparisons. `ascending` is false when the folded batch-norm slope is
/// negative and the comparisons flip direction.
struct ThresholdChannel {
  std::vector<int32_t> thresholds;
  bool ascending = true;

  uint8_t apply(int32_t acc) const {
    int level = 0;
    for (const int32_t t : thresholds) level += ascending ? (acc >= t) : (acc <= t);
    return static_cast<uint8_t>(level);
  }
};

/// Encoding of the incoming activation codes.
enum class ActEncoding {
  kUnsigned,  ///< code ∈ [0, 2^A − 1], real = scale · code
  kBipolar,   ///< A = 1, code ∈ {0, 1}, real = ±scale (W1A1):
              ///< Σ w·a = 2·xnor_popcount(w, a) − n
};

/// One MVTU configured for a layer's weight matrix.
class Mvtu {
 public:
  /// `weights`: rows × cols ±1 matrix; `thresholds`: one channel per row;
  /// `act_bits_in`: precision of incoming activation codes.
  Mvtu(quant::BinaryMatrix weights, std::vector<ThresholdChannel> thresholds,
       int act_bits_in, ActEncoding encoding = ActEncoding::kUnsigned);

  int64_t rows() const { return weights_.rows; }
  int64_t cols() const { return weights_.cols; }
  int act_bits_in() const { return act_bits_in_; }
  ActEncoding encoding() const { return encoding_; }

  /// Processes one input column (cols() A-bit codes) into rows() output
  /// codes, exactly as the hardware datapath would.
  void compute(std::span<const uint8_t> column, std::span<uint8_t> out) const;

  /// Raw accumulators before thresholding (for tests and debugging).
  void accumulate(std::span<const uint8_t> column,
                  std::span<int32_t> acc) const;

  /// Batched form over `batch` stacked input columns (`columns` holds
  /// batch × cols() codes, `out` receives batch × rows() codes). Models a
  /// weight-resident pass: every weight row is fetched once and applied
  /// to all frames before the next row streams in, so the weight load is
  /// paid once per batch. Bit-identical to calling compute() per frame.
  void compute_batch(std::span<const uint8_t> columns, int64_t batch,
                     std::span<uint8_t> out) const;
  void accumulate_batch(std::span<const uint8_t> columns, int64_t batch,
                        std::span<int32_t> acc) const;

  /// Cycle cost of one column under the given folding.
  int64_t cycles_per_column(const Folding& f) const {
    return fold_cycles_per_vector({rows(), cols()}, f, act_bits_in_);
  }

  const quant::BinaryMatrix& weights() const { return weights_; }
  const std::vector<ThresholdChannel>& thresholds() const { return thresholds_; }

 private:
  quant::BinaryMatrix weights_;
  std::vector<ThresholdChannel> thresholds_;
  int act_bits_in_;
  ActEncoding encoding_;
};

}  // namespace tincy::fabric
