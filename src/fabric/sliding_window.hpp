#pragma once

/// \file sliding_window.hpp
/// Sliding Window Unit (SWU): streams the kernel-application footprints of
/// a CHW code tensor to the MVTU — the hardware realization of im2col.
/// Functionally it emits exactly the column matrix gemm::im2col produces;
/// the generator form keeps only one column live, matching the streaming
/// hardware rather than materializing the K²-inflated matrix. Together
/// with Mvtu it is the per-column oracle of fabric/bitserial.hpp's engine.

#include <cstdint>
#include <span>
#include <vector>

#include "gemm/im2col.hpp"

namespace tincy::fabric {

class SlidingWindowUnit {
 public:
  /// `g` describes the convolution geometry; padding taps emit code 0
  /// (the exact zero of the unsigned activation grid).
  explicit SlidingWindowUnit(const gemm::ConvGeometry& g);

  int64_t num_columns() const { return geom_.num_patches(); }
  int64_t column_size() const { return geom_.patch_size(); }

  /// Writes column `index` (0-based over outH·outW, row-major) of the
  /// im2col matrix for `image` into `column`.
  void emit_column(std::span<const uint8_t> image, int64_t index,
                   std::span<uint8_t> column) const;

  /// Batched form: `images` holds `batch` stacked CHW code maps; column
  /// `index` of frame f lands at `columns.subspan(f * column_size())`.
  void emit_column_batch(std::span<const uint8_t> images, int64_t batch,
                         int64_t index, std::span<uint8_t> columns) const;

  /// Cycles to stream one column at `simd` codes per cycle.
  int64_t cycles_per_column(int64_t simd) const {
    return (column_size() + simd - 1) / simd;
  }

  const gemm::ConvGeometry& geometry() const { return geom_; }

 private:
  gemm::ConvGeometry geom_;
};

}  // namespace tincy::fabric
