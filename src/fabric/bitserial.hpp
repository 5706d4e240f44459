#pragma once

/// \file bitserial.hpp
/// The bit-plane popcount engine that executes one offloaded conv layer of
/// the fabric simulator: the host-side realization of the SWU + MVTU pair
/// (§III-A), computing the same accumulators and threshold codes as the
/// per-column `SlidingWindowUnit` + `Mvtu` models, without their
/// per-column gathers and allocations.
///
/// Layout (FINN-R's SIMD folding along input channels), one dense word
/// order for every C:
///  * each frame's CHW codes are packed into zero-padded bit-plane lines,
///    one band of output rows at a time (the whole frame when the call is
///    sharded): padded row y holds A lines, and in each line pixel x is
///    bits [x·C, x·C + C), back to back. A padding pixel is code 0, the
///    exact zero of the unsigned grid;
///  * so one kernel row of a window is K·C contiguous bits of a line, and
///    im2col extracts it into kw_words = ceil(K·C/64) words (an aligned
///    copy when 64 divides C, else a two-word shift; the bits past the
///    window are masked to zero). A window is K·kw_words words per plane:
///    3 for Tincy's first hidden layer (C = 16, K = 3), where a word per
///    tap and channel group would take 9, 48 of every 64 bits padding;
///  * weights are repacked once in the same (kh; kw·C + c) order: row r
///    holds K segments of kw_words words, bit kw·C + c of segment kh is
///    weight column c·K² + kh·K + kw, and the segment's tail bits are zero;
///  * output pixels run in blocks of kPixelLanes: the block's window words
///    are copied lane-interleaved ([plane][word][lane]) into per-thread
///    scratch, and one micro-kernel call applies every weight row to it.
///
/// Identity (±1 weights w, unsigned A-bit activations a = Σ_b 2^b·a_b):
///   Σ w·a = Σ_b 2^b · (2·pc(w∧a_b) − pc(a_b))
/// — one popcount per word, with pc(a_b) computed once per pixel. The
/// bipolar (W1A1) encoding uses Σ w·a = cols − 2·pc(w⊕a), exact because
/// the tail bits of each kernel row's last word are zero on both sides.
///
/// Micro-kernel tiers (dispatched like gemm/kernels.hpp): kScalar is the
/// portable std::popcount baseline, kPopcnt the same loops compiled with
/// target("popcnt"), kAvx512Vpopcntdq one VPOPCNTQ per word over all eight
/// pixel lanes. Every tier is bit-identical to the others and to the
/// per-column oracle — the contract of tests/test_binary_conformance.cpp.

#include <cstdint>
#include <span>
#include <vector>

#include "core/thread_pool.hpp"
#include "fabric/mvtu.hpp"
#include "fabric/pool_unit.hpp"
#include "gemm/im2col.hpp"
#include "quant/binary.hpp"

namespace tincy::fabric {

/// Output pixels per engine block (one 512-bit vector of 64-bit lanes).
inline constexpr int64_t kPixelLanes = 8;

/// Micro-kernel tier of the popcount inner loop.
enum class PopcountTier : int {
  kAuto = 0,         ///< widest supported tier
  kScalar,           ///< portable std::popcount (baseline)
  kPopcnt,           ///< target("popcnt"): hardware POPCNT per word
  kAvx512Vpopcntdq,  ///< target("avx512f,avx512vpopcntdq"): 8 lanes/op
};

/// Tier name ("auto", "scalar", "popcnt", "avx512_vpopcntdq").
const char* popcount_tier_name(PopcountTier t);

/// True when the tier can run on this machine (probed once via cpuid);
/// kAuto is not a concrete tier and reports false.
bool popcount_tier_supported(PopcountTier t);

/// Resolves a request to the concrete tier a call runs: kAuto and
/// unsupported requests pick the widest supported tier.
PopcountTier resolve_popcount_tier(PopcountTier requested);

/// All concrete tiers runnable on this machine, narrowest first.
std::vector<PopcountTier> dispatchable_popcount_tiers();

/// One lane-interleaved block handed to a micro-kernel.
struct PopcountTile {
  const uint64_t* weights = nullptr;  ///< rows × words, window order
  int64_t rows = 0;
  int64_t words = 0;                  ///< K · ceil(K·C/64) per plane
  const uint64_t* act = nullptr;      ///< planes × words × kPixelLanes
  int planes = 0;
  int64_t cols = 0;                   ///< C·K² (bipolar identity only)
  int32_t* acc = nullptr;             ///< rows × kPixelLanes accumulators
};

/// One tier's entry points: raw accumulators of every row for one block.
struct PopcountKernels {
  void (*unsigned_tile)(const PopcountTile& t);
  void (*bipolar_tile)(const PopcountTile& t);
};

/// Entry points of a concrete (resolved) tier.
const PopcountKernels& popcount_kernels(PopcountTier resolved);

/// VPOPCNTDQ entry points, or nullptr when the build or machine lacks
/// them. Defined in bitserial_avx512.cpp; exposed for the dispatch only.
const PopcountKernels* avx512_popcount_kernels();

/// Knobs of one engine call.
struct BitSerialOptions {
  PopcountTier tier = PopcountTier::kAuto;
  core::ThreadPool* pool = nullptr;  ///< null -> ThreadPool::shared()
  /// Whole-call threading floor in ops (2·rows·cols·pixels·batch): below
  /// it the call never fans out (INT64_MAX forces a single-thread run). A call this small finishes in about a
  /// millisecond on one core with the VPOPCNTDQ tier, and on a loaded host
  /// (every serving worker busy) waking the pool costs more CPU than it
  /// saves wall time.
  int64_t min_ops_to_thread = int64_t{1} << 28;
};

/// One offloaded conv layer on the bit-plane popcount engine.
class BitSerialEngine {
 public:
  /// `weights`: filters × (C·K²) ±1 matrix in CHW im2col column order;
  /// `thresholds`: one channel per filter; `act_bits`: input precision.
  BitSerialEngine(const gemm::ConvGeometry& g,
                  const quant::BinaryMatrix& weights,
                  std::vector<ThresholdChannel> thresholds, int act_bits,
                  ActEncoding encoding = ActEncoding::kUnsigned);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return geom_.patch_size(); }
  int act_bits() const { return act_bits_; }
  ActEncoding encoding() const { return encoding_; }
  const gemm::ConvGeometry& geometry() const { return geom_; }
  const std::vector<ThresholdChannel>& thresholds() const {
    return thresholds_;
  }
  /// Words of one window per bit-plane (and of one weight row):
  /// K · ceil(K·C/64).
  int64_t words_per_plane() const { return words_per_plane_; }
  /// Repacked weights: rows × words_per_plane() words, window order.
  const uint64_t* packed_weights() const { return weights_.data(); }

  /// Threshold codes of `batch` stacked CHW input code maps: `out` holds
  /// batch × rows × (outH·outW) codes, CHW per frame. The weights stay
  /// resident across the batch. Zero heap allocations once the calling
  /// and pool threads' scratch arenas are warm.
  void run(std::span<const uint8_t> inputs, int64_t batch,
           std::span<uint8_t> out, const BitSerialOptions& opts = {}) const;

  /// run() followed by the pool unit, fused: `out` receives the max-pooled
  /// codes (batch × rows × pool.out_height()·pool.out_width()), equal to
  /// max_pool_codes_batch over run()'s output, without materializing the
  /// conv output. Work is sharded by pooled row; a conv row shared by two
  /// overlapping windows (stride < size) is computed once per window row.
  void run_pooled(std::span<const uint8_t> inputs, int64_t batch,
                  const PoolSpec& pool, std::span<uint8_t> out,
                  const BitSerialOptions& opts = {}) const;

  /// Raw accumulators before thresholding, same layout as run().
  void accumulate(std::span<const uint8_t> inputs, int64_t batch,
                  std::span<int32_t> acc,
                  const BitSerialOptions& opts = {}) const;

 private:
  void execute(std::span<const uint8_t> inputs, int64_t batch,
               const PoolSpec* pool, uint8_t* codes, int32_t* acc,
               const BitSerialOptions& opts) const;

  gemm::ConvGeometry geom_;
  int64_t rows_ = 0;
  int64_t kernel_row_words_ = 0;  ///< ceil(K·C/64)
  int64_t words_per_plane_ = 0;   ///< K · kernel_row_words_
  int act_bits_ = 1;
  ActEncoding encoding_ = ActEncoding::kUnsigned;
  std::vector<uint64_t> weights_;  ///< rows × words_per_plane_
  std::vector<ThresholdChannel> thresholds_;
};

}  // namespace tincy::fabric
