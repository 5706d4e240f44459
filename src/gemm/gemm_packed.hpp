#pragma once

/// \file gemm_packed.hpp
/// The packed, tiled, multi-threaded low-precision GEMM engine.
///
/// The naive gemm_lowp_i32 streams the RHS column-strided and re-reads
/// every operand from memory once per multiply; the paper's §III-D CPU
/// path instead follows gemmlowp: pack both operands into contiguous
/// panels once, then run a register-blocked micro-kernel whose inner loop
/// is nothing but sequential loads and widening multiply-accumulates.
/// This engine implements that split:
///
///  * pack_lhs — the LHS (weights in the conv/FC layers) is packed into
///    kMr-row K-major interleaved panels *once per layer* and cached next
///    to the layer's other derived quantized forms;
///  * pack_rhs_panel / the drivers pack RHS strips into K×kNr panels in
///    per-thread scratch, so the im2col'd activations are touched once;
///  * micro-kernel — a kMr×kNr output tile held in register blocks.
///    The i32 path uses the zero-point decomposition
///    C[i,j] = Σ a·b − za·colsum_j − zb·rowsum_i + K·za·zb
///    so the inner loop is pure unsigned u8×u8→u16→u32 widening MACs
///    (VMULL.U8/VADDW) — exact, and bit-identical to gemm_lowp_i32. The
///    i16 path mirrors the paper's first-layer trick: every centered
///    product is rounding-right-shifted by 4 (VRSHR) and added with
///    saturation (VQADD) into 16-bit accumulators, rescaled by 16 on
///    output — faster, slightly lossy, bit-identical to the scalar oracle
///    gemm_lowp_i32_shift4. Each micro-kernel ships in several
///    runtime-dispatched width variants (scalar baseline, portable NEON
///    lane model, AVX2 intrinsics — see gemm/kernels.hpp); every variant
///    is bit-identical to the others and to the scalar oracles, the
///    contract enforced by tests/test_gemm_conformance.cpp;
///  * threading — column panels (row blocks for GEMV-shaped calls) are
///    sharded over core::ThreadPool::parallel_for; every worker packs into
///    its own thread arena, so the steady-state hot path performs zero
///    heap allocations on any thread.
///
/// Telemetry: gemm.pack_ms (LHS packing), gemm.packed_ms (driver spans),
/// gemm.threads (parallelism of the most recent call).

#include <cstdint>
#include <vector>

#include "core/thread_pool.hpp"
#include "gemm/kernels.hpp"

namespace tincy::gemm {

/// Micro-kernel tile: kMr packed LHS rows × kNr RHS columns per call.
/// kNr = 16 keeps a full u32 accumulator tile in 16 NEON q-registers
/// while amortizing each packed LHS byte over 16 columns.
inline constexpr int64_t kMr = 4;
inline constexpr int64_t kNr = 16;

/// Accumulator policy of the packed engine.
enum class Accumulator {
  kI32,        ///< exact 32-bit accumulation (bit-identical to gemm_lowp_i32)
  kI16Shift4,  ///< paper's rshift-4 + saturating 16-bit path (lossy)
  kAuto,       ///< kI16Shift4 when acc16_safe(), else kI32
};

/// LHS packed into ceil(rows/kMr) panels of kMr interleaved rows
/// (data[panel][k*kMr + r]), padded rows filled with the zero-point, plus
/// the per-row code sums the zero-point decomposition needs. Cached on
/// ConvLayer/ConnectedLayer next to lowp_codes_.
struct PackedLhs {
  std::vector<uint8_t> data;
  std::vector<int32_t> row_sums;
  int64_t rows = 0;
  int64_t depth = 0;
  int32_t zero_point = 0;
};

/// Non-owning view of a packed LHS (the drivers work on views so per-call
/// packing can live in arena scratch without a heap-owning PackedLhs).
struct PackedLhsView {
  const uint8_t* data = nullptr;
  const int32_t* row_sums = nullptr;
  int64_t rows = 0;
  int64_t depth = 0;
  int32_t zero_point = 0;

  PackedLhsView() = default;
  PackedLhsView(const PackedLhs& p)
      : data(p.data.data()),
        row_sums(p.row_sums.data()),
        rows(p.rows),
        depth(p.depth),
        zero_point(p.zero_point) {}
};

/// Bytes of packed panel data for an M×K LHS (ceil(M/kMr)·kMr·K).
int64_t packed_lhs_bytes(int64_t rows, int64_t depth);

/// Packs row-major A (rows×depth) into `panels` (packed_lhs_bytes large)
/// and writes per-row sums into `row_sums` (length rows). No allocation.
void pack_lhs_into(const uint8_t* A, int64_t rows, int64_t depth,
                   int32_t zero_point, uint8_t* panels, int32_t* row_sums);

/// Owning pack of row-major A; records the cost into gemm.pack_ms.
PackedLhs pack_lhs(const uint8_t* A, int64_t rows, int64_t depth,
                   int32_t zero_point);

/// Packs columns [col0, col0+width) of row-major B (depth×cols) into a
/// K×kNr panel (row stride kNr); lanes past `width` are filled with the
/// zero-point. Writes per-column code sums into `col_sums` (kNr entries).
void pack_rhs_panel(const uint8_t* B, int64_t depth, int64_t cols,
                    int64_t col0, int64_t width, int32_t zero_point,
                    uint8_t* panel, int32_t* col_sums);

/// True when the kI16Shift4 path is exact-in-its-own-model for this shape:
/// every centered product fits int16 and the shifted sum cannot saturate.
/// kAuto falls back to kI32 otherwise.
bool acc16_safe(int64_t depth, int32_t lhs_zero, int32_t rhs_zero);

/// Scalar oracle of the kI16Shift4 semantics: per product, rounding right
/// shift by 4 then saturating add into an int16 accumulator; the int32
/// output is the accumulator rescaled by 16. The packed kI16Shift4 kernel
/// is bit-identical to this for all inputs.
void gemm_lowp_i32_shift4(int64_t M, int64_t N, int64_t K, const uint8_t* A,
                          int32_t lhs_zero, const uint8_t* B, int32_t rhs_zero,
                          int32_t* C);

/// Knobs of one packed GEMM call.
struct GemmOptions {
  Accumulator acc = Accumulator::kI32;
  /// Micro-kernel variant. kAuto honours the TINCY_GEMM_KERNEL
  /// environment override, else dispatches the widest variant this
  /// machine supports (see gemm/kernels.hpp). All variants produce
  /// bit-identical output; explicit values are a testing/benching knob.
  Kernel kernel = Kernel::kAuto;
  core::ThreadPool* pool = nullptr;  ///< null -> ThreadPool::shared()
  bool allow_threads = true;         ///< false forces a single-thread run
  /// Minimum multiply-accumulates per shard; below it the call stays
  /// single-threaded (sharding a tiny GEMM costs more than it saves).
  int64_t min_ops_per_shard = int64_t{1} << 18;
  /// Whole-call threading floor: below this many multiply-accumulates the
  /// call never fans out, whatever the shard math says. Skinny shapes
  /// (layer0's M=16, K=27) finish in well under a millisecond single
  /// threaded, so waking workers costs more than the parallel section
  /// saves — the measured cause of the layer0 threaded-gate miss.
  int64_t min_ops_to_thread = int64_t{1} << 24;
};

/// Shards a call of `total_ops` operations (2·M·N·K) runs in on `pool`
/// under `opts`: 1 unless threads are allowed, the pool has workers and the
/// call clears both min_ops_to_thread and two shards of min_ops_per_shard.
/// The one threading policy of every packed driver.
int64_t shard_count(const GemmOptions& opts, const core::ThreadPool& pool,
                    int64_t total_ops);

/// Runs every row block of `lhs` against one packed K×kNr RHS panel (row
/// stride kNr, per-column sums as produced by pack_rhs_panel) and writes
/// the C columns [j0, j0+width) of a row-major M×N output. The building
/// block the fused conv path drives directly with its im2col'd panels.
void gemm_lowp_packed_panel(const PackedLhsView& lhs, const uint8_t* panel,
                            const int32_t* col_sums, int64_t j0, int64_t width,
                            int64_t N, int32_t rhs_zero, Accumulator acc,
                            int32_t* C, Kernel kernel = Kernel::kAuto);

/// C_i32 (M×N) = packed-GEMM of `lhs` (M×K panels) and row-major B (K×N).
/// Bit-identical to gemm_lowp_i32 under kI32 and to gemm_lowp_i32_shift4
/// under kI16Shift4. Thread-safe; zero heap allocations in steady state.
void gemm_lowp_packed(const PackedLhsView& lhs, const uint8_t* B,
                      int32_t rhs_zero, int64_t N, int32_t* C,
                      const GemmOptions& opts = {});

/// Convenience overload packing row-major A (M×K) into arena scratch.
void gemm_lowp_packed(int64_t M, int64_t N, int64_t K, const uint8_t* A,
                      int32_t lhs_zero, const uint8_t* B, int32_t rhs_zero,
                      int32_t* C, const GemmOptions& opts = {});

}  // namespace tincy::gemm
