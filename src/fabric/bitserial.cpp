#include "fabric/bitserial.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "core/errors.hpp"
#include "gemm/scratch.hpp"

namespace tincy::fabric {

namespace {

constexpr int64_t kLanes = kPixelLanes;
/// Conv rows per band of a single-thread engine call.
constexpr int64_t kBandConvRows = 8;

// --- Portable tiers: kScalar and kPopcnt ---------------------------------
//
// One loop body, instantiated twice: plain (std::popcount lowers to the
// portable bit-twiddling sequence on baseline x86-64) and inlined into a
// target("popcnt") wrapper, where the same expression becomes one POPCNT
// per word. Eight independent lane accumulators keep the popcounts of a
// weight word in flight together.

template <bool kBipolar>
[[gnu::always_inline]] inline void tile_body(const PopcountTile& t) {
  const int64_t words = t.words;
  if constexpr (kBipolar) {
    for (int64_t r = 0; r < t.rows; ++r) {
      const uint64_t* w = t.weights + r * words;
      uint32_t s[kLanes] = {};
      for (int64_t i = 0; i < words; ++i) {
        const uint64_t wi = w[i];
        const uint64_t* a = t.act + i * kLanes;
        for (int64_t p = 0; p < kLanes; ++p)
          s[p] += static_cast<uint32_t>(std::popcount(wi ^ a[p]));
      }
      for (int64_t p = 0; p < kLanes; ++p)
        t.acc[r * kLanes + p] = static_cast<int32_t>(t.cols) -
                                2 * static_cast<int32_t>(s[p]);
    }
    return;
  }
  // pc(a_b) per lane: shared by every row of the block.
  int32_t apc[8][kLanes] = {};
  for (int b = 0; b < t.planes; ++b)
    for (int64_t i = 0; i < words; ++i)
      for (int64_t p = 0; p < kLanes; ++p)
        apc[b][p] += static_cast<int32_t>(
            std::popcount(t.act[(b * words + i) * kLanes + p]));
  for (int64_t r = 0; r < t.rows; ++r) {
    const uint64_t* w = t.weights + r * words;
    int32_t out[kLanes] = {};
    for (int b = 0; b < t.planes; ++b) {
      const uint64_t* a = t.act + b * words * kLanes;
      uint32_t s[kLanes] = {};
      for (int64_t i = 0; i < words; ++i) {
        const uint64_t wi = w[i];
        for (int64_t p = 0; p < kLanes; ++p)
          s[p] += static_cast<uint32_t>(std::popcount(wi & a[i * kLanes + p]));
      }
      for (int64_t p = 0; p < kLanes; ++p)
        out[p] += (2 * static_cast<int32_t>(s[p]) - apc[b][p]) * (1 << b);
    }
    std::memcpy(t.acc + r * kLanes, out, sizeof out);
  }
}

void scalar_unsigned(const PopcountTile& t) { tile_body<false>(t); }
void scalar_bipolar(const PopcountTile& t) { tile_body<true>(t); }

constexpr PopcountKernels kScalarKernels{scalar_unsigned, scalar_bipolar};

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define TINCY_HAS_POPCNT_TIER 1
__attribute__((target("popcnt"))) void popcnt_unsigned(const PopcountTile& t) {
  tile_body<false>(t);
}
__attribute__((target("popcnt"))) void popcnt_bipolar(const PopcountTile& t) {
  tile_body<true>(t);
}
constexpr PopcountKernels kPopcntKernels{popcnt_unsigned, popcnt_bipolar};
#endif

// --- Engine call: pack, shard, gather, accumulate, threshold -------------

/// One band of one frame: its packed input rows and its output.
struct ShardCtx {
  const BitSerialEngine* engine;
  const PopcountKernels* kernels;
  const uint64_t* planes;  ///< padded rows [row0, …), A lines of each row
  int64_t row0;            ///< first padded input row held in `planes`
  int64_t line_words;      ///< one plane of one padded row, + 1 slack word
  int64_t kernel_row_words;  ///< ceil(K·C/64)
  int64_t pixel_begin;     ///< unpooled: the band's output pixels are
  int64_t pixel_end;       ///< [pixel_begin, pixel_end) of the frame
  const PoolSpec* pool;    ///< fused max-pool, or null
  uint8_t* codes;          ///< the frame's threshold (or pooled) codes, or null
  int32_t* acc;            ///< the frame's raw accumulators, or null
};

/// The threshold unit on kLanes accumulators of one channel: each level is
/// the count of satisfied comparisons, as ThresholdChannel::apply.
void threshold_lanes(const ThresholdChannel& ch, const int32_t* a,
                     uint8_t* code) {
  int32_t level[kLanes] = {};
  if (ch.ascending) {
    for (const int32_t th : ch.thresholds)
      for (int64_t p = 0; p < kLanes; ++p) level[p] += a[p] >= th;
  } else {
    for (const int32_t th : ch.thresholds)
      for (int64_t p = 0; p < kLanes; ++p) level[p] += a[p] <= th;
  }
  for (int64_t p = 0; p < kLanes; ++p) code[p] = static_cast<uint8_t>(level[p]);
}

/// Row stride of the pooled-row extremes: the pooled width in whole blocks.
int64_t extremes_stride(const PoolSpec& ps) {
  return (ps.out_width() + kLanes - 1) / kLanes * kLanes;
}

/// Gathers and accumulates the `valid` output pixels of the frame starting
/// at pixel index `first`. Unpooled, it writes their raw accumulators or
/// threshold codes. Pooled, it folds each lane into the running extremes of
/// the caller's pooled row (`extremes`, rows × extremes_stride): the
/// threshold level is monotone in the accumulator, so the max-pooled code
/// is the level of the window's largest accumulator (smallest for a
/// negative-slope channel), and run_shard thresholds the row once.
void run_block(const ShardCtx& c, int64_t first, int64_t valid,
               int32_t* extremes, const PopcountTile& tile, uint64_t* block) {
  const BitSerialEngine& e = *c.engine;
  const gemm::ConvGeometry& g = e.geometry();
  const int planes = e.act_bits();
  const int64_t rows = e.rows(), words = e.words_per_plane();
  const int64_t kw_words = c.kernel_row_words;
  const int64_t out_w = g.out_width(), pixels = g.num_patches();
  const int64_t line_stride = planes * c.line_words;
  // The bits of the last word of a kernel row that belong to the window.
  const uint64_t tail_mask =
      ~uint64_t{0} >> (64 * kw_words - g.kernel * g.in_channels);

  // Fused pool: the windows [pool_lo, pool_hi] of the pooled row holding
  // each lane's column ox, i.e. px·stride − pad_left ≤ ox < that + size.
  int64_t pool_lo[kLanes] = {}, pool_hi[kLanes] = {};
  // Word im2col: one kernel row of a lane's window is K·C contiguous bits
  // of a padded line, extracted into kw_words words scattered
  // lane-interleaved; the bits past the window are masked off.
  for (int64_t p = 0; p < kLanes; ++p) {
    if (p >= valid) {
      for (int64_t q = 0; q < planes * words; ++q) block[q * kLanes + p] = 0;
      continue;
    }
    const int64_t j = first + p;
    const int64_t oy = j / out_w, ox = j % out_w;
    if (c.pool) {
      const PoolSpec& ps = *c.pool;
      const int64_t x = ox + (ps.size - 1) / 2;  // + pad_left
      pool_lo[p] = x < ps.size ? 0 : (x - ps.size) / ps.stride + 1;
      pool_hi[p] = std::min(x / ps.stride, ps.out_width() - 1);
    }
    const int64_t bit0 = ox * g.stride * g.in_channels;
    const int shift = static_cast<int>(bit0 & 63);
    const uint64_t* origin = c.planes +
                             (oy * g.stride - c.row0) * line_stride +
                             (bit0 >> 6);
    for (int64_t kh = 0; kh < g.kernel; ++kh)
      for (int b = 0; b < planes; ++b) {
        const uint64_t* src = origin + kh * line_stride + b * c.line_words;
        uint64_t* d = block + (b * words + kh * kw_words) * kLanes + p;
        if (shift == 0) {  // every window when 64 divides C
          for (int64_t w = 0; w < kw_words; ++w) d[w * kLanes] = src[w];
        } else {
          for (int64_t w = 0; w < kw_words; ++w)
            d[w * kLanes] = (src[w] >> shift) | (src[w + 1] << (64 - shift));
        }
        d[(kw_words - 1) * kLanes] &= tail_mask;
      }
  }

  if (e.encoding() == ActEncoding::kBipolar) c.kernels->bipolar_tile(tile);
  else c.kernels->unsigned_tile(tile);

  if (c.pool) {
    const int64_t stride = extremes_stride(*c.pool);
    for (int64_t r = 0; r < rows; ++r) {
      const int32_t* a = tile.acc + r * kLanes;
      int32_t* x = extremes + r * stride;
      if (e.thresholds()[static_cast<size_t>(r)].ascending) {
        for (int64_t p = 0; p < valid; ++p)
          for (int64_t px = pool_lo[p]; px <= pool_hi[p]; ++px)
            x[px] = std::max(x[px], a[p]);
      } else {
        for (int64_t p = 0; p < valid; ++p)
          for (int64_t px = pool_lo[p]; px <= pool_hi[p]; ++px)
            x[px] = std::min(x[px], a[p]);
      }
    }
    return;
  }
  // Unpooled epilogue: raw accumulators or threshold codes; a full block
  // covers contiguous pixels.
  for (int64_t r = 0; r < rows; ++r) {
    const int32_t* a = tile.acc + r * kLanes;
    const int64_t off = r * pixels + first;
    if (c.acc) {
      std::copy(a, a + valid, c.acc + off);
      continue;
    }
    uint8_t code[kLanes];
    threshold_lanes(e.thresholds()[static_cast<size_t>(r)], a, code);
    std::copy(code, code + valid, c.codes + off);
  }
}

/// parallel_for body over one band. Unpooled: item i is the block of
/// kLanes pixels at pixel_begin + i·kLanes. Pooled: item i is pooled row i;
/// it computes the conv rows of that row's windows (a row shared by
/// overlapping windows is computed once per pooled row) and writes the
/// pooled row's codes, so no two items write the same output.
void run_shard(int64_t lo, int64_t hi, void* raw) {
  const ShardCtx& c = *static_cast<const ShardCtx*>(raw);
  const BitSerialEngine& e = *c.engine;
  const gemm::ConvGeometry& g = e.geometry();
  const int64_t rows = e.rows();

  auto& arena = gemm::thread_arena();
  gemm::ScratchScope scope(arena);
  const int64_t words = e.words_per_plane();
  uint64_t* block = arena.alloc<uint64_t>(e.act_bits() * words * kLanes);

  PopcountTile tile;
  tile.weights = e.packed_weights();
  tile.rows = rows;
  tile.words = words;
  tile.act = block;
  tile.planes = e.act_bits();
  tile.cols = e.cols();
  tile.acc = arena.alloc<int32_t>(rows * kLanes);

  if (!c.pool) {
    for (int64_t item = lo; item < hi; ++item) {
      const int64_t first = c.pixel_begin + item * kLanes;
      run_block(c, first, std::min(kLanes, c.pixel_end - first), nullptr,
                tile, block);
    }
    return;
  }
  const PoolSpec& ps = *c.pool;
  const int64_t pw = ps.out_width(), stride = extremes_stride(ps);
  const int64_t plane = ps.out_height() * pw;
  int32_t* extremes = arena.alloc<int32_t>(rows * stride);
  for (int64_t item = lo; item < hi; ++item) {
    for (int64_t r = 0; r < rows; ++r)
      std::fill_n(extremes + r * stride, stride,
                  e.thresholds()[static_cast<size_t>(r)].ascending
                      ? INT32_MIN
                      : INT32_MAX);
    const int64_t y0 = item * ps.stride - (ps.size - 1) / 2;
    const int64_t begin = std::max<int64_t>(y0, 0) * g.out_width();
    const int64_t end = std::min(y0 + ps.size, g.out_height()) * g.out_width();
    for (int64_t first = begin; first < end; first += kLanes)
      run_block(c, first, std::min(kLanes, end - first), extremes, tile,
                block);
    // Every window holds an in-image conv pixel, so each extreme is one
    // of its accumulators.
    for (int64_t r = 0; r < rows; ++r) {
      const ThresholdChannel& ch = e.thresholds()[static_cast<size_t>(r)];
      uint8_t* out = c.codes + r * plane + item * pw;
      for (int64_t x0 = 0; x0 < pw; x0 += kLanes) {
        uint8_t code[kLanes];
        threshold_lanes(ch, extremes + r * stride + x0, code);
        std::copy(code, code + std::min(kLanes, pw - x0), out + x0);
      }
    }
  }
}

/// Packs padded rows [row0, row1) of one frame's CHW codes into dense
/// bit-plane lines at `out`: padded row y holds A lines of `line_words`
/// words, and pixel (y, x) is bits [(x + pad)·C, +C) of each line of row
/// y + pad − row0 (the caller zeroes the padding and the slack word). Pixel
/// by pixel, each run of up to 64 channels gathers its bits in a register
/// and is OR-ed into two adjacent words; the CHW reads are C sequential
/// streams. The plane count is a template parameter so the per-plane
/// accumulators are named scalars the compiler keeps in registers.
template <int kPlanes>
void pack_planes(const uint8_t* frame, const gemm::ConvGeometry& g,
                 int64_t line_words, int64_t row0, int64_t row1,
                 uint64_t* out) {
  const int64_t in_pixels = g.in_height * g.in_width;
  const int64_t channels = g.in_channels;
  const int64_t y_end = std::min(row1 - g.pad, g.in_height);
  for (int64_t y = std::max<int64_t>(row0 - g.pad, 0); y < y_end; ++y) {
    uint64_t* line = out + (y + g.pad - row0) * kPlanes * line_words;
    for (int64_t x = 0; x < g.in_width; ++x) {
      const uint8_t* src = frame + y * g.in_width + x;
      for (int64_t c0 = 0; c0 < channels; c0 += 64) {
        uint64_t b0 = 0, b1 = 0, b2 = 0, b3 = 0, b4 = 0, b5 = 0, b6 = 0, b7 = 0;
        const int64_t c_end = std::min<int64_t>(channels, c0 + 64);
        // Highest channel first: every accumulator shifts up one channel.
        for (int64_t c = c_end - 1; c >= c0; --c) {
          const uint64_t code = src[c * in_pixels];
          b0 = (b0 << 1) | (code & 1);
          if constexpr (kPlanes > 1) b1 = (b1 << 1) | ((code >> 1) & 1);
          if constexpr (kPlanes > 2) b2 = (b2 << 1) | ((code >> 2) & 1);
          if constexpr (kPlanes > 3) b3 = (b3 << 1) | ((code >> 3) & 1);
          if constexpr (kPlanes > 4) b4 = (b4 << 1) | ((code >> 4) & 1);
          if constexpr (kPlanes > 5) b5 = (b5 << 1) | ((code >> 5) & 1);
          if constexpr (kPlanes > 6) b6 = (b6 << 1) | ((code >> 6) & 1);
          if constexpr (kPlanes > 7) b7 = (b7 << 1) | ((code >> 7) & 1);
        }
        const uint64_t bits[8] = {b0, b1, b2, b3, b4, b5, b6, b7};
        const int64_t pos = (x + g.pad) * channels + c0;
        const int shift = static_cast<int>(pos & 63);
        uint64_t* word = line + (pos >> 6);
        for (int b = 0; b < kPlanes; ++b) {
          word[b * line_words] |= bits[b] << shift;
          // The high part, or nothing when the run starts a word.
          word[b * line_words + 1] |= (bits[b] >> 1) >> (63 - shift);
        }
      }
    }
  }
}

using PackFn = void (*)(const uint8_t*, const gemm::ConvGeometry&, int64_t,
                        int64_t, int64_t, uint64_t*);
constexpr PackFn kPackPlanes[] = {pack_planes<1>, pack_planes<2>,
                                  pack_planes<3>, pack_planes<4>,
                                  pack_planes<5>, pack_planes<6>,
                                  pack_planes<7>, pack_planes<8>};

/// One band's activation pack: padded rows [row0, …) into `planes`.
struct PackCtx {
  PackFn pack;
  const uint8_t* frame;
  const gemm::ConvGeometry* g;
  int64_t line_words;
  int64_t row_words;  ///< A · line_words
  int64_t row0;
  uint64_t* planes;
};

/// parallel_for body: zeroes and packs padded rows [lo, hi).
void pack_rows(int64_t lo, int64_t hi, void* raw) {
  const PackCtx& c = *static_cast<const PackCtx*>(raw);
  uint64_t* out = c.planes + (lo - c.row0) * c.row_words;
  std::memset(out, 0, static_cast<size_t>((hi - lo) * c.row_words) *
                          sizeof(uint64_t));
  c.pack(c.frame, *c.g, c.line_words, lo, hi, out);
}

}  // namespace

const char* popcount_tier_name(PopcountTier t) {
  switch (t) {
    case PopcountTier::kAuto: return "auto";
    case PopcountTier::kScalar: return "scalar";
    case PopcountTier::kPopcnt: return "popcnt";
    case PopcountTier::kAvx512Vpopcntdq: return "avx512_vpopcntdq";
  }
  return "?";
}

bool popcount_tier_supported(PopcountTier t) {
  switch (t) {
    case PopcountTier::kAuto: return false;
    case PopcountTier::kScalar: return true;
    case PopcountTier::kPopcnt:
#ifdef TINCY_HAS_POPCNT_TIER
    {
      static const bool has = __builtin_cpu_supports("popcnt");
      return has;
    }
#else
      return false;
#endif
    case PopcountTier::kAvx512Vpopcntdq:
      return avx512_popcount_kernels() != nullptr;
  }
  return false;
}

PopcountTier resolve_popcount_tier(PopcountTier requested) {
  if (requested != PopcountTier::kAuto && popcount_tier_supported(requested))
    return requested;
  if (popcount_tier_supported(PopcountTier::kAvx512Vpopcntdq))
    return PopcountTier::kAvx512Vpopcntdq;
  return popcount_tier_supported(PopcountTier::kPopcnt) ? PopcountTier::kPopcnt
                                                        : PopcountTier::kScalar;
}

std::vector<PopcountTier> dispatchable_popcount_tiers() {
  std::vector<PopcountTier> v{PopcountTier::kScalar};
  for (const PopcountTier t :
       {PopcountTier::kPopcnt, PopcountTier::kAvx512Vpopcntdq})
    if (popcount_tier_supported(t)) v.push_back(t);
  return v;
}

const PopcountKernels& popcount_kernels(PopcountTier resolved) {
  switch (resolved) {
#ifdef TINCY_HAS_POPCNT_TIER
    case PopcountTier::kPopcnt: return kPopcntKernels;
#endif
    case PopcountTier::kAvx512Vpopcntdq:
      if (const PopcountKernels* k = avx512_popcount_kernels()) return *k;
      break;
    default: break;
  }
  return kScalarKernels;
}

BitSerialEngine::BitSerialEngine(const gemm::ConvGeometry& g,
                                 const quant::BinaryMatrix& weights,
                                 std::vector<ThresholdChannel> thresholds,
                                 int act_bits, ActEncoding encoding)
    : geom_(g),
      rows_(weights.rows),
      kernel_row_words_((g.kernel * g.in_channels + 63) / 64),
      words_per_plane_(g.kernel * kernel_row_words_),
      act_bits_(act_bits),
      encoding_(encoding),
      thresholds_(std::move(thresholds)) {
  TINCY_CHECK_MSG(g.in_channels > 0 && g.out_height() > 0 &&
                      g.out_width() > 0,
                  "degenerate conv geometry");
  TINCY_CHECK_MSG(weights.cols == g.patch_size() &&
                      static_cast<int64_t>(weights.row_bits.size()) == rows_,
                  "weight matrix " << weights.rows << "x" << weights.cols
                                   << " for patch size " << g.patch_size());
  TINCY_CHECK_MSG(static_cast<int64_t>(thresholds_.size()) == rows_,
                  thresholds_.size() << " thresholds for " << rows_
                                     << " rows");
  TINCY_CHECK_MSG(act_bits >= 1 && act_bits <= 8, "act_bits " << act_bits);
  TINCY_CHECK_MSG(encoding == ActEncoding::kUnsigned || act_bits == 1,
                  "bipolar encoding requires 1-bit activations");

  // Dense repack in the activations' window order (kh; kw·C + c): CHW
  // im2col column c·K² + kh·K + kw moves to bit kw·C + c of kernel row
  // kh's kw_words-word segment. The K² bits of one channel are one
  // contiguous field of the source row, read 32 at a time.
  const int64_t taps = g.kernel * g.kernel;
  const int64_t channels = g.in_channels;
  weights_.assign(static_cast<size_t>(rows_ * words_per_plane_), 0);
  for (int64_t r = 0; r < rows_; ++r) {
    const BitVector& bits = weights.row_bits[static_cast<size_t>(r)];
    TINCY_CHECK(bits.size() == weights.cols);
    const uint64_t* src = bits.words().data();
    uint64_t* dst = weights_.data() + r * words_per_plane_;
    if (taps == 1) {  // K = 1: the CHW order is already the window order
      std::memcpy(dst, src,
                  static_cast<size_t>(words_per_plane_) * sizeof(uint64_t));
      continue;
    }
    for (int64_t c = 0; c < channels; ++c) {
      int64_t kh = 0, kw = 0;  // tap t0 + t
      for (int64_t t0 = 0; t0 < taps; t0 += 32) {
        // Up to 32 taps of channel c: bits [c·K² + t0, +n) of the row.
        const int64_t n = std::min<int64_t>(32, taps - t0);
        const int64_t pos = c * taps + t0;
        const int64_t bit = pos & 63;
        uint64_t field = src[pos >> 6] >> bit;
        if (bit + n > 64) field |= src[(pos >> 6) + 1] << (64 - bit);
        for (int64_t t = 0; t < n; ++t) {
          const int64_t at = kw * channels + c;
          dst[kh * kernel_row_words_ + (at >> 6)] |= ((field >> t) & 1)
                                                     << (at & 63);
          if (++kw == g.kernel) kw = 0, ++kh;
        }
      }
    }
  }
}

void BitSerialEngine::run(std::span<const uint8_t> inputs, int64_t batch,
                          std::span<uint8_t> out,
                          const BitSerialOptions& opts) const {
  TINCY_CHECK(static_cast<int64_t>(out.size()) ==
              batch * rows_ * geom_.num_patches());
  execute(inputs, batch, nullptr, out.data(), nullptr, opts);
}

void BitSerialEngine::run_pooled(std::span<const uint8_t> inputs,
                                 int64_t batch, const PoolSpec& pool,
                                 std::span<uint8_t> out,
                                 const BitSerialOptions& opts) const {
  TINCY_CHECK_MSG(pool.channels == rows_ &&
                      pool.in_height == geom_.out_height() &&
                      pool.in_width == geom_.out_width() && pool.size >= 1 &&
                      pool.stride >= 1 && pool.out_height() > 0 &&
                      pool.out_width() > 0,
                  "pool " << pool.size << "/" << pool.stride
                          << " does not fit the conv output");
  TINCY_CHECK(static_cast<int64_t>(out.size()) ==
              batch * rows_ * pool.out_height() * pool.out_width());
  execute(inputs, batch, &pool, out.data(), nullptr, opts);
}

void BitSerialEngine::accumulate(std::span<const uint8_t> inputs,
                                 int64_t batch, std::span<int32_t> acc,
                                 const BitSerialOptions& opts) const {
  TINCY_CHECK(static_cast<int64_t>(acc.size()) ==
              batch * rows_ * geom_.num_patches());
  execute(inputs, batch, nullptr, nullptr, acc.data(), opts);
}

void BitSerialEngine::execute(std::span<const uint8_t> inputs, int64_t batch,
                              const PoolSpec* pool, uint8_t* codes,
                              int32_t* acc,
                              const BitSerialOptions& opts) const {
  TINCY_CHECK_MSG(batch >= 1, "batch " << batch);
  const gemm::ConvGeometry& g = geom_;
  const int64_t in_pixels = g.in_height * g.in_width;
  TINCY_CHECK(static_cast<int64_t>(inputs.size()) ==
              batch * g.in_channels * in_pixels);

  core::ThreadPool& tp = opts.pool ? *opts.pool : core::ThreadPool::shared();
  const int64_t ops = 2 * rows_ * cols() * batch * g.num_patches();
  const bool thread = tp.threads() > 1 && ops >= opts.min_ops_to_thread;

  // Frames run one after another, each in bands of output rows (pooled
  // rows when a pool is fused). A sharded call takes the whole frame as one
  // band so every shard has work; a single-thread call packs only the
  // input rows of one kBandConvRows-row band at a time, so its retained
  // scratch stays a few KB whatever the frame size.
  const int64_t out_rows = pool ? pool->out_height() : g.out_height();
  const int64_t pool_stride = pool ? pool->stride : 1;
  const int64_t band =
      thread ? out_rows
             : std::max<int64_t>(1, kBandConvRows / pool_stride);
  // Conv rows [cy0, cy1) behind output rows [b0, b1).
  const auto conv_rows = [&](int64_t b0, int64_t b1) {
    if (!pool) return std::pair{b0, b1};
    const int64_t pad_top = (pool->size - 1) / 2;
    return std::pair{
        std::max<int64_t>(b0 * pool->stride - pad_top, 0),
        std::min((b1 - 1) * pool->stride - pad_top + pool->size,
                 g.out_height())};
  };
  // One plane of a padded row: pw·C bits, plus a zero slack word that
  // the unaligned two-word reads of the last window may touch.
  const int64_t line_words =
      ((g.in_width + 2 * g.pad) * g.in_channels + 63) / 64 + 1;
  const int64_t row_words = act_bits_ * line_words;
  const int64_t max_conv_rows =
      pool ? (band - 1) * pool->stride + pool->size : band;
  const int64_t max_in_rows =
      std::min((max_conv_rows - 1) * g.stride + g.kernel,
               g.in_height + 2 * g.pad);

  auto& arena = gemm::thread_arena();
  gemm::ScratchScope scope(arena);
  uint64_t* planes = arena.alloc<uint64_t>(max_in_rows * row_words);
  PackCtx pack{kPackPlanes[act_bits_ - 1], nullptr, &g, line_words,
               row_words, 0, planes};
  const int64_t out_frame =
      rows_ * (pool ? pool->out_height() * pool->out_width()
                    : g.num_patches());
  ShardCtx ctx{this, &popcount_kernels(resolve_popcount_tier(opts.tier)),
               planes, 0, line_words, kernel_row_words_,
               0, 0, pool, nullptr, nullptr};
  for (int64_t f = 0; f < batch; ++f) {
    ctx.codes = codes ? codes + f * out_frame : nullptr;
    ctx.acc = acc ? acc + f * out_frame : nullptr;
    pack.frame = inputs.data() + f * g.in_channels * in_pixels;
    for (int64_t b0 = 0; b0 < out_rows; b0 += band) {
      const int64_t b1 = std::min(b0 + band, out_rows);
      const auto [cy0, cy1] = conv_rows(b0, b1);
      // Activation pack: the band's zero-padded bit-plane lines, sharded
      // by row when the call is.
      const int64_t r0 = cy0 * g.stride;
      const int64_t r1 = (cy1 - 1) * g.stride + g.kernel;
      pack.row0 = r0;
      tp.parallel_for(r0, r1, thread ? int64_t{tp.threads()} * 2 : 1,
                      pack_rows, &pack);
      ctx.row0 = r0;
      ctx.pixel_begin = cy0 * g.out_width();
      ctx.pixel_end = cy1 * g.out_width();
      const int64_t lo = pool ? b0 : 0;
      const int64_t hi =
          pool ? b1 : (ctx.pixel_end - ctx.pixel_begin + kLanes - 1) / kLanes;
      // Fine-grained chunks (8 per thread) keep the tail balanced.
      const int64_t chunks =
          thread ? std::min<int64_t>(hi - lo, int64_t{tp.threads()} * 8) : 1;
      tp.parallel_for(lo, hi, chunks, run_shard, &ctx);
    }
  }
}

}  // namespace tincy::fabric
