/// \file bitserial_avx512.cpp
/// AVX-512 VPOPCNTDQ micro-kernels of the bit-plane popcount engine
/// (PopcountTier::kAvx512Vpopcntdq).
///
/// The engine's blocks are lane-interleaved ([plane][word][lane], eight
/// 64-bit lanes = one zmm), so each weight word is broadcast once and
/// AND-ed (XOR-ed for bipolar) with all eight output pixels' activation
/// words, then counted with one VPOPCNTQ. The functions carry
/// target("avx512f,avx512vpopcntdq") so the TU builds without global ISA
/// flags; the dispatcher hands them out only when cpuid reports both
/// extensions. The arithmetic is the portable tiers' identity on 64-bit
/// lanes, so every accumulator is bit-identical.

#include "fabric/bitserial.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)

#include <immintrin.h>

namespace tincy::fabric {
namespace {

#define TINCY_AVX512 __attribute__((target("avx512f,avx512vpopcntdq")))

TINCY_AVX512 inline __m512i lane_load(const uint64_t* p) {
  return _mm512_loadu_si512(static_cast<const void*>(p));
}

// The merge-masked narrow and add-based doubling below avoid the
// _mm512_undefined_* intrinsics, which GCC 12 flags as maybe-uninitialized.
TINCY_AVX512 inline void store_i32(int32_t* dst, __m512i v) {
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(dst),
      _mm512_mask_cvtepi64_epi32(_mm256_setzero_si256(), 0xFF, v));
}

TINCY_AVX512 void avx512_unsigned(const PopcountTile& t) {
  const int64_t words = t.words;
  // pc(a_b) per lane, shared by every row of the block.
  __m512i apc[8];
  for (int b = 0; b < t.planes; ++b) {
    __m512i s = _mm512_setzero_si512();
    const uint64_t* a = t.act + b * words * kPixelLanes;
    for (int64_t i = 0; i < words; ++i)
      s = _mm512_add_epi64(s, _mm512_popcnt_epi64(lane_load(a + i * kPixelLanes)));
    apc[b] = s;
  }
  for (int64_t r = 0; r < t.rows; ++r) {
    const uint64_t* w = t.weights + r * words;
    // Horner over the planes, most significant first:
    // out = 2·out + (2·pc(w∧a_b) − pc(a_b)).
    __m512i out = _mm512_setzero_si512();
    for (int b = t.planes - 1; b >= 0; --b) {
      const uint64_t* a = t.act + b * words * kPixelLanes;
      __m512i s = _mm512_setzero_si512();
      for (int64_t i = 0; i < words; ++i) {
        const __m512i wv = _mm512_set1_epi64(static_cast<long long>(w[i]));
        s = _mm512_add_epi64(
            s, _mm512_popcnt_epi64(
                   _mm512_and_si512(wv, lane_load(a + i * kPixelLanes))));
      }
      out = _mm512_add_epi64(
          _mm512_add_epi64(out, out),
          _mm512_sub_epi64(_mm512_add_epi64(s, s), apc[b]));
    }
    store_i32(t.acc + r * kPixelLanes, out);
  }
}

TINCY_AVX512 void avx512_bipolar(const PopcountTile& t) {
  const int64_t words = t.words;
  const __m512i cols = _mm512_set1_epi64(t.cols);
  for (int64_t r = 0; r < t.rows; ++r) {
    const uint64_t* w = t.weights + r * words;
    __m512i s = _mm512_setzero_si512();
    for (int64_t i = 0; i < words; ++i) {
      const __m512i wv = _mm512_set1_epi64(static_cast<long long>(w[i]));
      s = _mm512_add_epi64(
          s, _mm512_popcnt_epi64(
                 _mm512_xor_si512(wv, lane_load(t.act + i * kPixelLanes))));
    }
    // cols − 2·pc(w⊕a)
    store_i32(t.acc + r * kPixelLanes,
              _mm512_sub_epi64(cols, _mm512_add_epi64(s, s)));
  }
}

#undef TINCY_AVX512

constexpr PopcountKernels kAvx512Kernels{avx512_unsigned, avx512_bipolar};

}  // namespace

const PopcountKernels* avx512_popcount_kernels() {
  static const PopcountKernels* k =
      __builtin_cpu_supports("avx512f") &&
              __builtin_cpu_supports("avx512vpopcntdq")
          ? &kAvx512Kernels
          : nullptr;
  return k;
}

}  // namespace tincy::fabric

#else

namespace tincy::fabric {
const PopcountKernels* avx512_popcount_kernels() { return nullptr; }
}  // namespace tincy::fabric

#endif
