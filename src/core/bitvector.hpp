#pragma once

/// \file bitvector.hpp
/// Bit-packed vectors with population-count kernels. These model the
/// on-fabric storage of binarized weights and activation bit-planes inside
/// the FINN-style accelerator: a binary dot product becomes an XNOR +
/// popcount over 64-bit words.

#include <cstdint>
#include <vector>

#include "core/errors.hpp"

namespace tincy {

/// Fixed-length packed bit vector (little-endian within each 64-bit word).
class BitVector {
 public:
  BitVector() = default;

  /// Creates an all-zero vector of `size` bits.
  explicit BitVector(int64_t size);

  /// Creates a `size`-bit vector from ceil(size/64) packed little-endian
  /// words; bits past `size` in the last word are cleared.
  static BitVector from_words(int64_t size, const uint64_t* words);

  int64_t size() const { return size_; }

  bool get(int64_t i) const;
  void set(int64_t i, bool value);

  /// Number of set bits.
  int64_t popcount() const;

  /// Raw packed words; trailing bits past size() are guaranteed zero.
  const std::vector<uint64_t>& words() const { return words_; }

  bool operator==(const BitVector& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

 private:
  friend int64_t popcount_and(const BitVector&, const BitVector&);
  friend int64_t popcount_andnot(const BitVector&, const BitVector&);
  friend int64_t xnor_popcount(const BitVector&, const BitVector&);

  int64_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// popcount(a & b) — bits set in both vectors. Sizes must match.
int64_t popcount_and(const BitVector& a, const BitVector& b);

/// popcount(~a & b) — bits set in b but not a. Sizes must match.
int64_t popcount_andnot(const BitVector& a, const BitVector& b);

/// popcount(~(a ^ b)) over the first size() bits — the agreement count used
/// by fully binarized (W1A1) dot products. Sizes must match.
int64_t xnor_popcount(const BitVector& a, const BitVector& b);

/// Signed binary dot product of ±1 weights (bit=1 means +1, bit=0 means −1)
/// with a {0,1} activation bit-plane: Σ w_i·a_i = popcount(w∧a) − popcount(¬w∧a).
int64_t signed_binary_dot(const BitVector& sign_bits,
                          const BitVector& activation_plane);

}  // namespace tincy
