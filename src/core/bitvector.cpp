#include "core/bitvector.hpp"

#include <algorithm>
#include <bit>

namespace tincy {

BitVector::BitVector(int64_t size) : size_(size) {
  TINCY_CHECK_MSG(size >= 0, "size " << size);
  words_.resize(static_cast<size_t>((size + 63) / 64), 0);
}

BitVector BitVector::from_words(int64_t size, const uint64_t* words) {
  BitVector v(size);
  std::copy(words, words + v.words_.size(), v.words_.begin());
  if (size & 63) v.words_.back() &= (uint64_t{1} << (size & 63)) - 1;
  return v;
}

bool BitVector::get(int64_t i) const {
  TINCY_CHECK_MSG(i >= 0 && i < size_, "bit index " << i << " of " << size_);
  return (words_[static_cast<size_t>(i >> 6)] >> (i & 63)) & 1u;
}

void BitVector::set(int64_t i, bool value) {
  TINCY_CHECK_MSG(i >= 0 && i < size_, "bit index " << i << " of " << size_);
  const uint64_t mask = 1ull << (i & 63);
  auto& w = words_[static_cast<size_t>(i >> 6)];
  w = value ? (w | mask) : (w & ~mask);
}

int64_t BitVector::popcount() const {
  int64_t n = 0;
  for (uint64_t w : words_) n += std::popcount(w);
  return n;
}

int64_t popcount_and(const BitVector& a, const BitVector& b) {
  TINCY_CHECK(a.size_ == b.size_);
  int64_t n = 0;
  for (size_t i = 0; i < a.words_.size(); ++i)
    n += std::popcount(a.words_[i] & b.words_[i]);
  return n;
}

int64_t popcount_andnot(const BitVector& a, const BitVector& b) {
  TINCY_CHECK(a.size_ == b.size_);
  int64_t n = 0;
  for (size_t i = 0; i < a.words_.size(); ++i)
    n += std::popcount(~a.words_[i] & b.words_[i]);
  return n;
}

int64_t xnor_popcount(const BitVector& a, const BitVector& b) {
  TINCY_CHECK(a.size_ == b.size_);
  if (a.size_ == 0) return 0;
  int64_t n = 0;
  const size_t last = a.words_.size() - 1;
  for (size_t i = 0; i < last; ++i)
    n += std::popcount(~(a.words_[i] ^ b.words_[i]));
  // Mask the tail of the final word so the padding bits do not count.
  const int tail_bits = static_cast<int>(a.size_ - static_cast<int64_t>(last) * 64);
  const uint64_t mask =
      tail_bits == 64 ? ~0ull : ((1ull << tail_bits) - 1);
  n += std::popcount(~(a.words_[last] ^ b.words_[last]) & mask);
  return n;
}

int64_t signed_binary_dot(const BitVector& sign_bits,
                          const BitVector& activation_plane) {
  return popcount_and(sign_bits, activation_plane) -
         popcount_andnot(sign_bits, activation_plane);
}

}  // namespace tincy
