#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "core/shape.hpp"
#include "core/string_utils.hpp"
#include "core/tensor.hpp"
#include "core/thread_pool.hpp"

namespace tincy {
namespace {

TEST(Shape, BasicProperties) {
  const Shape s{3, 416, 416};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 3 * 416 * 416);
  EXPECT_EQ(s.channels(), 3);
  EXPECT_EQ(s.height(), 416);
  EXPECT_EQ(s.width(), 416);
  EXPECT_EQ(s.to_string(), "(3, 416, 416)");
}

TEST(Shape, NegativeAxis) {
  const Shape s{2, 5, 7};
  EXPECT_EQ(s.dim(-1), 7);
  EXPECT_EQ(s.dim(-3), 2);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({1, 2}), Shape({1, 2}));
  EXPECT_NE(Shape({1, 2}), Shape({2, 1}));
  EXPECT_NE(Shape({1, 2}), Shape({1, 2, 1}));
}

TEST(Shape, EmptyShapeNumelIsOne) { EXPECT_EQ(Shape{}.numel(), 1); }

TEST(Shape, OutOfRangeAxisThrows) {
  const Shape s{2, 3};
  EXPECT_THROW(s.dim(2), Error);
  EXPECT_THROW(s.dim(-3), Error);
}

TEST(Shape, TooManyDimsThrows) {
  EXPECT_THROW(Shape({1, 2, 3, 4, 5}), Error);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape{2, 3});
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, ChwIndexing) {
  Tensor t(Shape{2, 3, 4});
  t.at(1, 2, 3) = 5.0f;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 5.0f);
  EXPECT_THROW(t.at(2, 0, 0), Error);
  EXPECT_THROW(t.at(0, 3, 0), Error);
}

TEST(Tensor, Reshape) {
  Tensor t(Shape{2, 6});
  t.reshape(Shape{3, 4});
  EXPECT_EQ(t.shape(), Shape({3, 4}));
  EXPECT_THROW(t.reshape(Shape{5}), Error);
}

TEST(Tensor, RowColIndexing) {
  Tensor t(Shape{2, 3});
  t.at2(1, 2) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const float f = rng.uniform(-2.0f, 3.0f);
    EXPECT_GE(f, -2.0f);
    EXPECT_LT(f, 3.0f);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

// --- Rng::fill_normal: bit for bit the scalar normal() calls -----------

/// Sizes around every path edge: tiny, odd, the caller floor and a band
/// boundary of the pooled path (one either side of each).
std::vector<int64_t> fill_normal_sizes() {
  const int64_t floor = Rng::kBulkNormalFloor;
  const int64_t band_edge = floor + 2 * Rng::kNormalBandPairs;
  return {0, 1, 2, 3, 1001, floor - 1, floor, floor + 1,
          band_edge - 1, band_edge, band_edge + 1};
}

/// fill_normal on `pool` equals n scalar normal(mean, stddev) calls, with
/// and without a cached normal pending before the call; the generators
/// end in the same state (cached normal included).
void expect_fill_matches_scalar(core::ThreadPool* pool) {
  for (const bool cached_before : {false, true})
    for (const int64_t n : fill_normal_sizes()) {
      Rng bulk(42 + static_cast<uint64_t>(n)), scalar = bulk;
      if (cached_before) {  // leaves the pair's second normal cached
        const float a = bulk.normal(), b = scalar.normal();
        ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0);
      }
      std::vector<float> got(static_cast<size_t>(n), -1.0f), want(got);
      bulk.fill_normal(got, 0.25f, 1.5f, pool);
      for (float& v : want) v = scalar.normal(0.25f, 1.5f);
      ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
                0)
          << "n=" << n << " cached_before=" << cached_before;
      // Same end state: a pending cached normal (odd tails) and the stream.
      for (int i = 0; i < 3; ++i) {
        const float a = bulk.normal(), b = scalar.normal();
        ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "n=" << n;
        ASSERT_EQ(bulk(), scalar()) << "n=" << n;
      }
    }
}

TEST(Rng, FillNormalInTheCallerMatchesScalarCalls) {
  core::ThreadPool one(1);
  expect_fill_matches_scalar(&one);
}

TEST(Rng, FillNormalOnPrivatePoolMatchesScalarCalls) {
  core::ThreadPool pool(4);
  expect_fill_matches_scalar(&pool);
}

TEST(Rng, FillNormalConcurrentCallersShareOnePool) {
  // Two callers with their own generators run banded fills on one pool at
  // once; each result is its scalar sequence (the TSan target).
  core::ThreadPool pool(4);
  const int64_t n = Rng::kBulkNormalFloor + 3 * Rng::kNormalBandPairs + 1;
  const auto caller = [&](uint64_t seed, int* mismatches) {
    Rng bulk(seed), scalar(seed);
    std::vector<float> got(static_cast<size_t>(n)), want(got.size());
    for (int rep = 0; rep < 3; ++rep) {
      bulk.fill_normal(got, 0.0f, 0.03f, &pool);
      for (float& v : want) v = scalar.normal(0.0f, 0.03f);
      *mismatches +=
          std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0;
    }
  };
  int bad_a = 0, bad_b = 0;
  std::thread a(caller, 7, &bad_a), b(caller, 8, &bad_b);
  a.join();
  b.join();
  EXPECT_EQ(bad_a, 0);
  EXPECT_EQ(bad_b, 0);
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  abc \t"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
}

TEST(StringUtils, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtils, ParseKeyValue) {
  std::string k, v;
  EXPECT_TRUE(parse_key_value(" filters = 16 ", k, v));
  EXPECT_EQ(k, "filters");
  EXPECT_EQ(v, "16");
  EXPECT_FALSE(parse_key_value("no equals here", k, v));
}

TEST(StringUtils, ParseIntStrict) {
  EXPECT_EQ(parse_int(" 42 "), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_THROW(parse_int("4x"), Error);
  EXPECT_THROW(parse_int(""), Error);
}

TEST(StringUtils, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(parse_double("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parse_double("-2e3"), -2000.0);
  EXPECT_THROW(parse_double("abc"), Error);
}

TEST(StringUtils, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(6971272984), "6,971,272,984");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

}  // namespace
}  // namespace tincy
