#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/ring_queue.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "common/zipf.h"

namespace tpart {
namespace {

// ---- Status / Result --------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing key 42");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Internal("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  TPART_ASSIGN_OR_RETURN(int h, Half(x));
  TPART_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3, odd
}

// ---- Rng ---------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(11);
  std::map<std::uint64_t, int> seen;
  for (int i = 0; i < 1000; ++i) seen[rng.NextBelow(5)]++;
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng rng(13);
  int truthy = 0;
  for (int i = 0; i < 10000; ++i) truthy += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(truthy / 10000.0, 0.3, 0.03);
}

// ---- Zipf --------------------------------------------------------------

TEST(ZipfTest, ThetaZeroIsUniform) {
  Rng rng(1);
  ZipfGenerator zipf(10, 0.0);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) counts[zipf.Next(rng)]++;
  for (const auto& [v, c] : counts) {
    EXPECT_LT(v, 10u);
    EXPECT_NEAR(c / 20000.0, 0.1, 0.03);
  }
}

TEST(ZipfTest, SkewConcentratesOnSmallIds) {
  Rng rng(2);
  ZipfGenerator zipf(1000, 0.9);
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Next(rng) < 10) ++head;
  }
  // Top 1% of keys should receive far more than 1% of accesses.
  EXPECT_GT(head, n / 10);
}

TEST(ZipfTest, ValuesAlwaysInRange) {
  Rng rng(3);
  ZipfGenerator zipf(37, 0.7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Next(rng), 37u);
}

// ---- RunningStat / Histogram --------------------------------------------

TEST(RunningStatTest, BasicMoments) {
  RunningStat s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, MergeMatchesCombined) {
  RunningStat a, b, all;
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.NextDouble() * 10;
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(HistogramTest, CountMeanMax) {
  Histogram h;
  h.Add(1);
  h.Add(3);
  h.Add(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.mean(), (1 + 3 + 1000) / 3.0, 1e-9);
  EXPECT_EQ(h.max_value(), 1000u);
}

TEST(HistogramTest, QuantileMonotone) {
  Histogram h;
  for (std::uint64_t i = 1; i <= 1000; ++i) h.Add(i);
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.99));
  EXPECT_GT(h.Quantile(0.99), 500u);
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a, b;
  a.Add(5);
  b.Add(7);
  b.Add(100000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max_value(), 100000u);
}

// ---- Types --------------------------------------------------------------

TEST(TypesTest, ObjectKeyPacksTableAndPk) {
  const ObjectKey k = MakeObjectKey(7, 123456789);
  EXPECT_EQ(TableOf(k), 7u);
  EXPECT_EQ(PrimaryKeyOf(k), 123456789u);
}

TEST(TypesTest, DistinctTablesYieldDistinctKeys) {
  EXPECT_NE(MakeObjectKey(1, 5), MakeObjectKey(2, 5));
}

// ---- RingQueue ----------------------------------------------------------

std::vector<int> Contents(const RingQueue<int>& q) {
  return std::vector<int>(q.begin(), q.end());
}

TEST(RingQueueTest, KeepsOrderAcrossWraparoundWithoutGrowing) {
  RingQueue<int> q;
  for (int i = 0; i < 6; ++i) q.push_back(i);
  const std::size_t capacity = q.capacity();
  ASSERT_GE(capacity, 6u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  // The tail wraps past the end of the buffer into the freed slots.
  for (int i = 6; i < 6 + static_cast<int>(capacity) - 1; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), capacity);
  EXPECT_EQ(q.capacity(), capacity);
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(q[i], static_cast<int>(5 + i));
  }
  EXPECT_EQ(q.back(), static_cast<int>(4 + capacity));
}

TEST(RingQueueTest, GrowsInOrderWhileTheHeadIsNotAtSlotZero) {
  RingQueue<int> q;
  for (int i = 0; i < 8; ++i) q.push_back(i);
  const std::size_t capacity = q.capacity();
  for (int i = 0; i < 3; ++i) q.pop_front();
  // Fill the ring (its live range now wraps), then push past it.
  int next = 8;
  while (q.size() < capacity) q.push_back(next++);
  EXPECT_EQ(q.capacity(), capacity);
  for (int i = 0; i < 5; ++i) q.push_back(next++);
  EXPECT_EQ(q.capacity(), 2 * capacity);
  std::vector<int> expected;
  for (int i = 3; i < next; ++i) expected.push_back(i);
  EXPECT_EQ(Contents(q), expected);
}

TEST(RingQueueTest, PopAndPrefixTruncationReleaseWhatElementsOwn) {
  const auto resource = std::make_shared<int>(7);
  RingQueue<std::shared_ptr<int>> q;
  for (int i = 0; i < 6; ++i) q.push_back(resource);
  const std::size_t capacity = q.capacity();
  EXPECT_EQ(resource.use_count(), 7);
  q.pop_front();
  EXPECT_EQ(resource.use_count(), 6);
  q.erase_front(3);
  EXPECT_EQ(resource.use_count(), 3);
  EXPECT_EQ(q.size(), 2u);
  q.erase_front(0);
  EXPECT_EQ(q.size(), 2u);
  q.clear();
  EXPECT_EQ(resource.use_count(), 1);
  EXPECT_TRUE(q.empty());
  // The buffer stays for the next elements.
  EXPECT_EQ(q.capacity(), capacity);
  q.push_back(resource);
  {
    RingQueue<std::shared_ptr<int>> moved(std::move(q));
    EXPECT_EQ(moved.size(), 1u);
    EXPECT_EQ(resource.use_count(), 2);
  }
  EXPECT_EQ(resource.use_count(), 1);  // the moved-to queue released it
}

TEST(RingQueueTest, IteratesFrontToBackAndWritesThroughIterators) {
  RingQueue<int> q;
  for (int i = 0; i < 8; ++i) q.push_back(i);
  q.erase_front(5);
  for (int i = 8; i < 12; ++i) q.push_back(i);  // wraps
  EXPECT_EQ(Contents(q), (std::vector<int>{5, 6, 7, 8, 9, 10, 11}));
  for (int& v : q) v *= 10;
  const RingQueue<int>& cq = q;
  int expected = 50;
  for (const int v : cq) {
    EXPECT_EQ(v, expected);
    expected += 10;
  }
  EXPECT_EQ(expected, 120);
}

TEST(RingQueueTest, MatchesStdDequeOverRandomPushesAndPops) {
  Rng rng(0x5EED);
  RingQueue<int> q;
  std::deque<int> ref;
  for (int op = 0; op < 100'000; ++op) {
    const std::uint64_t roll = rng.NextBelow(100);
    if (roll < 55) {
      const int v = static_cast<int>(rng.NextBelow(1'000'000));
      q.push_back(v);
      ref.push_back(v);
    } else if (roll < 90) {
      if (!ref.empty()) {
        ASSERT_EQ(q.front(), ref.front()) << "op " << op;
        q.pop_front();
        ref.pop_front();
      }
    } else {
      const std::size_t n = rng.NextBelow(ref.size() + 1);
      q.erase_front(n);
      ref.erase(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(n));
    }
    ASSERT_EQ(q.size(), ref.size()) << "op " << op;
    if (!ref.empty()) {
      ASSERT_EQ(q.back(), ref.back()) << "op " << op;
      const std::size_t i = rng.NextBelow(ref.size());
      ASSERT_EQ(q[i], ref[i]) << "op " << op;
    }
    if (op % 1000 == 0) {
      ASSERT_TRUE(std::equal(q.begin(), q.end(), ref.begin(), ref.end()))
          << "op " << op;
    }
  }
}

}  // namespace
}  // namespace tpart
