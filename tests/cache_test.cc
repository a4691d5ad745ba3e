#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "cache/cache_area.h"

namespace tpart {
namespace {

TEST(CacheAreaTest, VersionEntryIsConsumedByItsReader) {
  CacheArea cache;
  cache.PutVersion(1, 10, 20, Record{42});
  EXPECT_TRUE(cache.HasVersion(1, 10, 20));
  auto v = cache.AwaitVersion(1, 10, 20);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->field(0), 42);
  EXPECT_FALSE(cache.HasVersion(1, 10, 20));  // invalidated on read (§5.2)
  EXPECT_EQ(cache.num_version_entries(), 0u);
}

TEST(CacheAreaTest, VersionEntriesAreKeyedByTriple) {
  CacheArea cache;
  cache.PutVersion(1, 10, 20, Record{1});
  cache.PutVersion(1, 10, 21, Record{2});
  cache.PutVersion(1, 11, 20, Record{3});
  EXPECT_EQ(cache.num_version_entries(), 3u);
  EXPECT_EQ(cache.AwaitVersion(1, 10, 21)->field(0), 2);
  EXPECT_EQ(cache.num_version_entries(), 2u);
}

TEST(CacheAreaTest, AwaitBlocksUntilPut) {
  CacheArea cache;
  std::optional<Record> got;
  std::thread reader([&] { got = cache.AwaitVersion(5, 1, 2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.PutVersion(5, 1, 2, Record{9});
  reader.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->field(0), 9);
}

TEST(CacheAreaTest, EpochEntryServesMultipleReadersThenFrees) {
  CacheArea cache;
  cache.PublishEpochEntry(1, 10, 3, Record{7});
  // Two readers; the second announces the total and frees the entry.
  auto v1 = cache.TryEpochEntry(1, 10, /*invalidate=*/false, 0);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(cache.num_epoch_entries(), 1u);
  auto v2 = cache.TryEpochEntry(1, 10, /*invalidate=*/true, 2);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(cache.num_epoch_entries(), 0u);
}

TEST(CacheAreaTest, InvalidatingReadMayArriveBeforeOthers) {
  // The invalidater announces total=3 but only 1 read has been served;
  // the entry must survive until the remaining reads arrive.
  CacheArea cache;
  cache.PublishEpochEntry(1, 10, 3, Record{7});
  ASSERT_TRUE(cache.TryEpochEntry(1, 10, true, 3).has_value());
  EXPECT_EQ(cache.num_epoch_entries(), 1u);
  ASSERT_TRUE(cache.TryEpochEntry(1, 10, false, 0).has_value());
  EXPECT_EQ(cache.num_epoch_entries(), 1u);
  ASSERT_TRUE(cache.TryEpochEntry(1, 10, false, 0).has_value());
  EXPECT_EQ(cache.num_epoch_entries(), 0u);
}

TEST(CacheAreaTest, TryEpochEntryNonBlocking) {
  CacheArea cache;
  EXPECT_FALSE(cache.TryEpochEntry(1, 10, false, 0).has_value());
  cache.PublishEpochEntry(1, 10, 1, Record{5});
  EXPECT_TRUE(cache.TryEpochEntry(1, 10, false, 0).has_value());
}

TEST(CacheAreaTest, StickyEntriesVersionCheckedAndExpiring) {
  CacheArea cache;
  cache.PutSticky(1, /*version=*/10, Record{3}, /*expire_epoch=*/5);
  EXPECT_TRUE(cache.ReadSticky(1, 10, 4).has_value());
  EXPECT_TRUE(cache.ReadSticky(1, 10, 5).has_value());
  EXPECT_FALSE(cache.ReadSticky(1, 11, 4).has_value());  // wrong version
  EXPECT_FALSE(cache.ReadSticky(1, 10, 6).has_value());  // expired
  EXPECT_EQ(cache.sticky_hits(), 2u);
  cache.EvictExpiredSticky(6);
  EXPECT_EQ(cache.num_sticky_entries(), 0u);
}

TEST(CacheAreaTest, ShutdownReleasesWaiters) {
  CacheArea cache;
  std::optional<Record> got = Record{1};
  std::thread reader([&] { got = cache.AwaitVersion(9, 9, 9); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cache.Shutdown();
  reader.join();
  EXPECT_FALSE(got.has_value());
}

TEST(CacheAreaTest, PeakEntriesTracksHighWaterMark) {
  CacheArea cache;
  cache.PutVersion(1, 1, 2, Record{});
  cache.PutVersion(2, 1, 2, Record{});
  cache.AwaitVersion(1, 1, 2);
  cache.AwaitVersion(2, 1, 2);
  cache.PutVersion(3, 1, 2, Record{});
  EXPECT_EQ(cache.peak_entries(), 2u);
}


TEST(CacheAreaTest, MissingEntriesTimeOutInsteadOfHanging) {
  // A lost push or epoch entry must never hang its reader: the probes a
  // machine's loop parks its plan on return nullopt at once, and the
  // blocking AwaitVersion gives up at its deadline without a Shutdown().
  CacheArea cache;
  EXPECT_FALSE(cache.TakeVersion(1, 2, 3).has_value());
  EXPECT_FALSE(cache.TryEpochEntry(1, 2, false, 0).has_value());
  EXPECT_EQ(cache.num_epoch_entries(), 0u);  // a miss serves no read
  const auto deadline = std::chrono::milliseconds(20);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(cache.AwaitVersion(1, 2, 3, deadline).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, deadline);
}

TEST(CacheAreaTest, PresentEntriesAreConsumedUnderADeadline) {
  CacheArea cache;
  const auto deadline = std::chrono::milliseconds(20);
  cache.PutVersion(1, 10, 20, Record{42});
  auto v = cache.AwaitVersion(1, 10, 20, deadline);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->field(0), 42);
  // Consumed by that read: a second wait finds nothing.
  EXPECT_FALSE(cache.AwaitVersion(1, 10, 20, deadline).has_value());

  // The consuming probe behaves the same.
  cache.PutVersion(2, 10, 20, Record{43});
  auto t = cache.TakeVersion(2, 10, 20);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->field(0), 43);
  EXPECT_FALSE(cache.TakeVersion(2, 10, 20).has_value());

  cache.PublishEpochEntry(1, 10, 3, Record{7});
  auto e = cache.TryEpochEntry(1, 10, /*invalidate=*/true, 1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->field(0), 7);
  EXPECT_EQ(cache.num_epoch_entries(), 0u);  // its only read, then freed
}

}  // namespace
}  // namespace tpart
