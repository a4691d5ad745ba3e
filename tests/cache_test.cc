#include <gtest/gtest.h>

#include "cache/cache_area.h"

namespace tpart {
namespace {

TEST(CacheAreaTest, VersionEntryIsConsumedByItsReader) {
  CacheArea cache;
  cache.PutVersion(1, 10, 20, Record{42});
  auto v = cache.TakeVersion(1, 10, 20);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->field(0), 42);
  // Invalidated on read (§5.2).
  EXPECT_FALSE(cache.TakeVersion(1, 10, 20).has_value());
  EXPECT_EQ(cache.num_version_entries(), 0u);
}

TEST(CacheAreaTest, VersionEntriesAreKeyedByTriple) {
  CacheArea cache;
  cache.PutVersion(1, 10, 20, Record{1});
  cache.PutVersion(1, 10, 21, Record{2});
  cache.PutVersion(1, 11, 20, Record{3});
  EXPECT_EQ(cache.num_version_entries(), 3u);
  EXPECT_EQ(cache.TakeVersion(1, 10, 21)->field(0), 2);
  EXPECT_EQ(cache.num_version_entries(), 2u);
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

TEST(CacheAreaTest, PeakEntriesTracksHighWaterMark) {
  CacheArea cache;
  cache.PutVersion(1, 1, 2, Record{});
  cache.PutVersion(2, 1, 2, Record{});
  cache.AwaitVersion(1, 1, 2);  // the alias consumes like TakeVersion
  cache.AwaitVersion(2, 1, 2);
  EXPECT_EQ(cache.num_version_entries(), 0u);
  cache.PutVersion(3, 1, 2, Record{});
  EXPECT_EQ(cache.peak_entries(), 2u);
}

TEST(CacheAreaTest, MissingEntriesMissWithoutServingARead) {
  // A lost push or epoch entry must never hang its reader: the probes a
  // machine's loop parks its plan on return nullopt at once.
  CacheArea cache;
  EXPECT_FALSE(cache.TakeVersion(1, 2, 3).has_value());
  EXPECT_FALSE(cache.TryEpochEntry(1, 2, false, 0).has_value());
  EXPECT_EQ(cache.num_epoch_entries(), 0u);  // a miss serves no read
  EXPECT_FALSE(cache.TakeVersion(1, 2, 3).has_value());
  EXPECT_EQ(cache.num_version_entries(), 0u);
}

TEST(CacheAreaTest, PresentEntriesAreConsumedByTheirProbe) {
  CacheArea cache;
  cache.PutVersion(1, 10, 20, Record{42});
  auto v = cache.TakeVersion(1, 10, 20);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->field(0), 42);
  // Consumed by that read: a second probe finds nothing.
  EXPECT_FALSE(cache.TakeVersion(1, 10, 20).has_value());

  // Another entry, consumed the same way.
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
