#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "runtime/storage_service.h"

namespace tpart {
namespace {

// Reads through the executor's blocking path. A read still parked after
// the test timeout fails the test instead of hanging it.
Record Read(StorageService& svc, ObjectKey key, TxnId version) {
  Result<Record> r =
      svc.BlockingReadFor(key, version, std::chrono::seconds(10));
  EXPECT_TRUE(r.ok()) << r.status().message();
  return r.ok() ? std::move(r).value() : Record::Absent();
}

TEST(StorageServiceTest, ReadsInitialVersionImmediately) {
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store);
  EXPECT_EQ(Read(svc, 1, kInvalidTxnId).field(0), 10);
  EXPECT_EQ(svc.reads_served(), 1u);
}

TEST(StorageServiceTest, MissingKeyReadsAbsent) {
  KvStore store;
  StorageService svc(&store);
  EXPECT_TRUE(Read(svc, 99, kInvalidTxnId).is_absent());
}

TEST(StorageServiceTest, ReadParksUntilExpectedVersionApplied) {
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store);
  std::atomic<bool> served{false};
  Record got;
  std::thread reader([&] {
    got = Read(svc, 1, /*expected=*/7);
    served = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(served.load());
  svc.ApplyWriteBack(1, /*version=*/7, /*replaces=*/kInvalidTxnId,
                     Record{70}, /*awaits=*/0, /*sticky=*/false,
                     /*epoch=*/1);
  reader.join();
  EXPECT_EQ(got.field(0), 70);
}

TEST(StorageServiceTest, WriteBackAwaitsOldReaders) {
  // wb(v7) must not overtake the 2 planned readers of the initial
  // version, even though it arrives first.
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store);
  svc.ApplyWriteBack(1, 7, kInvalidTxnId, Record{70}, /*awaits=*/2,
                     false, 1);
  EXPECT_EQ(store.Read(1)->field(0), 10);  // parked
  EXPECT_EQ(Read(svc, 1, kInvalidTxnId).field(0), 10);
  EXPECT_EQ(store.Read(1)->field(0), 10);  // still one reader owed
  EXPECT_EQ(Read(svc, 1, kInvalidTxnId).field(0), 10);
  EXPECT_EQ(store.Read(1)->field(0), 70);  // applied after second read
  EXPECT_EQ(svc.write_backs_applied(), 1u);
}

TEST(StorageServiceTest, WriteBacksApplyInVersionOrder) {
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store);
  // v9 arrives before v7; v9 awaits the (single) reader of v7.
  svc.ApplyWriteBack(1, 9, /*replaces=*/7, Record{90}, /*awaits=*/1,
                     false, 2);
  svc.ApplyWriteBack(1, 7, /*replaces=*/kInvalidTxnId, Record{70},
                     /*awaits=*/0, false, 1);
  EXPECT_EQ(store.Read(1)->field(0), 70);
  EXPECT_EQ(Read(svc, 1, 7).field(0), 70);
  EXPECT_EQ(store.Read(1)->field(0), 90);
}

TEST(StorageServiceTest, AbsentWriteBackDeletes) {
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store);
  svc.ApplyWriteBack(1, 3, kInvalidTxnId, Record::Absent(), 0, false, 1);
  EXPECT_FALSE(store.Contains(1));
  EXPECT_TRUE(Read(svc, 1, 3).is_absent());
}

TEST(StorageServiceTest, UndoLogCoversWriteBacks) {
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store);
  svc.ApplyWriteBack(1, 3, kInvalidTxnId, Record{30}, 0, false, 1);
  EXPECT_GE(svc.write_back_log().num_entries(), 1u);
  EXPECT_GE(svc.write_back_log().num_committed_batches(), 1u);
}

TEST(StorageServiceTest, StickyHitCounting) {
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store);
  svc.ApplyWriteBack(1, 3, kInvalidTxnId, Record{30}, 0, /*sticky=*/true, 1);
  EXPECT_EQ(Read(svc, 1, 3).field(0), 30);
  EXPECT_EQ(svc.sticky_hits(), 1u);
}

TEST(StorageServiceTest, ShutdownReleasesParkedReaders) {
  KvStore store;
  StorageService svc(&store);
  std::optional<Record> got;
  std::thread reader([&] { got = Read(svc, 1, /*expected=*/5); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  svc.Shutdown();
  reader.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->is_absent());
}

}  // namespace
}  // namespace tpart
