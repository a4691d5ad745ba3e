#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/storage_service.h"

namespace tpart {
namespace {

// Reads through AsyncRead and waits for the callback. A read still parked
// after the test timeout fails the test instead of hanging it; the shared
// promise outlives a read that is served after that.
Record Read(StorageService& svc, ObjectKey key, TxnId version) {
  auto done = std::make_shared<std::promise<Record>>();
  std::future<Record> got = done->get_future();
  svc.AsyncRead(key, version,
                [done](Record value) { done->set_value(std::move(value)); });
  if (got.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ADD_FAILURE() << "read of key " << key << " v" << version
                  << " still parked";
    return Record::Absent();
  }
  return got.get();
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

TEST(StorageServiceTest, ShutdownNeverAnswersARemoteRead) {
  // A failed run shuts machines down one at a time, so a remote requester
  // may still be executing: an absent placeholder sent to it would run a
  // procedure on a record that does not exist. Only local readers, parked
  // or arriving after shutdown, get the placeholder.
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store);
  std::vector<Record> local;
  std::vector<Record> remote;
  const auto local_done = [&](Record v) { local.push_back(std::move(v)); };
  const auto remote_done = [&](Record v) { remote.push_back(std::move(v)); };
  // Parked: version 5 of key 1 never arrives.
  svc.AsyncRead(1, /*expected=*/5, local_done);
  svc.AsyncRead(1, /*expected=*/5, remote_done,
                StorageService::RemoteReadTag{/*reply_to=*/2, /*req_id=*/7});
  svc.Shutdown();
  ASSERT_EQ(local.size(), 1u);
  EXPECT_TRUE(local[0].is_absent());
  EXPECT_TRUE(remote.empty());
  // Arriving after shutdown, for the version that is current.
  svc.AsyncRead(1, kInvalidTxnId, local_done);
  svc.AsyncRead(1, kInvalidTxnId, remote_done,
                StorageService::RemoteReadTag{/*reply_to=*/2, /*req_id=*/8});
  ASSERT_EQ(local.size(), 2u);
  EXPECT_TRUE(local[1].is_absent());
  EXPECT_TRUE(remote.empty());
}


// ---------------------------------------------------------------------
// Incremental checkpoint image (FoldChanges / Restore).
// ---------------------------------------------------------------------

using Image = StorageService::Image;
using RemoteReadTag = StorageService::RemoteReadTag;

// Parks (or serves) a read on behalf of a remote requester; the reply is
// recorded in `replies` as (req_id, value).
void RemoteRead(StorageService& svc, ObjectKey key, TxnId expected,
                RemoteReadTag tag,
                std::vector<std::pair<std::uint64_t, Record>>* replies) {
  svc.AsyncRead(
      key, expected,
      [replies, tag](Record v) { replies->emplace_back(tag.req_id, v); },
      tag);
}

// A copy of the image entry for `key`: a failure, and an empty entry,
// when the image has none.
Image::KeyImage Entry(const Image& image, ObjectKey key) {
  const auto it = image.keys.find(key);
  EXPECT_TRUE(it != image.keys.end()) << "no image entry for key " << key;
  return it == image.keys.end() ? Image::KeyImage{} : it->second;
}

// The image's entries in key order (the map's own order is unspecified).
std::vector<std::pair<ObjectKey, Image::KeyImage>> Sorted(const Image& image) {
  std::vector<std::pair<ObjectKey, Image::KeyImage>> out;
  for (const auto& [key, ki] : image.keys) out.emplace_back(key, ki);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void Load(KvStore& store, ObjectKey n) {
  for (ObjectKey k = 0; k < n; ++k) {
    store.Upsert(k, Record{static_cast<std::int64_t>(k)});
  }
}

TEST(StorageServiceTest, FoldTakesOnlyKeysChangedSinceTheLastFold) {
  KvStore store;
  Load(store, 100);
  StorageService svc(&store);
  for (ObjectKey k = 0; k < 100; ++k) Read(svc, k, kInvalidTxnId);

  Image image;
  std::vector<ObjectKey> written;
  EXPECT_EQ(svc.FoldChanges(image, written), 100u);
  EXPECT_EQ(image.keys.size(), 100u);
  EXPECT_TRUE(written.empty());  // reads change state, not records

  // Touch k = 3 of the 100 keys: a read, a write-back, a parked remote
  // read. The next fold visits exactly those three.
  std::vector<std::pair<std::uint64_t, Record>> replies;
  Read(svc, 3, kInvalidTxnId);
  svc.ApplyWriteBack(50, /*version=*/7, kInvalidTxnId, Record{500},
                     /*awaits=*/1, /*sticky=*/false, /*epoch=*/1);
  RemoteRead(svc, 97, /*expected=*/9, RemoteReadTag{1, 42}, &replies);
  EXPECT_EQ(svc.FoldChanges(image, written), 3u);
  EXPECT_EQ(written, std::vector<ObjectKey>{50});
  EXPECT_EQ(image.keys.size(), 100u);
  EXPECT_EQ(Entry(image, 3).reads_served_since_wb, 2u);
  EXPECT_EQ(Entry(image, 50).current, 7u);
  ASSERT_EQ(Entry(image, 97).parked_remote_reads.size(), 1u);
  EXPECT_EQ(Entry(image, 97).parked_remote_reads[0].tag.req_id, 42u);

  // Nothing changed since: an empty fold.
  written.clear();
  EXPECT_EQ(svc.FoldChanges(image, written), 0u);
  EXPECT_TRUE(written.empty());
  EXPECT_TRUE(replies.empty());
}

TEST(StorageServiceTest, InterleavedFoldsMatchOneFoldAtTheEnd) {
  // The same operations on two services: one folds after every step, the
  // other once at the end. Both images (and the union of the keys whose
  // records they refreshed) must agree.
  std::vector<std::pair<std::uint64_t, Record>> replies;
  const std::vector<std::function<void(StorageService&)>> steps = {
      [](StorageService& s) { Read(s, 1, kInvalidTxnId); },
      [&](StorageService& s) {
        RemoteRead(s, 2, /*expected=*/5, RemoteReadTag{1, 100}, &replies);
      },
      [](StorageService& s) {
        // Serves the parked remote read of key 2.
        s.ApplyWriteBack(2, 5, kInvalidTxnId, Record{50}, 0, false, 1);
      },
      [](StorageService& s) {
        // Gated on one read of the initial version of key 3.
        s.ApplyWriteBack(3, 9, kInvalidTxnId, Record{90}, 1, true, 1);
      },
      [&](StorageService& s) {
        RemoteRead(s, 4, /*expected=*/8, RemoteReadTag{2, 101}, &replies);
      },
      [](StorageService& s) { Read(s, 3, kInvalidTxnId); },  // opens wb(3)
      [](StorageService& s) {
        // Replaces a version that never becomes current: stays parked.
        s.ApplyWriteBack(5, 7, /*replaces=*/6, Record{70}, 0, false, 2);
      },
      [](StorageService& s) {
        s.ApplyWriteBack(5, 11, /*replaces=*/10, Record{110}, 0, false, 3);
      },
      [](StorageService& s) { Read(s, 1, kInvalidTxnId); },
      [](StorageService& s) {
        s.ApplyWriteBack(1, 12, kInvalidTxnId, Record{120}, 2, false, 3);
      },
  };

  KvStore store_a;
  KvStore store_b;
  Load(store_a, 8);
  Load(store_b, 8);
  StorageService a(&store_a);
  StorageService b(&store_b);
  Image image_a;
  Image image_b;
  std::set<ObjectKey> written_a;
  std::vector<ObjectKey> written;
  for (const auto& step : steps) {
    step(a);
    written.clear();
    a.FoldChanges(image_a, written);
    written_a.insert(written.begin(), written.end());
  }
  for (const auto& step : steps) step(b);
  written.clear();
  b.FoldChanges(image_b, written);
  const std::set<ObjectKey> written_b(written.begin(), written.end());

  EXPECT_EQ(Sorted(image_a), Sorted(image_b));
  EXPECT_EQ(written_a, written_b);
  EXPECT_EQ(written_b, (std::set<ObjectKey>{1, 2, 3}));
  // Spot-check the image itself.
  EXPECT_EQ(image_b.keys.size(), 5u);
  EXPECT_EQ(Entry(image_b, 1).current, 12u);
  EXPECT_TRUE(Entry(image_b, 3).has_sticky);
  ASSERT_EQ(Entry(image_b, 5).parked_wbs.size(), 2u);
  EXPECT_EQ(Entry(image_b, 5).parked_wbs[0].replaces, 6u);  // sorted
  EXPECT_EQ(Entry(image_b, 5).parked_wbs[1].replaces, 10u);
  EXPECT_EQ(Entry(image_b, 4).parked_remote_reads.size(), 1u);
  EXPECT_TRUE(Entry(image_b, 2).parked_remote_reads.empty());
  EXPECT_EQ(replies.size(), 2u);  // key 2 served once on each service
}

TEST(StorageServiceTest, RestoredServiceBehavesLikeTheOriginal) {
  KvStore store_orig;
  KvStore store_restored;
  Load(store_orig, 4);
  Load(store_restored, 4);
  StorageService orig(&store_orig);
  std::vector<std::pair<std::uint64_t, Record>> orig_replies;
  // One of the two planned reads of key 1's initial version, a write-back
  // gated on both, and a remote read parked on a version of key 2.
  Read(orig, 1, kInvalidTxnId);
  orig.ApplyWriteBack(1, 7, kInvalidTxnId, Record{70}, /*awaits=*/2, false,
                      1);
  RemoteRead(orig, 2, /*expected=*/5, RemoteReadTag{3, 42}, &orig_replies);

  Image image;
  std::vector<ObjectKey> written;
  orig.FoldChanges(image, written);
  EXPECT_TRUE(written.empty());

  StorageService restored(&store_restored);
  std::vector<std::pair<std::uint64_t, Record>> restored_replies;
  std::vector<RemoteReadTag> rebuilt;
  restored.Restore(image, [&](const RemoteReadTag& tag) {
    rebuilt.push_back(tag);
    return StorageService::ReadDone([&restored_replies, tag](Record v) {
      restored_replies.emplace_back(tag.req_id, v);
    });
  });
  ASSERT_EQ(rebuilt.size(), 1u);
  EXPECT_EQ(rebuilt[0], (RemoteReadTag{3, 42}));

  // The same operations on both: the gated write-back applies after the
  // second read, and the parked remote read is served by key 2's write.
  for (auto [svc, store] :
       {std::pair{&orig, &store_orig}, std::pair{&restored, &store_restored}}) {
    EXPECT_EQ(store->Read(1)->field(0), 1);  // still gated
    EXPECT_EQ(Read(*svc, 1, kInvalidTxnId).field(0), 1);
    EXPECT_EQ(store->Read(1)->field(0), 70);
    svc->ApplyWriteBack(2, 5, kInvalidTxnId, Record{50}, 0, false, 2);
    EXPECT_EQ(Read(*svc, 2, 5).field(0), 50);
  }
  ASSERT_EQ(orig_replies.size(), 1u);
  ASSERT_EQ(restored_replies.size(), 1u);
  EXPECT_EQ(orig_replies[0].first, restored_replies[0].first);
  EXPECT_EQ(orig_replies[0].second, restored_replies[0].second);

  // Folding both from the shared baseline lands on the same image.
  Image orig_image = image;
  Image restored_image = image;
  orig.FoldChanges(orig_image, written);
  restored.FoldChanges(restored_image, written);
  EXPECT_EQ(Sorted(orig_image), Sorted(restored_image));
}

TEST(StorageServiceTest, ExtractDropsAKeyFromTheImageAndInstallAddsOne) {
  KvStore store;
  Load(store, 4);
  StorageService svc(&store);
  Read(svc, 1, kInvalidTxnId);
  Read(svc, 2, kInvalidTxnId);
  Image image;
  std::vector<ObjectKey> written;
  EXPECT_EQ(svc.FoldChanges(image, written), 2u);

  // Key 9 has no state; its record still moves, so it is refreshed too.
  const auto moved = svc.ExtractKeys({1, 9});
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].key, 1u);
  written.clear();
  EXPECT_EQ(svc.FoldChanges(image, written), 1u);  // the erase of key 1
  EXPECT_EQ(image.keys.count(1), 0u);
  EXPECT_EQ(image.keys.count(2), 1u);
  std::sort(written.begin(), written.end());
  EXPECT_EQ(written, (std::vector<ObjectKey>{1, 9}));

  StorageService::MigratedKeyState in;
  in.key = 3;
  in.current = 7;
  in.reads_served_since_wb = 1;
  in.has_sticky = true;
  in.sticky_expire = 4;
  svc.InstallKeys({in});
  svc.MarkDirty({3, 5});  // installed records, with and without state
  written.clear();
  EXPECT_EQ(svc.FoldChanges(image, written), 1u);
  EXPECT_EQ(Entry(image, 3).current, 7u);
  EXPECT_EQ(Entry(image, 3).reads_served_since_wb, 1u);
  EXPECT_TRUE(Entry(image, 3).has_sticky);
  EXPECT_EQ(Entry(image, 3).sticky_expire, 4u);
  std::sort(written.begin(), written.end());
  EXPECT_EQ(written, (std::vector<ObjectKey>{3, 5}));
}

TEST(StorageServiceTest, ResetStartsTheNextFoldFromEmpty) {
  KvStore store;
  Load(store, 4);
  StorageService svc(&store);
  Read(svc, 1, kInvalidTxnId);
  svc.ApplyWriteBack(2, 5, kInvalidTxnId, Record{50}, 0, false, 1);
  svc.Reset();
  Image image;
  std::vector<ObjectKey> written;
  EXPECT_EQ(svc.FoldChanges(image, written), 0u);
  EXPECT_TRUE(image.keys.empty());
  EXPECT_TRUE(written.empty());
}

}  // namespace
}  // namespace tpart
