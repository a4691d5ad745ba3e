#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "runtime/storage_service.h"

namespace tpart {
namespace {

using Image = StorageService::Image;
using RemoteReadTag = StorageService::RemoteReadTag;
using Replies = std::vector<std::pair<RemoteReadTag, Record>>;

// A reply function recording each answered remote read.
StorageService::ReplyFn RecordTo(Replies* replies) {
  return [replies](const RemoteReadTag& tag, Record value) {
    replies->emplace_back(tag, std::move(value));
  };
}

// The reply function of a service no remote reader uses.
StorageService::ReplyFn NoReplies() {
  return [](const RemoteReadTag& tag, Record) {
    ADD_FAILURE() << "unexpected reply to request " << tag.req_id;
  };
}

// The head plan's probe of a version that must be current.
Record Read(StorageService& svc, ObjectKey key, TxnId version) {
  std::optional<Record> got = svc.TryRead(key, version);
  if (!got.has_value()) {
    ADD_FAILURE() << "read of key " << key << " v" << version
                  << " is not current";
    return Record::Absent();
  }
  return *std::move(got);
}

TEST(StorageServiceTest, ReadsInitialVersionImmediately) {
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store, NoReplies());
  EXPECT_EQ(Read(svc, 1, kInvalidTxnId).field(0), 10);
  EXPECT_EQ(svc.reads_served(), 1u);
}

TEST(StorageServiceTest, MissingKeyReadsAbsent) {
  KvStore store;
  StorageService svc(&store, NoReplies());
  EXPECT_TRUE(Read(svc, 99, kInvalidTxnId).is_absent());
}

TEST(StorageServiceTest, ProbeMissesUntilExpectedVersionApplied) {
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store, NoReplies());
  EXPECT_FALSE(svc.TryRead(1, /*expected=*/7).has_value());
  svc.ApplyWriteBack(1, /*version=*/7, /*replaces=*/kInvalidTxnId,
                     Record{70}, /*awaits=*/0, /*sticky=*/false,
                     /*epoch=*/1);
  EXPECT_EQ(Read(svc, 1, 7).field(0), 70);
  EXPECT_EQ(svc.reads_served(), 1u);  // the miss counted nothing
}

TEST(StorageServiceTest, MissedProbeParksNothingAndOpensGatesOnlyWhenServed) {
  KvStore store;
  store.Upsert(1, Record{10});
  Replies replies;
  StorageService svc(&store, RecordTo(&replies));
  // v7 is not current: the probe misses, twice, and leaves no state.
  EXPECT_FALSE(svc.TryRead(1, /*expected=*/7).has_value());
  EXPECT_FALSE(svc.TryRead(1, /*expected=*/7).has_value());
  EXPECT_EQ(svc.reads_served(), 0u);
  EXPECT_TRUE(svc.StateKeys().empty());
  Image image;
  std::vector<ObjectKey> written;
  EXPECT_EQ(svc.FoldChanges(image, written), 0u);

  // v7 becomes current; wb(v9) replaces it once its one planned read is
  // served, and a remote reader asks for v9.
  svc.ApplyWriteBack(1, /*version=*/7, kInvalidTxnId, Record{70},
                     /*awaits=*/0, false, 1);
  svc.ApplyWriteBack(1, /*version=*/9, /*replaces=*/7, Record{90},
                     /*awaits=*/1, false, 2);
  svc.RemoteRead(1, /*expected=*/9, RemoteReadTag{/*reply_to=*/2, 5});
  // Had a miss parked a read, v7's write-back would have served it and
  // opened wb(v9)'s gate.
  EXPECT_EQ(store.Read(1)->field(0), 70);
  EXPECT_TRUE(replies.empty());

  // The same probe now serves v7; that read applies wb(v9), which answers
  // the remote read with v9.
  EXPECT_EQ(Read(svc, 1, 7).field(0), 70);
  EXPECT_EQ(store.Read(1)->field(0), 90);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].first, (RemoteReadTag{2, 5}));
  EXPECT_EQ(replies[0].second.field(0), 90);
}

TEST(StorageServiceTest, WriteBackAwaitsOldReaders) {
  // wb(v7) must not overtake the 2 planned readers of the initial
  // version, even though it arrives first.
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store, NoReplies());
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
  StorageService svc(&store, NoReplies());
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
  StorageService svc(&store, NoReplies());
  svc.ApplyWriteBack(1, 3, kInvalidTxnId, Record::Absent(), 0, false, 1);
  EXPECT_FALSE(store.Contains(1));
  EXPECT_TRUE(Read(svc, 1, 3).is_absent());
}

TEST(StorageServiceTest, StickyHitCounting) {
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store, NoReplies());
  svc.ApplyWriteBack(1, 3, kInvalidTxnId, Record{30}, 0, /*sticky=*/true, 1);
  EXPECT_EQ(Read(svc, 1, 3).field(0), 30);
  EXPECT_EQ(svc.sticky_hits(), 1u);
}

// ---------------------------------------------------------------------
// Incremental checkpoint image (FoldChanges / Restore).
// ---------------------------------------------------------------------

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

// A write-back whose gates are open when it arrives applies in place; one
// that arrives first and parks applies when its last awaited read is
// served. Both must leave the same store, counters, replies and image —
// and a write-back whose gate stays closed must park and be imaged.
TEST(StorageServiceTest, OpenGateWriteBackAppliesInPlaceLikeAParkedOne) {
  KvStore store_open;
  KvStore store_parked;
  Load(store_open, 4);
  Load(store_parked, 4);
  Replies replies_open;
  Replies replies_parked;
  StorageService open(&store_open, RecordTo(&replies_open));
  StorageService parked(&store_parked, RecordTo(&replies_parked));
  for (StorageService* svc : {&open, &parked}) {
    // A remote reader of the version about to be written waits on it.
    svc->RemoteRead(1, /*expected=*/7, RemoteReadTag{2, 11});
  }
  // Open gates: the awaited read of v0 came first.
  Read(open, 1, kInvalidTxnId);
  open.ApplyWriteBack(1, 7, kInvalidTxnId, Record{70}, /*awaits=*/1,
                      /*sticky=*/true, /*epoch=*/3);
  // Parks first: the write-back waits for that same read.
  parked.ApplyWriteBack(1, 7, kInvalidTxnId, Record{70}, /*awaits=*/1,
                        /*sticky=*/true, /*epoch=*/3);
  EXPECT_EQ(store_parked.Read(1)->field(0), 1);  // still parked
  Read(parked, 1, kInvalidTxnId);
  // A blind delete with no reader to await, on both.
  for (StorageService* svc : {&open, &parked}) {
    svc->ApplyWriteBack(2, 8, kInvalidTxnId, Record::Absent(), 0, false, 3);
  }

  for (KvStore* store : {&store_open, &store_parked}) {
    EXPECT_EQ(store->Read(1)->field(0), 70);
    EXPECT_FALSE(store->Contains(2));
  }
  EXPECT_EQ(open.write_backs_applied(), 2u);
  EXPECT_EQ(parked.write_backs_applied(), 2u);
  EXPECT_EQ(open.reads_served(), parked.reads_served());
  ASSERT_EQ(replies_open.size(), 1u);
  ASSERT_EQ(replies_parked.size(), 1u);
  EXPECT_EQ(replies_open[0].first, replies_parked[0].first);
  EXPECT_EQ(replies_open[0].second.field(0), 70);
  EXPECT_EQ(replies_parked[0].second.field(0), 70);

  Image image_open;
  Image image_parked;
  std::vector<ObjectKey> written_open;
  std::vector<ObjectKey> written_parked;
  open.FoldChanges(image_open, written_open);
  parked.FoldChanges(image_parked, written_parked);
  EXPECT_EQ(Sorted(image_open), Sorted(image_parked));
  std::sort(written_open.begin(), written_open.end());
  std::sort(written_parked.begin(), written_parked.end());
  EXPECT_EQ(written_open, (std::vector<ObjectKey>{1, 2}));
  EXPECT_EQ(written_parked, written_open);
  EXPECT_EQ(Entry(image_open, 1).current, 7u);
  EXPECT_TRUE(Entry(image_open, 1).has_sticky);
  EXPECT_EQ(Entry(image_open, 1).sticky_expire, 3 + kStickyTtl);
  EXPECT_TRUE(Entry(image_open, 1).parked_wbs.empty());

  // Closed gate: v9 awaits three reads of v7 and has had two (the remote
  // one and this one).
  Read(open, 1, 7);
  open.ApplyWriteBack(1, 9, /*replaces=*/7, Record{90}, /*awaits=*/3, false,
                      4);
  EXPECT_EQ(store_open.Read(1)->field(0), 70);
  EXPECT_EQ(open.write_backs_applied(), 2u);
  written_open.clear();
  open.FoldChanges(image_open, written_open);
  EXPECT_TRUE(written_open.empty());  // no record changed
  const Image::KeyImage key1 = Entry(image_open, 1);
  EXPECT_EQ(key1.current, 7u);
  EXPECT_EQ(key1.reads_served_since_wb, 2u);
  ASSERT_EQ(key1.parked_wbs.size(), 1u);
  EXPECT_EQ(key1.parked_wbs[0],
            (StorageService::ParkedWriteBack{9, 7, Record{90}, 3, false, 4}));
}

TEST(StorageServiceTest, FoldTakesOnlyKeysChangedSinceTheLastFold) {
  KvStore store;
  Load(store, 100);
  Replies replies;
  StorageService svc(&store, RecordTo(&replies));
  for (ObjectKey k = 0; k < 100; ++k) Read(svc, k, kInvalidTxnId);

  Image image;
  std::vector<ObjectKey> written;
  EXPECT_EQ(svc.FoldChanges(image, written), 100u);
  EXPECT_EQ(image.keys.size(), 100u);
  EXPECT_TRUE(written.empty());  // reads change state, not records

  // Touch k = 3 of the 100 keys: a read, a write-back, a parked remote
  // read. The next fold visits exactly those three.
  Read(svc, 3, kInvalidTxnId);
  svc.ApplyWriteBack(50, /*version=*/7, kInvalidTxnId, Record{500},
                     /*awaits=*/1, /*sticky=*/false, /*epoch=*/1);
  svc.RemoteRead(97, /*expected=*/9, RemoteReadTag{1, 42});
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
  Replies replies;
  const std::vector<std::function<void(StorageService&)>> steps = {
      [](StorageService& s) { Read(s, 1, kInvalidTxnId); },
      [](StorageService& s) {
        s.RemoteRead(2, /*expected=*/5, RemoteReadTag{1, 100});
      },
      [](StorageService& s) {
        // Serves the parked remote read of key 2.
        s.ApplyWriteBack(2, 5, kInvalidTxnId, Record{50}, 0, false, 1);
      },
      [](StorageService& s) {
        // Gated on one read of the initial version of key 3.
        s.ApplyWriteBack(3, 9, kInvalidTxnId, Record{90}, 1, true, 1);
      },
      [](StorageService& s) {
        s.RemoteRead(4, /*expected=*/8, RemoteReadTag{2, 101});
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
  StorageService a(&store_a, RecordTo(&replies));
  StorageService b(&store_b, RecordTo(&replies));
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
  ASSERT_EQ(replies.size(), 2u);  // key 2 served once on each service
  for (const auto& [tag, value] : replies) {
    EXPECT_EQ(tag, (RemoteReadTag{1, 100}));
    EXPECT_EQ(value.field(0), 50);  // the version it named, v5
  }
}

TEST(StorageServiceTest, RestoredServiceBehavesLikeTheOriginal) {
  KvStore store_orig;
  KvStore store_restored;
  Load(store_orig, 4);
  Load(store_restored, 4);
  Replies orig_replies;
  StorageService orig(&store_orig, RecordTo(&orig_replies));
  // One of the two planned reads of key 1's initial version, a write-back
  // gated on both, and a remote read parked on a version of key 2.
  Read(orig, 1, kInvalidTxnId);
  orig.ApplyWriteBack(1, 7, kInvalidTxnId, Record{70}, /*awaits=*/2, false,
                      1);
  orig.RemoteRead(2, /*expected=*/5, RemoteReadTag{3, 42});

  Image image;
  std::vector<ObjectKey> written;
  orig.FoldChanges(image, written);
  EXPECT_TRUE(written.empty());

  Replies restored_replies;
  StorageService restored(&store_restored, RecordTo(&restored_replies));
  restored.Restore(image);
  EXPECT_TRUE(restored_replies.empty());

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
  EXPECT_EQ(restored_replies[0].first, (RemoteReadTag{3, 42}));
  EXPECT_EQ(orig_replies[0].first, restored_replies[0].first);
  EXPECT_EQ(orig_replies[0].second, restored_replies[0].second);
  EXPECT_EQ(restored_replies[0].second.field(0), 50);

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
  StorageService svc(&store, NoReplies());
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
  StorageService svc(&store, NoReplies());
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
