// Wire-format tests: every message and plan type must survive an
// encode/decode round trip bit-for-bit, and the decoder must reject —
// never crash on or misread — truncated, corrupted, and random input.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "elastic/migration.h"
#include "net/wire.h"
#include "obs/trace_context.h"
#include "scheduler/tpart_scheduler.h"
#include "storage/data_partition.h"

namespace tpart {
namespace {

// -------------------------------------------------------------------
// Primitives
// -------------------------------------------------------------------

TEST(WirePrimitivesTest, VarintRoundTrip) {
  const std::uint64_t cases[] = {0,     1,        127,        128,
                                 16383, 16384,    0xFFFFFFFF, 1ULL << 40,
                                 ~0ULL, ~0ULL - 1};
  for (std::uint64_t v : cases) {
    std::string buf;
    WireWriter w(&buf);
    w.PutVarint(v);
    WireReader r(buf);
    std::uint64_t got = 0;
    ASSERT_TRUE(r.GetVarint(&got));
    EXPECT_EQ(got, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(WirePrimitivesTest, ZigzagRoundTrip) {
  const std::int64_t cases[] = {0,  -1, 1,       -2,      2,
                                63, 64, INT64_MIN, INT64_MAX, -123456789};
  for (std::int64_t v : cases) {
    std::string buf;
    WireWriter w(&buf);
    w.PutZigzag(v);
    WireReader r(buf);
    std::int64_t got = 0;
    ASSERT_TRUE(r.GetZigzag(&got));
    EXPECT_EQ(got, v);
  }
}

TEST(WirePrimitivesTest, SmallNegativeStaysSmall) {
  // Zigzag's point: -1 must not blow up into 10 bytes.
  std::string buf;
  WireWriter w(&buf);
  w.PutZigzag(-1);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(WirePrimitivesTest, TruncatedVarintRejected) {
  std::string buf;
  WireWriter w(&buf);
  w.PutVarint(1ULL << 40);
  for (std::size_t cut = 0; cut + 1 < buf.size(); ++cut) {
    WireReader r(std::string_view(buf.data(), cut));
    std::uint64_t got;
    EXPECT_FALSE(r.GetVarint(&got)) << "cut at " << cut;
  }
}

TEST(WirePrimitivesTest, OverlongVarintRejected) {
  // 11 continuation bytes: no valid varint is that long.
  std::string buf(11, static_cast<char>(0x80));
  buf.push_back(0x01);
  WireReader r(buf);
  std::uint64_t got;
  EXPECT_FALSE(r.GetVarint(&got));
}

// -------------------------------------------------------------------
// TxnSpec round trip
// -------------------------------------------------------------------

TxnSpec FullTxnSpec() {
  TxnSpec s;
  s.id = 91;
  s.proc = 4;
  s.params = {-7, 0, 1LL << 40};
  s.rw.reads = {3, 14, 15};
  s.rw.writes = {14};
  s.node_weight = 2.5;
  return s;
}

TEST(WireTxnSpecTest, RoundTripsBitForBit) {
  for (const TxnSpec& s : {FullTxnSpec(), MakeDummyTxn(), TxnSpec{}}) {
    std::string bytes;
    WireWriter w(&bytes);
    EncodeTxnSpec(s, w);
    WireReader r(bytes);
    TxnSpec got;
    ASSERT_TRUE(DecodeTxnSpec(r, &got));
    EXPECT_TRUE(r.AtEnd());
    EXPECT_TRUE(got == s);
  }
}

TEST(WireTxnSpecTest, NonFiniteWeightRejected) {
  // NaN breaks round-trip identity (NaN != NaN); infinities would poison
  // partition balance sums. Neither may cross the wire.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    TxnSpec s = FullTxnSpec();
    s.node_weight = bad;
    std::string bytes;
    WireWriter w(&bytes);
    EncodeTxnSpec(s, w);
    WireReader r(bytes);
    TxnSpec got;
    EXPECT_FALSE(DecodeTxnSpec(r, &got));
  }
}

// -------------------------------------------------------------------
// Message round trip
// -------------------------------------------------------------------

Message FullMessage() {
  Message m;
  m.type = Message::Type::kCacheReadResp;
  m.key = 0xDEADBEEFCAFEULL;
  m.version = 42;
  m.replaces = 41;
  m.dst_txn = 77;
  m.value = Record({1, -2, 300000000000LL}, /*padding_bytes=*/164);
  m.invalidate = true;
  m.total_reads = 3;
  m.awaits = 2;
  m.sticky = true;
  m.epoch = 9;
  m.reply_to = 2;
  m.req_id = 123456;
  m.txn = 88;
  m.term = 7;
  m.trace_ctx = obs::PackTraceCtx(/*origin=*/3, /*term=*/2);
  m.kvs = {{5, Record({7})}, {6, Record::Absent()}};
  // plan_bytes is opaque at the Message layer: arbitrary (non-UTF-8,
  // NUL-bearing) bytes must survive.
  m.plan_bytes = std::string("\x01\x00\xFF\x7F", 4);
  m.specs = {FullTxnSpec(), MakeDummyTxn()};
  return m;
}

TEST(WireMessageTest, FullMessageRoundTrip) {
  const Message m = FullMessage();
  Result<Message> got = DecodeMessage(EncodeMessage(m));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(*got == m);
}

TEST(WireMessageTest, EveryTypeRoundTrips) {
  for (int t = 0; t <= static_cast<int>(Message::Type::kShutdown); ++t) {
    Message m;
    m.type = static_cast<Message::Type>(t);
    m.key = 100 + t;
    Result<Message> got = DecodeMessage(EncodeMessage(m));
    ASSERT_TRUE(got.ok()) << "type " << t << ": " << got.status().ToString();
    EXPECT_TRUE(*got == m) << "type " << t;
  }
}

TEST(WireMessageTest, HeartbeatRoundTripsWithSequence) {
  // Failure-detector probes carry their rising sequence number in
  // req_id; a codec that dropped or reordered it would break deadline
  // accounting silently.
  Message hb;
  hb.type = Message::Type::kHeartbeat;
  hb.reply_to = 0;
  hb.req_id = 0xDEADBEEFCAFEull;
  Result<Message> got = DecodeMessage(EncodeMessage(hb));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->type, Message::Type::kHeartbeat);
  EXPECT_EQ(got->req_id, 0xDEADBEEFCAFEull);
  EXPECT_TRUE(*got == hb);
}

TEST(WireMessageTest, HeartbeatMutationFuzzRoundTripsOrRejects) {
  Rng rng(0xB42);
  Message hb;
  hb.type = Message::Type::kHeartbeat;
  hb.req_id = 42;
  const std::string base = EncodeMessage(hb);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = base;
    const auto pos = rng.NextBelow(bytes.size());
    bytes[pos] = static_cast<char>(rng.Next());
    Result<Message> got = DecodeMessage(bytes);
    if (got.ok()) {
      Result<Message> again = DecodeMessage(EncodeMessage(*got));
      ASSERT_TRUE(again.ok());
      EXPECT_TRUE(*again == *got);
    }
  }
}

// The coordinator-term fence (DESIGN §4j) rides in every control
// message; a codec that dropped, truncated, or re-widthed the term
// varint would let a deposed leader's traffic through the fence.

TEST(WireMessageTest, TermFieldRoundTripsAtEveryVarintWidth) {
  const std::uint64_t terms[] = {
      0,          1,           127,         128,
      16383,      16384,       (1ull << 21) - 1, 1ull << 21,
      1ull << 28, 1ull << 35,  1ull << 42,  1ull << 49,
      1ull << 56, 1ull << 63,  ~0ull,
  };
  for (Message::Type type : {Message::Type::kSinkPlan,
                             Message::Type::kPlanStreamEnd,
                             Message::Type::kMigrateBegin,
                             Message::Type::kHeartbeat,
                             Message::Type::kLogAppend}) {
    for (std::uint64_t term : terms) {
      Message m;
      m.type = type;
      m.epoch = 5;
      m.term = term;
      Result<Message> got = DecodeMessage(EncodeMessage(m));
      ASSERT_TRUE(got.ok()) << "term " << term << ": "
                            << got.status().ToString();
      EXPECT_EQ(got->term, term);
      EXPECT_TRUE(*got == m) << "term " << term;
    }
  }
}

TEST(WireMessageTest, TermStampedPlanMutationFuzzRoundTripsOrRejects) {
  Rng rng(0x7E21);
  Message m;
  m.type = Message::Type::kSinkPlan;
  m.epoch = 12;
  m.term = 0x8000000000000001ull;  // worst-case 10-byte varint
  m.plan_bytes = std::string("\x02\x00\x7F", 3);
  const std::string base = EncodeMessage(m);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = base;
    const auto pos = rng.NextBelow(bytes.size());
    bytes[pos] = static_cast<char>(rng.Next());
    Result<Message> got = DecodeMessage(bytes);
    if (got.ok()) {
      Result<Message> again = DecodeMessage(EncodeMessage(*got));
      ASSERT_TRUE(again.ok());
      EXPECT_TRUE(*again == *got);
    }
  }
  // Every truncation of the term-stamped encoding is a clean reject.
  for (std::size_t cut = 0; cut < base.size(); ++cut) {
    EXPECT_FALSE(DecodeMessage(std::string_view(base.data(), cut)).ok())
        << "cut " << cut;
  }
}

// Coordinator-replication traffic (DESIGN §4i) rides the same codec as
// everything else; each kind gets a representative round trip plus the
// heartbeat-style single-byte mutation fuzz, because a corrupted log
// entry that decoded as a *different* valid entry would silently fork
// the replicated request log.

Message FullLogAppend() {
  Message m;
  m.type = Message::Type::kLogAppend;
  m.req_id = 17;        // log index
  m.txn = 9;            // batch id
  m.epoch = 3;          // leader term
  m.reply_to = 4;       // acking endpoint
  m.specs = {FullTxnSpec(), MakeDummyTxn()};
  return m;
}

TEST(WireMessageTest, LogAppendRoundTripsWithBatchPayload) {
  const Message m = FullLogAppend();
  Result<Message> got = DecodeMessage(EncodeMessage(m));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(*got == m);
  ASSERT_EQ(got->specs.size(), 2u);
  EXPECT_TRUE(got->specs[0] == m.specs[0]);
  EXPECT_TRUE(got->specs[1].is_dummy);
}

TEST(WireMessageTest, LogAckRoundTripsEveryKind) {
  // key multiplexes the ack kind: 0 = append ack, 1 = claim ack,
  // 2 = dissemination watermark.
  for (std::uint64_t kind : {0ULL, 1ULL, 2ULL}) {
    Message m;
    m.type = Message::Type::kLogAck;
    m.key = kind;
    m.req_id = 17;
    m.txn = 2;
    m.epoch = 11;
    Result<Message> got = DecodeMessage(EncodeMessage(m));
    ASSERT_TRUE(got.ok()) << "kind " << kind << ": "
                          << got.status().ToString();
    EXPECT_TRUE(*got == m) << "kind " << kind;
  }
}

TEST(WireMessageTest, LeaderClaimRoundTripsWithTermAndLogLength) {
  Message m;
  m.type = Message::Type::kLeaderClaim;
  m.txn = 1;            // claimant replica
  m.req_id = 23;        // claimant log length
  m.epoch = 2;          // claimed term
  m.reply_to = 5;       // set only on watermark probes
  Result<Message> got = DecodeMessage(EncodeMessage(m));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(*got == m);
}

TEST(WireMessageTest, ReplicationMutationFuzzRoundTripsOrRejects) {
  Message ack;
  ack.type = Message::Type::kLogAck;
  ack.key = 2;
  ack.req_id = 99;
  ack.txn = 1;
  ack.epoch = 40;
  Message claim;
  claim.type = Message::Type::kLeaderClaim;
  claim.txn = 2;
  claim.req_id = 12;
  claim.epoch = 3;
  const Message bases[] = {FullLogAppend(), ack, claim};
  Rng rng(0x10C5);
  for (const Message& base_msg : bases) {
    const std::string base = EncodeMessage(base_msg);
    for (int iter = 0; iter < 2000; ++iter) {
      std::string bytes = base;
      const auto pos = rng.NextBelow(bytes.size());
      bytes[pos] = static_cast<char>(rng.Next());
      Result<Message> got = DecodeMessage(bytes);
      if (got.ok()) {
        Result<Message> again = DecodeMessage(EncodeMessage(*got));
        ASSERT_TRUE(again.ok());
        EXPECT_TRUE(*again == *got);
      }
    }
  }
}

TEST(WireMessageTest, AbsentRecordRoundTrips) {
  Message m;
  m.type = Message::Type::kWriteBackApply;
  m.value = Record::Absent();
  Result<Message> got = DecodeMessage(EncodeMessage(m));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->value.is_absent());
  EXPECT_TRUE(*got == m);
}

TEST(WireMessageTest, EveryTruncationRejected) {
  const std::string bytes = EncodeMessage(FullMessage());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Result<Message> got =
        DecodeMessage(std::string_view(bytes.data(), cut));
    EXPECT_FALSE(got.ok()) << "truncation to " << cut << " bytes accepted";
  }
}

TEST(WireMessageTest, TrailingGarbageRejected) {
  std::string bytes = EncodeMessage(FullMessage());
  bytes.push_back('\x00');
  EXPECT_FALSE(DecodeMessage(bytes).ok());
}

TEST(WireMessageTest, BadVersionAndTypeRejected) {
  std::string bytes = EncodeMessage(FullMessage());
  std::string bad_version = bytes;
  bad_version[0] = static_cast<char>(kWireFormatVersion + 1);
  EXPECT_FALSE(DecodeMessage(bad_version).ok());

  std::string bad_type = bytes;
  bad_type[1] = static_cast<char>(
      static_cast<int>(Message::Type::kShutdown) + 1);
  EXPECT_FALSE(DecodeMessage(bad_type).ok());
}

TEST(WireMessageTest, SingleByteCorruptionNeverRoundTrips) {
  // Flip each byte in turn: decoding must either fail or produce a
  // *different* message — silent acceptance of a corrupt payload as the
  // original would mean two encodings map to one byte string.
  const Message m = FullMessage();
  const std::string bytes = EncodeMessage(m);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x55);
    Result<Message> got = DecodeMessage(corrupt);
    if (got.ok()) {
      EXPECT_FALSE(*got == m) << "flip at byte " << i << " undetected";
    }
  }
}

TEST(WireMessageTest, RandomFuzzDoesNotCrash) {
  // Random byte strings must never crash the decoder, and anything it
  // does accept must itself round-trip (decode∘encode is identity on
  // accepted values).
  Rng rng(0xF022);
  for (int iter = 0; iter < 5000; ++iter) {
    std::string bytes(rng.NextBelow(64), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.Next());
    Result<Message> got = DecodeMessage(bytes);
    if (got.ok()) {
      Result<Message> again = DecodeMessage(EncodeMessage(*got));
      ASSERT_TRUE(again.ok());
      EXPECT_TRUE(*again == *got);
    }
  }
}

TEST(WireMessageTest, MutationFuzzRoundTripsOrRejects) {
  // Start from valid encodings and mutate: decode must never crash, and
  // whatever it accepts must survive a fresh round trip.
  Rng rng(0xF0223);
  const std::string base = EncodeMessage(FullMessage());
  for (int iter = 0; iter < 5000; ++iter) {
    std::string bytes = base;
    const int mutations = 1 + static_cast<int>(rng.NextBelow(4));
    for (int k = 0; k < mutations; ++k) {
      const auto pos = rng.NextBelow(bytes.size());
      bytes[pos] = static_cast<char>(rng.Next());
    }
    if (rng.NextBool(0.3)) bytes.resize(rng.NextBelow(bytes.size() + 1));
    Result<Message> got = DecodeMessage(bytes);
    if (got.ok()) {
      Result<Message> again = DecodeMessage(EncodeMessage(*got));
      ASSERT_TRUE(again.ok());
      EXPECT_TRUE(*again == *got);
    }
  }
}

// -------------------------------------------------------------------
// Message batch round trip (the per-round wire frame)
// -------------------------------------------------------------------

std::vector<Message> FullBatch() {
  Message hb;
  hb.type = Message::Type::kHeartbeat;
  hb.req_id = 7;
  Message push;
  push.type = Message::Type::kPushVersion;
  push.key = 31337;
  push.version = 5;
  push.dst_txn = 6;
  push.value = Record({9, -8}, /*padding_bytes=*/32);
  return {FullMessage(), push, hb};
}

bool BatchEq(const std::vector<Message>& a, const std::vector<Message>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

TEST(WireMessageBatchTest, BatchRoundTripsBitForBit) {
  const std::vector<Message> batch = FullBatch();
  Result<std::vector<Message>> got =
      DecodeMessageBatch(EncodeMessageBatch(batch));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(BatchEq(*got, batch));
}

TEST(WireMessageBatchTest, SingletonAndEmptyBatchesRoundTrip) {
  const std::vector<Message> one = {FullMessage()};
  Result<std::vector<Message>> got_one =
      DecodeMessageBatch(EncodeMessageBatch(one));
  ASSERT_TRUE(got_one.ok());
  EXPECT_TRUE(BatchEq(*got_one, one));

  Result<std::vector<Message>> got_zero =
      DecodeMessageBatch(EncodeMessageBatch({}));
  ASSERT_TRUE(got_zero.ok());
  EXPECT_TRUE(got_zero->empty());
}

TEST(WireMessageBatchTest, EntriesMatchStandaloneEncoding) {
  // The batch must carry byte-for-byte EncodeMessage entries: the
  // resend-window granularity claim depends on batched and per-message
  // framing being the same payload bytes modulo the batch envelope.
  const std::vector<Message> batch = FullBatch();
  const std::string bytes = EncodeMessageBatch(batch);
  WireReader r(bytes);
  std::uint8_t version;
  std::uint64_t count;
  ASSERT_TRUE(r.GetU8(&version) && r.GetVarint(&count));
  ASSERT_EQ(count, batch.size());
  for (const Message& m : batch) {
    std::uint64_t len;
    std::string_view entry;
    ASSERT_TRUE(r.GetVarint(&len));
    ASSERT_TRUE(r.GetView(static_cast<std::size_t>(len), &entry));
    EXPECT_EQ(entry, EncodeMessage(m));
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireMessageBatchTest, EveryTruncationRejected) {
  const std::string bytes = EncodeMessageBatch(FullBatch());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Result<std::vector<Message>> got =
        DecodeMessageBatch(std::string_view(bytes.data(), cut));
    EXPECT_FALSE(got.ok()) << "truncation to " << cut << " bytes accepted";
  }
}

TEST(WireMessageBatchTest, TrailingGarbageRejected) {
  std::string bytes = EncodeMessageBatch(FullBatch());
  bytes.push_back('\x00');
  EXPECT_FALSE(DecodeMessageBatch(bytes).ok());
}

TEST(WireMessageBatchTest, BadVersionAndInsaneCountRejected) {
  std::string bad_version = EncodeMessageBatch(FullBatch());
  bad_version[0] = static_cast<char>(kWireFormatVersion + 1);
  EXPECT_FALSE(DecodeMessageBatch(bad_version).ok());

  // A garbage count larger than the remaining bytes must be rejected
  // up front, before any per-entry allocation happens.
  std::string bad_count;
  WireWriter w(&bad_count);
  w.PutU8(kWireFormatVersion);
  w.PutVarint(0xFFFFFFFFFFULL);
  EXPECT_FALSE(DecodeMessageBatch(bad_count).ok());
}

TEST(WireMessageBatchTest, SingleByteCorruptionNeverRoundTrips) {
  const std::vector<Message> batch = FullBatch();
  const std::string bytes = EncodeMessageBatch(batch);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x55);
    Result<std::vector<Message>> got = DecodeMessageBatch(corrupt);
    if (got.ok()) {
      EXPECT_FALSE(BatchEq(*got, batch)) << "flip at byte " << i
                                         << " undetected";
    }
  }
}

TEST(WireMessageBatchTest, RandomBytesDoNotCrash) {
  Rng rng(0xBA7C4);
  for (int iter = 0; iter < 5000; ++iter) {
    std::string bytes(rng.NextBelow(96), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.Next());
    Result<std::vector<Message>> got = DecodeMessageBatch(bytes);
    if (got.ok()) {
      Result<std::vector<Message>> again =
          DecodeMessageBatch(EncodeMessageBatch(*got));
      ASSERT_TRUE(again.ok());
      EXPECT_TRUE(BatchEq(*again, *got));
    }
  }
}

TEST(WireMessageBatchTest, MutationFuzzRoundTripsOrRejects) {
  Rng rng(0xBA7C5);
  const std::string base = EncodeMessageBatch(FullBatch());
  for (int iter = 0; iter < 5000; ++iter) {
    std::string bytes = base;
    const int mutations = 1 + static_cast<int>(rng.NextBelow(4));
    for (int k = 0; k < mutations; ++k) {
      const auto pos = rng.NextBelow(bytes.size());
      bytes[pos] = static_cast<char>(rng.Next());
    }
    if (rng.NextBool(0.3)) bytes.resize(rng.NextBelow(bytes.size() + 1));
    Result<std::vector<Message>> got = DecodeMessageBatch(bytes);
    if (got.ok()) {
      Result<std::vector<Message>> again =
          DecodeMessageBatch(EncodeMessageBatch(*got));
      ASSERT_TRUE(again.ok());
      EXPECT_TRUE(BatchEq(*again, *got));
    }
  }
}

// -------------------------------------------------------------------
// SinkPlan round trip
// -------------------------------------------------------------------

SinkPlan FullSinkPlan() {
  SinkPlan plan;
  plan.epoch = 7;
  TxnPlan t;
  t.txn = 31;
  t.machine = 1;
  t.num_reads = 2;
  t.num_writes = 1;
  t.reads.push_back(ReadStep{/*key=*/10, ReadSourceKind::kPush,
                             /*src_txn=*/30, /*src_machine=*/0,
                             /*cache_epoch=*/0, /*storage_min_epoch=*/0,
                             /*invalidate_entry=*/true, /*sticky_hint=*/false,
                             /*provider_txn=*/30, /*entry_total_reads=*/2});
  t.reads.push_back(ReadStep{/*key=*/11, ReadSourceKind::kCacheRemote,
                             /*src_txn=*/kInvalidTxnId, /*src_machine=*/2,
                             /*cache_epoch=*/6, /*storage_min_epoch=*/5,
                             /*invalidate_entry=*/false, /*sticky_hint=*/true,
                             /*provider_txn=*/kInvalidTxnId,
                             /*entry_total_reads=*/0});
  t.pushes.push_back(PushStep{/*key=*/10, /*dst_txn=*/33, /*dst_machine=*/2,
                              /*version_txn=*/31});
  t.local_versions.push_back(
      LocalVersionStep{/*key=*/10, /*dst_txn=*/34, /*version_txn=*/31});
  t.cache_publishes.push_back(CachePublishStep{/*key=*/10, /*epoch=*/8});
  t.write_backs.push_back(WriteBackStep{/*key=*/10, /*home=*/0,
                                        /*version_txn=*/31,
                                        /*make_sticky=*/true,
                                        /*readers_to_await=*/1,
                                        /*replaces_version=*/29});
  plan.txns.push_back(t);
  TxnPlan empty;
  empty.txn = 32;
  empty.machine = 0;
  plan.txns.push_back(empty);
  return plan;
}

TEST(WireSinkPlanTest, FullPlanRoundTrip) {
  const SinkPlan plan = FullSinkPlan();
  Result<SinkPlan> got = DecodeSinkPlan(EncodeSinkPlan(plan));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(*got == plan);
}

TEST(WireSinkPlanTest, EveryTruncationRejected) {
  const std::string bytes = EncodeSinkPlan(FullSinkPlan());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeSinkPlan(std::string_view(bytes.data(), cut)).ok())
        << "truncation to " << cut << " bytes accepted";
  }
}

TEST(WireSinkPlanTest, TrailingGarbageRejected) {
  std::string bytes = EncodeSinkPlan(FullSinkPlan());
  bytes.push_back('\x00');
  EXPECT_FALSE(DecodeSinkPlan(bytes).ok());
}

TEST(WireSinkPlanTest, BadVersionRejected) {
  std::string bytes = EncodeSinkPlan(FullSinkPlan());
  bytes[0] = static_cast<char>(kWireFormatVersion + 1);
  EXPECT_FALSE(DecodeSinkPlan(bytes).ok());
}

TEST(WireSinkPlanTest, SingleByteCorruptionNeverRoundTrips) {
  // Plans drive dissemination, so the decoder gets the
  // same treatment as Message: flip each byte in turn; decoding must fail
  // or produce a *different* plan — never silently accept the original.
  const SinkPlan plan = FullSinkPlan();
  const std::string bytes = EncodeSinkPlan(plan);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x55);
    Result<SinkPlan> got = DecodeSinkPlan(corrupt);
    if (got.ok()) {
      EXPECT_FALSE(*got == plan) << "flip at byte " << i << " undetected";
    }
  }
}

TEST(WireSinkPlanTest, RandomBytesDoNotCrash) {
  // Pure random byte strings: never crash, and anything accepted must
  // itself round-trip (decode∘encode is identity on accepted values).
  Rng rng(0x51CD);
  for (int iter = 0; iter < 5000; ++iter) {
    std::string bytes(rng.NextBelow(96), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.Next());
    Result<SinkPlan> got = DecodeSinkPlan(bytes);
    if (got.ok()) {
      Result<SinkPlan> again = DecodeSinkPlan(EncodeSinkPlan(*got));
      ASSERT_TRUE(again.ok());
      EXPECT_TRUE(*again == *got);
    }
  }
}

TEST(WireSinkPlanTest, MutationFuzzRoundTripsOrRejects) {
  // Start from a valid encoding and apply several mutations plus
  // occasional truncation — the same coverage Message gets.
  Rng rng(0x51CC);
  const std::string base = EncodeSinkPlan(FullSinkPlan());
  for (int iter = 0; iter < 5000; ++iter) {
    std::string bytes = base;
    const int mutations = 1 + static_cast<int>(rng.NextBelow(4));
    for (int k = 0; k < mutations; ++k) {
      const auto pos = rng.NextBelow(bytes.size());
      bytes[pos] = static_cast<char>(rng.Next());
    }
    if (rng.NextBool(0.3)) bytes.resize(rng.NextBelow(bytes.size() + 1));
    Result<SinkPlan> got = DecodeSinkPlan(bytes);
    if (got.ok()) {
      Result<SinkPlan> again = DecodeSinkPlan(EncodeSinkPlan(*got));
      ASSERT_TRUE(again.ok());
      EXPECT_TRUE(*again == *got);
    }
  }
}

// Real scheduler rounds split per machine: each slice decodes to exactly
// its machine's plans, in id order, with specs aligned, and every machine
// gets a slice of every round — empty when it runs none of the round.
TEST(WireSinkPlanTest, SlicesCarryOnlyEachMachinesPlansWithAlignedSpecs) {
  constexpr std::size_t kMachines = 3;
  TPartScheduler::Options o;
  o.sink_size = 4;
  o.graph.num_machines = kMachines;
  TPartScheduler sched(o, std::make_shared<HashPartitionMap>(kMachines));
  Rng rng(0x511CE);
  std::vector<TxnSpec> specs;
  std::vector<SinkPlan> rounds;
  for (TxnId id = 1; id <= 400; ++id) {
    TxnSpec spec;
    spec.id = id;
    spec.proc = 9;
    spec.params = {static_cast<std::int64_t>(id)};
    spec.rw.reads = {rng.NextBelow(30), rng.NextBelow(30)};
    spec.rw.writes = {spec.rw.reads[0]};
    spec.rw.Normalize();
    specs.push_back(spec);
    for (SinkPlan& plan : sched.OnTxn(spec)) rounds.push_back(std::move(plan));
  }
  for (SinkPlan& plan : sched.Drain()) rounds.push_back(std::move(plan));

  std::size_t empty_slices = 0;
  std::size_t plans_seen = 0;
  for (const SinkPlan& round : rounds) {
    std::vector<TxnSpec> round_specs;
    for (const TxnPlan& p : round.txns) round_specs.push_back(specs[p.txn - 1]);
    const std::vector<Message> slices =
        SliceSinkPlan(round, std::move(round_specs), kMachines);
    ASSERT_EQ(slices.size(), kMachines);
    for (MachineId m = 0; m < kMachines; ++m) {
      const Message& slice = slices[m];
      EXPECT_EQ(slice.type, Message::Type::kSinkPlan);
      EXPECT_EQ(slice.epoch, round.epoch);
      Result<SinkPlan> got = DecodeSinkPlan(slice.plan_bytes);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->epoch, round.epoch);
      const std::vector<const TxnPlan*> own = round.PlansFor(m);
      ASSERT_EQ(got->txns.size(), own.size());
      ASSERT_EQ(slice.specs.size(), own.size());
      for (std::size_t i = 0; i < own.size(); ++i) {
        EXPECT_TRUE(got->txns[i] == *own[i]) << "T" << own[i]->txn;
        EXPECT_EQ(got->txns[i].machine, m);
        if (i > 0) {
          EXPECT_LT(got->txns[i - 1].txn, got->txns[i].txn);
        }
        EXPECT_TRUE(slice.specs[i] == specs[own[i]->txn - 1]);
      }
      if (own.empty()) ++empty_slices;
      plans_seen += own.size();
    }
  }
  EXPECT_EQ(plans_seen, specs.size());
  // Sink size 4 over 3 machines leaves some machine idle in some round.
  EXPECT_GT(empty_slices, 0u);
}

// -------------------------------------------------------------------
// Framing
// -------------------------------------------------------------------

TEST(WireFramingTest, FramesReassembleAcrossArbitraryChunking) {
  const std::vector<std::string> payloads = {"", "a", "hello",
                                             std::string(3000, 'x')};
  std::string stream;
  for (const auto& p : payloads) AppendFrame(p, &stream);

  // Feed the stream in every chunk size; all frames must come back.
  for (std::size_t chunk = 1; chunk <= 7; ++chunk) {
    FrameBuffer fb;
    std::vector<std::string> got;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      fb.Append(std::string_view(stream).substr(
          off, std::min(chunk, stream.size() - off)));
      while (true) {
        Result<std::optional<std::string>> next = fb.Next();
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        if (!next->has_value()) break;
        got.push_back(std::move(**next));
      }
    }
    EXPECT_EQ(got, payloads) << "chunk size " << chunk;
    EXPECT_EQ(fb.buffered_bytes(), 0u);
  }
}

TEST(WireFramingTest, ChecksumCatchesPayloadCorruption) {
  std::string stream;
  AppendFrame("payload-bytes", &stream);
  stream[kFrameHeaderBytes + 3] ^= 0x01;  // flip a payload bit
  FrameBuffer fb;
  fb.Append(stream);
  EXPECT_FALSE(fb.Next().ok());
  // Sticky: the stream cannot be resynced after corruption.
  EXPECT_FALSE(fb.Next().ok());
}

TEST(WireFramingTest, InsaneLengthRejectedBeforeAllocation) {
  const std::string stream("\xFF\xFF\xFF\xFF\x00\x00\x00\x00", 8);
  FrameBuffer fb;
  fb.Append(stream);
  EXPECT_FALSE(fb.Next().ok());
}

// -------------------------------------------------------------------
// Partition images (elastic migration)
// -------------------------------------------------------------------

// One entry per (record present/absent) x (state/no state), with keys and
// tags wide enough to take multi-byte varints.
PartitionImage FullPartitionImage() {
  PartitionImage image;
  ObjectKey key = 7;
  for (const bool present : {false, true}) {
    for (const bool has_state : {false, true}) {
      PartitionImage::KeyEntry e;
      e.key = key;
      key = key * 131 + 1;
      e.present = present;
      if (present) e.value = Record{static_cast<std::int64_t>(key), -3};
      if (has_state) {
        e.has_state = true;
        e.current = 100000 + key;
        e.reads_served_since_wb = 2;
        e.has_sticky = present;
        e.sticky_expire = 9;
      }
      image.entries.push_back(std::move(e));
    }
  }
  return image;
}

TEST(WirePartitionImageTest, EveryEntryShapeRoundTrips) {
  const PartitionImage image = FullPartitionImage();
  Result<PartitionImage> got =
      DecodePartitionImage(EncodePartitionImage(image));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->entries, image.entries);
  // An empty image round-trips too.
  Result<PartitionImage> empty =
      DecodePartitionImage(EncodePartitionImage(PartitionImage{}));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->entries.empty());
}

TEST(WirePartitionImageTest, EveryTruncationRejected) {
  const std::string bytes = EncodePartitionImage(FullPartitionImage());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        DecodePartitionImage(std::string_view(bytes.data(), cut)).ok())
        << "truncation to " << cut << " bytes accepted";
  }
}

TEST(WirePartitionImageTest, TrailingGarbageRejected) {
  std::string bytes = EncodePartitionImage(FullPartitionImage());
  bytes.push_back('\x00');
  EXPECT_FALSE(DecodePartitionImage(bytes).ok());
}

TEST(WirePartitionImageTest, BadVersionAndInsaneCountRejected) {
  std::string bytes = EncodePartitionImage(FullPartitionImage());
  bytes[0] = static_cast<char>(kWireFormatVersion + 1);
  EXPECT_FALSE(DecodePartitionImage(bytes).ok());

  // A garbage count far beyond what the bytes could hold is rejected as
  // truncated, without reserving room for it first.
  std::string bad_count;
  WireWriter w(&bad_count);
  w.PutU8(kWireFormatVersion);
  w.PutVarint(1ULL << 60);
  EXPECT_FALSE(DecodePartitionImage(bad_count).ok());
}

TEST(WirePartitionImageTest, UnknownFlagBitRejected) {
  // One entry with a one-byte key: version, count, key, then the flags.
  PartitionImage image;
  PartitionImage::KeyEntry e;
  e.key = 5;
  image.entries.push_back(e);
  const std::string bytes = EncodePartitionImage(image);
  ASSERT_EQ(bytes.size(), 4u);
  ASSERT_TRUE(DecodePartitionImage(bytes).ok());
  // Bits 0-2 are present | state | sticky; every other bit (bit 3 once
  // carried a cache sticky entry) must fail rather than misparse.
  for (int bit = 3; bit < 8; ++bit) {
    std::string bad = bytes;
    bad[3] = static_cast<char>(bad[3] | (1 << bit));
    Result<PartitionImage> got = DecodePartitionImage(bad);
    ASSERT_FALSE(got.ok()) << "flag bit " << bit << " accepted";
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace tpart
