#include "net/wire.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace tpart {

namespace {

// Enum ceilings for decode validation.
constexpr std::uint8_t kMaxMessageType =
    static_cast<std::uint8_t>(Message::Type::kShutdown);
constexpr std::uint8_t kMaxReadSourceKind =
    static_cast<std::uint8_t>(ReadSourceKind::kCacheRemote);

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated ") + what);
}

void PutU32Le(std::uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint32_t GetU32Le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

// ---------------------------------------------------------------------
// Record
// ---------------------------------------------------------------------

void EncodeRecord(const Record& record, WireWriter& w) {
  w.PutU8(record.is_absent() ? 1 : 0);
  if (record.is_absent()) return;
  w.PutVarint(record.num_fields());
  for (std::size_t i = 0; i < record.num_fields(); ++i) {
    w.PutZigzag(record.field(i));
  }
  w.PutVarint(record.padding_bytes());
}

bool DecodeRecord(WireReader& r, Record* record) {
  std::uint8_t absent;
  if (!r.GetU8(&absent) || absent > 1) return false;
  if (absent) {
    *record = Record::Absent();
    return true;
  }
  std::uint64_t num_fields;
  if (!r.GetVarint(&num_fields)) return false;
  // Each field takes >= 1 encoded byte: cheap sanity bound against
  // garbage counts causing huge allocations.
  if (num_fields > r.remaining()) return false;
  std::vector<std::int64_t> fields(static_cast<std::size_t>(num_fields));
  for (auto& f : fields) {
    if (!r.GetZigzag(&f)) return false;
  }
  std::uint64_t padding;
  if (!r.GetVarint(&padding)) return false;
  if (padding > (std::uint64_t{1} << 32)) return false;
  Record out(fields.size(), static_cast<std::size_t>(padding));
  for (std::size_t i = 0; i < fields.size(); ++i) out.set_field(i, fields[i]);
  *record = std::move(out);
  return true;
}

// ---------------------------------------------------------------------
// TxnSpec
// ---------------------------------------------------------------------

namespace {

template <typename KeyVec>
void EncodeKeySet(const KeyVec& keys, WireWriter& w) {
  w.PutVarint(keys.size());
  for (const ObjectKey k : keys) w.PutVarint(k);
}

template <typename KeyVec>
bool DecodeKeySet(WireReader& r, KeyVec* keys) {
  std::uint64_t n;
  if (!r.GetVarint(&n) || n > r.remaining()) return false;
  keys->resize(static_cast<std::size_t>(n));
  for (auto& k : *keys) {
    std::uint64_t u;
    if (!r.GetVarint(&u)) return false;
    k = u;
  }
  return true;
}

}  // namespace

void EncodeTxnSpec(const TxnSpec& spec, WireWriter& w) {
  w.PutVarint(spec.id);
  w.PutVarint(spec.proc);
  w.PutVarint(spec.params.size());
  for (const std::int64_t p : spec.params) w.PutZigzag(p);
  EncodeKeySet(spec.rw.reads, w);
  EncodeKeySet(spec.rw.writes, w);
  w.PutU8(spec.is_dummy ? 1 : 0);
  w.PutVarint(std::bit_cast<std::uint64_t>(spec.node_weight));
}

bool DecodeTxnSpec(WireReader& r, TxnSpec* spec) {
  std::uint64_t u, n;
  if (!r.GetVarint(&u)) return false;
  spec->id = u;
  if (!r.GetVarint(&u)) return false;
  spec->proc = static_cast<ProcId>(u);
  if (!r.GetVarint(&n) || n > r.remaining()) return false;
  spec->params.resize(static_cast<std::size_t>(n));
  for (auto& p : spec->params) {
    if (!r.GetZigzag(&p)) return false;
  }
  if (!DecodeKeySet(r, &spec->rw.reads)) return false;
  if (!DecodeKeySet(r, &spec->rw.writes)) return false;
  std::uint8_t b;
  if (!r.GetU8(&b) || b > 1) return false;
  spec->is_dummy = b != 0;
  if (!r.GetVarint(&u)) return false;
  spec->node_weight = std::bit_cast<double>(u);
  // NaN would break round-trip identity (NaN != NaN) and no scheduler
  // emits one; infinities would poison partition balance sums.
  if (!std::isfinite(spec->node_weight)) return false;
  return true;
}

// ---------------------------------------------------------------------
// Message
// ---------------------------------------------------------------------

std::string EncodeMessage(const Message& msg) {
  std::string out;
  EncodeMessageTo(msg, &out);
  return out;
}

void EncodeMessageTo(const Message& msg, std::string* outp) {
  std::string& out = *outp;
  // Header + fixed fields fit in ~64 bytes; the variable parts are the
  // value record, the kv list, the plan blob, and the specs. Reserving
  // the estimate up front makes the common encode a single allocation.
  out.reserve(out.size() + 64 + 10 * msg.value.num_fields() +
              24 * msg.kvs.size() + msg.plan_bytes.size() +
              48 * msg.specs.size());
  WireWriter w(&out);
  w.PutU8(kWireFormatVersion);
  w.PutU8(static_cast<std::uint8_t>(msg.type));
  w.PutVarint(msg.key);
  w.PutVarint(msg.version);
  w.PutVarint(msg.replaces);
  w.PutVarint(msg.dst_txn);
  w.PutU8(static_cast<std::uint8_t>((msg.invalidate ? 1 : 0) |
                                    (msg.sticky ? 2 : 0)));
  w.PutVarint(msg.total_reads);
  w.PutVarint(msg.awaits);
  w.PutVarint(msg.epoch);
  w.PutVarint(msg.reply_to);
  w.PutVarint(msg.req_id);
  w.PutVarint(msg.txn);
  w.PutVarint(msg.trace_ctx);
  w.PutVarint(msg.term);
  EncodeRecord(msg.value, w);
  w.PutVarint(msg.kvs.size());
  for (const auto& [key, value] : msg.kvs) {
    w.PutVarint(key);
    EncodeRecord(value, w);
  }
  w.PutVarint(msg.plan_bytes.size());
  out.append(msg.plan_bytes);
  w.PutVarint(msg.specs.size());
  for (const TxnSpec& spec : msg.specs) EncodeTxnSpec(spec, w);
}

std::string EncodeMessageBatch(const std::vector<Message>& msgs) {
  std::string out;
  out.reserve(16 + 96 * msgs.size());
  WireWriter w(&out);
  w.PutU8(kWireFormatVersion);
  w.PutVarint(msgs.size());
  std::string scratch;  // reused across entries: one allocation amortized
  for (const Message& msg : msgs) {
    scratch.clear();
    EncodeMessageTo(msg, &scratch);
    w.PutVarint(scratch.size());
    out.append(scratch);
  }
  return out;
}

Result<std::vector<Message>> DecodeMessageBatch(std::string_view bytes) {
  WireReader r(bytes);
  std::uint8_t version;
  if (!r.GetU8(&version)) return Truncated("batch header");
  if (version != kWireFormatVersion) {
    return Status::InvalidArgument("unknown wire format version " +
                                   std::to_string(version));
  }
  std::uint64_t count;
  if (!r.GetVarint(&count)) return Truncated("batch count");
  if (count > r.remaining()) {
    return Status::InvalidArgument("batch count exceeds payload");
  }
  std::vector<Message> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t len;
    if (!r.GetVarint(&len)) return Truncated("batch entry length");
    std::string_view entry;
    if (!r.GetView(static_cast<std::size_t>(len), &entry)) {
      return Status::InvalidArgument("batch entry length exceeds payload");
    }
    Result<Message> msg = DecodeMessage(entry);
    if (!msg.ok()) return msg.status();
    out.push_back(std::move(*msg));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after batch");
  }
  return out;
}

Result<Message> DecodeMessage(std::string_view bytes) {
  WireReader r(bytes);
  std::uint8_t version;
  if (!r.GetU8(&version)) return Truncated("message header");
  if (version != kWireFormatVersion) {
    return Status::InvalidArgument("unknown wire format version " +
                                   std::to_string(version));
  }
  std::uint8_t type;
  if (!r.GetU8(&type)) return Truncated("message type");
  if (type > kMaxMessageType) {
    return Status::InvalidArgument("bad message type " +
                                   std::to_string(type));
  }
  Message msg;
  msg.type = static_cast<Message::Type>(type);
  std::uint64_t u;
  if (!r.GetVarint(&u)) return Truncated("key");
  msg.key = u;
  if (!r.GetVarint(&u)) return Truncated("version");
  msg.version = u;
  if (!r.GetVarint(&u)) return Truncated("replaces");
  msg.replaces = u;
  if (!r.GetVarint(&u)) return Truncated("dst_txn");
  msg.dst_txn = u;
  std::uint8_t flags;
  if (!r.GetU8(&flags)) return Truncated("flags");
  if (flags > 3) return Status::InvalidArgument("bad message flags");
  msg.invalidate = (flags & 1) != 0;
  msg.sticky = (flags & 2) != 0;
  if (!r.GetVarint(&u)) return Truncated("total_reads");
  msg.total_reads = static_cast<std::uint32_t>(u);
  if (!r.GetVarint(&u)) return Truncated("awaits");
  msg.awaits = static_cast<std::uint32_t>(u);
  if (!r.GetVarint(&u)) return Truncated("epoch");
  msg.epoch = u;
  if (!r.GetVarint(&u)) return Truncated("reply_to");
  msg.reply_to = static_cast<MachineId>(u);
  if (!r.GetVarint(&u)) return Truncated("req_id");
  msg.req_id = u;
  if (!r.GetVarint(&u)) return Truncated("txn");
  msg.txn = u;
  if (!r.GetVarint(&u)) return Truncated("trace_ctx");
  msg.trace_ctx = u;
  if (!r.GetVarint(&u)) return Truncated("term");
  msg.term = u;
  if (!DecodeRecord(r, &msg.value)) return Truncated("value record");
  std::uint64_t num_kvs;
  if (!r.GetVarint(&num_kvs)) return Truncated("kv count");
  if (num_kvs > r.remaining()) {
    return Status::InvalidArgument("kv count exceeds payload");
  }
  msg.kvs.reserve(static_cast<std::size_t>(num_kvs));
  for (std::uint64_t i = 0; i < num_kvs; ++i) {
    std::uint64_t key;
    if (!r.GetVarint(&key)) return Truncated("kv key");
    Record value;
    if (!DecodeRecord(r, &value)) return Truncated("kv record");
    msg.kvs.emplace_back(key, std::move(value));
  }
  std::uint64_t plan_len;
  if (!r.GetVarint(&plan_len)) return Truncated("plan length");
  if (plan_len > r.remaining()) {
    return Status::InvalidArgument("plan length exceeds payload");
  }
  if (!r.GetBytes(static_cast<std::size_t>(plan_len), &msg.plan_bytes)) {
    return Truncated("plan bytes");
  }
  std::uint64_t num_specs;
  if (!r.GetVarint(&num_specs)) return Truncated("spec count");
  if (num_specs > r.remaining()) {
    return Status::InvalidArgument("spec count exceeds payload");
  }
  msg.specs.resize(static_cast<std::size_t>(num_specs));
  for (auto& spec : msg.specs) {
    if (!DecodeTxnSpec(r, &spec)) return Truncated("txn spec");
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after message");
  }
  return msg;
}

// ---------------------------------------------------------------------
// SinkPlan
// ---------------------------------------------------------------------

namespace {

void EncodeReadStep(const ReadStep& s, WireWriter& w) {
  w.PutVarint(s.key);
  w.PutU8(static_cast<std::uint8_t>(s.kind));
  w.PutVarint(s.src_txn);
  w.PutVarint(s.src_machine);
  w.PutVarint(s.cache_epoch);
  w.PutVarint(s.storage_min_epoch);
  w.PutU8(static_cast<std::uint8_t>((s.invalidate_entry ? 1 : 0) |
                                    (s.sticky_hint ? 2 : 0)));
  w.PutVarint(s.provider_txn);
  w.PutVarint(s.entry_total_reads);
}

bool DecodeReadStep(WireReader& r, ReadStep* s) {
  std::uint64_t u;
  std::uint8_t b;
  if (!r.GetVarint(&u)) return false;
  s->key = u;
  if (!r.GetU8(&b) || b > kMaxReadSourceKind) return false;
  s->kind = static_cast<ReadSourceKind>(b);
  if (!r.GetVarint(&u)) return false;
  s->src_txn = u;
  if (!r.GetVarint(&u)) return false;
  s->src_machine = static_cast<MachineId>(u);
  if (!r.GetVarint(&u)) return false;
  s->cache_epoch = u;
  if (!r.GetVarint(&u)) return false;
  s->storage_min_epoch = u;
  if (!r.GetU8(&b) || b > 3) return false;
  s->invalidate_entry = (b & 1) != 0;
  s->sticky_hint = (b & 2) != 0;
  if (!r.GetVarint(&u)) return false;
  s->provider_txn = u;
  if (!r.GetVarint(&u)) return false;
  s->entry_total_reads = static_cast<std::uint32_t>(u);
  return true;
}

void EncodeTxnPlan(const TxnPlan& p, WireWriter& w) {
  w.PutVarint(p.txn);
  w.PutVarint(p.machine);
  w.PutVarint(p.num_reads);
  w.PutVarint(p.num_writes);
  w.PutVarint(p.reads.size());
  for (const ReadStep& s : p.reads) EncodeReadStep(s, w);
  w.PutVarint(p.pushes.size());
  for (const PushStep& s : p.pushes) {
    w.PutVarint(s.key);
    w.PutVarint(s.dst_txn);
    w.PutVarint(s.dst_machine);
    w.PutVarint(s.version_txn);
  }
  w.PutVarint(p.local_versions.size());
  for (const LocalVersionStep& s : p.local_versions) {
    w.PutVarint(s.key);
    w.PutVarint(s.dst_txn);
    w.PutVarint(s.version_txn);
  }
  w.PutVarint(p.cache_publishes.size());
  for (const CachePublishStep& s : p.cache_publishes) {
    w.PutVarint(s.key);
    w.PutVarint(s.epoch);
  }
  w.PutVarint(p.write_backs.size());
  for (const WriteBackStep& s : p.write_backs) {
    w.PutVarint(s.key);
    w.PutVarint(s.home);
    w.PutVarint(s.version_txn);
    w.PutU8(s.make_sticky ? 1 : 0);
    w.PutVarint(s.readers_to_await);
    w.PutVarint(s.replaces_version);
  }
}

bool DecodeTxnPlan(WireReader& r, TxnPlan* p) {
  std::uint64_t u, n;
  if (!r.GetVarint(&u)) return false;
  p->txn = u;
  if (!r.GetVarint(&u)) return false;
  p->machine = static_cast<MachineId>(u);
  if (!r.GetVarint(&u)) return false;
  p->num_reads = static_cast<std::uint32_t>(u);
  if (!r.GetVarint(&u)) return false;
  p->num_writes = static_cast<std::uint32_t>(u);

  if (!r.GetVarint(&n) || n > r.remaining()) return false;
  p->reads.resize(static_cast<std::size_t>(n));
  for (auto& s : p->reads) {
    if (!DecodeReadStep(r, &s)) return false;
  }
  if (!r.GetVarint(&n) || n > r.remaining()) return false;
  p->pushes.resize(static_cast<std::size_t>(n));
  for (auto& s : p->pushes) {
    if (!r.GetVarint(&u)) return false;
    s.key = u;
    if (!r.GetVarint(&u)) return false;
    s.dst_txn = u;
    if (!r.GetVarint(&u)) return false;
    s.dst_machine = static_cast<MachineId>(u);
    if (!r.GetVarint(&u)) return false;
    s.version_txn = u;
  }
  if (!r.GetVarint(&n) || n > r.remaining()) return false;
  p->local_versions.resize(static_cast<std::size_t>(n));
  for (auto& s : p->local_versions) {
    if (!r.GetVarint(&u)) return false;
    s.key = u;
    if (!r.GetVarint(&u)) return false;
    s.dst_txn = u;
    if (!r.GetVarint(&u)) return false;
    s.version_txn = u;
  }
  if (!r.GetVarint(&n) || n > r.remaining()) return false;
  p->cache_publishes.resize(static_cast<std::size_t>(n));
  for (auto& s : p->cache_publishes) {
    if (!r.GetVarint(&u)) return false;
    s.key = u;
    if (!r.GetVarint(&u)) return false;
    s.epoch = u;
  }
  if (!r.GetVarint(&n) || n > r.remaining()) return false;
  p->write_backs.resize(static_cast<std::size_t>(n));
  for (auto& s : p->write_backs) {
    std::uint8_t b;
    if (!r.GetVarint(&u)) return false;
    s.key = u;
    if (!r.GetVarint(&u)) return false;
    s.home = static_cast<MachineId>(u);
    if (!r.GetVarint(&u)) return false;
    s.version_txn = u;
    if (!r.GetU8(&b) || b > 1) return false;
    s.make_sticky = b != 0;
    if (!r.GetVarint(&u)) return false;
    s.readers_to_await = static_cast<std::uint32_t>(u);
    if (!r.GetVarint(&u)) return false;
    s.replaces_version = u;
  }
  return true;
}

}  // namespace

std::string EncodeSinkPlan(const SinkPlan& plan) {
  std::string out;
  // A plan txn with a handful of read/push/write-back steps encodes to
  // roughly 100 bytes; one up-front reservation covers the whole round.
  out.reserve(16 + 112 * plan.txns.size());
  WireWriter w(&out);
  w.PutU8(kWireFormatVersion);
  w.PutVarint(plan.epoch);
  w.PutVarint(plan.txns.size());
  for (const TxnPlan& p : plan.txns) EncodeTxnPlan(p, w);
  return out;
}

std::vector<Message> SliceSinkPlan(SinkPlan plan, std::vector<TxnSpec> specs,
                                   std::size_t num_machines) {
  TPART_CHECK(specs.size() == plan.txns.size())
      << "round " << plan.epoch << " has " << specs.size() << " specs for "
      << plan.txns.size() << " plans";
  std::vector<std::size_t> counts(num_machines, 0);
  for (const TxnPlan& p : plan.txns) {
    TPART_CHECK(p.machine < num_machines)
        << "round " << plan.epoch << " plans T" << p.txn << " on machine "
        << p.machine << " of " << num_machines;
    ++counts[p.machine];
  }
  std::vector<SinkPlan> parts(num_machines);
  std::vector<Message> slices(num_machines);
  for (std::size_t m = 0; m < num_machines; ++m) {
    parts[m].epoch = plan.epoch;
    parts[m].txns.reserve(counts[m]);
    slices[m].specs.reserve(counts[m]);
  }
  for (std::size_t i = 0; i < plan.txns.size(); ++i) {
    const MachineId m = plan.txns[i].machine;
    parts[m].txns.push_back(std::move(plan.txns[i]));
    slices[m].specs.push_back(std::move(specs[i]));
  }
  for (std::size_t m = 0; m < num_machines; ++m) {
    slices[m].type = Message::Type::kSinkPlan;
    slices[m].epoch = plan.epoch;
    slices[m].plan_bytes = EncodeSinkPlan(parts[m]);
  }
  return slices;
}

Result<SinkPlan> DecodeSinkPlan(std::string_view bytes) {
  WireReader r(bytes);
  std::uint8_t version;
  if (!r.GetU8(&version)) return Truncated("plan header");
  if (version != kWireFormatVersion) {
    return Status::InvalidArgument("unknown wire format version " +
                                   std::to_string(version));
  }
  SinkPlan plan;
  std::uint64_t u, n;
  if (!r.GetVarint(&u)) return Truncated("plan epoch");
  plan.epoch = u;
  if (!r.GetVarint(&n)) return Truncated("plan txn count");
  if (n > r.remaining()) {
    return Status::InvalidArgument("plan txn count exceeds payload");
  }
  plan.txns.resize(static_cast<std::size_t>(n));
  for (auto& p : plan.txns) {
    if (!DecodeTxnPlan(r, &p)) return Truncated("txn plan");
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after plan");
  }
  return plan;
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

std::uint32_t WireChecksum(std::string_view payload) {
  // FNV-1a, 32-bit.
  std::uint32_t h = 2166136261u;
  for (const char c : payload) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

void AppendFrame(std::string_view payload, std::string* out) {
  PutU32Le(static_cast<std::uint32_t>(payload.size()), out);
  PutU32Le(WireChecksum(payload), out);
  out->append(payload);
}

Result<std::optional<std::string>> FrameBuffer::Next() {
  if (corrupt_) {
    return Status::InvalidArgument("frame stream is corrupt");
  }
  if (buf_.size() - off_ < kFrameHeaderBytes) {
    // Compact lazily so a long stream doesn't keep consumed bytes alive.
    if (off_ > 0 && off_ >= buf_.size() / 2) {
      buf_.erase(0, off_);
      off_ = 0;
    }
    return std::optional<std::string>{};
  }
  const std::uint32_t len = GetU32Le(buf_.data() + off_);
  const std::uint32_t checksum = GetU32Le(buf_.data() + off_ + 4);
  if (len > kMaxFramePayloadBytes) {
    corrupt_ = true;
    return Status::InvalidArgument("frame length " + std::to_string(len) +
                                   " exceeds limit");
  }
  if (buf_.size() - off_ < kFrameHeaderBytes + len) {
    return std::optional<std::string>{};
  }
  std::string payload = buf_.substr(off_ + kFrameHeaderBytes, len);
  if (WireChecksum(payload) != checksum) {
    corrupt_ = true;
    return Status::InvalidArgument("frame checksum mismatch");
  }
  off_ += kFrameHeaderBytes + len;
  if (off_ >= buf_.size() / 2) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  return std::optional<std::string>(std::move(payload));
}

}  // namespace tpart
