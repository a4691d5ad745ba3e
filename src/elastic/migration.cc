#include "elastic/migration.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "net/wire.h"

namespace tpart {

std::vector<MigrationRoute> PlanMigration(
    const ElasticPartitionMap& map, std::size_t version,
    const std::vector<std::pair<MachineId, std::vector<ObjectKey>>>&
        keys_by_source) {
  TPART_CHECK(version >= 1) << "no step to migrate for";
  std::map<std::pair<MachineId, MachineId>, std::vector<ObjectKey>> routes;
  for (const auto& [source, keys] : keys_by_source) {
    for (const ObjectKey key : keys) {
      const MachineId before = map.LocateAt(version - 1, key);
      if (before != source) continue;  // stale holder; not ours to move
      const MachineId after = map.LocateAt(version, key);
      if (after == before) continue;
      routes[{source, after}].push_back(key);
    }
  }
  std::vector<MigrationRoute> out;
  out.reserve(routes.size());
  for (auto& [pair, keys] : routes) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    out.push_back(MigrationRoute{pair.first, pair.second, std::move(keys)});
  }
  return out;
}

void FillHotKeyOverrides(
    MembershipStep& step,
    const std::vector<std::pair<ObjectKey, std::uint64_t>>& frequencies,
    const ElasticPartitionMap& map, std::size_t version) {
  TPART_CHECK(version >= 1);
  // Hottest first; ties broken by key so the pick is deterministic.
  std::vector<std::pair<ObjectKey, std::uint64_t>> order = frequencies;
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (order.size() > step.hot_keys) order.resize(step.hot_keys);

  const bool grow = step.n_after > step.n_before;
  // Grow: spread the hot set over the machines the step adds (that is the
  // Lion move — new capacity absorbs the hottest keys). Shrink: spread it
  // over the whole surviving set.
  const MachineId lo = grow ? static_cast<MachineId>(step.n_before) : 0;
  const MachineId hi = static_cast<MachineId>(step.n_after);
  TPART_CHECK(hi > lo);
  MachineId next = lo;
  for (const auto& [key, freq] : order) {
    (void)freq;
    const MachineId target = next;
    next = next + 1 >= hi ? lo : next + 1;
    // Only pin when pinning changes the key's home: gratuitous overrides
    // would inflate the moved set for nothing.
    if (map.LocateAt(version - 1, key) == target) continue;
    step.overrides[key] = target;
  }
}

// ---------------------------------------------------------------------
// Partition-image codec
// ---------------------------------------------------------------------

namespace {
inline constexpr std::uint8_t kFlagPresent = 1u << 0;
inline constexpr std::uint8_t kFlagState = 1u << 1;
inline constexpr std::uint8_t kFlagSticky = 1u << 2;
inline constexpr std::uint8_t kKnownFlags =
    kFlagPresent | kFlagState | kFlagSticky;
}  // namespace

std::string EncodePartitionImage(const PartitionImage& image) {
  std::string out;
  WireWriter w(&out);
  w.PutU8(kWireFormatVersion);
  w.PutVarint(image.entries.size());
  for (const auto& e : image.entries) {
    w.PutVarint(e.key);
    std::uint8_t flags = 0;
    if (e.present) flags |= kFlagPresent;
    if (e.has_state) flags |= kFlagState;
    if (e.has_sticky) flags |= kFlagSticky;
    w.PutU8(flags);
    if (e.present) EncodeRecord(e.value, w);
    if (e.has_state) {
      w.PutVarint(e.current);
      w.PutVarint(e.reads_served_since_wb);
      w.PutVarint(e.sticky_expire);
    }
  }
  return out;
}

Result<PartitionImage> DecodePartitionImage(std::string_view bytes) {
  const auto truncated = [] {
    return Status::InvalidArgument("truncated partition image");
  };
  WireReader r(bytes);
  std::uint8_t version = 0;
  if (!r.GetU8(&version)) return truncated();
  if (version != kWireFormatVersion) {
    return Status::InvalidArgument("unknown partition-image version");
  }
  std::uint64_t count = 0;
  if (!r.GetVarint(&count)) return truncated();
  PartitionImage image;
  // Each entry takes at least two bytes: a corrupt count cannot reserve
  // more than the input could hold.
  image.entries.reserve(std::min<std::uint64_t>(count, bytes.size() / 2));
  for (std::uint64_t i = 0; i < count; ++i) {
    PartitionImage::KeyEntry e;
    std::uint8_t flags = 0;
    if (!r.GetVarint(&e.key) || !r.GetU8(&flags)) return truncated();
    if ((flags & ~kKnownFlags) != 0) {
      return Status::InvalidArgument("unknown partition-image entry flags");
    }
    e.present = (flags & kFlagPresent) != 0;
    e.has_state = (flags & kFlagState) != 0;
    e.has_sticky = (flags & kFlagSticky) != 0;
    if (e.present && !DecodeRecord(r, &e.value)) return truncated();
    if (e.has_state) {
      std::uint64_t reads = 0;
      if (!r.GetVarint(&e.current) || !r.GetVarint(&reads) ||
          !r.GetVarint(&e.sticky_expire)) {
        return truncated();
      }
      e.reads_served_since_wb = static_cast<std::uint32_t>(reads);
    }
    image.entries.push_back(std::move(e));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after partition image");
  }
  return image;
}

std::string EncodeKeyList(const std::vector<ObjectKey>& keys) {
  std::string out;
  WireWriter w(&out);
  w.PutU8(kWireFormatVersion);
  w.PutVarint(keys.size());
  for (const ObjectKey key : keys) w.PutVarint(key);
  return out;
}

Result<std::vector<ObjectKey>> DecodeKeyList(std::string_view bytes) {
  WireReader r(bytes);
  std::uint8_t version = 0;
  std::uint64_t count = 0;
  if (!r.GetU8(&version) || version != kWireFormatVersion ||
      !r.GetVarint(&count)) {
    return Status::InvalidArgument("bad migration key list");
  }
  std::vector<ObjectKey> keys;
  keys.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ObjectKey key = 0;
    if (!r.GetVarint(&key)) {
      return Status::InvalidArgument("truncated migration key list");
    }
    keys.push_back(key);
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after migration key list");
  }
  return keys;
}

std::vector<std::string> ChunkImage(const std::string& encoded) {
  std::vector<std::string> chunks;
  if (encoded.empty()) {
    chunks.emplace_back();  // commit-side accounting expects >= 1 chunk
    return chunks;
  }
  for (std::size_t off = 0; off < encoded.size(); off += kImageChunkBytes) {
    chunks.push_back(
        encoded.substr(off, std::min(kImageChunkBytes,
                                     encoded.size() - off)));
  }
  return chunks;
}

}  // namespace tpart
