#ifndef TPART_ELASTIC_MIGRATION_H_
#define TPART_ELASTIC_MIGRATION_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "elastic/elastic_map.h"
#include "storage/record.h"

namespace tpart {

/// One source -> target key shipment of a membership step. The control
/// plane computes routes at the migration barrier by diffing the elastic
/// map across the step; each route becomes one kMigrateBegin +
/// kPartitionImage chunk stream + kMigrateCommit exchange on the wire.
struct MigrationRoute {
  MachineId source = kInvalidMachine;
  MachineId target = kInvalidMachine;
  std::vector<ObjectKey> keys;  // sorted, deterministic
};

/// Diffs `map` across step `version-1 -> version` for the given per-source
/// key universes (everything a source machine holds state for: records
/// and storage-service key state) and groups the moved keys into routes
/// sorted by (source, target). Keys within a route are sorted, so
/// same-seed runs produce byte-identical migration traffic.
std::vector<MigrationRoute> PlanMigration(
    const ElasticPartitionMap& map, std::size_t version,
    const std::vector<std::pair<MachineId, std::vector<ObjectKey>>>&
        keys_by_source);

/// Fills a kHotKey step's override table from observed key frequencies
/// (Lion-style): the `step.hot_keys` hottest keys — ties broken by key so
/// the choice is a pure function of the stream prefix — are pinned
/// round-robin across the machines the step adds (grow) or across the
/// surviving set (shrink). Keys that would not otherwise move under the
/// rehash rule still get an override only if pinning changes their home.
void FillHotKeyOverrides(
    MembershipStep& step,
    const std::vector<std::pair<ObjectKey, std::uint64_t>>& frequencies,
    const ElasticPartitionMap& map, std::size_t version);

// ---------------------------------------------------------------------
// Partition image: what actually crosses the wire during a migration.
// ---------------------------------------------------------------------

/// Per-key migration state: the record (if present in the store) plus the
/// storage-service version discipline (current tag, reads served toward
/// the next write-back's gate, sticky flags). Keys the run never touched
/// have default state on both sides and are shipped with just their
/// record.
struct PartitionImage {
  struct KeyEntry {
    ObjectKey key = 0;
    bool present = false;  // record exists in the store
    Record value = Record::Absent();
    /// StorageService::KeyState projection.
    bool has_state = false;
    TxnId current = kInvalidTxnId;
    std::uint32_t reads_served_since_wb = 0;
    bool has_sticky = false;
    SinkEpoch sticky_expire = 0;
    bool operator==(const KeyEntry&) const = default;
  };
  std::vector<KeyEntry> entries;
};

/// Per entry: key, a flag byte (present | state | sticky), the record
/// when present, and the state fields when it has state. Decoding rejects
/// truncated input, trailing bytes, an unknown format version and any
/// other flag bit with InvalidArgument.
std::string EncodePartitionImage(const PartitionImage& image);
Result<PartitionImage> DecodePartitionImage(std::string_view bytes);

/// Moved-key list carried in kMigrateBegin's plan_bytes.
std::string EncodeKeyList(const std::vector<ObjectKey>& keys);
Result<std::vector<ObjectKey>> DecodeKeyList(std::string_view bytes);

/// Splits an encoded image into wire chunks. Chunks are well under the
/// frame ceiling so one chunk is one transport message.
inline constexpr std::size_t kImageChunkBytes = 32 * 1024;
std::vector<std::string> ChunkImage(const std::string& encoded);

/// Stream id carried in Message::req_id for every message of one route:
/// (migration sequence number, source, target) packed so duplicate
/// deliveries across retries dedupe app-level by (stream, chunk index).
inline std::uint64_t MigrationStreamId(std::uint64_t seq, MachineId src,
                                       MachineId dst) {
  return (seq << 16) | (static_cast<std::uint64_t>(src) << 8) |
         static_cast<std::uint64_t>(dst);
}

}  // namespace tpart

#endif  // TPART_ELASTIC_MIGRATION_H_
