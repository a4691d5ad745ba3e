#include "runtime/storage_service.h"

#include <algorithm>

#include "common/logging.h"

namespace tpart {

Record StorageService::Serve(ObjectKey key, KeyState& st) {
  ++st.reads_served_since_wb;
  ++reads_served_total_;
  Result<Record> r = store_->Read(key);
  return r.ok() ? std::move(r).value() : Record::Absent();
}

void StorageService::DrainKey(ObjectKey key, KeyState& st) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    // Serve parked reads of the current version.
    for (std::size_t i = 0; i < st.parked_reads.size();) {
      if (st.parked_reads[i].expected == st.current) {
        const RemoteReadTag tag = st.parked_reads[i].tag;
        st.parked_reads.erase(st.parked_reads.begin() +
                              static_cast<std::ptrdiff_t>(i));
        reply_(tag, Serve(key, st));
        progressed = true;
      } else {
        ++i;
      }
    }
    // Apply the next write-back if its gates are open: it must replace
    // the *current* version (strict replacement order) and all planned
    // readers of that version must have been served.
    auto it = std::find_if(
        st.parked_wbs.begin(), st.parked_wbs.end(),
        [&](const ParkedWriteBack& w) { return w.replaces == st.current; });
    if (it != st.parked_wbs.end() && st.reads_served_since_wb >= it->awaits) {
      Install(key, st, it->version, std::move(it->value), it->sticky,
              it->epoch);
      st.parked_wbs.erase(it);
      progressed = true;
    }
  }
}

void StorageService::Install(ObjectKey key, KeyState& st, TxnId version,
                             Record&& value, bool sticky, SinkEpoch epoch) {
  if (value.is_absent()) {
    // Blind delete: an absent write-back may target a key already gone;
    // kNotFound is the expected no-op, not an error.
    (void)store_->Delete(key);
  } else {
    store_->Upsert(key, std::move(value));
  }
  ++write_backs_applied_;
  Mark(key, st, kRecordWritten);
  st.current = version;
  st.reads_served_since_wb = 0;
  st.has_sticky = sticky;
  st.sticky_expire = epoch + kStickyTtl;
}

std::optional<Record> StorageService::TryRead(ObjectKey key, TxnId expected) {
  // A key without state is at its initial version (tag 0).
  auto it = keys_.find(key);
  const TxnId current = it == keys_.end() ? kInvalidTxnId : it->second.current;
  if (current != expected) return std::nullopt;
  KeyState& st = it == keys_.end() ? keys_[key] : it->second;
  Mark(key, st, kStateChanged);
  if (st.has_sticky) ++sticky_hits_;
  Record value = Serve(key, st);
  DrainKey(key, st);
  return value;
}

void StorageService::RemoteRead(ObjectKey key, TxnId expected,
                                RemoteReadTag tag) {
  KeyState& st = keys_[key];
  Mark(key, st, kStateChanged);
  if (st.current != expected) {
    st.parked_reads.push_back(ParkedRemoteRead{expected, tag});
    return;
  }
  if (st.has_sticky) ++sticky_hits_;
  reply_(tag, Serve(key, st));
  DrainKey(key, st);
}

void StorageService::ApplyWriteBack(ObjectKey key, TxnId version,
                                    TxnId replaces, Record value,
                                    std::uint32_t awaits, bool sticky,
                                    SinkEpoch epoch) {
  KeyState& st = keys_[key];
  Mark(key, st, kStateChanged);
  if (st.parked_wbs.empty() && replaces == st.current &&
      st.reads_served_since_wb >= awaits) {
    // Both gates open and nothing parked ahead of it: apply it now, as
    // DrainKey would the moment it parked, without parking a copy.
    Install(key, st, version, std::move(value), sticky, epoch);
  } else if (std::none_of(st.parked_wbs.begin(), st.parked_wbs.end(),
                          [&](const ParkedWriteBack& w) {
                            return w.replaces == replaces;
                          })) {
    // Mirror std::map::emplace semantics: a duplicate (same replaced
    // version) is dropped, not double-applied.
    st.parked_wbs.push_back(ParkedWriteBack{version, replaces,
                                            std::move(value), awaits, sticky,
                                            epoch});
  }
  DrainKey(key, st);
}

void StorageService::Reset() {
  // A crash-stop drops parked reads and write-backs on the floor: the log
  // replay re-issues them.
  keys_.clear();
  changed_keys_.clear();
}

std::size_t StorageService::FoldChanges(Image& image,
                                        std::vector<ObjectKey>& written) {
  std::size_t folded = 0;
  for (const ObjectKey key : changed_keys_) {
    auto it = keys_.find(key);
    if (it == keys_.end()) {
      // Extracted, or a record migration moved while the key had no state.
      folded += image.keys.erase(key);
      written.push_back(key);
      continue;
    }
    KeyState& st = it->second;
    if (st.changed == 0) {
      // A repeat entry: the key lost its state (or had none) earlier in
      // this interval and was re-created, so its record may have moved.
      written.push_back(key);
      continue;
    }
    if ((st.changed & kStateChanged) != 0) {
      Image::KeyImage& ki = image.keys[key];
      ki.current = st.current;
      ki.reads_served_since_wb = st.reads_served_since_wb;
      ki.has_sticky = st.has_sticky;
      ki.sticky_expire = st.sticky_expire;
      ki.parked_wbs = st.parked_wbs;
      std::sort(ki.parked_wbs.begin(), ki.parked_wbs.end(),
                [](const ParkedWriteBack& a, const ParkedWriteBack& b) {
                  return a.replaces < b.replaces;
                });
      ki.parked_remote_reads = st.parked_reads;
      ++folded;
    }
    if ((st.changed & kRecordWritten) != 0) written.push_back(key);
    st.changed = 0;
  }
  changed_keys_.clear();
  return folded;
}

void StorageService::Restore(const Image& image) {
  keys_.clear();
  changed_keys_.clear();
  for (const auto& [key, ki] : image.keys) {
    KeyState& st = keys_[key];
    st.current = ki.current;
    st.reads_served_since_wb = ki.reads_served_since_wb;
    st.has_sticky = ki.has_sticky;
    st.sticky_expire = ki.sticky_expire;
    st.parked_wbs = ki.parked_wbs;
    st.parked_reads = ki.parked_remote_reads;
  }
}

std::vector<ObjectKey> StorageService::StateKeys() const {
  std::vector<ObjectKey> out;
  out.reserve(keys_.size());
  for (const auto& [key, st] : keys_) {
    (void)st;
    out.push_back(key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<StorageService::MigratedKeyState> StorageService::ExtractKeys(
    const std::vector<ObjectKey>& keys) {
  std::vector<MigratedKeyState> out;
  out.reserve(keys.size());
  for (const ObjectKey key : keys) {
    auto it = keys_.find(key);
    if (it == keys_.end()) {
      changed_keys_.push_back(key);  // its record moves all the same
      continue;
    }
    KeyState& st = it->second;
    TPART_CHECK(st.parked_reads.empty() && st.parked_wbs.empty())
        << "migrating key " << key << " with parked storage work — the "
        << "barrier did not quiesce the stream";
    out.push_back(MigratedKeyState{key, st.current, st.reads_served_since_wb,
                                   st.has_sticky, st.sticky_expire});
    Mark(key, st, kStateChanged);  // the fold drops it from the image
    keys_.erase(it);
  }
  return out;
}

void StorageService::InstallKeys(const std::vector<MigratedKeyState>& keys) {
  for (const MigratedKeyState& mk : keys) {
    KeyState& st = keys_[mk.key];
    st.current = mk.current;
    st.reads_served_since_wb = mk.reads_served_since_wb;
    st.has_sticky = mk.has_sticky;
    st.sticky_expire = mk.sticky_expire;
    Mark(mk.key, st, kStateChanged);
  }
}

void StorageService::MarkDirty(const std::vector<ObjectKey>& keys) {
  for (const ObjectKey key : keys) {
    auto it = keys_.find(key);
    if (it == keys_.end()) {
      changed_keys_.push_back(key);
    } else {
      Mark(key, it->second, kRecordWritten);
    }
  }
}

}  // namespace tpart
