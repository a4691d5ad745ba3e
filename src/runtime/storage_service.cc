#include "runtime/storage_service.h"

#include <algorithm>

#include "common/logging.h"

namespace tpart {

namespace {

using ReadyVec =
    std::vector<std::pair<StorageService::ReadDone, Record>>;

// Per-thread pool of ready-callback vectors (DESIGN §4h): the drain path
// runs on every read/write-back, and a fresh vector per call was one of
// the hottest allocation sites. Pooling (instead of a bare thread_local)
// stays correct even if a callback re-enters the service on this thread.
std::vector<ReadyVec>& ReadyPool() {
  thread_local std::vector<ReadyVec> pool;
  return pool;
}

ReadyVec AcquireReadyVec() {
  auto& pool = ReadyPool();
  if (pool.empty()) return {};
  ReadyVec v = std::move(pool.back());
  pool.pop_back();
  return v;
}

void ReleaseReadyVec(ReadyVec v) {
  v.clear();
  ReadyPool().push_back(std::move(v));
}

}  // namespace

Record StorageService::CurrentValueLocked(ObjectKey key, const KeyState& st) {
  (void)st;
  Result<Record> r = store_->Read(key);
  return r.ok() ? std::move(r).value() : Record::Absent();
}

void StorageService::DrainKeyLocked(
    ObjectKey key, KeyState& st,
    std::vector<std::pair<ReadDone, Record>>& ready) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    // Serve parked reads of the current version.
    for (std::size_t i = 0; i < st.parked_reads.size();) {
      if (st.parked_reads[i].expected == st.current) {
        ready.emplace_back(std::move(st.parked_reads[i].done),
                           CurrentValueLocked(key, st));
        st.parked_reads.erase(st.parked_reads.begin() +
                              static_cast<std::ptrdiff_t>(i));
        ++st.reads_served_since_wb;
        ++reads_served_total_;
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
        [&](const ParkedWb& w) { return w.replaces == st.current; });
    if (it != st.parked_wbs.end()) {
      ParkedWb& wb = *it;
      if (st.reads_served_since_wb >= wb.awaits) {
        if (wb.value.is_absent()) {
          // Blind delete: an absent write-back may target a key already
          // gone; kNotFound is the expected no-op, not an error.
          (void)store_->Delete(key);
        } else {
          store_->Upsert(key, wb.value);
        }
        ++write_backs_applied_;
        MarkLocked(key, st, kRecordWritten);
        st.current = wb.version;
        st.reads_served_since_wb = 0;
        st.has_sticky = wb.sticky;
        st.sticky_expire = wb.epoch + kStickyTtl;
        st.parked_wbs.erase(it);
        progressed = true;
      }
    }
  }
}

void StorageService::AsyncRead(ObjectKey key, TxnId expected_version,
                               ReadDone done,
                               std::optional<RemoteReadTag> remote) {
  ReadyVec ready = AcquireReadyVec();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      // See Shutdown(): only a local reader gets the absent placeholder.
      if (!remote.has_value()) {
        ready.emplace_back(std::move(done), Record::Absent());
      }
    } else {
      KeyState& st = keys_[key];
      MarkLocked(key, st, kStateChanged);
      if (st.current == expected_version) {
        if (st.has_sticky) ++sticky_hits_;
        ready.emplace_back(std::move(done), CurrentValueLocked(key, st));
        ++st.reads_served_since_wb;
        ++reads_served_total_;
        DrainKeyLocked(key, st, ready);
      } else {
        st.parked_reads.push_back(ParkedRead{expected_version,
                                             std::move(done),
                                             std::move(remote)});
      }
    }
  }
  for (auto& [cb, value] : ready) cb(std::move(value));
  ReleaseReadyVec(std::move(ready));
}

void StorageService::ApplyWriteBack(ObjectKey key, TxnId version,
                                    TxnId replaces, Record value,
                                    std::uint32_t awaits, bool sticky,
                                    SinkEpoch epoch) {
  ReadyVec ready = AcquireReadyVec();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    KeyState& st = keys_[key];
    MarkLocked(key, st, kStateChanged);
    // Mirror std::map::emplace semantics: a duplicate (same replaced
    // version) is dropped, not double-applied.
    const bool dup = std::any_of(
        st.parked_wbs.begin(), st.parked_wbs.end(),
        [&](const ParkedWb& w) { return w.replaces == replaces; });
    if (!dup) {
      st.parked_wbs.push_back(
          ParkedWb{version, replaces, std::move(value), awaits, sticky,
                   epoch});
    }
    DrainKeyLocked(key, st, ready);
  }
  for (auto& [cb, v] : ready) cb(std::move(v));
  ReleaseReadyVec(std::move(ready));
}

void StorageService::Shutdown() {
  ReadyVec ready;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    for (auto& [key, st] : keys_) {
      (void)key;
      for (auto& pr : st.parked_reads) {
        // A remote requester may not be draining yet (a failed run aborts
        // machines one at a time): an absent reply would run a procedure
        // on a placeholder there. Drop it; the requester's own
        // AbortPendingWaits releases its wait.
        if (!pr.remote.has_value()) {
          ready.emplace_back(std::move(pr.done), Record::Absent());
        }
      }
      st.parked_reads.clear();
    }
  }
  for (auto& [cb, v] : ready) cb(std::move(v));
}

void StorageService::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  // A crash-stop drops parked reads and write-backs on the floor: the
  // log replay re-issues them. ReadDone callbacks still parked here only
  // capture shared or machine-owned state, so dropping them is safe.
  keys_.clear();
  changed_keys_.clear();
  shutdown_ = false;
}

std::size_t StorageService::FoldChanges(Image& image,
                                        std::vector<ObjectKey>& written) {
  std::lock_guard<std::mutex> lock(mu_);
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
      ki.parked_wbs.clear();
      for (const ParkedWb& wb : st.parked_wbs) {
        ki.parked_wbs.push_back(Image::ParkedWbImage{
            wb.version, wb.replaces, wb.value, wb.awaits, wb.sticky,
            wb.epoch});
      }
      std::sort(ki.parked_wbs.begin(), ki.parked_wbs.end(),
                [](const Image::ParkedWbImage& a,
                   const Image::ParkedWbImage& b) {
                  return a.replaces < b.replaces;
                });
      ki.parked_remote_reads.clear();
      for (const ParkedRead& pr : st.parked_reads) {
        // No plan is mid-gather at capture, so every parked read must be
        // a remote pull; a local read here would be lost by the image. A
        // local read parks only through AsyncRead, which marks its key.
        TPART_CHECK(pr.remote.has_value())
            << "untagged parked storage read at checkpoint capture (key="
            << key << ")";
        ki.parked_remote_reads.push_back(
            Image::ParkedRemoteRead{pr.expected, *pr.remote});
      }
      ++folded;
    }
    if ((st.changed & kRecordWritten) != 0) written.push_back(key);
    st.changed = 0;
  }
  changed_keys_.clear();
  return folded;
}

void StorageService::Restore(const Image& image,
                             const MakeRemoteDone& make_done) {
  std::lock_guard<std::mutex> lock(mu_);
  keys_.clear();
  changed_keys_.clear();
  for (const auto& [key, ki] : image.keys) {
    KeyState& st = keys_[key];
    st.current = ki.current;
    st.reads_served_since_wb = ki.reads_served_since_wb;
    st.has_sticky = ki.has_sticky;
    st.sticky_expire = ki.sticky_expire;
    for (const auto& wb : ki.parked_wbs) {
      st.parked_wbs.push_back(ParkedWb{wb.version, wb.replaces, wb.value,
                                       wb.awaits, wb.sticky, wb.epoch});
    }
    for (const auto& prr : ki.parked_remote_reads) {
      st.parked_reads.push_back(
          ParkedRead{prr.expected, make_done(prr.tag), prr.tag});
    }
  }
  shutdown_ = false;
}

std::vector<ObjectKey> StorageService::StateKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
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
  std::lock_guard<std::mutex> lock(mu_);
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
    MarkLocked(key, st, kStateChanged);  // the fold drops it from the image
    keys_.erase(it);
  }
  return out;
}

void StorageService::InstallKeys(const std::vector<MigratedKeyState>& keys) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const MigratedKeyState& mk : keys) {
    KeyState& st = keys_[mk.key];
    st.current = mk.current;
    st.reads_served_since_wb = mk.reads_served_since_wb;
    st.has_sticky = mk.has_sticky;
    st.sticky_expire = mk.sticky_expire;
    MarkLocked(mk.key, st, kStateChanged);
  }
}

void StorageService::MarkDirty(const std::vector<ObjectKey>& keys) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const ObjectKey key : keys) {
    auto it = keys_.find(key);
    if (it == keys_.end()) {
      changed_keys_.push_back(key);
    } else {
      MarkLocked(key, it->second, kRecordWritten);
    }
  }
}

std::uint64_t StorageService::sticky_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sticky_hits_;
}

std::uint64_t StorageService::reads_served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reads_served_total_;
}

std::uint64_t StorageService::write_backs_applied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_backs_applied_;
}

}  // namespace tpart
