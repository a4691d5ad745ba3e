#include "cache/cache_area.h"

#include <algorithm>

namespace tpart {

void CacheArea::PutVersion(ObjectKey key, TxnId version, TxnId dst,
                           Record value) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    versions_[{key, version, dst}] = std::move(value);
    NotePeakLocked();
  }
  cv_.notify_all();
}

std::optional<Record> CacheArea::TakeVersionLocked(
    const std::tuple<ObjectKey, TxnId, TxnId>& k) {
  auto it = versions_.find(k);
  if (it == versions_.end()) return std::nullopt;
  Record out = std::move(it->second);
  // "After reading an object from the cache area, the destination
  // transaction can invalidate the enclosing entry immediately" (§5.2).
  versions_.erase(it);
  return out;
}

std::optional<Record> CacheArea::TakeVersion(ObjectKey key, TxnId version,
                                             TxnId dst) {
  std::lock_guard<std::mutex> lock(mu_);
  return TakeVersionLocked({key, version, dst});
}

std::optional<Record> CacheArea::AwaitVersion(
    ObjectKey key, TxnId version, TxnId dst,
    std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  const std::tuple<ObjectKey, TxnId, TxnId> k{key, version, dst};
  cv_.wait_for(lock, timeout,
               [&] { return shutdown_ || versions_.count(k) > 0; });
  return TakeVersionLocked(k);  // nullopt: shutdown or timeout
}

bool CacheArea::HasVersion(ObjectKey key, TxnId version, TxnId dst) const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_.count({key, version, dst}) > 0;
}

void CacheArea::PublishEpochEntry(ObjectKey key, TxnId version,
                                  SinkEpoch epoch, Record value) {
  std::lock_guard<std::mutex> lock(mu_);
  EpochEntry& e = epochs_[{key, version}];
  e.value = std::move(value);
  e.epoch = epoch;
  NotePeakLocked();
}

std::optional<Record> CacheArea::TryEpochEntry(ObjectKey key, TxnId version,
                                               bool invalidate,
                                               std::uint32_t total_reads) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = epochs_.find({key, version});
  if (it == epochs_.end()) return std::nullopt;
  EpochEntry& e = it->second;
  Record out = e.value;
  ++e.reads_served;
  if (invalidate) e.total_reads = total_reads;
  if (e.total_reads != 0 && e.reads_served >= e.total_reads) {
    epochs_.erase(it);
  }
  return out;
}

void CacheArea::PutSticky(ObjectKey key, TxnId version, Record value,
                          SinkEpoch expire_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  sticky_[key] = StickyEntry{std::move(value), version, expire_epoch};
}

std::optional<Record> CacheArea::ReadSticky(ObjectKey key,
                                            TxnId expected_version,
                                            SinkEpoch now_epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sticky_.find(key);
  if (it == sticky_.end()) return std::nullopt;
  const StickyEntry& e = it->second;
  if (e.version != expected_version || e.expire_epoch < now_epoch) {
    return std::nullopt;
  }
  ++sticky_hits_;
  return e.value;
}

void CacheArea::EvictExpiredSticky(SinkEpoch now_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  // FlatMap::erase shifts elements, so collect first, then erase.
  std::vector<ObjectKey> expired;
  for (const auto& [key, e] : sticky_) {
    if (e.expire_epoch < now_epoch) expired.push_back(key);
  }
  for (const ObjectKey key : expired) sticky_.erase(key);
}

void CacheArea::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

void CacheArea::Reset() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    versions_.clear();
    epochs_.clear();
    sticky_.clear();
    shutdown_ = false;
  }
  cv_.notify_all();
}

CacheArea::Image CacheArea::Capture() const {
  std::lock_guard<std::mutex> lock(mu_);
  Image image;
  image.versions.reserve(versions_.size());
  for (const auto& [k, value] : versions_) {
    image.versions.push_back(Image::VersionEntryImage{
        std::get<0>(k), std::get<1>(k), std::get<2>(k), value});
  }
  image.epochs.reserve(epochs_.size());
  for (const auto& [k, e] : epochs_) {
    image.epochs.push_back(Image::EpochEntryImage{
        k.first, k.second, e.value, e.epoch, e.reads_served, e.total_reads});
  }
  image.sticky.reserve(sticky_.size());
  for (const auto& [key, e] : sticky_) {
    image.sticky.push_back(
        Image::StickyImage{key, e.value, e.version, e.expire_epoch});
  }
  // The hash tables iterate in table order; sort so the image (and any
  // checkpoint bytes derived from it) stays key-ordered and deterministic.
  std::sort(image.versions.begin(), image.versions.end(),
            [](const Image::VersionEntryImage& a,
               const Image::VersionEntryImage& b) {
              return std::tie(a.key, a.version, a.dst) <
                     std::tie(b.key, b.version, b.dst);
            });
  std::sort(image.epochs.begin(), image.epochs.end(),
            [](const Image::EpochEntryImage& a,
               const Image::EpochEntryImage& b) {
              return std::tie(a.key, a.version) < std::tie(b.key, b.version);
            });
  std::sort(image.sticky.begin(), image.sticky.end(),
            [](const Image::StickyImage& a, const Image::StickyImage& b) {
              return a.key < b.key;
            });
  return image;
}

void CacheArea::Restore(const Image& image) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    versions_.clear();
    epochs_.clear();
    sticky_.clear();
    for (const auto& v : image.versions) {
      versions_[{v.key, v.version, v.dst}] = v.value;
    }
    for (const auto& e : image.epochs) {
      EpochEntry& entry = epochs_[{e.key, e.version}];
      entry.value = e.value;
      entry.epoch = e.epoch;
      entry.reads_served = e.reads_served;
      entry.total_reads = e.total_reads;
    }
    for (const auto& s : image.sticky) {
      sticky_[s.key] = StickyEntry{s.value, s.version, s.expire_epoch};
    }
    shutdown_ = false;
    NotePeakLocked();
  }
  cv_.notify_all();
}

std::optional<CacheArea::Image::StickyImage> CacheArea::ExtractSticky(
    ObjectKey key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sticky_.find(key);
  if (it == sticky_.end()) return std::nullopt;
  Image::StickyImage out{key, it->second.value, it->second.version,
                         it->second.expire_epoch};
  sticky_.erase(it);
  return out;
}

void CacheArea::InstallSticky(const Image::StickyImage& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  sticky_[entry.key] = StickyEntry{entry.value, entry.version,
                                   entry.expire_epoch};
}

std::size_t CacheArea::num_version_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_.size();
}

std::size_t CacheArea::num_epoch_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_.size();
}

std::size_t CacheArea::num_sticky_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sticky_.size();
}

}  // namespace tpart
