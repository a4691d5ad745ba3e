#include "cache/cache_area.h"

#include <algorithm>

namespace tpart {

void CacheArea::PutVersion(ObjectKey key, TxnId version, TxnId dst,
                           Record value) {
  versions_[{key, version, dst}] = std::move(value);
  NotePeak();
}

std::optional<Record> CacheArea::TakeVersion(ObjectKey key, TxnId version,
                                             TxnId dst) {
  auto it = versions_.find({key, version, dst});
  if (it == versions_.end()) return std::nullopt;
  Record out = std::move(it->second);
  // "After reading an object from the cache area, the destination
  // transaction can invalidate the enclosing entry immediately" (§5.2).
  versions_.erase(it);
  return out;
}

void CacheArea::PublishEpochEntry(ObjectKey key, TxnId version,
                                  SinkEpoch epoch, Record value) {
  EpochEntry& e = epochs_[{key, version}];
  e.value = std::move(value);
  e.epoch = epoch;
  NotePeak();
}

std::optional<Record> CacheArea::TryEpochEntry(ObjectKey key, TxnId version,
                                               bool invalidate,
                                               std::uint32_t total_reads) {
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

void CacheArea::Reset() {
  versions_.clear();
  epochs_.clear();
}

CacheArea::Image CacheArea::Capture() const {
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
  return image;
}

void CacheArea::Restore(const Image& image) {
  versions_.clear();
  epochs_.clear();
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
  NotePeak();
}

}  // namespace tpart
