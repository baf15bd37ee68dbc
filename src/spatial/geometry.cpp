#include "spatial/geometry.hpp"

#include <algorithm>
#include <cassert>

namespace ks::spatial {

SliceMap::SliceMap(int groups) : groups_(groups) {
  assert(groups_ >= 0 && groups_ <= 64);
}

int SliceMap::FreeGroups() const {
  int used = 0;
  for (int g = 0; g < groups_; ++g) {
    if ((mask_ >> g) & 1u) ++used;
  }
  return groups_ - used;
}

bool SliceMap::InRange(int offset, int len) const {
  return offset >= 0 && len >= 1 && offset + len <= groups_;
}

bool SliceMap::IsFree(int offset, int len) const {
  if (!InRange(offset, len)) return false;
  for (int g = offset; g < offset + len; ++g) {
    if ((mask_ >> g) & 1u) return false;
  }
  return true;
}

std::optional<int> SliceMap::FirstFit(int len) const {
  if (len < 1 || len > groups_) return std::nullopt;
  for (int offset = 0; offset + len <= groups_; ++offset) {
    if (IsFree(offset, len)) return offset;
  }
  return std::nullopt;
}

Status SliceMap::Occupy(int offset, int len) {
  if (!InRange(offset, len)) {
    return InvalidArgumentError("slice out of range");
  }
  if (!IsFree(offset, len)) {
    return FailedPreconditionError("slice groups already occupied");
  }
  for (int g = offset; g < offset + len; ++g) mask_ |= (1ull << g);
  return Status::Ok();
}

Status SliceMap::Release(int offset, int len) {
  if (!InRange(offset, len)) {
    return InvalidArgumentError("slice out of range");
  }
  for (int g = offset; g < offset + len; ++g) {
    if (((mask_ >> g) & 1u) == 0) {
      return FailedPreconditionError("slice group not occupied");
    }
  }
  for (int g = offset; g < offset + len; ++g) mask_ &= ~(1ull << g);
  return Status::Ok();
}

int SliceMap::LargestFreeRun() const {
  int best = 0;
  int run = 0;
  for (int g = 0; g < groups_; ++g) {
    if ((mask_ >> g) & 1u) {
      run = 0;
    } else {
      ++run;
      best = std::max(best, run);
    }
  }
  return best;
}

double SliceMap::FragmentationScore() const {
  const int free = FreeGroups();
  if (free == 0) return 0.0;
  return 1.0 - static_cast<double>(LargestFreeRun()) /
                   static_cast<double>(free);
}

std::string SliceMap::DebugString() const {
  std::string out;
  out.reserve(static_cast<std::size_t>(groups_));
  for (int g = 0; g < groups_; ++g) {
    out.push_back(((mask_ >> g) & 1u) ? '#' : '.');
  }
  return out;
}

double PoolFragmentationRatio(const std::vector<const SliceMap*>& maps) {
  std::int64_t free = 0;
  std::int64_t largest = 0;
  for (const SliceMap* map : maps) {
    if (map == nullptr) continue;
    free += map->FreeGroups();
    largest += map->LargestFreeRun();
  }
  if (free == 0) return 0.0;
  return 1.0 - static_cast<double>(largest) / static_cast<double>(free);
}

}  // namespace ks::spatial
