#include "vgpu/swap.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <tuple>

namespace ks::vgpu {

SwapManager::SwapManager(std::uint64_t capacity_bytes, SwapConfig config)
    : capacity_bytes_(capacity_bytes), config_(config) {
  assert(capacity_bytes_ > 0);
  assert(config_.page_bytes > 0);
  assert(config_.link_bandwidth_bytes_per_s > 0);
  assert(capacity_bytes_ % config_.page_bytes == 0 &&
         "device memory must be a whole number of pages");
}

Status SwapManager::Allocate(const ContainerId& owner, std::uint64_t bytes) {
  if (bytes == 0) return InvalidArgumentError("zero-byte allocation");
  const std::uint64_t pages = PagesFor(bytes);
  if (config_.oversubscription_factor > 0) {
    const std::uint64_t bound = static_cast<std::uint64_t>(
        static_cast<double>(capacity_pages()) *
        config_.oversubscription_factor);
    if (total_allocated_pages_ + pages > bound) {
      return ResourceExhaustedError("oversubscription bound exceeded");
    }
  }
  auto [it, inserted] = containers_.try_emplace(owner);
  State& s = it->second;
  if (inserted) s.reg_seq = next_reg_seq_++;
  s.pages_allocated += pages;
  total_allocated_pages_ += pages;
  // Greedily place the new pages on-device while space is free; the
  // remainder starts swapped out.
  const std::uint64_t free = capacity_pages() - total_resident_pages_;
  const std::uint64_t place = std::min(pages, free);
  s.pages_resident += place;
  total_resident_pages_ += place;
  return Status::Ok();
}

Status SwapManager::Free(const ContainerId& owner, std::uint64_t bytes) {
  const std::uint64_t pages = PagesFor(bytes);
  auto it = containers_.find(owner);
  if (it == containers_.end() || it->second.pages_allocated < pages) {
    return InvalidArgumentError("freeing more than allocated");
  }
  State& s = it->second;
  s.pages_allocated -= pages;
  total_allocated_pages_ -= pages;
  // Release resident pages first.
  const std::uint64_t from_resident = std::min(pages, s.pages_resident);
  s.pages_resident -= from_resident;
  total_resident_pages_ -= from_resident;
  return Status::Ok();
}

void SwapManager::FreeAll(const ContainerId& owner) {
  auto it = containers_.find(owner);
  if (it == containers_.end()) return;
  total_allocated_pages_ -= it->second.pages_allocated;
  total_resident_pages_ -= it->second.pages_resident;
  containers_.erase(it);
}

Duration SwapManager::MakeResident(const ContainerId& owner, Time now) {
  last_migration_bytes_ = 0;
  auto it = containers_.find(owner);
  if (it == containers_.end()) return Duration{0};
  State& s = it->second;
  s.last_run = now;
  if (s.pages_resident >= s.pages_allocated) return Duration{0};

  std::uint64_t need = s.pages_allocated - s.pages_resident;
  assert(s.pages_allocated <= capacity_pages() &&
         "a single container cannot exceed physical memory");
  std::uint64_t evicted = 0;

  // Evict least-recently-running victims until the working set fits.
  // Never-run owners all carry last_run == 0; among them the earliest
  // registration loses, so the order is identical no matter how the
  // sweep runner named or interleaved the containers.
  while (capacity_pages() - total_resident_pages_ < need) {
    State* victim = nullptr;
    for (auto& [id, st] : containers_) {
      if (id == owner || st.pages_resident == 0) continue;
      if (victim == nullptr ||
          std::tie(st.last_run, st.reg_seq) <
              std::tie(victim->last_run, victim->reg_seq)) {
        victim = &st;
      }
    }
    if (victim == nullptr) break;  // nothing evictable
    const std::uint64_t shortfall =
        need - (capacity_pages() - total_resident_pages_);
    const std::uint64_t take = std::min(victim->pages_resident, shortfall);
    victim->pages_resident -= take;
    total_resident_pages_ -= take;
    evicted += take;
  }

  const std::uint64_t place =
      std::min(need, capacity_pages() - total_resident_pages_);
  s.pages_resident += place;
  total_resident_pages_ += place;
  ++swap_ins_;
  const std::uint64_t moved = (place + evicted) * config_.page_bytes;
  bytes_migrated_ += moved;
  last_migration_bytes_ = moved;

  // One serial link per device: a migration that starts while another is
  // in flight queues behind it. The in-bound owner is charged the wait
  // plus its own transfer.
  const Duration transfer{static_cast<std::int64_t>(
      static_cast<double>(moved) / config_.link_bandwidth_bytes_per_s * 1e6)};
  const Time start = std::max(now, link_free_at_);
  link_free_at_ = start + transfer;
  link_busy_total_ += transfer;
  return link_free_at_ - now;
}

std::uint64_t SwapManager::AllocatedBy(const ContainerId& owner) const {
  auto it = containers_.find(owner);
  return it == containers_.end()
             ? 0
             : it->second.pages_allocated * config_.page_bytes;
}

std::uint64_t SwapManager::ResidentOf(const ContainerId& owner) const {
  auto it = containers_.find(owner);
  return it == containers_.end()
             ? 0
             : it->second.pages_resident * config_.page_bytes;
}

std::uint64_t SwapManager::SwappedOf(const ContainerId& owner) const {
  auto it = containers_.find(owner);
  if (it == containers_.end()) return 0;
  return (it->second.pages_allocated - it->second.pages_resident) *
         config_.page_bytes;
}

double SwapManager::LinkBusyFraction(Time now) const {
  if (now.count() <= 0) return 0.0;
  return std::min(1.0, ToSeconds(link_busy_total_) / ToSeconds(now));
}

std::string SwapManager::DebugString() const {
  std::ostringstream os;
  os << "swap capacity=" << capacity_bytes_
     << " page=" << config_.page_bytes
     << " allocated=" << total_allocated()
     << " resident=" << total_resident() << "\n";
  for (const auto& [id, s] : containers_) {
    os << "  " << id.value() << " allocated=" << s.pages_allocated
       << "p resident=" << s.pages_resident
       << "p last_run_us=" << s.last_run.count() << "\n";
  }
  return os.str();
}

}  // namespace ks::vgpu
