#include "kubeshare/pool.hpp"

#include <cassert>
#include <cstdio>
#include <limits>

namespace ks::kubeshare {

namespace {
constexpr double kCapacityEps = 1e-9;
}

double VgpuPool::mem_capacity() const {
  if (!memory_overcommit_) return 1.0;
  if (overcommit_factor_ <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return overcommit_factor_;
}

void VgpuPool::EnableSpatial(int sm_groups) {
  assert(sm_groups >= 1 && sm_groups <= 64);
  sm_groups_ = sm_groups;
  for (auto& [id, dev] : entries_) {
    if (dev.slices.groups() != sm_groups_) {
      assert(dev.slices.UsedGroups() == 0);
      dev.slices = spatial::SliceMap(sm_groups_);
    }
  }
}

VgpuInfo& VgpuPool::Create(const std::string& node) {
  // The paper's new_dev() "generates a device variable with a new hashed
  // id"; a counter-derived id is equally unique and keeps runs
  // deterministic.
  GpuId id("vgpu-" + std::to_string(next_id_++));
  VgpuInfo info;
  info.id = id;
  info.node = node;
  if (sm_groups_ > 0) info.slices = spatial::SliceMap(sm_groups_);
  auto [it, inserted] = entries_.emplace(id, std::move(info));
  assert(inserted);
  ++node_devices_[node];
  return it->second;
}

Expected<GpuId> VgpuPool::CreateWithId(const GpuId& id,
                                       const std::string& node) {
  if (id.empty()) return InvalidArgumentError("empty GPUID");
  if (entries_.count(id) > 0) {
    return AlreadyExistsError("vGPU exists: " + id.value());
  }
  VgpuInfo info;
  info.id = id;
  info.node = node;
  if (sm_groups_ > 0) info.slices = spatial::SliceMap(sm_groups_);
  entries_.emplace(id, std::move(info));
  ++node_devices_[node];
  return id;
}

Expected<VgpuInfo> VgpuPool::Get(const GpuId& id) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) return NotFoundError("no vGPU: " + id.value());
  return it->second;
}

VgpuInfo* VgpuPool::Find(const GpuId& id) {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<const VgpuInfo*> VgpuPool::List() const {
  std::vector<const VgpuInfo*> out;
  out.reserve(entries_.size());
  for (const auto& [id, info] : entries_) out.push_back(&info);
  return out;
}

std::size_t VgpuPool::CountOnNode(const std::string& node) const {
  auto it = node_devices_.find(node);
  return it == node_devices_.end() ? 0 : static_cast<std::size_t>(it->second);
}

Status VgpuPool::CheckIndexInvariants() const {
  // Remove drops a node's count when it reaches zero, so a recount must
  // match the map exactly.
  std::map<std::string, int> devices;
  for (const auto& [id, dev] : entries_) ++devices[dev.node];
  if (devices != node_devices_) {
    return InternalError("node-device index out of sync");
  }
  // Every attachment replays against its device. Its exclusion label must
  // be the device's: an occupied device carries its tenants' label, and
  // Attach admits no other. Its slice run, occupied into a fresh map per
  // device, must never collide and must reproduce the device's
  // incrementally-maintained bitmap exactly.
  std::map<GpuId, spatial::SliceMap> slice_maps;
  for (const auto& [id, dev] : entries_) {
    slice_maps.emplace(id, spatial::SliceMap(dev.slices.groups()));
  }
  for (const auto& [name, att] : attachments_) {
    auto it = entries_.find(att.device);
    if (it == entries_.end()) {
      return InternalError("attachment to unknown device: " + name);
    }
    if (att.locality.exclusion != it->second.exclusion) {
      return InternalError("exclusion label of " + name +
                           " differs from its device's");
    }
    if (att.slice_offset >= 0 &&
        !slice_maps.at(att.device)
             .Occupy(att.slice_offset, att.gpu.slice_groups)
             .ok()) {
      return InternalError("overlapping slice attachments: " + name);
    }
  }
  for (const auto& [id, dev] : entries_) {
    if (slice_maps.at(id) != dev.slices) {
      return InternalError("slice occupancy out of sync on " + id.value());
    }
  }
  return Status::Ok();
}

Status VgpuPool::Activate(const GpuId& id, const GpuUuid& uuid) {
  VgpuInfo* dev = Find(id);
  if (dev == nullptr) return NotFoundError("no vGPU: " + id.value());
  if (dev->uuid.has_value()) {
    return FailedPreconditionError("vGPU already activated: " + id.value());
  }
  dev->uuid = uuid;
  dev->state = dev->attached.empty() ? VgpuState::kIdle : VgpuState::kActive;
  return Status::Ok();
}

Status VgpuPool::Attach(const GpuId& id, const std::string& sharepod,
                        const vgpu::ResourceSpec& gpu,
                        const LocalitySpec& locality, int slice_offset) {
  VgpuInfo* dev = Find(id);
  if (dev == nullptr) return NotFoundError("no vGPU: " + id.value());
  if (attachments_.count(sharepod) > 0) {
    return AlreadyExistsError("sharePod already attached: " + sharepod);
  }
  if (gpu.gpu_request > dev->residual_util() + kCapacityEps) {
    return ResourceExhaustedError("insufficient compute on " + id.value());
  }
  if (gpu.gpu_mem > mem_capacity() - dev->used_mem + kCapacityEps) {
    return ResourceExhaustedError("insufficient memory on " + id.value());
  }
  if (!dev->attached.empty() && locality.exclusion != dev->exclusion) {
    return RejectedError("exclusion label mismatch on " + id.value());
  }
  if (locality.anti_affinity.has_value() &&
      dev->anti_affinity.count(*locality.anti_affinity) > 0) {
    return RejectedError("anti-affinity violation on " + id.value());
  }
  // Spatial claims reserve a contiguous SM-group run. Claims are ignored
  // on non-spatial pools (the spec degrades to a temporal attachment).
  int granted_offset = -1;
  if (sm_groups_ > 0 && gpu.slice_groups > 0) {
    if (gpu.slice_groups > sm_groups_) {
      return RejectedError("slice claim exceeds device geometry on " +
                           id.value());
    }
    if (slice_offset >= 0) {
      if (!dev->slices.IsFree(slice_offset, gpu.slice_groups)) {
        return ResourceExhaustedError("pinned slice busy on " + id.value());
      }
      granted_offset = slice_offset;
    } else {
      auto fit = dev->slices.FirstFit(gpu.slice_groups);
      if (!fit.has_value()) {
        return ResourceExhaustedError("insufficient slice groups on " +
                                      id.value());
      }
      granted_offset = *fit;
    }
  }

  if (granted_offset >= 0) {
    const Status occupied =
        dev->slices.Occupy(granted_offset, gpu.slice_groups);
    assert(occupied.ok());
    (void)occupied;
  }
  dev->used_util += gpu.gpu_request;
  dev->used_mem += gpu.gpu_mem;
  if (locality.affinity.has_value()) dev->affinity.insert(*locality.affinity);
  if (locality.anti_affinity.has_value()) {
    dev->anti_affinity.insert(*locality.anti_affinity);
  }
  dev->exclusion = locality.exclusion;
  dev->attached.insert(sharepod);
  if (dev->uuid.has_value()) dev->state = VgpuState::kActive;
  attachments_[sharepod] = {id, gpu, locality, granted_offset};
  return Status::Ok();
}

std::optional<std::pair<int, int>> VgpuPool::SliceOf(
    const std::string& sharepod) const {
  auto it = attachments_.find(sharepod);
  if (it == attachments_.end() || it->second.slice_offset < 0) {
    return std::nullopt;
  }
  return std::make_pair(it->second.slice_offset,
                        it->second.gpu.slice_groups);
}

double VgpuPool::FragmentationRatio() const {
  if (sm_groups_ == 0) return 0.0;
  std::vector<const spatial::SliceMap*> maps;
  maps.reserve(entries_.size());
  for (const auto& [id, dev] : entries_) maps.push_back(&dev.slices);
  return spatial::PoolFragmentationRatio(maps);
}

Status VgpuPool::UpdateAttachment(const std::string& sharepod,
                                  double gpu_request, double gpu_limit) {
  auto it = attachments_.find(sharepod);
  if (it == attachments_.end()) {
    return NotFoundError("sharePod not attached: " + sharepod);
  }
  vgpu::ResourceSpec updated = it->second.gpu;
  updated.gpu_request = gpu_request;
  updated.gpu_limit = gpu_limit;
  KS_RETURN_IF_ERROR(updated.Validate());
  VgpuInfo* dev = Find(it->second.device);
  assert(dev != nullptr);
  const double delta = gpu_request - it->second.gpu.gpu_request;
  if (delta > dev->residual_util() + kCapacityEps) {
    return ResourceExhaustedError("insufficient compute on " +
                                  it->second.device.value());
  }
  it->second.gpu = updated;
  dev->used_util += delta;
  return Status::Ok();
}

Expected<GpuId> VgpuPool::Detach(const std::string& sharepod) {
  auto it = attachments_.find(sharepod);
  if (it == attachments_.end()) {
    return NotFoundError("sharePod not attached: " + sharepod);
  }
  const GpuId device = it->second.device;
  const int slice_offset = it->second.slice_offset;
  const int slice_groups = it->second.gpu.slice_groups;
  attachments_.erase(it);
  VgpuInfo* dev = Find(device);
  if (dev != nullptr) {
    if (slice_offset >= 0) {
      const Status released = dev->slices.Release(slice_offset, slice_groups);
      assert(released.ok());
      (void)released;
    }
    dev->attached.erase(sharepod);
    RecomputeDevice(*dev);
    if (dev->attached.empty() && dev->uuid.has_value()) {
      dev->state = VgpuState::kIdle;
    }
  }
  return device;
}

void VgpuPool::RecomputeDevice(VgpuInfo& dev) {
  dev.used_util = 0.0;
  dev.used_mem = 0.0;
  dev.affinity.clear();
  dev.anti_affinity.clear();
  dev.exclusion.reset();
  for (const std::string& name : dev.attached) {
    const Attachment& a = attachments_.at(name);
    dev.used_util += a.gpu.gpu_request;
    dev.used_mem += a.gpu.gpu_mem;
    if (a.locality.affinity.has_value()) {
      dev.affinity.insert(*a.locality.affinity);
    }
    if (a.locality.anti_affinity.has_value()) {
      dev.anti_affinity.insert(*a.locality.anti_affinity);
    }
    if (a.locality.exclusion.has_value()) dev.exclusion = a.locality.exclusion;
  }
}

Status VgpuPool::Remove(const GpuId& id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return NotFoundError("no vGPU: " + id.value());
  if (!it->second.attached.empty()) {
    return FailedPreconditionError("vGPU still attached: " + id.value());
  }
  if (--node_devices_[it->second.node] == 0) {
    node_devices_.erase(it->second.node);
  }
  entries_.erase(it);
  return Status::Ok();
}

std::optional<GpuId> VgpuPool::DeviceOf(const std::string& sharepod) const {
  auto it = attachments_.find(sharepod);
  if (it == attachments_.end()) return std::nullopt;
  return it->second.device;
}

void VgpuPool::Clear() {
  entries_.clear();
  attachments_.clear();
  node_devices_.clear();
  // next_id_ intentionally survives — see the header comment.
}

void VgpuPool::EnsureNextIdAtLeast(std::uint64_t next) {
  if (next > next_id_) next_id_ = next;
}

std::string VgpuPool::DebugString() const {
  std::string out;
  char buf[64];
  for (const auto& [id, dev] : entries_) {
    out += id.value();
    out += " node=" + dev.node;
    out += " uuid=" + (dev.uuid.has_value() ? dev.uuid->value() : "-");
    out += std::string(" state=") + VgpuStateName(dev.state);
    std::snprintf(buf, sizeof buf, " util=%.6f mem=%.6f", dev.used_util,
                  dev.used_mem);
    out += buf;
    out += " attached=[";
    bool first = true;
    for (const std::string& name : dev.attached) {
      if (!first) out += ",";
      first = false;
      out += name;
    }
    out += "]";
    for (const Label& l : dev.affinity) out += " aff=" + l.value();
    for (const Label& l : dev.anti_affinity) out += " anti=" + l.value();
    if (dev.exclusion.has_value()) out += " excl=" + dev.exclusion->value();
    // Spatial pools dump the slice picture too, so the crash-restart
    // byte-equality tests also pin slice placements. Non-spatial pools
    // keep the pre-spatial format verbatim.
    if (sm_groups_ > 0) out += " slices=" + dev.slices.DebugString();
    out += "\n";
  }
  return out;
}

}  // namespace ks::kubeshare
