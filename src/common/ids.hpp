#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>

namespace ks {

/// A strongly typed string identifier. Each Tag instantiation is a distinct
/// type, so a GPU UUID can never be passed where a virtual GPUID is
/// expected — the confusion between the two is exactly the bug class the
/// paper's DevMgr design is careful about (GPUID is virtual, UUID is the
/// physical device identity).
///
/// Ids are built once (a container id when the runtime starts it, a UUID
/// when the device is discovered) and then copied into every map, closure
/// and trace that names the entity, many times per kernel. All copies share
/// one immutable representation that caches the string's hash: copying is a
/// reference-count bump and equal ids built from one original compare by
/// pointer. Ordering is the string's lexicographic order and std::hash is
/// std::hash<std::string> of the value, exactly as for a plain string, so
/// every ordered and unordered container iterates as it would over strings.
/// Copies may be made and dropped on any thread.
template <typename Tag>
class StringId {
 public:
  StringId() = default;
  explicit StringId(std::string value)
      : rep_(std::make_shared<const Rep>(std::move(value))) {}

  const std::string& value() const { return rep().value; }
  bool empty() const { return value().empty(); }
  /// std::hash<std::string> of value(), computed once at construction.
  std::size_t hash() const { return rep().hash; }

  friend bool operator==(const StringId& a, const StringId& b) {
    const Rep& x = a.rep();
    const Rep& y = b.rep();
    return &x == &y || (x.hash == y.hash && x.value == y.value);
  }
  friend std::strong_ordering operator<=>(const StringId& a,
                                          const StringId& b) {
    const Rep& x = a.rep();
    const Rep& y = b.rep();
    if (&x == &y) return std::strong_ordering::equal;
    return x.value.compare(y.value) <=> 0;
  }
  friend std::ostream& operator<<(std::ostream& os, const StringId& id) {
    return os << id.value();
  }

 private:
  struct Rep {
    explicit Rep(std::string v)
        : value(std::move(v)), hash(std::hash<std::string>{}(value)) {}
    std::string value;
    std::size_t hash;
  };

  /// A default-constructed id holds no representation and reads as the
  /// shared empty one.
  const Rep& rep() const {
    static const Rep kEmpty{std::string()};
    return rep_ ? *rep_ : kEmpty;
  }

  std::shared_ptr<const Rep> rep_;
};

struct GpuIdTag {};
struct GpuUuidTag {};
struct NodeNameTag {};
struct PodNameTag {};
struct ContainerIdTag {};
struct LabelTag {};

/// Virtual vGPU identifier assigned by KubeShare when a physical GPU joins
/// the vGPU pool (paper §4.1). Users and KubeShare-Sched refer to devices by
/// GPUID only.
using GpuId = StringId<GpuIdTag>;

/// Physical device identity as reported by the (simulated) NVIDIA driver and
/// consumed via NVIDIA_VISIBLE_DEVICES. Only KubeShare-DevMgr sees UUIDs.
using GpuUuid = StringId<GpuUuidTag>;

using NodeName = StringId<NodeNameTag>;
using PodName = StringId<PodNameTag>;
using ContainerId = StringId<ContainerIdTag>;

/// Locality label (an arbitrary string, paper §4.2).
using Label = StringId<LabelTag>;

/// Numeric job identifier used by the workload layer.
using JobId = std::uint64_t;

}  // namespace ks

namespace std {
template <typename Tag>
struct hash<ks::StringId<Tag>> {
  size_t operator()(const ks::StringId<Tag>& id) const noexcept {
    return id.hash();
  }
};
}  // namespace std
