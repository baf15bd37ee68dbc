#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace ks::cuda {

/// Per-context objects keyed by stream or event id: a vector indexed by
/// the id, in place of a hash map. Ids are small integers assigned in
/// increasing order and never reused, so a destroyed id keeps its empty
/// slot and stays invalid for good. The cost is one pointer per id ever
/// created. Each object lives in its own heap node, so a reference to one
/// survives a callback that creates another and grows the vector.
template <class T>
class IdTable {
 public:
  /// `first_id` reserves the ids below it: they are never valid.
  explicit IdTable(std::uint64_t first_id = 0) : slots_(first_id) {}

  /// One past the highest id with a slot: the id a context assigns next.
  std::uint64_t id_bound() const { return slots_.size(); }

  /// Default-constructs the object at `id` unless one lives there. Grows
  /// the table to cover `id`.
  void Emplace(std::uint64_t id) {
    if (id >= slots_.size()) slots_.resize(id + 1);
    if (!slots_[id]) slots_[id] = std::make_unique<T>();
  }

  /// The live object at `id`; nullptr for an id never assigned or destroyed.
  T* Find(std::uint64_t id) const {
    return id < slots_.size() ? slots_[id].get() : nullptr;
  }

  /// Destroys the object at `id`; false if there is none. The slot stays.
  bool Erase(std::uint64_t id) {
    if (Find(id) == nullptr) return false;
    slots_[id].reset();
    return true;
  }

 private:
  std::vector<std::unique_ptr<T>> slots_;
};

}  // namespace ks::cuda
