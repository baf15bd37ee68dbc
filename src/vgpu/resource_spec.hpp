#pragma once

#include "common/status.hpp"

namespace ks::vgpu {

/// Per-container GPU resource demand, matching the paper's SharePodSpec
/// fields (§4.2):
///   gpu_request — guaranteed minimum fraction of kernel execution time in a
///                 sliding window;
///   gpu_limit   — maximum fraction the container may consume (elastic
///                 allocation lets it use residual capacity up to this);
///   gpu_mem     — maximum fraction of device memory it may allocate.
/// All fractions lie in [0, 1]; gpu_request <= gpu_limit.
///
/// slice_groups is the spatial-sharing extension (MIG-style slices): the
/// number of contiguous SM groups the container claims. 0 — the default —
/// means no spatial claim: the container time-shares the whole GPU through
/// the temporal token path exactly as before. Values > 0 only take effect
/// on clusters with SpatialConfig::enabled.
struct ResourceSpec {
  double gpu_request = 0.0;
  double gpu_limit = 1.0;
  double gpu_mem = 1.0;
  int slice_groups = 0;

  Status Validate() const {
    if (slice_groups < 0 || slice_groups > 64) {
      return InvalidArgumentError("slice_groups must be within [0, 64]");
    }
    // Each check is written as "not inside the range" so NaN, which fails
    // every comparison, is rejected too.
    if (!(gpu_request >= 0.0 && gpu_request <= 1.0)) {
      return InvalidArgumentError("gpu_request must be within [0, 1]");
    }
    if (!(gpu_limit >= 0.0 && gpu_limit <= 1.0)) {
      return InvalidArgumentError("gpu_limit must be within [0, 1]");
    }
    if (!(gpu_mem >= 0.0 && gpu_mem <= 1.0)) {
      return InvalidArgumentError("gpu_mem must be within [0, 1]");
    }
    if (gpu_request > gpu_limit) {
      return InvalidArgumentError("gpu_request must not exceed gpu_limit");
    }
    return Status::Ok();
  }
};

}  // namespace ks::vgpu
