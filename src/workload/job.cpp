#include "workload/job.hpp"

#include <algorithm>
#include <cassert>

namespace ks::workload {

// ---- TrainingJob ----------------------------------------------------------

void TrainingJob::Start(cuda::CudaApi* api, sim::Simulation* /*sim*/,
                        DoneFn done) {
  assert(api != nullptr);
  api_ = api;
  done_ = std::move(done);

  gpu::DevicePtr model = 0;
  const cuda::CudaResult alloc = api_->MemAlloc(&model, spec_.model_bytes);
  if (alloc != cuda::CudaResult::kSuccess) {
    // Over-quota model: the device library rejected the allocation — the
    // crash mode the paper's memory interception turns into a clean error.
    if (done_) done_(false);
    return;
  }
  if (spec_.steps <= 0) {
    if (done_) done_(true);
    return;
  }
  gpu::KernelDesc kernel;
  kernel.nominal_duration = spec_.step_kernel;
  kernel.bandwidth_demand = spec_.bandwidth_demand;
  kernel.sm_demand = spec_.sm_demand;
  kernel.name = "train-step";
  // The whole run is one kernel stream: the steps are identical and back
  // to back.
  const cuda::CudaResult r =
      api_->LaunchKernelStream(kernel, spec_.steps, [this] {
        if (stopped_) return;
        if (++completed_steps_ >= spec_.steps && done_) done_(true);
      });
  if (r != cuda::CudaResult::kSuccess && done_) done_(false);
}

void TrainingJob::Stop() {
  stopped_ = true;
  if (api_ != nullptr) (void)api_->CancelPending();
}

// ---- PhasedTrainingJob ------------------------------------------------------

void PhasedTrainingJob::Start(cuda::CudaApi* api, sim::Simulation* sim,
                              DoneFn done) {
  assert(api != nullptr && sim != nullptr);
  api_ = api;
  sim_ = sim;
  done_ = std::move(done);

  gpu::DevicePtr model = 0;
  if (api_->MemAlloc(&model, spec_.model_bytes) != cuda::CudaResult::kSuccess) {
    if (done_) done_(false);
    return;
  }
  if (spec_.epochs <= 0 || spec_.steps_per_epoch <= 0) {
    if (done_) done_(true);
    return;
  }
  NextEpoch();
}

void PhasedTrainingJob::Stop() {
  stopped_ = true;
  if (sim_ != nullptr && io_event_ != sim::kInvalidEvent) {
    sim_->Cancel(io_event_);
    io_event_ = sim::kInvalidEvent;
  }
  if (api_ != nullptr) (void)api_->CancelPending();
}

void PhasedTrainingJob::NextEpoch() {
  if (stopped_) return;
  gpu::KernelDesc kernel;
  kernel.nominal_duration = spec_.step_kernel;
  kernel.bandwidth_demand = spec_.bandwidth_demand;
  kernel.sm_demand = spec_.sm_demand;
  kernel.name = "phased-step";
  // Each compute burst is one kernel stream; the off-GPU phase follows the
  // burst's last step.
  const cuda::CudaResult r =
      api_->LaunchKernelStream(kernel, spec_.steps_per_epoch, [this] {
        if (stopped_) return;
        if (++steps_in_epoch_ >= spec_.steps_per_epoch) FinishEpoch();
      });
  if (r != cuda::CudaResult::kSuccess && done_) done_(false);
}

void PhasedTrainingJob::FinishEpoch() {
  steps_in_epoch_ = 0;
  ++completed_epochs_;
  if (completed_epochs_ >= spec_.epochs) {
    if (done_) done_(true);
    return;
  }
  // The off-GPU phase: checkpoint + input pipeline. The GPU (and the
  // token) are free for anyone else.
  io_event_ = sim_->ScheduleAfter(spec_.io_per_epoch, [this] {
    io_event_ = sim::kInvalidEvent;
    NextEpoch();
  });
}

// ---- InferenceJob ---------------------------------------------------------

InferenceSpec InferenceSpec::ForDemand(double demand, int total_requests,
                                       Duration kernel) {
  InferenceSpec spec;
  spec.total_requests = total_requests;
  spec.kernel_per_request = kernel;
  spec.request_rate_hz = std::max(1e-6, demand / ToSeconds(kernel));
  return spec;
}

void InferenceJob::Start(cuda::CudaApi* api, sim::Simulation* sim,
                         DoneFn done) {
  assert(api != nullptr && sim != nullptr);
  api_ = api;
  sim_ = sim;
  done_ = std::move(done);
  rng_ = std::make_unique<Rng>(spec_.seed);

  gpu::DevicePtr model = 0;
  if (api_->MemAlloc(&model, spec_.model_bytes) != cuda::CudaResult::kSuccess) {
    if (done_) done_(false);
    return;
  }
  if (spec_.total_requests <= 0) {
    if (done_) done_(true);
    return;
  }
  ScheduleNextArrival();
}

void InferenceJob::Stop() {
  stopped_ = true;
  if (sim_ != nullptr && next_arrival_ != sim::kInvalidEvent) {
    sim_->Cancel(next_arrival_);
    next_arrival_ = sim::kInvalidEvent;
  }
  if (api_ != nullptr) (void)api_->CancelPending();
}

void InferenceJob::ScheduleNextArrival() {
  if (stopped_ || arrived_ >= spec_.total_requests) return;
  const auto mean =
      Duration{static_cast<std::int64_t>(1e6 / spec_.request_rate_hz)};
  next_arrival_ = sim_->ScheduleAfter(rng_->ExponentialInterarrival(mean),
                                      [this] { OnArrival(); });
}

void InferenceJob::OnArrival() {
  next_arrival_ = sim::kInvalidEvent;
  if (stopped_) return;
  ++arrived_;
  gpu::KernelDesc kernel;
  kernel.nominal_duration = spec_.kernel_per_request;
  kernel.bandwidth_demand = spec_.bandwidth_demand;
  kernel.sm_demand = spec_.sm_demand;
  kernel.name = "inference";
  const Time arrival = sim_->Now();
  // One forward-propagation kernel; its callback runs when it retires.
  const cuda::CudaResult r = api_->LaunchKernel(
      kernel, [this, arrival] { OnServed(arrival, sim_->Now()); });
  if (r != cuda::CudaResult::kSuccess) {
    if (done_) done_(false);
    return;
  }
  ScheduleNextArrival();
}

void InferenceJob::OnServed(Time arrival, Time finish) {
  if (stopped_) return;
  ++served_;
  latencies_.push_back(finish - arrival);
  if (served_ >= spec_.total_requests) {
    if (done_) done_(true);
  }
}

// ---- RequestServerJob -----------------------------------------------------

void RequestServerJob::Start(cuda::CudaApi* api, sim::Simulation* /*sim*/,
                             DoneFn done) {
  assert(api != nullptr);
  api_ = api;
  done_ = std::move(done);

  gpu::DevicePtr model = 0;
  if (api_->MemAlloc(&model, spec_.model_bytes) != cuda::CudaResult::kSuccess) {
    if (done_) done_(false);
    return;
  }
  // The server is up for good: `done` never fires on success — the replica
  // runs until its container is torn down from outside.
  up_ = true;
  if (lifecycle_) lifecycle_(this, true);
}

void RequestServerJob::Stop() {
  if (stopped_) return;
  // Order matters: stopped_ first, so no ServedFn fires out of teardown
  // (the lifecycle observer accounts the still-inflight requests as lost).
  stopped_ = true;
  const bool was_up = up_;
  up_ = false;
  if (api_ != nullptr) (void)api_->CancelPending();
  if (was_up && lifecycle_) lifecycle_(this, false);
}

bool RequestServerJob::Submit(Time arrival) {
  if (!up_ || stopped_ || api_ == nullptr) return false;
  gpu::KernelDesc kernel;
  kernel.nominal_duration = spec_.kernel_per_request;
  kernel.bandwidth_demand = spec_.bandwidth_demand;
  kernel.sm_demand = spec_.sm_demand;
  kernel.name = "serve";
  ++inflight_;
  // One kernel per request, as in InferenceJob. The completion captures
  // only what fits std::function's inline buffer, so a request costs no
  // callback allocation.
  const cuda::CudaResult r = api_->LaunchKernel(kernel, [this, arrival] {
    if (stopped_) return;
    --inflight_;
    ++served_;
    if (served_fn_) served_fn_(arrival, api_->Now());
  });
  if (r != cuda::CudaResult::kSuccess) {
    --inflight_;
    return false;
  }
  return true;
}

}  // namespace ks::workload
