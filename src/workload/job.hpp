#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "cuda/api.hpp"
#include "sim/simulation.hpp"

namespace ks::workload {

/// A GPU application running inside a container. A Job sees only the CUDA
/// API surface — whether that surface is the raw driver context or the
/// vGPU device library's interposed frontend is invisible to it, exactly
/// as LD_PRELOAD is invisible to a real TensorFlow process.
class Job {
 public:
  using DoneFn = std::function<void(bool success)>;

  virtual ~Job() = default;

  /// Begins execution against `api`. `done` fires exactly once, when the
  /// job's work completes (or fails, e.g. on an out-of-memory rejection).
  virtual void Start(cuda::CudaApi* api, sim::Simulation* sim, DoneFn done) = 0;

  /// The container is being killed: cancel pending timers; no further
  /// `done` must fire.
  virtual void Stop() = 0;
};

/// Model-training job (the paper's TensorFlow ResNet-50 workload): allocate
/// the model, then run a fixed number of training steps back to back — a
/// continuous kernel stream that will consume every GPU cycle it is
/// allowed. "We fixed all the training parameters, and adjusted the number
/// of training steps to control the length of job execution time" (§5.1).
struct TrainingSpec {
  int steps = 500;
  Duration step_kernel = Millis(10);
  std::uint64_t model_bytes = 2ull << 30;
  double bandwidth_demand = 0.0;
  /// Fraction of the device's SMs one step can saturate (KernelDesc::
  /// sm_demand). Matters only on spatial slices.
  double sm_demand = 1.0;
};

class TrainingJob final : public Job {
 public:
  explicit TrainingJob(TrainingSpec spec) : spec_(spec) {}

  void Start(cuda::CudaApi* api, sim::Simulation* sim, DoneFn done) override;
  void Stop() override;

  /// Steps finished so far.
  int completed_steps() const { return completed_steps_; }

 private:
  TrainingSpec spec_;
  cuda::CudaApi* api_ = nullptr;
  DoneFn done_;
  int completed_steps_ = 0;
  bool stopped_ = false;
};

/// Phased training job: epochs of back-to-back GPU steps separated by
/// off-GPU phases (checkpointing, data loading, evaluation on CPU). This
/// is the "burstiness of GPU workload" the paper's introduction cites as a
/// core reason single-tenant GPUs sit under-utilized: the job's duty cycle
/// is compute / (compute + io), and everything outside the compute bursts
/// is capacity another container could use.
struct PhasedTrainingSpec {
  int epochs = 10;
  int steps_per_epoch = 100;
  Duration step_kernel = Millis(10);
  /// Off-GPU time after each epoch (checkpoint write + next-epoch input
  /// pipeline).
  Duration io_per_epoch = Seconds(1.0);
  std::uint64_t model_bytes = 2ull << 30;
  double bandwidth_demand = 0.0;
  /// Fraction of the device's SMs one step can saturate (KernelDesc::
  /// sm_demand). Matters only on spatial slices.
  double sm_demand = 1.0;

  /// GPU usage fraction when running alone.
  double duty_cycle() const {
    const double compute = ToSeconds(step_kernel) * steps_per_epoch;
    return compute / (compute + ToSeconds(io_per_epoch));
  }
};

class PhasedTrainingJob final : public Job {
 public:
  explicit PhasedTrainingJob(PhasedTrainingSpec spec) : spec_(spec) {}
  ~PhasedTrainingJob() override { Stop(); }

  void Start(cuda::CudaApi* api, sim::Simulation* sim, DoneFn done) override;
  void Stop() override;

  int completed_epochs() const { return completed_epochs_; }

 private:
  void NextEpoch();
  void FinishEpoch();

  PhasedTrainingSpec spec_;
  cuda::CudaApi* api_ = nullptr;
  sim::Simulation* sim_ = nullptr;
  DoneFn done_;
  int completed_epochs_ = 0;
  int steps_in_epoch_ = 0;
  bool stopped_ = false;
  sim::EventId io_event_ = sim::kInvalidEvent;
};

/// Model-inference job (the paper's TF-Serving DeepLab workload): client
/// requests arrive as a Poisson process; each request runs one
/// forward-propagation kernel. GPU usage is therefore roughly proportional
/// to the client request rate (paper Fig 5), and the job's demand can be
/// dialed by `request_rate_hz`. The job finishes when `total_requests`
/// have been served.
struct InferenceSpec {
  int total_requests = 100;
  double request_rate_hz = 10.0;
  Duration kernel_per_request = Millis(20);
  std::uint64_t model_bytes = 2ull << 30;
  double bandwidth_demand = 0.0;
  /// Fraction of the device's SMs one step can saturate (KernelDesc::
  /// sm_demand). Matters only on spatial slices.
  double sm_demand = 1.0;
  std::uint64_t seed = 1;

  /// GPU usage fraction this job generates when unthrottled.
  double demand() const {
    return request_rate_hz * ToSeconds(kernel_per_request);
  }

  /// Convenience: pick a request rate that yields `demand` GPU usage.
  static InferenceSpec ForDemand(double demand, int total_requests,
                                 Duration kernel = Millis(20));
};

class InferenceJob final : public Job {
 public:
  explicit InferenceJob(InferenceSpec spec) : spec_(spec) {}
  // Destruction without a prior Stop() happens when a job's container dies
  // without a stop notification; the pending arrival timer must not
  // outlive the object.
  ~InferenceJob() override { Stop(); }

  void Start(cuda::CudaApi* api, sim::Simulation* sim, DoneFn done) override;
  void Stop() override;

  int served_requests() const { return served_; }
  int arrived_requests() const { return arrived_; }

  /// Per-request latency (client arrival -> response), in arrival order.
  /// The paper evaluates throughput only; request latency is where the
  /// token quota becomes visible to the service's clients (a request
  /// arriving while another container holds the token waits out the
  /// remaining quota) — bench_study_latency measures exactly that.
  const std::vector<Duration>& request_latencies() const {
    return latencies_;
  }

 private:
  void ScheduleNextArrival();
  void OnArrival();
  void OnServed(Time arrival, Time finish);

  InferenceSpec spec_;
  cuda::CudaApi* api_ = nullptr;
  sim::Simulation* sim_ = nullptr;
  DoneFn done_;
  std::unique_ptr<Rng> rng_;
  int arrived_ = 0;
  int served_ = 0;
  std::vector<Duration> latencies_;
  bool stopped_ = false;
  sim::EventId next_arrival_ = sim::kInvalidEvent;
};

/// One always-on replica of an inference service (TF-Serving process
/// behind a load balancer). Unlike InferenceJob, which generates its own
/// client arrivals, a RequestServerJob is externally fed: the serving
/// frontend (src/serving/) pushes requests into it via Submit(), so the
/// arrival process can live in one batched generator per service instead
/// of one timer per replica. The job never completes on its own — it
/// serves until its container is torn down (replicaset scale-down, node
/// crash), which is what makes it the unit the autoscaler scales.
struct RequestServerSpec {
  Duration kernel_per_request = Millis(10);
  std::uint64_t model_bytes = 1ull << 30;
  double bandwidth_demand = 0.0;
  /// Fraction of the device's SMs one request can saturate (KernelDesc::
  /// sm_demand). Matters only on spatial slices.
  double sm_demand = 1.0;
};

class RequestServerJob final : public Job {
 public:
  /// Fires when a submitted request's kernel retires. `arrival` is the
  /// client-side arrival time the latency is measured from; `finish` is
  /// the kernel's retire time (the current simulation time).
  using ServedFn = std::function<void(Time arrival, Time finish)>;
  /// Replica lifecycle: up=true once the model is resident and the replica
  /// can take requests; up=false when the container is being torn down
  /// (any still-queued requests die with it).
  using LifecycleFn = std::function<void(RequestServerJob* self, bool up)>;

  RequestServerJob(RequestServerSpec spec, LifecycleFn lifecycle)
      : spec_(spec), lifecycle_(std::move(lifecycle)) {}
  ~RequestServerJob() override { Stop(); }

  void Start(cuda::CudaApi* api, sim::Simulation* sim, DoneFn done) override;
  void Stop() override;

  /// Where served requests are reported: set once per replica by the
  /// frontend that feeds it, and cleared (null) when that frontend goes
  /// away. Requests retiring without one are counted here only.
  void SetServedFn(ServedFn fn) { served_fn_ = std::move(fn); }

  /// Enqueues one request (one forward-propagation kernel). Returns false
  /// if the replica is not up — the caller keeps ownership of the request
  /// and must re-dispatch or account for it.
  bool Submit(Time arrival);

  bool up() const { return up_; }
  std::uint64_t served() const { return served_; }
  /// Requests submitted but not yet retired.
  std::uint64_t inflight() const { return inflight_; }

 private:
  RequestServerSpec spec_;
  LifecycleFn lifecycle_;
  ServedFn served_fn_;
  cuda::CudaApi* api_ = nullptr;
  DoneFn done_;
  bool stopped_ = false;
  bool up_ = false;
  std::uint64_t served_ = 0;
  std::uint64_t inflight_ = 0;
};

}  // namespace ks::workload
