#include "serving/service.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <vector>

#include "vgpu/frontend_hook.hpp"
#include "vgpu/token_backend.hpp"

namespace ks::serving {

namespace {
/// The replica name of generator-level trace records.
const std::string kNoReplica;
}  // namespace

struct ServiceFrontend::Core : std::enable_shared_from_this<Core> {
  k8s::Cluster* cluster = nullptr;
  workload::WorkloadHost* host = nullptr;
  sim::Simulation* sim = nullptr;
  ServiceConfig cfg;

  /// One replica name's record. It lives while some job of that name
  /// holds a served callback into it, so a serve updates it directly.
  struct Replica {
    std::string name;
    workload::RequestServerJob* job = nullptr;
    vgpu::TokenBackend* backend = nullptr;
    /// The replica container's admission state at `backend`; null while
    /// the daemon's admission control is off.
    vgpu::TokenBackend::ServingState* serving = nullptr;
    std::uint64_t outstanding = 0;  // dispatched, not yet served
    /// Listed in `replicas`. A job of this name that is still up after
    /// the record left the list (a relaunch came up before the old
    /// container went down) serves without touching it.
    bool ready = false;
    /// Up jobs whose served callback points here: one, or two across such
    /// a relaunch.
    std::vector<workload::RequestServerJob*> fed;
  };
  /// Node-based, so records never move.
  std::map<std::string, Replica> records;
  /// Ready replicas, name-sorted so round-robin order is deterministic
  /// regardless of container start interleaving.
  std::vector<Replica*> replicas;
  std::size_t rr = 0;

  std::unique_ptr<BatchedArrivalStream> stream;

  /// Arrivals buffered while no replica is ready (service cold start,
  /// every replica crashed). Dispatched FIFO when one comes up.
  std::deque<Time> waiting;
  std::uint64_t arrived = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t lost = 0;
  std::uint64_t violations = 0;
  std::uint64_t queued_retries = 0;
  std::uint64_t pending_retries = 0;

  metrics::LatencyDigest digest;
  metrics::WindowedLatencyDigest windowed;
  TraceFn trace;

  explicit Core(ServiceConfig config)
      : cfg(std::move(config)), windowed(cfg.stats_window) {}

  void Trace(const char* what, Time arrival, Time when,
             const std::string& replica) {
    if (trace) trace(what, arrival, when, replica);
  }

  void OnArrival(Time arrival) {
    ++arrived;
    Trace("arrive", arrival, sim->Now(), kNoReplica);
    Dispatch(arrival);
  }

  void OnArrivals(const std::vector<Time>& batch) {
    for (Time t : batch) OnArrival(t);
  }

  void Dispatch(Time arrival) {
    if (replicas.empty()) {
      Trace("wait", arrival, sim->Now(), kNoReplica);
      waiting.push_back(arrival);
      return;
    }
    if (rr >= replicas.size()) rr = 0;
    Replica& r = *replicas[rr];
    ++rr;
    const Time now = sim->Now();
    if (r.serving != nullptr) {
      switch (r.backend->AdmitRequest(r.serving, now)) {
        case vgpu::AdmissionDecision::kAdmit:
          break;
        case vgpu::AdmissionDecision::kShed:
          ++shed;
          Trace("shed", arrival, now, r.name);
          return;
        case vgpu::AdmissionDecision::kQueue: {
          ++queued_retries;
          ++pending_retries;
          Trace("queue", arrival, now, r.name);
          std::weak_ptr<Core> weak = weak_from_this();
          sim->ScheduleAfter(cfg.queue_retry, [weak, arrival] {
            if (auto core = weak.lock()) {
              --core->pending_retries;
              core->Dispatch(arrival);
            }
          });
          return;
        }
      }
    }
    if (!r.job->Submit(arrival)) {
      // Replica raced down between registry update and dispatch; park the
      // request for the next replica-up.
      Trace("wait", arrival, now, r.name);
      waiting.push_back(arrival);
      return;
    }
    ++r.outstanding;
    Trace("dispatch", arrival, now, r.name);
  }

  void OnServed(Replica& r, Time arrival, Time finish) {
    ++served;
    const Duration latency = finish - arrival;
    digest.Record(latency);
    windowed.Record(sim->Now(), latency);
    if (latency > cfg.slo_p99) ++violations;
    if (r.ready) {
      if (r.outstanding > 0) --r.outstanding;
      if (r.serving != nullptr) {
        r.backend->ReportRequestLatency(r.serving, sim->Now(), latency);
      }
    }
    Trace("serve", arrival, finish, r.name);
  }

  void OnReplica(const std::string& name, workload::RequestServerJob* job,
                 bool up) {
    if (up) {
      Replica& r = records[name];
      // A relaunched replica (crash requeue) reuses its name's record,
      // reset like a new one.
      r.name = name;
      r.job = job;
      r.backend = nullptr;
      r.serving = nullptr;
      r.outstanding = 0;
      if (vgpu::FrontendHook* hook = host->MutableRunningHook(name)) {
        r.backend = cluster->BackendForGpu(hook->device());
        if (r.backend != nullptr) {
          r.serving = r.backend->SetServiceSlo(hook->container(), cfg.slo_p99);
        }
      }
      r.fed.push_back(job);
      job->SetServedFn([this, rec = &r](Time arrival, Time finish) {
        OnServed(*rec, arrival, finish);
      });
      if (!r.ready) {
        r.ready = true;
        replicas.insert(
            std::lower_bound(replicas.begin(), replicas.end(), name,
                             [](const Replica* a, const std::string& n) {
                               return a->name < n;
                             }),
            &r);
      }
      // Drain the cold-start buffer now that someone can serve.
      std::deque<Time> flush;
      flush.swap(waiting);
      for (Time t : flush) Dispatch(t);
      return;
    }
    auto it = records.find(name);
    if (it == records.end()) return;
    Replica& r = it->second;
    // The job is stopping: its stopped_ guard keeps it from serving again.
    r.fed.erase(std::remove(r.fed.begin(), r.fed.end(), job), r.fed.end());
    if (r.ready) {
      if (r.outstanding > 0) {
        // Requests queued on the dying replica die with it.
        lost += r.outstanding;
        Trace("lost", Time{0}, sim->Now(), name);
      }
      r.ready = false;
      replicas.erase(std::find(replicas.begin(), replicas.end(), &r));
      if (rr >= replicas.size()) rr = 0;
    }
    if (r.fed.empty()) records.erase(it);
  }

  /// Detaches every job still feeding this core; the destructor runs it.
  void ClearServedFns() {
    for (auto& [name, r] : records) {
      for (workload::RequestServerJob* job : r.fed) job->SetServedFn(nullptr);
    }
  }
};

ServiceFrontend::ServiceFrontend(k8s::Cluster* cluster,
                                 workload::WorkloadHost* host,
                                 ServiceConfig config)
    : config_(config), core_(std::make_shared<Core>(std::move(config))) {
  assert(cluster != nullptr && host != nullptr);
  core_->cluster = cluster;
  core_->host = host;
  core_->sim = &cluster->sim();
}

ServiceFrontend::~ServiceFrontend() {
  Stop();
  // Served callbacks point into core_, which dies with this frontend.
  core_->ClearServedFns();
}

std::function<void(const std::string&)> ServiceFrontend::MakeReplicaHook() {
  std::weak_ptr<Core> weak = core_;
  workload::WorkloadHost* host = core_->host;
  const workload::RequestServerSpec spec = config_.replica;
  return [weak, host, spec](const std::string& replica_name) {
    host->ExpectJob(replica_name, [weak, spec, replica_name]()
                                      -> std::unique_ptr<workload::Job> {
      return std::make_unique<workload::RequestServerJob>(
          spec, [weak, replica_name](workload::RequestServerJob* self,
                                     bool up) {
            if (auto core = weak.lock()) {
              core->OnReplica(replica_name, self, up);
            }
          });
    });
  };
}

void ServiceFrontend::Start() {
  if (core_->stream == nullptr) {
    std::weak_ptr<Core> weak = core_;
    core_->stream = std::make_unique<BatchedArrivalStream>(
        core_->sim, config_.envelope, config_.seed, config_.until,
        config_.batch_window, [weak](const std::vector<Time>& batch) {
          if (auto core = weak.lock()) core->OnArrivals(batch);
        });
  }
  core_->stream->Start();
}

void ServiceFrontend::Stop() {
  if (core_->stream != nullptr) core_->stream->Stop();
}

std::uint64_t ServiceFrontend::arrived() const { return core_->arrived; }
std::uint64_t ServiceFrontend::served() const { return core_->served; }
std::uint64_t ServiceFrontend::shed() const { return core_->shed; }
std::uint64_t ServiceFrontend::lost() const { return core_->lost; }
std::uint64_t ServiceFrontend::violations() const {
  return core_->violations;
}
std::uint64_t ServiceFrontend::queued_retries() const {
  return core_->queued_retries;
}
std::size_t ServiceFrontend::ready_replicas() const {
  return core_->replicas.size();
}

bool ServiceFrontend::Drained() const {
  return core_->waiting.empty() && core_->pending_retries == 0 &&
         core_->arrived == core_->served + core_->shed + core_->lost;
}

std::uint64_t ServiceFrontend::generator_events() const {
  if (core_->stream != nullptr) return core_->stream->engine_events();
  return 0;
}

std::uint64_t ServiceFrontend::generator_batches() const {
  if (core_->stream != nullptr) return core_->stream->batches();
  return 0;
}

const metrics::LatencyDigest& ServiceFrontend::digest() const {
  return core_->digest;
}

double ServiceFrontend::ObservedP99Seconds() {
  return core_->windowed.QuantileSeconds(core_->sim->Now(), 0.99);
}

std::function<double()> ServiceFrontend::MakeAutoscalerProbe() {
  std::weak_ptr<Core> weak = core_;
  return [weak]() -> double {
    auto core = weak.lock();
    if (!core) return 0.0;
    const double p99 =
        core->windowed.QuantileSeconds(core->sim->Now(), 0.99);
    if (p99 > 0.0) return p99;
    // The window is empty. If the service has served traffic and every
    // request reached a terminal state, the fleet is idle — report a
    // near-zero p99 so the controller can scale it down. Before the first
    // serves there is no evidence either way: no decision.
    const bool drained = core->waiting.empty() &&
                         core->pending_retries == 0 &&
                         core->arrived == core->served + core->shed +
                                              core->lost;
    return (drained && core->served > 0) ? 1e-4 : 0.0;
  };
}

metrics::ServiceSloSample ServiceFrontend::Sample() {
  metrics::ServiceSloSample s;
  s.service = config_.name;
  s.slo_s = ToSeconds(config_.slo_p99);
  s.p50_s = core_->digest.QuantileSeconds(0.50);
  s.p99_s = core_->digest.QuantileSeconds(0.99);
  s.p999_s = core_->digest.QuantileSeconds(0.999);
  s.arrived = core_->arrived;
  s.served = core_->served;
  s.shed = core_->shed;
  s.queued_retries = core_->queued_retries;
  s.violations = core_->violations;
  s.lost = core_->lost;
  s.replicas_ready = core_->replicas.size();
  s.violation_rate =
      core_->arrived == 0
          ? 0.0
          : static_cast<double>(core_->violations + core_->shed +
                                core_->lost) /
                static_cast<double>(core_->arrived);
  return s;
}

void ServiceFrontend::SetTraceFn(TraceFn fn) {
  core_->trace = std::move(fn);
}

}  // namespace ks::serving
