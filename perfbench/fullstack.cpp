// One repetition of one full-stack workload: the real k8s::Cluster +
// kubeshare::KubeShare + workload/serving stack in this process, driven from
// a single thread. perfbench/run.py repeats it and aggregates; README.md in
// this directory explains the workloads and metrics.
//
//   ks_perfbench --workload paper-8n|scale-128n|serving-8n --seed N [--trace]
//
// Prints one JSON line: host costs, modeled outcomes and their digest, the
// output checks that failed (if any), and with --trace the per-layer
// metrics. Exits non-zero when a check failed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "k8s/cluster.hpp"
#include "k8s/resources.hpp"
#include "kubeshare/autoscaler.hpp"
#include "kubeshare/kubeshare.hpp"
#include "kubeshare/replicaset.hpp"
#include "layer_trace.hpp"
#include "metrics/sampler.hpp"
#include "serving/service.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace {

using namespace ks;
using perfbench::MetricList;
using perfbench::Percentile;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Workload definitions. The §5.3 job shape: truncated-normal GPU demand
// N(0.3, 0.14) in [0.05, 1], 38.4 s unthrottled length, 20 ms kernels,
// gpu_mem 0.2.

constexpr double kDemandMean = 0.3;
constexpr double kDemandStddev = 0.14;
constexpr double kDemandMin = 0.05;
constexpr double kDemandMax = 1.0;
constexpr double kJobGpuMem = 0.2;
constexpr std::uint64_t kJobModelBytes = 2ull << 30;
const Duration kJobDuration = Seconds(38.4);
const Duration kJobKernel = Millis(20);
/// Client-request latency target on every workload (serving-8n's p99 SLO).
const Duration kRequestSlo = Millis(250);

struct JobWorkload {
  const char* name;
  int nodes;
  int jobs;
  Duration mean_interarrival;
  /// Every training_every-th job is a training job; 0 = inference only.
  int training_every;
  Duration horizon;
  /// The paper's claim on this workload is that every job finishes before
  /// the horizon; a run that leaves jobs unfinished fails its check.
  bool must_drain;
};

const JobWorkload kJobWorkloads[] = {
    {"paper-8n", 8, 1200, Millis(600), 4, Minutes(240), true},
    {"scale-128n", 128, 2400, Micros(37500), 0, Minutes(60), false},
};

struct JobInput {
  Duration arrival{0};
  double demand = 0.0;
  bool training = false;
};

std::vector<JobInput> GenerateJobs(const JobWorkload& w, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<JobInput> jobs(static_cast<std::size_t>(w.jobs));
  Duration at{0};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i > 0) at += rng.ExponentialInterarrival(w.mean_interarrival);
    jobs[i].arrival = at;
    jobs[i].demand =
        rng.TruncatedNormal(kDemandMean, kDemandStddev, kDemandMin, kDemandMax);
    jobs[i].training =
        w.training_every > 0 &&
        i % static_cast<std::size_t>(w.training_every) ==
            static_cast<std::size_t>(w.training_every - 1);
  }
  return jobs;
}

// serving-8n: kServices SLO services, each a 40 rps base with two flash
// crowds to 240 rps (2 s ramps, 20 s hold). The 16 crowds take turns across
// the services, 35 s apart with a seeded jitter. Traffic starts after a
// silent warm-up in which the initial replicas come up, so cold-start
// buffering stays out of the latency tail.
constexpr int kServices = 8;
constexpr int kCrowdsPerService = 2;
constexpr double kServiceBaseHz = 40.0;
constexpr double kServicePeakHz = 240.0;
const Duration kServingWarmup = Seconds(20.0);
const Time kArrivalsUntil = Seconds(620.0);
const Duration kServingHorizon = Seconds(900.0);
const Duration kArrivalWindow = Millis(10);

struct ServiceInput {
  serving::RateEnvelope envelope;
  std::uint64_t seed = 0;
};

std::vector<ServiceInput> GenerateServices(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Time> crowds(kServices * kCrowdsPerService);
  for (std::size_t j = 0; j < crowds.size(); ++j) {
    crowds[j] = kServingWarmup + Seconds(20.0 + 35.0 * static_cast<double>(j) +
                                         rng.Uniform(0.0, 5.0));
  }
  std::vector<ServiceInput> services(kServices);
  for (int k = 0; k < kServices; ++k) {
    // Silent warm-up, then each crowd's own segments from its start on;
    // every FlashCrowd envelope ends back at the base rate.
    std::vector<serving::RateEnvelope::Segment> segments = {
        {kTimeZero, 0.0}, {kServingWarmup, kServiceBaseHz}};
    for (int c = 0; c < kCrowdsPerService; ++c) {
      const Time at = crowds[static_cast<std::size_t>(c * kServices + k)];
      const serving::RateEnvelope crowd = serving::RateEnvelope::FlashCrowd(
          kServiceBaseHz, kServicePeakHz, at, Seconds(2.0), Seconds(20.0));
      for (const auto& seg : crowd.segments()) {
        if (seg.start >= at) segments.push_back(seg);
      }
    }
    services[k].envelope = serving::RateEnvelope(std::move(segments));
    services[k].seed =
        static_cast<std::uint64_t>(rng.UniformInt(1, INT64_MAX / 2));
  }
  return services;
}

// ---------------------------------------------------------------------------

/// What one repetition measured. The runners fill it; main prints it.
struct Rep {
  bool trace = false;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double done = 0.0;  // jobs completed / requests served
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  MetricList modeled;  // end-to-end modeled outcomes
  MetricList counts;   // tallies and sample counts behind them
  MetricList layers;   // --trace only
  double setup_cluster_s = 0.0;
  double setup_kubeshare_s = 0.0;
  std::vector<double> submit_ns;
  std::vector<double> slice_ms;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Set-up takes milliseconds, so each process builds the stack this many
/// times and reports the median; the last build is the one that runs.
constexpr int kSetupBuilds = 20;

/// Client-request latencies of one workload, kept exactly (microseconds)
/// so percentiles move with every seed instead of by histogram bucket.
class LatencyLog {
 public:
  void Record(Duration d) {
    us_.push_back(static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(d.count(), 0, UINT32_MAX)));
    if (d > kRequestSlo) ++late_;
  }
  std::size_t count() const { return us_.size(); }
  std::uint64_t late() const { return late_; }

  /// Nearest-rank quantile in milliseconds; 0 when empty.
  double QuantileMs(double q) {
    if (us_.empty()) return 0.0;
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(us_.size())));
    rank = std::clamp<std::size_t>(rank, 1, us_.size());
    const auto nth = us_.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(us_.begin(), nth, us_.end());
    return static_cast<double>(*nth) / 1e3;
  }

 private:
  std::vector<std::uint32_t> us_;
  std::uint64_t late_ = 0;
};

/// An InferenceJob whose request latencies are copied into the workload's
/// LatencyLog when it completes (the job object dies with its container).
class RecordedInferenceJob final : public workload::Job {
 public:
  RecordedInferenceJob(workload::InferenceSpec spec, LatencyLog* log)
      : job_(spec), log_(log) {}

  void Start(cuda::CudaApi* api, sim::Simulation* sim, DoneFn done) override {
    job_.Start(api, sim, [this, done = std::move(done)](bool success) {
      if (success) {
        for (Duration d : job_.request_latencies()) log_->Record(d);
      }
      done(success);
    });
  }
  void Stop() override { job_.Stop(); }

 private:
  workload::InferenceJob job_;
  LatencyLog* log_;
};

const Duration kHeldPeriod = Seconds(1);

/// The simulated cluster with KubeShare installed, plus the instruments
/// every workload reads (NVML poll, GPUs-held sampler) and, in a traced
/// run, the layer observer.
class Stack {
 public:
  Stack(const k8s::ClusterConfig& config, Rep& rep) {
    auto t0 = Clock::now();
    cluster_ = std::make_unique<k8s::Cluster>(config);
    rep.setup_cluster_s = Since(t0);
    t0 = Clock::now();
    kubeshare_ = std::make_unique<kubeshare::KubeShare>(cluster_.get());
    rep.setup_kubeshare_s = Since(t0);
    host_ = std::make_unique<workload::WorkloadHost>(cluster_.get());
    t0 = Clock::now();
    rep.Check(cluster_->Start().ok(), "cluster failed to start");
    rep.setup_cluster_s += Since(t0);
    t0 = Clock::now();
    rep.Check(kubeshare_->Start().ok(), "KubeShare failed to start");
    rep.setup_kubeshare_s += Since(t0);

    held_ = std::make_unique<metrics::PeriodicSampler>(
        cluster_->tick_hub(), kHeldPeriod, [this] {
          return static_cast<double>(kubeshare_->pool().size());
        });
    held_->Start();
    cluster_->nvml().Start();
    if (rep.trace) {
      trace_ = std::make_unique<perfbench::LayerTrace>(cluster_.get(),
                                                       kubeshare_.get());
    }
  }

  k8s::Cluster& cluster() { return *cluster_; }
  sim::Simulation& sim() { return cluster_->sim(); }
  kubeshare::KubeShare& kubeshare() { return *kubeshare_; }
  workload::WorkloadHost& host() { return *host_; }
  perfbench::LayerTrace* trace() { return trace_.get(); }

  /// Runs the engine to `t` (one RunUntil slice, stepped when traced).
  void RunSlice(Time t, Rep& rep) {
    const auto t0 = Clock::now();
    if (trace_ != nullptr) {
      trace_->RunUntil(t);
    } else {
      cluster_->sim().RunUntil(t);
    }
    rep.slice_ms.push_back(Since(t0) * 1e3);
  }

  bool Step() {
    return trace_ != nullptr ? trace_->Step() : cluster_->sim().Step();
  }

  /// Fig 9's utilization of the GPUs KubeShare holds: device busy time
  /// over the time integral of the vGPU pool size (sampled each second),
  /// up to `end`. Work never runs on a GPU outside the pool, so busy time
  /// up to now equals busy time up to `end`.
  double GpuUtilActive(Time end) {
    double busy_s = 0.0;
    for (std::size_t n = 0; n < cluster_->node_count(); ++n) {
      for (const auto& dev : cluster_->node(n).gpus) {
        dev->utilization().Flush(cluster_->sim().Now());
        busy_s += ToSeconds(dev->utilization().TotalBusy());
      }
    }
    double held_s = 0.0;
    for (const auto& sample : held_->series()) {
      if (sample.at > end) break;
      held_s += sample.value * ToSeconds(kHeldPeriod);
    }
    return held_s > 0.0 ? busy_s / held_s : 0.0;
  }

  /// Fig 9's held-GPU count: mean vGPU pool size over samples up to `end`.
  double GpusHeldMean(Time end) const {
    double total = 0.0;
    std::size_t counted = 0;
    for (const auto& s : held_->series()) {
      if (s.at > end) break;
      total += s.value;
      ++counted;
    }
    return counted > 0 ? total / static_cast<double>(counted) : 0.0;
  }

  /// Per-layer numbers read from public getters after the run.
  void ReportLayers(Rep& rep) {
    MetricList& out = rep.layers;
    const auto add = [&out](const char* name, double v) {
      out.emplace_back(name, v);
    };
    sim::Simulation& sim = cluster_->sim();
    k8s::ApiServer& api = cluster_->api();
    add("sim.events_scheduled", static_cast<double>(sim.lifetime_events()));
    add("sim.events_executed", static_cast<double>(sim.executed()));

    const auto& sharepods = kubeshare_->sharepods();
    const std::uint64_t deliveries =
        api.pods().watch_deliveries() + api.nodes().watch_deliveries() +
        api.leases().watch_deliveries() + sharepods.watch_deliveries() -
        trace_->own_watch_deliveries();
    add("k8s.store.pod_writes", static_cast<double>(api.pods().version()));
    add("k8s.store.sharepod_writes", static_cast<double>(sharepods.version()));
    add("k8s.store.watch_deliveries", static_cast<double>(deliveries));
    add("k8s.store.watch_batches",
        static_cast<double>(api.watch_hub().batches()));
    add("k8s.store.update_conflicts",
        static_cast<double>(api.pods().update_conflicts() +
                            api.nodes().update_conflicts() +
                            api.leases().update_conflicts() +
                            sharepods.update_conflicts()));
    add("k8s.scheduler.scheduled",
        static_cast<double>(cluster_->scheduler().scheduled_count()));
    add("k8s.scheduler.retries",
        static_cast<double>(cluster_->scheduler().retry_count()));

    kubeshare::KubeShareSched& sched = kubeshare_->sched();
    const double lookups = static_cast<double>(sched.snapshot_hits() +
                                               sched.snapshot_refreshes());
    const RunningStats& decisions = sched.decision_stats();
    add("kubeshare.sched.scheduled",
        static_cast<double>(sched.scheduled_count()));
    add("kubeshare.sched.rejected",
        static_cast<double>(sched.rejected_count()));
    add("kubeshare.sched.retries", static_cast<double>(sched.retry_count()));
    add("kubeshare.sched.snapshot_hit_ratio",
        lookups > 0 ? static_cast<double>(sched.snapshot_hits()) / lookups
                    : 0.0);
    add("kubeshare.sched.decision_us_mean", decisions.mean());
    add("kubeshare.sched.decision_host_s", decisions.sum() / 1e6);
    kubeshare::KubeShareDevMgr& devmgr = kubeshare_->devmgr();
    add("kubeshare.devmgr.vgpus_created",
        static_cast<double>(devmgr.vgpus_created()));
    add("kubeshare.devmgr.vgpus_released",
        static_cast<double>(devmgr.vgpus_released()));
    add("kubeshare.devmgr.pods_launched",
        static_cast<double>(devmgr.workload_pods_launched()));

    std::uint64_t image_pulls = 0, grants = 0, sheds = 0, queued = 0;
    std::uint64_t fenced = 0, nvml_samples = 0;
    double busy_s = 0.0;
    for (std::size_t n = 0; n < cluster_->node_count(); ++n) {
      k8s::Cluster::NodeHandle& node = cluster_->node(n);
      image_pulls += node.runtime->image_pulls();
      grants += node.token_backend->grants();
      sheds += node.token_backend->admission_sheds();
      queued += node.token_backend->admission_queued();
      for (const auto& dev : node.gpus) {
        // Busy trackers were flushed to now by GpuUtilActive.
        busy_s += ToSeconds(dev->utilization().TotalBusy());
        fenced += dev->fenced_kernel_rejections();
        nvml_samples += cluster_->nvml().SamplesFor(dev->uuid()).size();
      }
    }
    add("k8s.kubelet.image_pulls", static_cast<double>(image_pulls));
    add("vgpu.token.grants", static_cast<double>(grants));
    add("vgpu.token.admission_sheds", static_cast<double>(sheds));
    add("vgpu.token.admission_queued", static_cast<double>(queued));
    add("gpu.device.busy_s", busy_s);
    add("gpu.device.fenced_rejections", static_cast<double>(fenced));
    add("gpu.nvml.samples_stored", static_cast<double>(nvml_samples));
    const sim::TickHub& hub = *cluster_->tick_hub();
    add("metrics.hub_ticks", static_cast<double>(hub.ticks()));
    add("metrics.hub_fires", static_cast<double>(hub.fires()));

    add("bench.setup_cluster_s", rep.setup_cluster_s);
    add("bench.setup_kubeshare_s", rep.setup_kubeshare_s);
    add("bench.submit_ns_p50", Percentile(rep.submit_ns, 50));
    add("bench.submit_ns_p99", Percentile(rep.submit_ns, 99));
    add("bench.slice_ms_p99", Percentile(rep.slice_ms, 99));
    trace_->Report(out);
  }

 private:
  // Declared first so it is destroyed last: the hooks it installed stay
  // valid while the cluster tears down.
  std::unique_ptr<perfbench::LayerTrace> trace_;
  std::unique_ptr<k8s::Cluster> cluster_;
  std::unique_ptr<kubeshare::KubeShare> kubeshare_;
  std::unique_ptr<workload::WorkloadHost> host_;
  std::unique_ptr<metrics::PeriodicSampler> held_;
};

/// serving.* and kubeshare.autoscaler.* per-layer metrics; all zero on the
/// job workloads, where neither layer runs.
struct ServingLayers {
  double arrivals = 0.0;
  double generator_batches = 0.0;
  double shed = 0.0;
  double lost = 0.0;
  double queued_retries = 0.0;
  double scale_ups = 0.0;
  double scale_downs = 0.0;
  double replicas_created = 0.0;
};

void AddServingLayers(const ServingLayers& s, Rep& rep) {
  rep.layers.insert(rep.layers.end(),
                    {{"serving.arrivals", s.arrivals},
                     {"serving.generator_batches", s.generator_batches},
                     {"serving.shed", s.shed},
                     {"serving.lost", s.lost},
                     {"serving.queued_retries", s.queued_retries},
                     {"kubeshare.autoscaler.scale_ups", s.scale_ups},
                     {"kubeshare.autoscaler.scale_downs", s.scale_downs},
                     {"kubeshare.autoscaler.replicas_created",
                      s.replicas_created}});
}

/// Modeled request-latency metrics shared by every workload.
void AddRequestMetrics(LatencyLog& log, Rep& rep) {
  rep.modeled.emplace_back("req_p50_ms", log.QuantileMs(0.50));
  rep.modeled.emplace_back("req_p99_ms", log.QuantileMs(0.99));
  rep.modeled.emplace_back("req_p999_ms", log.QuantileMs(0.999));
  rep.counts.emplace_back("req_samples", static_cast<double>(log.count()));
}

void RunJobWorkload(const JobWorkload& w, std::uint64_t seed, Rep& rep) {
  LatencyLog requests;  // outlives the stack whose jobs record into it
  k8s::ClusterConfig config;
  config.nodes = w.nodes;
  config.gpus_per_node = 4;
  std::vector<JobInput> jobs;
  std::unique_ptr<Stack> built;
  std::vector<double> setups;
  for (int i = 0; i < kSetupBuilds; ++i) {
    built.reset();
    const auto setup_start = Clock::now();
    jobs = GenerateJobs(w, seed);
    built = std::make_unique<Stack>(config, rep);
    setups.push_back(Since(setup_start));
  }
  rep.setup_s = Percentile(setups, 50);
  Stack& stack = *built;

  sim::Simulation& sim = stack.sim();
  workload::WorkloadHost& host = stack.host();
  std::size_t submitted = 0;
  std::uint64_t submit_errors = 0;
  const Time t0 = sim.Now();

  // The benchmark's own engine callback: register the job with the
  // workload host, submit its sharePod, chain the next arrival.
  std::function<void()> submit = [&] {
    const JobInput& job = jobs[submitted];
    const std::string name = "job-" + std::to_string(submitted);
    const double rate = job.demand / ToSeconds(kJobKernel);
    const int units = std::max(
        1, static_cast<int>(std::lround(rate * ToSeconds(kJobDuration))));
    const auto c0 = Clock::now();
    if (job.training) {
      workload::TrainingSpec spec;
      spec.steps = units;
      spec.step_kernel = kJobKernel;
      spec.model_bytes = kJobModelBytes;
      host.ExpectJob(name, [spec] {
        return std::make_unique<workload::TrainingJob>(spec);
      });
    } else {
      workload::InferenceSpec spec;
      spec.total_requests = units;
      spec.request_rate_hz = rate;
      spec.kernel_per_request = kJobKernel;
      spec.model_bytes = kJobModelBytes;
      spec.seed = seed + submitted * 7919 + 1;
      host.ExpectJob(name, [spec, &requests] {
        return std::make_unique<RecordedInferenceJob>(spec, &requests);
      });
    }
    kubeshare::SharePod sp;
    sp.meta.name = name;
    sp.spec.pod.requests.Set(k8s::kResourceCpu, 1000);
    sp.spec.gpu.gpu_request = job.demand;
    sp.spec.gpu.gpu_limit = 1.0;
    sp.spec.gpu.gpu_mem = kJobGpuMem;
    const Status s = stack.kubeshare().CreateSharePod(std::move(sp));
    rep.submit_ns.push_back(Since(c0) * 1e9);
    if (!s.ok()) ++submit_errors;
    if (++submitted < jobs.size()) {
      sim.ScheduleAt(t0 + jobs[submitted].arrival, [&submit] { submit(); });
    }
  };

  const auto all_done = [&] {
    return submitted == jobs.size() &&
           host.completed() + host.failed() >= jobs.size();
  };
  const auto wall_start = Clock::now();
  const double cpu_start = CpuSeconds();
  sim.ScheduleAt(t0 + jobs.front().arrival, [&submit] { submit(); });
  const Time deadline = t0 + w.horizon;
  while (!all_done() && sim.Now() < deadline) {
    stack.RunSlice(std::min(sim.Now() + Seconds(10), deadline), rep);
  }
  rep.wall_s = Since(wall_start);
  rep.cpu_s = CpuSeconds() - cpu_start;

  // Outcome. Makespan runs from the first submission to the last
  // completion; jobs unfinished at the horizon enter the completion-time
  // distribution censored at the horizon.
  const bool drained = all_done();
  Time last_done = t0;
  std::vector<double> jct_s;
  std::size_t unfinished = 0;
  for (std::size_t i = 0; i < submitted; ++i) {
    const auto* rec = host.RecordOf("job-" + std::to_string(i));
    if (rec->has_finished) {
      last_done = std::max(last_done, rec->finished);
    } else {
      ++unfinished;
    }
    jct_s.push_back(ToSeconds(
        (rec->has_finished ? rec->finished : deadline) - rec->submitted));
  }
  const Time end = drained ? last_done : deadline;
  const std::size_t completed = host.completed();
  const std::size_t failed = host.failed();
  rep.Check(submitted == jobs.size(), "not every job was submitted");
  rep.Check(completed + failed + unfinished == submitted,
            "completed + failed + unfinished != submitted");
  rep.Check(!w.must_drain || unfinished == 0, "jobs unfinished at horizon");
  rep.Check(submit_errors == 0, "sharePod submission failed");
  rep.Check(sim.CapacityStatus().ok(), "engine capacity exhausted");
  rep.attempted = submitted;
  rep.failed = failed + submit_errors;
  rep.done = static_cast<double>(completed);

  const double makespan_s = ToSeconds(last_done - t0);
  const double submitted_d = static_cast<double>(submitted);
  rep.modeled = {
      {"makespan_s", makespan_s},
      {"jobs_per_min", static_cast<double>(completed) / (makespan_s / 60.0)},
      {"jct_p50_s", Percentile(jct_s, 50)},
      {"jct_p99_s", Percentile(jct_s, 99)},
      {"gpu_util_active", stack.GpuUtilActive(end)},
      {"gpus_held_mean", stack.GpusHeldMean(end)},
  };
  AddRequestMetrics(requests, rep);
  const double req_count = static_cast<double>(requests.count());
  rep.modeled.emplace_back(
      "slo_ok_ratio",
      req_count > 0 ? 1.0 - static_cast<double>(requests.late()) / req_count
                    : 0.0);
  rep.modeled.emplace_back("done_ratio",
                           static_cast<double>(completed) / submitted_d);
  rep.counts.emplace_back("jobs_submitted", submitted_d);
  rep.counts.emplace_back("jobs_completed", static_cast<double>(completed));
  rep.counts.emplace_back("jobs_failed", static_cast<double>(failed));
  rep.counts.emplace_back("jobs_unfinished", static_cast<double>(unfinished));
  rep.counts.emplace_back("jct_samples", static_cast<double>(jct_s.size()));
  rep.counts.emplace_back("req_late", static_cast<double>(requests.late()));
  if (rep.trace) {
    stack.ReportLayers(rep);
    AddServingLayers({}, rep);
  }
}

void RunServing(std::uint64_t seed, Rep& rep) {
  // Request observer state; outlives the stack and frontends that feed it.
  // Makespan runs from the first request's arrival to the last serve.
  LatencyLog requests;
  Time first_arrival = kServingHorizon;
  Time last_served = kTimeZero;
  k8s::ClusterConfig config;
  config.nodes = 8;
  config.gpus_per_node = 4;
  config.backend.admission.enabled = true;
  config.backend.admission.policy = vgpu::AdmissionConfig::Policy::kShed;
  std::vector<ServiceInput> inputs;
  std::unique_ptr<Stack> built;
  std::vector<double> setups;
  for (int i = 0; i < kSetupBuilds; ++i) {
    built.reset();
    const auto setup_start = Clock::now();
    inputs = GenerateServices(seed);
    built = std::make_unique<Stack>(config, rep);
    setups.push_back(Since(setup_start));
  }
  rep.setup_s = Percentile(setups, 50);
  Stack& stack = *built;

  sim::Simulation& sim = stack.sim();
  const Time t0 = sim.Now();
  std::vector<std::unique_ptr<serving::ServiceFrontend>> frontends;
  std::vector<std::unique_ptr<kubeshare::SharePodReplicaSet>> replicasets;
  std::vector<std::unique_ptr<kubeshare::SloAutoscaler>> scalers;
  perfbench::LayerTrace* trace = stack.trace();
  const auto observe = [&requests, &first_arrival, &last_served, trace](
                           const char* what, Time arrival, Time when,
                           const std::string&) {
    if (trace != nullptr) trace->MarkServing();
    if (std::strcmp(what, "arrive") == 0) {
      first_arrival = std::min(first_arrival, arrival);
    } else if (std::strcmp(what, "serve") == 0) {
      requests.Record(when - arrival);
      last_served = std::max(last_served, when);
    }
  };

  const auto wall_start = Clock::now();
  const double cpu_start = CpuSeconds();
  for (int k = 0; k < kServices; ++k) {
    const std::string name = "svc-" + std::to_string(k);
    serving::ServiceConfig cfg;
    cfg.name = name;
    cfg.envelope = inputs[k].envelope;
    cfg.clients = static_cast<std::uint64_t>(kServicePeakHz / 0.1);
    cfg.slo_p99 = kRequestSlo;
    cfg.batch_window = kArrivalWindow;
    cfg.until = t0 + kArrivalsUntil;
    cfg.seed = inputs[k].seed;
    cfg.replica.kernel_per_request = Millis(10);
    cfg.replica.model_bytes = 256ull << 20;
    auto& frontend = frontends.emplace_back(
        std::make_unique<serving::ServiceFrontend>(&stack.cluster(),
                                                   &stack.host(), cfg));
    frontend->SetTraceFn(observe);
    if (trace != nullptr) trace->AddFrontend(frontend.get());

    kubeshare::SharePodReplicaSet::Spec spec;
    spec.name = name;
    spec.replicas = 2;
    spec.template_spec.gpu.gpu_request = 0.45;
    spec.template_spec.gpu.gpu_limit = 1.0;
    spec.template_spec.gpu.gpu_mem = 0.15;
    auto& rs = replicasets.emplace_back(
        std::make_unique<kubeshare::SharePodReplicaSet>(&stack.kubeshare(),
                                                        spec));
    rs->SetReplicaHook(frontend->MakeReplicaHook());
    rep.Check(rs->Start().ok(), "replicaset failed to start");

    kubeshare::AutoscalerConfig acfg;
    acfg.slo_p99 = kRequestSlo;
    acfg.min_replicas = 1;
    acfg.max_replicas = 8;
    auto& scaler =
        scalers.emplace_back(std::make_unique<kubeshare::SloAutoscaler>(
            &sim, stack.cluster().tick_hub(), rs.get(), acfg,
            frontend->MakeAutoscalerProbe()));
    rep.Check(scaler->Start().ok(), "autoscaler failed to start");
    frontend->Start();
  }

  // Arrivals in 1 s slices; past the last arrival window, step until every
  // frontend has drained.
  const Time arrivals_end = t0 + kArrivalsUntil + kArrivalWindow;
  while (sim.Now() < arrivals_end) {
    stack.RunSlice(std::min(sim.Now() + Seconds(1), arrivals_end), rep);
  }
  const auto drained = [&] {
    return std::all_of(frontends.begin(), frontends.end(),
                       [](const auto& f) { return f->Drained(); });
  };
  const Time deadline = t0 + kServingHorizon;
  while (!drained() && sim.Now() < deadline && stack.Step()) {
  }
  rep.wall_s = Since(wall_start);
  rep.cpu_s = CpuSeconds() - cpu_start;
  const Time end = last_served;
  const double makespan_s = ToSeconds(end - first_arrival);

  std::uint64_t arrived = 0, served = 0, shed = 0, lost = 0, violations = 0;
  bool balanced = true;
  for (const auto& f : frontends) {
    arrived += f->arrived();
    served += f->served();
    shed += f->shed();
    lost += f->lost();
    violations += f->violations();
    balanced = balanced && f->served() + f->shed() + f->lost() == f->arrived();
  }
  rep.Check(drained(), "a frontend did not drain by the horizon");
  rep.Check(balanced, "served + shed + lost != arrived");
  rep.Check(arrived > 0, "no request arrived");
  rep.Check(sim.CapacityStatus().ok(), "engine capacity exhausted");
  rep.attempted = arrived;
  rep.failed = 0;
  rep.done = static_cast<double>(served);

  const double arrived_d = static_cast<double>(arrived);
  rep.modeled = {
      {"makespan_s", makespan_s},
      {"jobs_per_min", static_cast<double>(served) / (makespan_s / 60.0)},
      {"jct_p50_s", requests.QuantileMs(0.50) / 1e3},
      {"jct_p99_s", requests.QuantileMs(0.99) / 1e3},
      {"gpu_util_active", stack.GpuUtilActive(end)},
      {"gpus_held_mean", stack.GpusHeldMean(end)},
  };
  AddRequestMetrics(requests, rep);
  rep.modeled.emplace_back(
      "slo_ok_ratio",
      1.0 - static_cast<double>(violations + shed + lost) / arrived_d);
  rep.modeled.emplace_back("done_ratio",
                           static_cast<double>(served) / arrived_d);
  rep.counts.emplace_back("requests_arrived", arrived_d);
  rep.counts.emplace_back("requests_served", static_cast<double>(served));
  rep.counts.emplace_back("requests_shed", static_cast<double>(shed));
  rep.counts.emplace_back("requests_lost", static_cast<double>(lost));
  rep.counts.emplace_back("requests_late", static_cast<double>(violations));

  if (!rep.trace) return;
  stack.ReportLayers(rep);
  ServingLayers layers;
  layers.arrivals = arrived_d;
  layers.shed = static_cast<double>(shed);
  layers.lost = static_cast<double>(lost);
  for (const auto& f : frontends) {
    layers.generator_batches += static_cast<double>(f->generator_batches());
    layers.queued_retries += static_cast<double>(f->queued_retries());
  }
  for (const auto& scaler : scalers) {
    layers.scale_ups += static_cast<double>(scaler->scale_ups());
    layers.scale_downs += static_cast<double>(scaler->scale_downs());
  }
  for (const auto& rs : replicasets) {
    layers.replicas_created += static_cast<double>(rs->created_total());
  }
  AddServingLayers(layers, rep);
}

// ---------------------------------------------------------------------------
// Output.

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonObject(const MetricList& list) {
  std::string out = "{";
  for (const auto& [name, v] : list) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + Number(v);
  }
  return out + "}";
}

/// FNV-1a over every modeled value and tally at full precision: two runs
/// with the same digest produced byte-identical modeled outcomes.
std::string ModeledDigest(const Rep& rep) {
  std::uint64_t h = 1469598103934665603ull;
  for (const MetricList* list : {&rep.modeled, &rep.counts}) {
    for (const auto& [name, v] : *list) {
      for (char c : name + "=" + Number(v) + "\n") {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      }
    }
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void PrintRep(const std::string& workload, std::uint64_t seed, const Rep& rep) {
  std::string errors = "[";
  for (const std::string& e : rep.errors) {
    if (errors.size() > 1) errors += ", ";
    errors += "\"" + e + "\"";  // fixed ASCII messages; nothing to escape
  }
  errors += "]";
  const MetricList host = {
      {"setup_s", rep.setup_s},
      {"wall_s", rep.wall_s},
      {"cpu_s", rep.cpu_s},
      {"peak_rss_mb", PeakRssMb()},
      {"done_per_wall_s", rep.wall_s > 0 ? rep.done / rep.wall_s : 0.0},
  };
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %s, \"errors\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"digest\": \"%s\", "
      "\"host\": %s, \"modeled\": %s, \"counts\": %s, \"layers\": %s}\n",
      workload.c_str(), static_cast<unsigned long long>(seed),
      rep.trace ? "true" : "false", errors.c_str(),
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed), ModeledDigest(rep).c_str(),
      JsonObject(host).c_str(), JsonObject(rep.modeled).c_str(),
      JsonObject(rep.counts).c_str(), JsonObject(rep.layers).c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: ks_perfbench --workload paper-8n|scale-128n|serving-8n "
               "--seed N [--trace]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  Rep rep;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (arg == "--trace") {
      rep.trace = true;
    } else {
      return Usage();
    }
  }
  if (!have_seed) return Usage();

  if (workload == "serving-8n") {
    RunServing(seed, rep);
  } else {
    const JobWorkload* w = nullptr;
    for (const JobWorkload& candidate : kJobWorkloads) {
      if (workload == candidate.name) w = &candidate;
    }
    if (w == nullptr) return Usage();
    RunJobWorkload(*w, seed, rep);
  }
  PrintRep(workload, seed, rep);
  return rep.errors.empty() ? 0 : 1;
}
