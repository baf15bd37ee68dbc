#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/time.hpp"
#include "k8s/cluster.hpp"
#include "metrics/latency_digest.hpp"
#include "metrics/slo.hpp"
#include "serving/arrivals.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace ks::serving {

/// One SLO-bound inference service: an arrival stream (the aggregate
/// traffic of `clients` simulated clients), a p99 latency target, and the
/// replica template the requests fan out over.
struct ServiceConfig {
  std::string name = "svc";
  /// Aggregate request rate of every client of this service.
  RateEnvelope envelope;
  /// How many simulated client processes the envelope aggregates —
  /// bookkeeping only (the generator's cost is independent of it, which is
  /// the whole point of batched arrival streams).
  std::uint64_t clients = 0;
  Duration slo_p99 = Millis(250);
  /// Arrival batching window; <= 0 selects per-request generation (one
  /// engine event per arrival).
  Duration batch_window = Millis(10);
  /// Arrivals stop at this simulation time (in-flight work still drains).
  Time until = Seconds(60.0);
  std::uint64_t seed = 1;
  /// Re-dispatch delay for requests held at the door under the
  /// AdmissionConfig::Policy::kQueue policy.
  Duration queue_retry = Millis(20);
  /// Window of the frontend's own sliding p99 estimate (the autoscaler
  /// probe).
  Duration stats_window = Seconds(5.0);
  /// Replica template: the request server each replica runs.
  workload::RequestServerSpec replica;
};

/// The service's front door: owns the arrival generator, tracks ready
/// replicas (RequestServerJob lifecycle), dispatches requests round-robin,
/// consults the replica's node token daemon for admission, and records
/// every latency into streaming digests (cumulative + windowed). This is
/// the layer that turns "millions of clients" into O(replicas) state and
/// O(non-empty windows) engine events.
class ServiceFrontend {
 public:
  /// Observer for the differential suite: `what` is one of "arrive",
  /// "dispatch", "serve", "shed", "queue", "wait", "lost"; `arrival` is
  /// the request's client-side arrival time; `when` the event time (the
  /// finish time for "serve"); `replica` the replica involved (empty for
  /// generator-level records).
  using TraceFn = std::function<void(const char* what, Time arrival, Time when,
                                     const std::string& replica)>;

  ServiceFrontend(k8s::Cluster* cluster, workload::WorkloadHost* host,
                  ServiceConfig config);
  ~ServiceFrontend();

  ServiceFrontend(const ServiceFrontend&) = delete;
  ServiceFrontend& operator=(const ServiceFrontend&) = delete;

  /// The hook to install on the service's SharePodReplicaSet
  /// (SetReplicaHook): registers a RequestServerJob factory with the
  /// WorkloadHost for every new replica name, wired back into this
  /// frontend's replica registry. Safe to invoke after the frontend died
  /// (the callbacks hold weak references).
  std::function<void(const std::string& replica_name)> MakeReplicaHook();

  /// Starts the arrival generator. Call after the replicaset is started
  /// (requests arriving before the first replica is ready are buffered).
  /// After Stop() it resumes the same arrival sequence at Now(); it is a
  /// no-op while running.
  void Start();
  /// Stops generating arrivals; dispatched work keeps draining.
  void Stop();

  const ServiceConfig& config() const { return config_; }

  std::uint64_t arrived() const;
  std::uint64_t served() const;
  std::uint64_t shed() const;
  /// Requests that died with their replica (scale-down or crash while
  /// queued on it).
  std::uint64_t lost() const;
  /// Served past the SLO.
  std::uint64_t violations() const;
  std::uint64_t queued_retries() const;
  std::size_t ready_replicas() const;
  /// Every arrived request reached a terminal state (served, shed or
  /// lost) and nothing is buffered or held for retry.
  bool Drained() const;

  std::uint64_t generator_events() const;
  std::uint64_t generator_batches() const;

  /// Cumulative latency digest over the service's lifetime.
  const metrics::LatencyDigest& digest() const;
  /// Sliding-window p99 estimate — the autoscaler's metric probe.
  double ObservedP99Seconds();
  /// Ready-made SloAutoscaler probe: the sliding-window p99 while traffic
  /// flows, a near-zero reading once the service has served real traffic
  /// and fully drained (an idle fleet is far under any SLO, so the
  /// controller may shrink it), and 0 — "no decision" — in the cold-start
  /// gap before the first serves. Holds a weak reference; safe to call
  /// after the frontend is gone (reads 0).
  std::function<double()> MakeAutoscalerProbe();
  /// Snapshot for the ks_slo_* exporter.
  metrics::ServiceSloSample Sample();

  void SetTraceFn(TraceFn fn);

 private:
  struct Core;

  ServiceConfig config_;
  /// All mutable state lives behind a shared_ptr: job factories, replica
  /// lifecycle callbacks and queue-retry events capture weak references,
  /// so callbacks firing during cluster teardown (after this frontend is
  /// gone) degrade to no-ops instead of use-after-free. Served callbacks,
  /// which run once per request, point at the replica records directly;
  /// the destructor clears them.
  std::shared_ptr<Core> core_;
};

}  // namespace ks::serving
