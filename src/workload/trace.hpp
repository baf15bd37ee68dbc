#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.hpp"
#include "kubeshare/kubeshare.hpp"
#include "workload/host.hpp"

namespace ks::workload {

/// One job of a workload trace. Traces are the file interface of this
/// reproduction: the synthetic generator's arrivals can be snapshotted to
/// a trace, edited and replayed, or a user can bring their own cluster log
/// converted to this format.
struct TraceEntry {
  double submit_s = 0.0;
  std::string name;
  std::string kind = "inference";  // "inference" | "training"
  // Inference: client demand + nominal duration; training: steps.
  double demand = 0.3;
  double duration_s = 60.0;
  int steps = 0;
  double kernel_ms = 20.0;
  // SharePod resource spec.
  double gpu_request = 0.3;
  double gpu_limit = 1.0;
  double gpu_mem = 0.2;
  double model_gb = 2.0;
  // Locality labels (empty = none).
  std::string affinity;
  std::string anti_affinity;
  std::string exclusion;
};

/// Valid ranges of a TraceEntry's numeric fields, shared by ParseTrace and
/// ksim's `job` command. demand and the gpu_* fractions lie in [0, 1];
/// submit_s and duration_s in [0, kMaxTraceSeconds]; steps is a whole
/// number in [0, kMaxTraceSteps]; kernel_ms is at least the 1 µs clock
/// tick, so a job's request rate (demand / kernel) stays finite.
inline constexpr double kMaxTraceSeconds = 1e9;  // ~31.7 years
inline constexpr int kMaxTraceSteps = 1000000000;
inline constexpr double kMinTraceKernelMs = 0.001;
inline constexpr double kMaxTraceKernelMs = 1e6;
inline constexpr double kMaxTraceModelGb = 1e6;

/// CSV header used by Parse/Format (one line per entry, '#' comments and
/// blank lines ignored):
///   submit_s,name,kind,demand,duration_s,steps,kernel_ms,
///   gpu_request,gpu_limit,gpu_mem,model_gb,affinity,anti_affinity,exclusion
Expected<std::vector<TraceEntry>> ParseTrace(std::istream& in);
void FormatTrace(const std::vector<TraceEntry>& entries, std::ostream& out);

/// Builds the Job object described by a trace entry.
std::unique_ptr<Job> MakeTraceJob(const TraceEntry& entry,
                                  std::uint64_t seed);

/// Materializes the synthetic §5.3 workload (Poisson arrivals, normal
/// demand) as a concrete trace — the bridge between the generator and the
/// file format. A replay shares WorkloadDriver's arrival times and demands
/// but is not the driver's run: its inference jobs draw other request
/// seeds, its sharePods carry no CPU request, it emits inference jobs even
/// for a training workload, and Seconds(submit_s) puts about 1.3% of
/// arrivals 1 µs early.
std::vector<TraceEntry> GenerateTrace(const struct WorkloadConfig& config);

/// Replays a trace against a cluster, through KubeShare (sharePods) or as
/// native whole-GPU pods.
class TraceReplayer {
 public:
  enum class Mode { kNative, kKubeShare };

  TraceReplayer(k8s::Cluster* cluster, WorkloadHost* host, Mode mode,
                kubeshare::KubeShare* kubeshare);

  /// Schedules every entry's submission. A name may appear once across
  /// every Load of this replayer; a repeat fails the whole call with
  /// INVALID_ARGUMENT and schedules nothing.
  Status Load(std::vector<TraceEntry> entries, std::uint64_t seed = 1);

  bool AllDone() const;
  std::size_t submitted() const { return submitted_; }

 private:
  void SubmitEntry(const TraceEntry& entry, std::uint64_t seed);

  k8s::Cluster* cluster_;
  WorkloadHost* host_;
  Mode mode_;
  kubeshare::KubeShare* kubeshare_;
  std::unordered_set<std::string> names_;
  std::size_t total_ = 0;
  std::size_t submitted_ = 0;
};

}  // namespace ks::workload
