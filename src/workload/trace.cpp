#include "workload/trace.hpp"

#include <cassert>
#include <cmath>
#include <sstream>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "k8s/resources.hpp"
#include "workload/generator.hpp"
#include "workload/job.hpp"

namespace ks::workload {

namespace {

constexpr int kFieldCount = 14;

std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  std::string field;
  while (std::getline(ss, field, ',')) out.push_back(field);
  // A trailing comma yields an implicit empty last field.
  if (!line.empty() && line.back() == ',') out.emplace_back();
  return out;
}

}  // namespace

Expected<std::vector<TraceEntry>> ParseTrace(std::istream& in) {
  std::vector<TraceEntry> out;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip trailing CR (CRLF traces) and skip comments/blanks/header.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("submit_s,", 0) == 0) continue;  // header row
    const auto fields = SplitCsv(line);
    if (fields.size() != kFieldCount) {
      return InvalidArgumentError("line " + std::to_string(lineno) +
                                  ": expected " +
                                  std::to_string(kFieldCount) + " fields, got " +
                                  std::to_string(fields.size()));
    }
    const auto bad = [lineno](const Status& s) {
      return InvalidArgumentError("line " + std::to_string(lineno) + ": " +
                                  s.message());
    };
    TraceEntry e;
    auto submit = ParseNumber(fields[0], "submit_s", 0.0, kMaxTraceSeconds);
    if (!submit.ok()) return bad(submit.status());
    e.submit_s = *submit;
    e.name = fields[1];
    if (e.name.empty()) {
      return InvalidArgumentError("line " + std::to_string(lineno) +
                                  ": empty job name");
    }
    e.kind = fields[2];
    if (e.kind != "inference" && e.kind != "training") {
      return InvalidArgumentError("line " + std::to_string(lineno) +
                                  ": unknown kind '" + e.kind + "'");
    }
    auto demand = ParseNumber(fields[3], "demand", 0.0, 1.0);
    auto duration =
        ParseNumber(fields[4], "duration_s", 0.0, kMaxTraceSeconds);
    auto steps = ParseNumber(fields[5], "steps", 0, kMaxTraceSteps);
    auto kernel = ParseNumber(fields[6], "kernel_ms", kMinTraceKernelMs,
                              kMaxTraceKernelMs);
    auto request = ParseNumber(fields[7], "gpu_request", 0.0, 1.0);
    auto limit = ParseNumber(fields[8], "gpu_limit", 0.0, 1.0);
    auto mem = ParseNumber(fields[9], "gpu_mem", 0.0, 1.0);
    auto model = ParseNumber(fields[10], "model_gb", 0.0, kMaxTraceModelGb);
    for (const auto* v : {&demand, &duration, &kernel, &request, &limit,
                          &mem, &model}) {
      if (!v->ok()) return bad(v->status());
    }
    if (!steps.ok()) return bad(steps.status());
    e.demand = *demand;
    e.duration_s = *duration;
    e.steps = *steps;
    e.kernel_ms = *kernel;
    e.gpu_request = *request;
    e.gpu_limit = *limit;
    e.gpu_mem = *mem;
    e.model_gb = *model;
    e.affinity = fields[11];
    e.anti_affinity = fields[12];
    e.exclusion = fields[13];
    out.push_back(std::move(e));
  }
  return out;
}

void FormatTrace(const std::vector<TraceEntry>& entries, std::ostream& out) {
  // Full round-trip precision: default stream precision truncates to 6
  // significant digits, which would shift replayed arrival times.
  out.precision(15);
  out << "submit_s,name,kind,demand,duration_s,steps,kernel_ms,"
         "gpu_request,gpu_limit,gpu_mem,model_gb,affinity,anti_affinity,"
         "exclusion\n";
  for (const TraceEntry& e : entries) {
    out << e.submit_s << ',' << e.name << ',' << e.kind << ',' << e.demand
        << ',' << e.duration_s << ',' << e.steps << ',' << e.kernel_ms << ','
        << e.gpu_request << ',' << e.gpu_limit << ',' << e.gpu_mem << ','
        << e.model_gb << ',' << e.affinity << ',' << e.anti_affinity << ','
        << e.exclusion << '\n';
  }
}

std::unique_ptr<Job> MakeTraceJob(const TraceEntry& entry,
                                  std::uint64_t seed) {
  const auto model_bytes =
      static_cast<std::uint64_t>(entry.model_gb * 1024.0 * 1024.0 * 1024.0);
  if (entry.kind == "training") {
    TrainingSpec spec;
    spec.steps = entry.steps;
    spec.step_kernel =
        Duration{static_cast<std::int64_t>(entry.kernel_ms * 1000)};
    spec.model_bytes = model_bytes;
    return std::make_unique<TrainingJob>(spec);
  }
  InferenceSpec spec = InferenceSpec::ForDemand(
      entry.demand,
      std::max(1, static_cast<int>(std::lround(
                      entry.demand / (entry.kernel_ms / 1000.0) *
                      entry.duration_s))),
      Duration{static_cast<std::int64_t>(entry.kernel_ms * 1000)});
  spec.model_bytes = model_bytes;
  spec.seed = seed;
  return std::make_unique<InferenceJob>(spec);
}

std::vector<TraceEntry> GenerateTrace(const WorkloadConfig& config) {
  // Mirrors WorkloadDriver::SubmitOne's draw order: the same seed yields
  // the same arrival times and demands. The rest of a replay differs from
  // the driver's run (trace.hpp says how).
  Rng rng(config.seed);
  std::vector<TraceEntry> out;
  out.reserve(static_cast<std::size_t>(std::max(0, config.total_jobs)));
  Time at{0};
  for (int i = 0; i < config.total_jobs; ++i) {
    TraceEntry e;
    e.submit_s = ToSeconds(at);
    e.name = "job-" + std::to_string(i);
    e.kind = "inference";
    e.demand = rng.TruncatedNormal(config.demand_mean, config.demand_stddev,
                                   config.demand_min, config.demand_max);
    e.duration_s = ToSeconds(config.job_duration);
    e.kernel_ms = ToMillis(config.kernel);
    e.gpu_request = e.demand;
    e.gpu_limit = std::max(e.demand, config.gpu_limit);
    e.gpu_mem = config.gpu_mem;
    e.model_gb = static_cast<double>(config.model_bytes) /
                 (1024.0 * 1024.0 * 1024.0);
    out.push_back(std::move(e));
    at += rng.ExponentialInterarrival(config.mean_interarrival);
  }
  return out;
}

TraceReplayer::TraceReplayer(k8s::Cluster* cluster, WorkloadHost* host,
                             Mode mode, kubeshare::KubeShare* kubeshare)
    : cluster_(cluster), host_(host), mode_(mode), kubeshare_(kubeshare) {
  assert(cluster_ != nullptr && host_ != nullptr);
  assert(mode_ != Mode::kKubeShare || kubeshare_ != nullptr);
}

Status TraceReplayer::Load(std::vector<TraceEntry> entries,
                           std::uint64_t seed) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!names_.insert(entries[i].name).second) {
      // A rejected Load keeps none of its names: the first i were new.
      for (std::size_t j = 0; j < i; ++j) names_.erase(entries[j].name);
      return InvalidArgumentError("duplicate job name: " + entries[i].name);
    }
  }
  total_ += entries.size();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const TraceEntry entry = entries[i];
    const std::uint64_t job_seed = seed + i * 6151 + 1;
    cluster_->sim().ScheduleAt(Seconds(entry.submit_s),
                               [this, entry, job_seed] {
      SubmitEntry(entry, job_seed);
    });
  }
  return Status::Ok();
}

void TraceReplayer::SubmitEntry(const TraceEntry& entry, std::uint64_t seed) {
  ++submitted_;
  host_->ExpectJob(entry.name, [entry, seed] {
    return MakeTraceJob(entry, seed);
  });
  if (mode_ == Mode::kKubeShare) {
    kubeshare::SharePod sp;
    sp.meta.name = entry.name;
    sp.spec.gpu.gpu_request = entry.gpu_request;
    sp.spec.gpu.gpu_limit = entry.gpu_limit;
    sp.spec.gpu.gpu_mem = entry.gpu_mem;
    if (!entry.affinity.empty()) {
      sp.spec.locality.affinity = Label(entry.affinity);
    }
    if (!entry.anti_affinity.empty()) {
      sp.spec.locality.anti_affinity = Label(entry.anti_affinity);
    }
    if (!entry.exclusion.empty()) {
      sp.spec.locality.exclusion = Label(entry.exclusion);
    }
    const Status s = kubeshare_->CreateSharePod(sp);
    if (!s.ok()) KS_LOG(kError) << "trace submit failed: " << s;
  } else {
    k8s::Pod pod;
    pod.meta.name = entry.name;
    pod.spec.requests.Set(k8s::kResourceNvidiaGpu, 1);
    const Status s = cluster_->api().pods().Create(pod);
    if (!s.ok()) KS_LOG(kError) << "trace submit failed: " << s;
  }
}

bool TraceReplayer::AllDone() const {
  return submitted_ >= total_ &&
         host_->completed() + host_->failed() >= total_;
}

}  // namespace ks::workload
