#include "scenario/scenario.hpp"

#include <fstream>
#include <map>
#include <sstream>

#include "common/parse.hpp"
#include "common/table.hpp"
#include "k8s/resources.hpp"
#include "metrics/cluster_metrics.hpp"

namespace ks::scenario {

namespace {

struct Tokenized {
  std::string command;
  std::map<std::string, std::string> args;
};

Expected<Tokenized> Tokenize(const std::string& line, int lineno) {
  Tokenized out;
  std::stringstream ss(line);
  std::string token;
  while (ss >> token) {
    if (out.command.empty()) {
      out.command = token;
      continue;
    }
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      // Bare words are allowed for report targets ("report jobs").
      out.args[token] = "";
      continue;
    }
    out.args[token.substr(0, eq)] = token.substr(eq + 1);
  }
  if (out.command.empty()) {
    return InvalidArgumentError("line " + std::to_string(lineno) +
                                ": empty command");
  }
  return out;
}

/// Reads numeric argument `key` (or `fallback` when absent) through the
/// shared external-input parser: finite, within [min, max], and whole
/// when T is an integer type.
template <typename T>
Expected<T> GetNumber(const Tokenized& t, const std::string& key, T fallback,
                      T min, T max, int lineno) {
  auto it = t.args.find(key);
  if (it == t.args.end()) return fallback;
  auto v = ParseNumber<T>(it->second, key, min, max);
  if (!v.ok()) {
    return InvalidArgumentError("line " + std::to_string(lineno) + ": " +
                                v.status().message());
  }
  return v;
}

// Ranges of the cluster-shape arguments; job fields share the trace
// format's ranges (docs/ksim.md lists them all).
constexpr int kMaxNodes = 10000;
constexpr int kMaxGpusPerNode = 64;

std::string GetString(const Tokenized& t, const std::string& key,
                      const std::string& fallback = "") {
  auto it = t.args.find(key);
  return it == t.args.end() ? fallback : it->second;
}

bool GetSwitch(const Tokenized& t, const std::string& key) {
  const std::string v = GetString(t, key, "off");
  return v == "on" || v == "true" || v == "1" || v == "yes";
}

}  // namespace

Expected<Scenario> Scenario::Parse(std::istream& in) {
  Scenario scenario;
  std::string line;
  int lineno = 0;
  bool saw_cluster = false;
  bool saw_job = false;
  bool overcommit = false;
  std::vector<std::string> job_names;

  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    auto tokens = Tokenize(line, lineno);
    if (!tokens.ok()) return tokens.status();
    const Tokenized& t = *tokens;
    Directive d;
    d.lineno = lineno;

    if (t.command == "cluster") {
      d.kind = Directive::Kind::kCluster;
      auto nodes = GetNumber(t, "nodes", 1, 1, kMaxNodes, lineno);
      auto gpus = GetNumber(t, "gpus", 1, 1, kMaxGpusPerNode, lineno);
      auto cpu = GetNumber<std::int64_t>(t, "cpu", 36000, 1, 1000000000,
                                         lineno);
      auto scale = GetNumber(t, "scale", 100, 1, 1000, lineno);
      if (!nodes.ok()) return nodes.status();
      if (!gpus.ok()) return gpus.status();
      if (!cpu.ok()) return cpu.status();
      if (!scale.ok()) return scale.status();
      d.cluster.nodes = *nodes;
      d.cluster.gpus_per_node = *gpus;
      d.cluster.cpu_millicores = *cpu;
      d.cluster.scaled_plugin = GetSwitch(t, "scaled");
      d.cluster.plugin_scale = *scale;
      saw_cluster = true;
    } else if (t.command == "kubeshare") {
      d.kind = Directive::Kind::kKubeShare;
      const std::string pool = GetString(t, "pool", "ondemand");
      if (pool == "ondemand") {
        d.kconfig.pool_policy = kubeshare::PoolPolicy::kOnDemand;
      } else if (pool == "reservation") {
        d.kconfig.pool_policy = kubeshare::PoolPolicy::kReservation;
      } else if (pool == "hybrid") {
        d.kconfig.pool_policy = kubeshare::PoolPolicy::kHybrid;
      } else {
        return InvalidArgumentError("line " + std::to_string(lineno) +
                                    ": unknown pool policy '" + pool + "'");
      }
      auto reserve =
          GetNumber(t, "reserve", 2, 0, kMaxNodes * kMaxGpusPerNode, lineno);
      if (!reserve.ok()) return reserve.status();
      d.kconfig.hybrid_reserve = *reserve;
      overcommit = overcommit || GetSwitch(t, "overcommit");
    } else if (t.command == "mode") {
      d.kind = Directive::Kind::kMode;
      if (t.args.count("kubeshare") > 0) {
        d.use_kubeshare_mode = true;
      } else if (t.args.count("native") > 0) {
        d.use_kubeshare_mode = false;
      } else {
        return InvalidArgumentError("line " + std::to_string(lineno) +
                                    ": mode kubeshare|native");
      }
      if (saw_job) {
        return InvalidArgumentError("line " + std::to_string(lineno) +
                                    ": mode must precede all jobs");
      }
    } else if (t.command == "job") {
      d.kind = Directive::Kind::kJob;
      workload::TraceEntry& job = d.job;
      job.name = GetString(t, "name");
      if (job.name.empty()) {
        return InvalidArgumentError("line " + std::to_string(lineno) +
                                    ": job needs name=");
      }
      for (const std::string& existing : job_names) {
        if (existing == job.name) {
          return InvalidArgumentError("line " + std::to_string(lineno) +
                                      ": duplicate job name '" + job.name +
                                      "'");
        }
      }
      job_names.push_back(job.name);
      job.kind = GetString(t, "kind", "inference");
      if (job.kind != "inference" && job.kind != "training") {
        return InvalidArgumentError("line " + std::to_string(lineno) +
                                    ": kind inference|training");
      }
      auto at = GetNumber(t, "at", 0.0, 0.0, workload::kMaxTraceSeconds,
                          lineno);
      auto demand = GetNumber(t, "demand", 0.3, 0.0, 1.0, lineno);
      auto duration = GetNumber(t, "duration", 60.0, 0.0,
                                workload::kMaxTraceSeconds, lineno);
      auto steps = GetNumber(t, "steps", 1000, 0, workload::kMaxTraceSteps,
                             lineno);
      auto kernel =
          GetNumber(t, "kernel_ms", 20.0, workload::kMinTraceKernelMs,
                    workload::kMaxTraceKernelMs, lineno);
      auto request = GetNumber(t, "request", 0.3, 0.0, 1.0, lineno);
      auto limit = GetNumber(t, "limit", 1.0, 0.0, 1.0, lineno);
      auto mem = GetNumber(t, "mem", 0.2, 0.0, 1.0, lineno);
      auto model = GetNumber(t, "model_gb", 2.0, 0.0,
                             workload::kMaxTraceModelGb, lineno);
      for (const auto* v : {&at, &demand, &duration, &kernel, &request,
                            &limit, &mem, &model}) {
        if (!v->ok()) return v->status();
      }
      if (!steps.ok()) return steps.status();
      job.submit_s = *at;
      job.demand = *demand;
      job.duration_s = *duration;
      job.steps = *steps;
      job.kernel_ms = *kernel;
      job.gpu_request = *request;
      job.gpu_limit = *limit;
      job.gpu_mem = *mem;
      job.model_gb = *model;
      job.affinity = GetString(t, "affinity");
      job.anti_affinity = GetString(t, "anti_affinity");
      job.exclusion = GetString(t, "exclusion");
      vgpu::ResourceSpec check;
      check.gpu_request = job.gpu_request;
      check.gpu_limit = job.gpu_limit;
      check.gpu_mem = job.gpu_mem;
      if (const Status s = check.Validate(); !s.ok()) {
        return InvalidArgumentError("line " + std::to_string(lineno) + ": " +
                                    s.message());
      }
      saw_job = true;
    } else if (t.command == "trace") {
      d.kind = Directive::Kind::kTrace;
      d.trace_file = GetString(t, "file");
      if (d.trace_file.empty()) {
        return InvalidArgumentError("line " + std::to_string(lineno) +
                                    ": trace needs file=PATH");
      }
      saw_job = true;  // trace jobs pin the mode like inline jobs do
    } else if (t.command == "health") {
      d.kind = Directive::Kind::kHealth;
      auto node = GetNumber(t, "node", 0, 0, kMaxNodes - 1, lineno);
      auto gpu = GetNumber(t, "gpu", 0, 0, kMaxGpusPerNode - 1, lineno);
      if (!node.ok()) return node.status();
      if (!gpu.ok()) return gpu.status();
      d.health_node = *node;
      d.health_gpu = *gpu;
      const std::string state = GetString(t, "state", "unhealthy");
      if (state == "healthy") {
        d.health_state = true;
      } else if (state == "unhealthy") {
        d.health_state = false;
      } else {
        return InvalidArgumentError("line " + std::to_string(lineno) +
                                    ": state healthy|unhealthy");
      }
    } else if (t.command == "resize") {
      d.kind = Directive::Kind::kResize;
      d.resize_name = GetString(t, "name");
      if (d.resize_name.empty()) {
        return InvalidArgumentError("line " + std::to_string(lineno) +
                                    ": resize needs name=");
      }
      auto request = GetNumber(t, "request", 0.0, 0.0, 1.0, lineno);
      auto limit = GetNumber(t, "limit", 1.0, 0.0, 1.0, lineno);
      if (!request.ok()) return request.status();
      if (!limit.ok()) return limit.status();
      d.resize_request = *request;
      d.resize_limit = *limit;
    } else if (t.command == "run") {
      d.kind = Directive::Kind::kRun;
      auto until = GetNumber(t, "until", -1.0, 0.0,
                             workload::kMaxTraceSeconds, lineno);
      if (!until.ok()) return until.status();
      if (*until < 0) {
        return InvalidArgumentError("line " + std::to_string(lineno) +
                                    ": run needs until=SECONDS");
      }
      d.until_s = *until;
    } else if (t.command == "report") {
      d.kind = Directive::Kind::kReport;
      for (const char* what :
           {"jobs", "gpus", "pool", "events", "sharepods", "metrics"}) {
        if (t.args.count(what) > 0) d.report_what = what;
      }
      if (d.report_what.empty()) {
        return InvalidArgumentError(
            "line " + std::to_string(lineno) +
            ": report jobs|gpus|pool|sharepods|metrics|events");
      }
      auto tail = GetNumber<std::size_t>(t, "tail", 0, 0, 1000000000,
                                         lineno);
      if (!tail.ok()) return tail.status();
      d.tail = *tail;
    } else {
      return InvalidArgumentError("line " + std::to_string(lineno) +
                                  ": unknown command '" + t.command + "'");
    }
    scenario.directives_.push_back(std::move(d));
  }
  if (!saw_cluster) {
    return InvalidArgumentError("scenario has no 'cluster' command");
  }
  // `kubeshare overcommit=on` flips the cluster-wide switch, which both the
  // scheduler and the workload host read: the cluster is built first.
  for (Directive& d : scenario.directives_) {
    if (d.kind == Directive::Kind::kCluster) {
      d.cluster.oversub.enabled = overcommit;
    }
  }
  return scenario;
}

Status Scenario::Run(std::ostream& out) {
  for (const Directive& d : directives_) {
    KS_RETURN_IF_ERROR(Execute(d, out));
  }
  return Status::Ok();
}

Status Scenario::Execute(const Directive& d, std::ostream& out) {
  const std::string at_line = "line " + std::to_string(d.lineno);
  switch (d.kind) {
    case Directive::Kind::kCluster: {
      if (cluster_ != nullptr) {
        return FailedPreconditionError(at_line + ": cluster already built");
      }
      cluster_ = std::make_unique<k8s::Cluster>(d.cluster);
      host_ = std::make_unique<workload::WorkloadHost>(cluster_.get());
      KS_RETURN_IF_ERROR(cluster_->Start());
      out << "cluster: " << d.cluster.nodes << " nodes x "
          << d.cluster.gpus_per_node << " GPUs\n";
      return Status::Ok();
    }
    case Directive::Kind::kKubeShare: {
      if (cluster_ == nullptr) {
        return FailedPreconditionError(at_line + ": kubeshare before cluster");
      }
      if (kubeshare_ != nullptr) {
        return FailedPreconditionError(at_line + ": kubeshare already set up");
      }
      kubeshare_ =
          std::make_unique<kubeshare::KubeShare>(cluster_.get(), d.kconfig);
      KS_RETURN_IF_ERROR(kubeshare_->Start());
      kubeshare_requested_ = true;
      out << "kubeshare: installed\n";
      return Status::Ok();
    }
    case Directive::Kind::kMode:
      mode_kubeshare_ = d.use_kubeshare_mode;
      return Status::Ok();
    case Directive::Kind::kJob: {
      if (cluster_ == nullptr) {
        return FailedPreconditionError(at_line + ": job before cluster");
      }
      if (mode_kubeshare_ && !kubeshare_requested_) {
        return FailedPreconditionError(
            at_line + ": kubeshare jobs need a 'kubeshare' command "
                      "(or 'mode native')");
      }
      if (replayer_ == nullptr) {
        replayer_ = std::make_unique<workload::TraceReplayer>(
            cluster_.get(), host_.get(),
            mode_kubeshare_ ? workload::TraceReplayer::Mode::kKubeShare
                            : workload::TraceReplayer::Mode::kNative,
            kubeshare_.get());
      }
      return replayer_->Load({d.job},
                             std::hash<std::string>{}(d.job.name) & 0xffff);
    }
    case Directive::Kind::kTrace: {
      if (cluster_ == nullptr) {
        return FailedPreconditionError(at_line + ": trace before cluster");
      }
      if (mode_kubeshare_ && !kubeshare_requested_) {
        return FailedPreconditionError(
            at_line + ": kubeshare traces need a 'kubeshare' command "
                      "(or 'mode native')");
      }
      std::ifstream file(d.trace_file);
      if (!file) {
        return NotFoundError(at_line + ": cannot open " + d.trace_file);
      }
      auto entries = workload::ParseTrace(file);
      if (!entries.ok()) return entries.status();
      if (replayer_ == nullptr) {
        replayer_ = std::make_unique<workload::TraceReplayer>(
            cluster_.get(), host_.get(),
            mode_kubeshare_ ? workload::TraceReplayer::Mode::kKubeShare
                            : workload::TraceReplayer::Mode::kNative,
            kubeshare_.get());
      }
      KS_RETURN_IF_ERROR(replayer_->Load(*entries));
      out << "trace: loaded " << entries->size() << " jobs from "
          << d.trace_file << "\n";
      return Status::Ok();
    }
    case Directive::Kind::kHealth: {
      if (cluster_ == nullptr) {
        return FailedPreconditionError(at_line + ": health before cluster");
      }
      if (d.health_node < 0 ||
          d.health_node >= static_cast<int>(cluster_->node_count())) {
        return InvalidArgumentError(at_line + ": no such node");
      }
      auto& node = cluster_->node(static_cast<std::size_t>(d.health_node));
      auto* plugin = dynamic_cast<k8s::NvidiaDevicePlugin*>(node.plugin.get());
      if (plugin == nullptr) {
        return FailedPreconditionError(
            at_line + ": health requires the stock (unscaled) plugin");
      }
      if (d.health_gpu < 0 ||
          d.health_gpu >= static_cast<int>(node.gpus.size())) {
        return InvalidArgumentError(at_line + ": no such GPU");
      }
      const std::string uuid = node.gpus[static_cast<std::size_t>(
          d.health_gpu)]->uuid().value();
      KS_RETURN_IF_ERROR(plugin->SetDeviceHealth(uuid, d.health_state));
      KS_RETURN_IF_ERROR(node.kubelet->RefreshDevices());
      out << "health: " << uuid << " -> "
          << (d.health_state ? "healthy" : "unhealthy") << "\n";
      return Status::Ok();
    }
    case Directive::Kind::kResize: {
      if (kubeshare_ == nullptr) {
        return FailedPreconditionError(at_line + ": resize needs kubeshare");
      }
      KS_RETURN_IF_ERROR(kubeshare_->ResizeSharePod(
          d.resize_name, d.resize_request, d.resize_limit));
      out << "resize: " << d.resize_name << " -> request="
          << d.resize_request << " limit=" << d.resize_limit << "\n";
      return Status::Ok();
    }
    case Directive::Kind::kRun:
      if (cluster_ == nullptr) {
        return FailedPreconditionError(at_line + ": run before cluster");
      }
      cluster_->sim().RunUntil(Seconds(d.until_s));
      out << "ran until t=" << FormatTime(cluster_->sim().Now()) << "\n";
      return Status::Ok();
    case Directive::Kind::kReport:
      if (cluster_ == nullptr) {
        return FailedPreconditionError(at_line + ": report before cluster");
      }
      out << "\n== report " << d.report_what << " (t="
          << FormatTime(cluster_->sim().Now()) << ") ==\n";
      if (d.report_what == "jobs") {
        ReportJobs(out);
      } else if (d.report_what == "gpus") {
        ReportGpus(out);
      } else if (d.report_what == "pool") {
        ReportPool(out);
      } else if (d.report_what == "sharepods") {
        ReportSharePods(out);
      } else if (d.report_what == "metrics") {
        metrics::PrometheusExporter exporter;
        metrics::ExportClusterMetrics(*cluster_, kubeshare_.get(), exporter);
        exporter.Write(out);
      } else {
        cluster_->api().events().Print(out, d.tail);
      }
      out << "\n";
      return Status::Ok();
  }
  return InternalError("unhandled directive");
}

void Scenario::ReportJobs(std::ostream& out) const {
  Table table({"job", "submitted", "started", "finished", "outcome"});
  // Sorted by name so reports are stable regardless of hash order; covers
  // inline `job` directives and trace-loaded jobs alike.
  std::map<std::string, const workload::WorkloadHost::JobRecord*> sorted;
  for (const auto& [name, rec] : host_->records()) sorted[name] = &rec;
  for (const auto& [name, rec] : sorted) {
    table.AddRow({name, FormatTime(rec->submitted),
                  rec->has_started ? FormatTime(rec->started) : "-",
                  rec->has_finished ? FormatTime(rec->finished) : "-",
                  rec->has_finished
                      ? (rec->success ? "succeeded" : "failed")
                      : (rec->has_started ? "running" : "pending")});
  }
  table.Print(out);
}

void Scenario::ReportGpus(std::ostream& out) const {
  Table table({"GPU", "node", "busy (s)", "mem used"});
  const Time now = cluster_->sim().Now();
  for (std::size_t n = 0; n < cluster_->node_count(); ++n) {
    auto& node = cluster_->node(n);
    for (auto& dev : node.gpus) {
      dev->utilization().Flush(now);
      table.AddRow({dev->uuid().value(), node.name,
                    Cell(ToSeconds(dev->utilization().TotalBusy()), 1),
                    Cell(static_cast<double>(dev->used_memory()) /
                             static_cast<double>(dev->spec().memory_bytes),
                         2)});
    }
  }
  table.Print(out);
}

void Scenario::ReportSharePods(std::ostream& out) const {
  if (kubeshare_ == nullptr) {
    out << "(kubeshare not installed)\n";
    return;
  }
  Table table({"sharepod", "phase", "vGPU", "node", "request", "limit",
               "mem", "priority"});
  for (const kubeshare::SharePod& sp : kubeshare_->sharepods().List()) {
    table.AddRow({sp.meta.name, SharePodPhaseName(sp.status.phase),
                  sp.spec.gpu_id.value(), sp.spec.node_name,
                  Cell(sp.spec.gpu.gpu_request, 2),
                  Cell(sp.spec.gpu.gpu_limit, 2),
                  Cell(sp.spec.gpu.gpu_mem, 2),
                  Cell(static_cast<std::int64_t>(sp.spec.priority))});
  }
  table.Print(out);
}

void Scenario::ReportPool(std::ostream& out) const {
  if (kubeshare_ == nullptr) {
    out << "(kubeshare not installed)\n";
    return;
  }
  Table table({"vGPU", "node", "state", "used_util", "used_mem", "attached"});
  for (const kubeshare::VgpuInfo* dev : kubeshare_->pool().List()) {
    table.AddRow({dev->id.value(), dev->node, VgpuStateName(dev->state),
                  Cell(dev->used_util, 2), Cell(dev->used_mem, 2),
                  Cell(static_cast<std::int64_t>(dev->attached.size()))});
  }
  table.Print(out);
  out << "acquired " << kubeshare_->devmgr().vgpus_created() << ", released "
      << kubeshare_->devmgr().vgpus_released() << "\n";
}

std::string Scenario::ExampleScript() {
  return R"(# ksim example: two training tenants and a shared inference pair
cluster nodes=2 gpus=2
kubeshare pool=hybrid reserve=1

# A pair of inference services that share one GPU.
job name=svc-a kind=inference at=0  demand=0.30 duration=120 request=0.35 limit=0.9 mem=0.2
job name=svc-b kind=inference at=5  demand=0.25 duration=120 request=0.30 limit=0.9 mem=0.2

# A training job that must not share with anyone.
job name=train kind=training at=10 steps=3000 kernel_ms=10 request=0.8 limit=1.0 mem=0.5 exclusion=team-a

run until=200
report jobs
report pool
report gpus
report events tail=15
)";
}

}  // namespace ks::scenario
