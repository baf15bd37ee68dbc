// Scale on the real stack: KubeShare against native Kubernetes at 32, 128
// and 512 nodes x 4 GPUs, every row one bench::RunWorkload run (the harness
// every fig bench uses) at perfbench's scale-128n per-node load:
//
//   total_jobs         2400 * nodes / 128
//   mean_interarrival  37.5 ms * 128 / nodes
//   demand             N(0.3, 0.14) truncated to [0.05, 1]
//   seed 1, 60-minute horizon
//
// Each row runs in a forked child. The parent reaps it with wait4, so the
// row's CPU time and peak RSS are that child's alone and rows never share a
// process high-water mark. Wall time spans fork to reap. The child sends
// its RunResult back through a pipe.
//
// Writes BENCH_scale.json (schema ks-bench/1), one row per (nodes, mode):
// jobs, completed, done ratio, makespan, jobs/min, censored JCT p50/p99,
// mean GPUs held, engine events, wall, CPU and peak RSS. The binary takes
// no arguments; the modeled columns are deterministic, the host columns
// are this machine's.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>

#include "common/table.hpp"
#include "harness.hpp"
#include "json_report.hpp"

namespace {

using namespace ks;

constexpr int kSizes[] = {32, 128, 512};
constexpr int kGpusPerNode = 4;

bench::RunOptions ScaleOptions(int nodes, bool kubeshare) {
  bench::RunOptions opt;
  opt.cluster.nodes = nodes;
  opt.cluster.gpus_per_node = kGpusPerNode;
  opt.workload.total_jobs = 2400 * nodes / 128;
  opt.workload.mean_interarrival = Micros(37500 * 128 / nodes);
  opt.workload.demand_mean = 0.3;
  opt.workload.demand_stddev = 0.14;
  opt.workload.demand_min = 0.05;
  opt.workload.demand_max = 1.0;
  opt.workload.seed = 1;
  opt.use_kubeshare = kubeshare;
  opt.horizon = Minutes(60);
  return opt;
}

struct Row {
  bench::RunResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

static_assert(std::is_trivially_copyable_v<bench::RunResult>,
              "the child sends its RunResult through a pipe as bytes");

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

/// Runs `opt` in a forked child; nullopt if the child fails.
std::optional<Row> RunInChild(const bench::RunOptions& opt) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(stdout);
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    const bench::RunResult result = bench::RunWorkload(opt);
    const auto* bytes = reinterpret_cast<const char*>(&result);
    std::size_t sent = 0;
    while (sent < sizeof result) {
      const ssize_t n = write(fds[1], bytes + sent, sizeof result - sent);
      if (n <= 0) _exit(1);
      sent += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  Row row;
  auto* bytes = reinterpret_cast<char*>(&row.result);
  std::size_t got = 0;
  while (got < sizeof row.result) {
    const ssize_t n = read(fds[0], bytes + got, sizeof row.result - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) return std::nullopt;
  row.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  if (got != sizeof row.result || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  row.cpu_s = TimevalSeconds(usage.ru_utime) + TimevalSeconds(usage.ru_stime);
  row.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return row;
}

}  // namespace

int main() {
  bench::Banner("bench_scale: KubeShare vs native Kubernetes at 32-512 nodes",
                "§5.3 workload at scale (no paper figure)");
  std::cout << "\nscale-128n's per-node load (2400 jobs and 37.5 ms mean "
               "inter-arrival per 128\nnodes, demand N(0.3, 0.14), seed 1) "
               "on 4-GPU nodes with a 60-minute horizon.\nEach row runs in "
               "its own process; wall, CPU and peak RSS are that "
               "process's.\n\n";

  Table table({"nodes", "mode", "done / jobs", "makespan (s)", "jobs/min",
               "JCT p50 (s)", "JCT p99 (s)", "GPUs held", "engine events",
               "wall (s)", "CPU (s)", "peak RSS (MB)"});
  JsonValue report = bench::MakeReport("scale");
  for (const int nodes : kSizes) {
    for (const bool kubeshare : {true, false}) {
      const bench::RunOptions opt = ScaleOptions(nodes, kubeshare);
      const char* mode = kubeshare ? "kubeshare" : "native";
      const std::optional<Row> row = RunInChild(opt);
      if (!row.has_value()) {
        std::fprintf(stderr, "%d-node %s run failed\n", nodes, mode);
        return 1;
      }
      const bench::RunResult& r = row->result;
      const int jobs = opt.workload.total_jobs;
      table.AddRow({Cell(static_cast<std::int64_t>(nodes)), mode,
                    std::to_string(r.completed) + " / " + std::to_string(jobs),
                    Cell(ToSeconds(r.makespan), 1), Cell(r.jobs_per_minute, 1),
                    Cell(r.jct_p50_s, 1), Cell(r.jct_p99_s, 1),
                    Cell(r.mean_gpus_held, 1),
                    Cell(static_cast<std::int64_t>(r.total_events)),
                    Cell(row->wall_s, 2), Cell(row->cpu_s, 2),
                    Cell(row->peak_rss_mb, 1)});

      JsonValue json = JsonValue::Object();
      json.Set("nodes", nodes);
      json.Set("gpus", nodes * kGpusPerNode);
      json.Set("mode", std::string(mode));
      json.Set("jobs", jobs);
      json.Set("completed", r.completed);
      json.Set("done_ratio",
               static_cast<double>(r.completed) / static_cast<double>(jobs));
      json.Set("makespan_s", ToSeconds(r.makespan));
      json.Set("jobs_per_min", r.jobs_per_minute);
      json.Set("jct_p50_s", r.jct_p50_s);
      json.Set("jct_p99_s", r.jct_p99_s);
      json.Set("mean_gpus_held", r.mean_gpus_held);
      json.Set("total_events", r.total_events);
      json.Set("wall_s", row->wall_s);
      json.Set("cpu_s", row->cpu_s);
      json.Set("peak_rss_mb", row->peak_rss_mb);
      bench::AddRow(report, std::move(json));
    }
  }
  table.Print(std::cout);
  std::printf("\nwrote %s\n", bench::WriteReport(report).c_str());
  return 0;
}
