#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace ks::scenario {
namespace {

Expected<Scenario> ParseString(const std::string& text) {
  std::stringstream ss(text);
  return Scenario::Parse(ss);
}

TEST(ScenarioParse, MinimalScenario) {
  auto s = ParseString("cluster nodes=1 gpus=1\n");
  EXPECT_TRUE(s.ok()) << s.status();
}

TEST(ScenarioParse, RequiresCluster) {
  auto s = ParseString("run until=10\n");
  EXPECT_FALSE(s.ok());
}

TEST(ScenarioParse, RejectsUnknownCommand) {
  auto s = ParseString("cluster nodes=1 gpus=1\nfrobnicate x=1\n");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.status().message().find("line 2"), std::string::npos);
}

TEST(ScenarioParse, RejectsBadNumbers) {
  EXPECT_FALSE(ParseString("cluster nodes=two gpus=1\n").ok());
  EXPECT_FALSE(ParseString("cluster nodes=1 gpus=1\nrun until=-1\n").ok());
  EXPECT_FALSE(ParseString("cluster nodes=0 gpus=1\n").ok());
}

TEST(ScenarioParse, RejectsInvalidJob) {
  const char* kBase = "cluster nodes=1 gpus=1\nkubeshare\n";
  EXPECT_FALSE(ParseString(std::string(kBase) + "job kind=training\n").ok());
  EXPECT_FALSE(
      ParseString(std::string(kBase) + "job name=a kind=sleeping\n").ok());
  EXPECT_FALSE(ParseString(std::string(kBase) +
                           "job name=a request=0.9 limit=0.3\n")
                   .ok());
  EXPECT_FALSE(ParseString(std::string(kBase) +
                           "job name=a\njob name=a\n")
                   .ok());
}

// Numeric arguments go through one parser (common/parse.hpp): finite,
// inside the documented range, whole where the field is an integer.
constexpr const char* kJobBase = "cluster nodes=1 gpus=1\nkubeshare\n";

TEST(ScenarioParse, RejectsNanResourceFractions) {
  EXPECT_FALSE(ParseString(std::string(kJobBase) +
                           "job name=a request=nan mem=nan\n")
                   .ok());
}

TEST(ScenarioParse, RejectsNanRunUntil) {
  EXPECT_FALSE(ParseString("cluster nodes=1 gpus=1\nrun until=nan\n").ok());
}

TEST(ScenarioParse, RejectsNegativeSteps) {
  EXPECT_FALSE(ParseString(std::string(kJobBase) +
                           "job name=a kind=training steps=-5\n")
                   .ok());
}

TEST(ScenarioParse, RejectsZeroKernelLength) {
  EXPECT_FALSE(
      ParseString(std::string(kJobBase) + "job name=a kernel_ms=0\n").ok());
}

TEST(ScenarioParse, RejectsNegativeDuration) {
  EXPECT_FALSE(
      ParseString(std::string(kJobBase) + "job name=a duration=-20\n").ok());
}

TEST(ScenarioParse, RejectsNegativeSubmitTime) {
  EXPECT_FALSE(
      ParseString(std::string(kJobBase) + "job name=a at=-30\n").ok());
}

TEST(ScenarioParse, RejectsOutOfRangeIntegerArguments) {
  for (const char* script :
       {"cluster nodes=1e300 gpus=1\n", "cluster nodes=1 gpus=-1\n",
        "cluster nodes=1.5 gpus=1\n",
        "cluster nodes=1 gpus=1\nkubeshare pool=hybrid reserve=1e300\n",
        "cluster nodes=1 gpus=1\nhealth node=-1 gpu=0\n",
        "cluster nodes=1 gpus=1\nhealth node=0 gpu=1e300\n",
        "cluster nodes=1 gpus=1\nreport events tail=1e300\n",
        "cluster nodes=1 gpus=1\nreport events tail=inf\n"}) {
    const auto s = ParseString(script);
    EXPECT_FALSE(s.ok()) << script;
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument) << script;
  }
}

TEST(ScenarioParse, RejectsBadPoolPolicyAndReportTarget) {
  EXPECT_FALSE(
      ParseString("cluster nodes=1 gpus=1\nkubeshare pool=magic\n").ok());
  EXPECT_FALSE(ParseString("cluster nodes=1 gpus=1\nreport everything\n").ok());
}

TEST(ScenarioParse, ModeMustPrecedeJobs) {
  EXPECT_FALSE(ParseString("cluster nodes=1 gpus=1\nkubeshare\n"
                           "job name=a kind=training steps=10\n"
                           "mode native\n")
                   .ok());
}

TEST(ScenarioParse, CommentsAndWhitespaceIgnored) {
  auto s = ParseString(
      "# leading comment\n"
      "cluster nodes=1 gpus=1   # trailing comment\n"
      "   \n"
      "\t\n");
  EXPECT_TRUE(s.ok()) << s.status();
}

TEST(ScenarioRun, EndToEndKubeShareScenario) {
  auto s = ParseString(
      "cluster nodes=1 gpus=2\n"
      "kubeshare pool=ondemand\n"
      "job name=a kind=training at=0 steps=500 kernel_ms=10 request=0.4 "
      "limit=0.9 mem=0.3\n"
      "job name=b kind=inference at=2 demand=0.3 duration=20 request=0.3 "
      "mem=0.2\n"
      "run until=120\n"
      "report jobs\n"
      "report pool\n"
      "report gpus\n"
      "report events\n");
  ASSERT_TRUE(s.ok()) << s.status();
  std::stringstream out;
  ASSERT_TRUE(s->Run(out).ok());
  const std::string text = out.str();
  EXPECT_NE(text.find("succeeded"), std::string::npos);
  EXPECT_NE(text.find("== report pool"), std::string::npos);
  EXPECT_NE(text.find("GPU-0-0"), std::string::npos);
  EXPECT_NE(text.find("Scheduled"), std::string::npos);
  // Both jobs done, nothing failed.
  EXPECT_EQ(text.find("failed"), std::string::npos);
}

TEST(ScenarioRun, NativeModeScenario) {
  auto s = ParseString(
      "cluster nodes=1 gpus=1\n"
      "mode native\n"
      "job name=solo kind=training steps=200 kernel_ms=10\n"
      "run until=60\n"
      "report jobs\n");
  ASSERT_TRUE(s.ok()) << s.status();
  std::stringstream out;
  ASSERT_TRUE(s->Run(out).ok());
  EXPECT_NE(out.str().find("succeeded"), std::string::npos);
}

TEST(ScenarioRun, KubeShareJobWithoutKubeShareFails) {
  auto s = ParseString(
      "cluster nodes=1 gpus=1\n"
      "job name=a kind=training steps=10\n"
      "run until=10\n");
  ASSERT_TRUE(s.ok()) << s.status();
  std::stringstream out;
  EXPECT_FALSE(s->Run(out).ok());
}

TEST(ScenarioRun, ShippedScenariosParseAndRun) {
  // Keep the scenarios in examples/scenarios/ from rotting.
  for (const char* name :
       {"interference.ksim", "device_failure.ksim", "overcommit.ksim",
        "elastic_resize.ksim"}) {
    std::ifstream file(std::string(KS_SOURCE_DIR) + "/examples/scenarios/" +
                       name);
    ASSERT_TRUE(file.good()) << name;
    auto s = Scenario::Parse(file);
    ASSERT_TRUE(s.ok()) << name << ": " << s.status();
    std::stringstream out;
    ASSERT_TRUE(s->Run(out).ok()) << name;
    EXPECT_NE(out.str().find("succeeded"), std::string::npos) << name;
  }
}

TEST(ScenarioRun, ExampleScriptParsesAndRuns) {
  std::stringstream in(Scenario::ExampleScript());
  auto s = Scenario::Parse(in);
  ASSERT_TRUE(s.ok()) << s.status();
  std::stringstream out;
  ASSERT_TRUE(s->Run(out).ok());
  EXPECT_NE(out.str().find("succeeded"), std::string::npos);
}

TEST(ScenarioRun, SharePodAndMetricsReports) {
  auto s = ParseString(
      "cluster nodes=1 gpus=1\n"
      "kubeshare\n"
      "job name=a kind=training steps=100000 kernel_ms=10 request=0.4 "
      "mem=0.2\n"
      "run until=30\n"
      "report sharepods\n"
      "report metrics\n");
  ASSERT_TRUE(s.ok()) << s.status();
  std::stringstream out;
  ASSERT_TRUE(s->Run(out).ok());
  const std::string text = out.str();
  EXPECT_NE(text.find("Running"), std::string::npos);       // sharepod table
  EXPECT_NE(text.find("ks_sharepods{phase=\"Running\"} 1"),  // prometheus
            std::string::npos);
  EXPECT_NE(text.find("ks_gpu_busy_seconds_total"), std::string::npos);
}

TEST(ScenarioRun, HealthCommandDrainsDevice) {
  auto s = ParseString(
      "cluster nodes=1 gpus=2\n"
      "mode native\n"
      "job name=a kind=training steps=100000 kernel_ms=10\n"
      "run until=10\n"
      "health node=0 gpu=1 state=unhealthy\n"
      "job name=b kind=training steps=100 kernel_ms=10\n"
      "run until=40\n"
      "report jobs\n"
      "report events\n");
  ASSERT_TRUE(s.ok()) << s.status();
  std::stringstream out;
  ASSERT_TRUE(s->Run(out).ok());
  const std::string text = out.str();
  // Job a runs on GPU-0-0 forever. GPU-0-1 goes unhealthy before job b
  // arrives, so b cannot be scheduled (no allocatable device).
  EXPECT_NE(text.find("GPU-0-1 -> unhealthy"), std::string::npos);
  EXPECT_NE(text.find("pending"), std::string::npos);
  EXPECT_NE(text.find("FailedScheduling"), std::string::npos);
}

TEST(ScenarioRun, HealthErrorPaths) {
  {
    auto s = ParseString("cluster nodes=1 gpus=1\nhealth node=5 gpu=0\n");
    ASSERT_TRUE(s.ok());
    std::stringstream out;
    EXPECT_FALSE(s->Run(out).ok());
  }
  {
    auto s = ParseString("cluster nodes=1 gpus=1\nhealth node=0 gpu=9\n");
    ASSERT_TRUE(s.ok());
    std::stringstream out;
    EXPECT_FALSE(s->Run(out).ok());
  }
  EXPECT_FALSE(
      ParseString("cluster nodes=1 gpus=1\nhealth node=0 gpu=0 state=odd\n")
          .ok());
}

TEST(ScenarioRun, TraceCommandLoadsCsv) {
  const std::string path = ::testing::TempDir() + "/ksim_trace_test.csv";
  {
    workload::WorkloadConfig cfg;
    cfg.total_jobs = 4;
    cfg.mean_interarrival = Seconds(1);
    cfg.demand_mean = 0.25;
    cfg.demand_stddev = 0.0;
    cfg.job_duration = Seconds(15);
    cfg.seed = 5;
    std::ofstream file(path);
    workload::FormatTrace(workload::GenerateTrace(cfg), file);
  }
  auto s = ParseString(
      "cluster nodes=1 gpus=2\n"
      "kubeshare\n"
      "trace file=" + path + "\n"
      "run until=200\n"
      "report jobs\n");
  ASSERT_TRUE(s.ok()) << s.status();
  std::stringstream out;
  ASSERT_TRUE(s->Run(out).ok());
  const std::string text = out.str();
  EXPECT_NE(text.find("loaded 4 jobs"), std::string::npos);
  EXPECT_NE(text.find("succeeded"), std::string::npos);
  EXPECT_EQ(text.find("failed"), std::string::npos);
}

TEST(ScenarioRun, JobNameRepeatedByTraceFails) {
  // A `job` line and a `trace` file are separate loads into one replayer;
  // a name they share is the same job submitted twice.
  const std::string path = ::testing::TempDir() + "/ksim_collision_test.csv";
  {
    std::vector<workload::TraceEntry> entries(1);
    entries[0].name = "a";
    entries[0].submit_s = 5;
    std::ofstream file(path);
    workload::FormatTrace(entries, file);
  }
  auto s = ParseString(
      "cluster nodes=1 gpus=1\n"
      "kubeshare\n"
      "job name=a kind=inference at=0 demand=0.3 duration=20 request=0.3\n"
      "trace file=" + path + "\n"
      "run until=60\n"
      "report jobs\n");
  ASSERT_TRUE(s.ok()) << s.status();
  std::stringstream out;
  EXPECT_EQ(s->Run(out).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out.str().find("loaded"), std::string::npos);
}

TEST(ScenarioRun, TraceMissingFileFails) {
  auto s = ParseString(
      "cluster nodes=1 gpus=1\nmode native\ntrace file=/no/such/file.csv\n");
  ASSERT_TRUE(s.ok());
  std::stringstream out;
  EXPECT_EQ(s->Run(out).code(), StatusCode::kNotFound);
}

TEST(ScenarioRun, ResizeBeforeTheContainerStartsReachesTheDaemon) {
  // The vGPU is active at 2.071 s, so DevMgr has created the workload pod
  // when the resize lands at 2.321 s; its container starts at 4.322 s with
  // the limit DevMgr wrote into the pod's env at launch.
  auto s = ParseString(
      "cluster nodes=1 gpus=1\n"
      "kubeshare\n"
      "job name=t kind=training at=0 steps=100000 kernel_ms=10 request=0.0 "
      "limit=1.0 mem=0.2\n"
      "run until=2.321\n"
      "resize name=t request=0.0 limit=0.2\n"
      "run until=20\n"
      "report jobs\n"
      "report gpus\n");
  ASSERT_TRUE(s.ok()) << s.status();
  std::stringstream out;
  ASSERT_TRUE(s->Run(out).ok());
  const std::string text = out.str();
  ASSERT_NE(text.find("4.322s"), std::string::npos) << text;
  const auto row = text.find("GPU-0-0  node-0");
  ASSERT_NE(row, std::string::npos) << text;
  std::istringstream cells(text.substr(row));
  std::string gpu, node;
  double busy_s = 0.0;
  cells >> gpu >> node >> busy_s;
  EXPECT_NEAR(busy_s / (20.0 - 4.322), 0.2, 0.02) << text;
}

TEST(ScenarioRun, OvercommitSwitchIsWired) {
  auto s = ParseString(
      "cluster nodes=1 gpus=1\n"
      "kubeshare overcommit=on\n"
      "job name=a kind=training steps=100 kernel_ms=10 request=0.3 mem=0.7 "
      "model_gb=10\n"
      "job name=b kind=training at=1 steps=100 kernel_ms=10 request=0.3 "
      "mem=0.7 model_gb=10\n"
      "run until=300\n"
      "report jobs\n");
  ASSERT_TRUE(s.ok()) << s.status();
  std::stringstream out;
  ASSERT_TRUE(s->Run(out).ok());
  // 2 x 10 GB on a 16 GB GPU: only possible with over-commitment.
  const std::string text = out.str();
  EXPECT_NE(text.find("succeeded"), std::string::npos);
  EXPECT_EQ(text.find("failed"), std::string::npos);
}

// ---- Seeded mutation fuzzing of the parser ---------------------------------
//
// Mutants of the example script and of every shipped scenario: tokens
// dropped or duplicated, numeric values replaced by nan, inf, -1, 0, 1e300
// or nothing. Parse must answer ok or kInvalidArgument for each one, and
// never throw.

using Script = std::vector<std::vector<std::string>>;  // lines of tokens

Script Tokens(const std::string& text) {
  Script script;
  std::stringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::stringstream words(line);
    script.emplace_back();
    for (std::string word; words >> word;) script.back().push_back(word);
  }
  return script;
}

std::string Join(const Script& script) {
  std::string out;
  for (const auto& line : script) {
    for (const std::string& word : line) out += word + " ";
    out += "\n";
  }
  return out;
}

std::string Mutate(Script script, std::mt19937_64& rng) {
  static const char* const kNumbers[] = {"nan", "inf", "-1", "0", "1e300", ""};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::size_t edits = 1 + pick(3);
  for (std::size_t e = 0; e < edits; ++e) {
    auto& line = script[pick(script.size())];
    if (line.empty()) continue;
    const std::size_t at = pick(line.size());
    switch (pick(3)) {
      case 0:
        line.erase(line.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      case 1:
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(at), line[at]);
        break;
      default: {
        const auto eq = line[at].find('=');
        if (eq == std::string::npos) break;
        const std::string value = line[at].substr(eq + 1);
        if (value.empty() || value.find_first_not_of("0123456789.-e") !=
                                 std::string::npos) {
          break;
        }
        line[at] = line[at].substr(0, eq + 1) + kNumbers[pick(6)];
      }
    }
  }
  return Join(script);
}

TEST(ScenarioFuzz, MutantsParseOrFailWithInvalidArgument) {
  std::vector<std::string> corpus = {Scenario::ExampleScript()};
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(KS_SOURCE_DIR) + "/examples/scenarios")) {
    if (entry.path().extension() == ".ksim") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    std::ifstream file(path);
    std::stringstream text;
    text << file.rdbuf();
    corpus.push_back(text.str());
  }

  std::mt19937_64 rng(20261017);
  std::size_t rejected = 0;
  std::size_t total = 0;
  for (const std::string& text : corpus) {
    const Script script = Tokens(text);
    for (int i = 0; i < 400; ++i) {
      const std::string mutant = Mutate(script, rng);
      std::stringstream in(mutant);
      StatusCode code = StatusCode::kInternal;
      EXPECT_NO_THROW(code = Scenario::Parse(in).status().code()) << mutant;
      EXPECT_TRUE(code == StatusCode::kOk ||
                  code == StatusCode::kInvalidArgument)
          << mutant;
      if (code == StatusCode::kInvalidArgument) ++rejected;
      ++total;
    }
  }
  // The mutations must reach the validation paths, not only comments.
  EXPECT_GT(rejected, total / 4);
}

}  // namespace
}  // namespace ks::scenario
