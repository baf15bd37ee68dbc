#include "workload/trace.hpp"

#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace ks::workload {
namespace {

TEST(TraceParse, RoundTrips) {
  std::vector<TraceEntry> entries(2);
  entries[0].submit_s = 1.5;
  entries[0].name = "job-a";
  entries[0].kind = "inference";
  entries[0].demand = 0.3;
  entries[0].duration_s = 60;
  entries[0].affinity = "grp";
  entries[1].submit_s = 2.0;
  entries[1].name = "job-b";
  entries[1].kind = "training";
  entries[1].steps = 500;
  entries[1].exclusion = "tenant";

  std::stringstream ss;
  FormatTrace(entries, ss);
  auto parsed = ParseTrace(ss);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_DOUBLE_EQ((*parsed)[0].submit_s, 1.5);
  EXPECT_EQ((*parsed)[0].name, "job-a");
  EXPECT_EQ((*parsed)[0].affinity, "grp");
  EXPECT_EQ((*parsed)[1].kind, "training");
  EXPECT_EQ((*parsed)[1].steps, 500);
  EXPECT_EQ((*parsed)[1].exclusion, "tenant");
}

TEST(TraceParse, SkipsCommentsAndBlankLines) {
  std::stringstream ss(
      "# a comment\n"
      "\n"
      "submit_s,name,kind,demand,duration_s,steps,kernel_ms,gpu_request,"
      "gpu_limit,gpu_mem,model_gb,affinity,anti_affinity,exclusion\n"
      "0,j,inference,0.3,60,0,20,0.3,1.0,0.2,2,,,\n");
  auto parsed = ParseTrace(ss);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), 1u);
  EXPECT_TRUE((*parsed)[0].affinity.empty());
}

TEST(TraceParse, RejectsWrongFieldCount) {
  std::stringstream ss("0,j,inference,0.3\n");
  EXPECT_FALSE(ParseTrace(ss).ok());
}

TEST(TraceParse, RejectsBadNumber) {
  std::stringstream ss("zero,j,inference,0.3,60,0,20,0.3,1.0,0.2,2,,,\n");
  EXPECT_FALSE(ParseTrace(ss).ok());
}

TEST(TraceParse, RejectsOutOfRangeSteps) {
  for (const char* steps : {"-5", "1e300", "nan", "2.5"}) {
    std::stringstream ss(std::string("0,j,training,0.3,60,") + steps +
                         ",20,0.3,1.0,0.2,2,,,\n");
    EXPECT_FALSE(ParseTrace(ss).ok()) << steps;
  }
}

TEST(TraceParse, RejectsZeroKernelLength) {
  std::stringstream ss("0,j,inference,0.3,60,0,0,0.3,1.0,0.2,2,,,\n");
  EXPECT_FALSE(ParseTrace(ss).ok());
}

TEST(TraceParse, RejectsUnknownKindAndEmptyName) {
  std::stringstream bad_kind("0,j,sleeping,0.3,60,0,20,0.3,1.0,0.2,2,,,\n");
  EXPECT_FALSE(ParseTrace(bad_kind).ok());
  std::stringstream no_name("0,,inference,0.3,60,0,20,0.3,1.0,0.2,2,,,\n");
  EXPECT_FALSE(ParseTrace(no_name).ok());
}

TEST(TraceParse, HandlesCrLf) {
  std::stringstream ss("0,j,inference,0.3,60,0,20,0.3,1.0,0.2,2,,,\r\n");
  auto parsed = ParseTrace(ss);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), 1u);
}

TEST(MakeTraceJob, BuildsBothKinds) {
  TraceEntry train;
  train.kind = "training";
  train.steps = 7;
  auto tj = MakeTraceJob(train, 1);
  EXPECT_NE(dynamic_cast<TrainingJob*>(tj.get()), nullptr);

  TraceEntry infer;
  infer.kind = "inference";
  infer.demand = 0.5;
  infer.duration_s = 10;
  infer.kernel_ms = 20;
  auto ij = MakeTraceJob(infer, 1);
  auto* job = dynamic_cast<InferenceJob*>(ij.get());
  ASSERT_NE(job, nullptr);
}

TEST(GenerateTrace, DeterministicAndRoundTrips) {
  WorkloadConfig cfg;
  cfg.total_jobs = 20;
  cfg.seed = 99;
  cfg.demand_mean = 0.3;
  cfg.demand_stddev = 0.1;
  const auto a = GenerateTrace(cfg);
  const auto b = GenerateTrace(cfg);
  ASSERT_EQ(a.size(), 20u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_DOUBLE_EQ(a[i].submit_s, b[i].submit_s);
    EXPECT_DOUBLE_EQ(a[i].demand, b[i].demand);
    EXPECT_GE(a[i].demand, cfg.demand_min);
    EXPECT_LE(a[i].demand, cfg.demand_max);
  }
  EXPECT_DOUBLE_EQ(a[0].submit_s, 0.0);
  // Submissions are strictly ordered in time.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i].submit_s, a[i - 1].submit_s);
  }
  // CSV round trip preserves the generated workload.
  std::stringstream ss;
  FormatTrace(a, ss);
  auto parsed = ParseTrace(ss);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR((*parsed)[i].demand, a[i].demand, 1e-6);
    EXPECT_NEAR((*parsed)[i].submit_s, a[i].submit_s, 1e-6);
  }
}

class TraceReplayTest : public ::testing::Test {
 protected:
  static k8s::ClusterConfig Config() {
    k8s::ClusterConfig cfg;
    cfg.nodes = 1;
    cfg.gpus_per_node = 2;
    return cfg;
  }

  TraceReplayTest()
      : cluster_(Config()), kubeshare_(&cluster_), host_(&cluster_) {
    EXPECT_TRUE(cluster_.Start().ok());
    EXPECT_TRUE(kubeshare_.Start().ok());
  }

  k8s::Cluster cluster_;
  kubeshare::KubeShare kubeshare_;
  WorkloadHost host_;
};

TEST_F(TraceReplayTest, ReplaysKubeShareTraceToCompletion) {
  std::vector<TraceEntry> entries(3);
  entries[0].name = "t0";
  entries[0].kind = "training";
  entries[0].steps = 200;
  entries[0].kernel_ms = 10;
  entries[0].gpu_request = 0.4;
  entries[1].name = "t1";
  entries[1].submit_s = 2;
  entries[1].kind = "inference";
  entries[1].demand = 0.3;
  entries[1].duration_s = 20;
  entries[1].gpu_request = 0.3;
  entries[2].name = "t2";
  entries[2].submit_s = 4;
  entries[2].kind = "inference";
  entries[2].demand = 0.2;
  entries[2].duration_s = 20;
  entries[2].gpu_request = 0.2;
  entries[2].anti_affinity = "spread";

  TraceReplayer replayer(&cluster_, &host_, TraceReplayer::Mode::kKubeShare,
                         &kubeshare_);
  ASSERT_TRUE(replayer.Load(entries).ok());
  cluster_.sim().RunUntil(Minutes(5));
  EXPECT_TRUE(replayer.AllDone());
  EXPECT_EQ(host_.completed(), 3u);
}

TEST_F(TraceReplayTest, LocalityLabelsAreApplied) {
  std::vector<TraceEntry> entries(2);
  for (int i = 0; i < 2; ++i) {
    entries[i].name = "sp" + std::to_string(i);
    entries[i].kind = "inference";
    entries[i].demand = 0.2;
    entries[i].duration_s = 30;
    entries[i].gpu_request = 0.2;
    entries[i].anti_affinity = "apart";
  }
  TraceReplayer replayer(&cluster_, &host_, TraceReplayer::Mode::kKubeShare,
                         &kubeshare_);
  ASSERT_TRUE(replayer.Load(entries).ok());
  cluster_.sim().RunUntil(Seconds(20));
  EXPECT_NE(kubeshare_.sharepods().Get("sp0")->spec.gpu_id,
            kubeshare_.sharepods().Get("sp1")->spec.gpu_id);
}

TEST_F(TraceReplayTest, NativeModeUsesWholeGpus) {
  std::vector<TraceEntry> entries(1);
  entries[0].name = "n0";
  entries[0].kind = "training";
  entries[0].steps = 100;
  TraceReplayer replayer(&cluster_, &host_, TraceReplayer::Mode::kNative,
                         nullptr);
  ASSERT_TRUE(replayer.Load(entries).ok());
  cluster_.sim().RunUntil(Minutes(2));
  EXPECT_EQ(host_.completed(), 1u);
  auto pod = cluster_.api().pods().Get("n0");
  EXPECT_EQ(pod->spec.requests.Get(k8s::kResourceNvidiaGpu), 1);
}

TEST_F(TraceReplayTest, DuplicateNamesRejected) {
  std::vector<TraceEntry> entries(2);
  entries[0].name = "dup";
  entries[1].name = "dup";
  TraceReplayer replayer(&cluster_, &host_, TraceReplayer::Mode::kKubeShare,
                         &kubeshare_);
  EXPECT_FALSE(replayer.Load(entries).ok());
}

TEST_F(TraceReplayTest, NameRepeatedAcrossLoadsRejected) {
  // ksim calls Load once per `job` line and once per `trace` file, so a
  // name is unique only if every Load checks every name loaded before.
  std::vector<TraceEntry> first(1);
  first[0].name = "a";
  std::vector<TraceEntry> second(2);
  second[0].name = "b";
  second[1].name = "a";
  second[1].submit_s = 5;
  TraceReplayer replayer(&cluster_, &host_, TraceReplayer::Mode::kKubeShare,
                         &kubeshare_);
  ASSERT_TRUE(replayer.Load(first).ok());
  EXPECT_EQ(replayer.Load(second).code(), StatusCode::kInvalidArgument);
  // The rejected call scheduled nothing and kept none of its names.
  std::vector<TraceEntry> third(1);
  third[0].name = "b";
  EXPECT_TRUE(replayer.Load(third).ok());
  cluster_.sim().RunUntil(Seconds(10));
  EXPECT_EQ(replayer.submitted(), 2u);
}

TEST_F(TraceReplayTest, GeneratedTraceSharesTheDriversArrivalsAndDemands) {
  // GenerateTrace mirrors WorkloadDriver's draw order: the i-th entry's
  // submit time and demand are the i-th sharePod's creation time and
  // gpu_request. Nothing else of a replay is the driver's run.
  WorkloadConfig cfg;
  cfg.total_jobs = 20;
  cfg.seed = 42;
  const std::vector<TraceEntry> trace = GenerateTrace(cfg);
  ASSERT_EQ(trace.size(), 20u);
  WorkloadDriver driver(&cluster_, &host_, WorkloadDriver::Mode::kKubeShare,
                        &kubeshare_, cfg);
  driver.Start();
  cluster_.sim().RunUntil(Seconds(trace.back().submit_s) + Seconds(1));
  ASSERT_TRUE(driver.AllSubmitted());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto sp = kubeshare_.sharepods().Get(trace[i].name);
    ASSERT_TRUE(sp.ok()) << trace[i].name;
    EXPECT_EQ(trace[i].submit_s, ToSeconds(sp->meta.creation_time)) << i;
    EXPECT_EQ(trace[i].demand, sp->spec.gpu.gpu_request) << i;
  }
}

}  // namespace
}  // namespace ks::workload
