// Watch delivery through the WatchHub, pinned by explicit sequences: per
// store, each selected watcher gets every write in write order at write
// time + latency; deliveries due at one instant on one hub run in enqueue
// order from one engine event; a delivery that a flush enqueues for its own
// instant arms a fresh event; and an informer that loses its watch and
// resyncs ends byte-equal to the store without losing or double-applying
// an event.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "k8s/objects.hpp"
#include "k8s/store.hpp"
#include "sim/simulation.hpp"

namespace ks::k8s {
namespace {

using Lines = std::vector<std::string>;

Pod MakePod(const std::string& name) {
  Pod p;
  p.meta.name = name;
  return p;
}

Node MakeNode(const std::string& name) {
  Node n;
  n.meta.name = name;
  return n;
}

const char* TypeName(WatchEventType type) {
  switch (type) {
    case WatchEventType::kAdded:
      return "A";
    case WatchEventType::kModified:
      return "M";
    case WatchEventType::kDeleted:
      return "D";
  }
  return "?";
}

/// One delivery as its watcher saw it.
struct Seen {
  std::string watcher;
  std::string line;  // "<type> <name> v<resource version> @<delivery µs>"
  std::int64_t at_us = 0;
  std::uint64_t engine_event = 0;  // sim.executed() while it ran
};

struct ScriptRun {
  std::vector<Seen> seen;  // execution order
  std::uint64_t hub_batches = 0;
  std::uint64_t deliveries = 0;  // both stores

  Lines Log(const std::string& watcher) const {
    Lines out;
    for (const Seen& s : seen) {
      if (s.watcher == watcher) out.push_back(s.line);
    }
    return out;
  }

  /// The watchers served at one instant, in execution order.
  std::string WatchersAt(std::int64_t at_us) const {
    std::string out;
    for (const Seen& s : seen) {
      if (s.at_us != at_us) continue;
      if (!out.empty()) out += " ";
      out += s.watcher;
    }
    return out;
  }

  /// Engine events that carried deliveries, per delivery instant.
  std::map<std::int64_t, std::size_t> EngineEventsPerInstant() const {
    std::map<std::int64_t, std::set<std::uint64_t>> events;
    for (const Seen& s : seen) events[s.at_us].insert(s.engine_event);
    std::map<std::int64_t, std::size_t> out;
    for (const auto& [at, ids] : events) out[at] = ids.size();
    return out;
  }
};

/// A pod store and a node store sharing one hub, 1 ms notify latency.
/// Pod watchers w1 and w2 see everything; `sel` (registered between them)
/// selects pod-1 and pod-3; `n` watches the nodes. Writes interleave the
/// two stores: creates at 5 ms, an update, a delete and a node update at
/// 9 ms, an update and a delete at 20 ms.
ScriptRun RunScript(bool selector_watcher = true) {
  sim::Simulation sim;
  WatchHub hub(&sim);
  ObjectStore<Pod> pods(&sim, Millis(1), &hub);
  ObjectStore<Node> nodes(&sim, Millis(1), &hub);
  ScriptRun out;

  auto log = [&](const char* watcher) {
    return [&, watcher](const auto& ev) {
      out.seen.push_back(
          {watcher,
           std::string(TypeName(ev.type)) + " " + ev.object.meta.name +
               " v" + std::to_string(ev.object.meta.resource_version) +
               " @" + std::to_string(sim.Now().count()),
           sim.Now().count(), sim.executed()});
    };
  };
  pods.Watch(log("w1"));
  if (selector_watcher) {
    pods.Watch(log("sel"), [](const Pod& pod) {
      return pod.meta.name == "pod-1" || pod.meta.name == "pod-3";
    });
  }
  pods.Watch(log("w2"));
  nodes.Watch(log("n"));

  sim.ScheduleAt(Millis(5), [&] {
    ASSERT_TRUE(pods.Create(MakePod("pod-0")).ok());
    ASSERT_TRUE(nodes.Create(MakeNode("node-a")).ok());
    ASSERT_TRUE(pods.Create(MakePod("pod-1")).ok());
    ASSERT_TRUE(pods.Create(MakePod("pod-2")).ok());
    ASSERT_TRUE(nodes.Create(MakeNode("node-b")).ok());
    ASSERT_TRUE(pods.Create(MakePod("pod-3")).ok());
  });
  sim.ScheduleAt(Millis(9), [&] {
    auto pod = pods.Get("pod-1");
    pod->status.phase = PodPhase::kRunning;
    ASSERT_TRUE(pods.Update(*pod).ok());
    ASSERT_TRUE(pods.Delete("pod-3").ok());
    auto node = nodes.Get("node-a");
    node->ready = false;
    ASSERT_TRUE(nodes.Update(*node).ok());
  });
  sim.ScheduleAt(Millis(20), [&] {
    auto pod = pods.Get("pod-0");
    pod->status.phase = PodPhase::kSucceeded;
    ASSERT_TRUE(pods.Update(*pod).ok());
    ASSERT_TRUE(pods.Delete("pod-2").ok());
  });
  sim.RunUntil(Millis(50));

  out.hub_batches = hub.batches();
  out.deliveries = pods.watch_deliveries() + nodes.watch_deliveries();
  return out;
}

TEST(StoreBatch, WatcherStreamsFollowScriptedSequence) {
  const ScriptRun run = RunScript();
  const Lines all_pods = {
      "A pod-0 v1 @6000",  "A pod-1 v2 @6000",  "A pod-2 v3 @6000",
      "A pod-3 v4 @6000",  "M pod-1 v5 @10000", "D pod-3 v6 @10000",
      "M pod-0 v7 @21000", "D pod-2 v8 @21000"};
  EXPECT_EQ(run.Log("w1"), all_pods);
  EXPECT_EQ(run.Log("w2"), all_pods);
  EXPECT_EQ(run.Log("sel"), (Lines{"A pod-1 v2 @6000", "A pod-3 v4 @6000",
                                   "M pod-1 v5 @10000",
                                   "D pod-3 v6 @10000"}));
  EXPECT_EQ(run.Log("n"), (Lines{"A node-a v1 @6000", "A node-b v2 @6000",
                                 "M node-a v3 @10000"}));
  // 8 pod writes to w1 and w2, 4 to sel, 3 node writes to n: 23 deliveries
  // on one engine event per instant.
  EXPECT_EQ(run.deliveries, 23u);
  EXPECT_EQ(run.EngineEventsPerInstant(),
            (std::map<std::int64_t, std::size_t>{
                {6000, 1}, {10000, 1}, {21000, 1}}));
  EXPECT_EQ(run.hub_batches, 3u);
}

TEST(StoreBatch, SharedHubPreservesCrossStoreOrder) {
  // At one instant the hub runs both stores' deliveries in the order they
  // were enqueued: write order across the stores, then watcher order.
  const ScriptRun run = RunScript();
  EXPECT_EQ(run.WatchersAt(6000), "w1 w2 n w1 sel w2 w1 w2 n w1 sel w2");
  EXPECT_EQ(run.WatchersAt(10000), "w1 sel w2 w1 sel w2 n");
  EXPECT_EQ(run.WatchersAt(21000), "w1 w2 w1 w2");
}

TEST(StoreBatch, SelectorWatcherIsInvisibleToOtherWatchers) {
  const ScriptRun plain = RunScript(/*selector_watcher=*/false);
  const ScriptRun scoped = RunScript(/*selector_watcher=*/true);
  EXPECT_TRUE(plain.Log("sel").empty());
  EXPECT_EQ(scoped.Log("sel").size(), 4u);
  EXPECT_EQ(scoped.deliveries, plain.deliveries + 4);
  // The other watchers cannot tell it is there, and it rides the batches
  // that already exist.
  for (const char* watcher : {"w1", "w2", "n"}) {
    EXPECT_EQ(scoped.Log(watcher), plain.Log(watcher)) << watcher;
  }
  EXPECT_EQ(scoped.hub_batches, plain.hub_batches);
}

TEST(StoreBatch, ResourceVersionsOrderedWithinBatch) {
  sim::Simulation sim;
  ObjectStore<Pod> store(&sim);
  std::vector<std::uint64_t> versions;
  Time batch_time = kTimeZero;
  store.Watch([&](const WatchEvent<Pod>& ev) {
    versions.push_back(ev.object.meta.resource_version);
    batch_time = sim.Now();
  });
  // 16 mutations in one instant -> one delivery batch.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(store.Create(MakePod("p" + std::to_string(i))).ok());
  }
  sim.RunUntil(Millis(5));
  ASSERT_EQ(versions.size(), 16u);
  EXPECT_EQ(batch_time, Millis(1));
  EXPECT_EQ(store.watch_hub()->batches(), 1u);
  for (std::size_t i = 1; i < versions.size(); ++i) {
    EXPECT_LT(versions[i - 1], versions[i])
        << "resource versions out of order within a batch at " << i;
  }
}

TEST(StoreBatch, ZeroLatencyCascadeRunsAfterTheBatchFromASecondEvent) {
  // At notify latency 0 a watcher that writes inside its callback enqueues
  // a delivery for the instant being flushed. It runs after the rest of
  // the current batch, from a fresh engine event at the same microsecond.
  sim::Simulation sim;
  ObjectStore<Pod> store(&sim, Duration{0});
  Lines seen;
  auto log = [&](const char* watcher) {
    return [&, watcher](const WatchEvent<Pod>& ev) {
      seen.push_back(std::string(watcher) + " " + TypeName(ev.type) + " " +
                     ev.object.meta.name + " @" +
                     std::to_string(sim.Now().count()) + " e" +
                     std::to_string(sim.executed()));
      if (ev.object.meta.name == "a" && ev.type == WatchEventType::kAdded &&
          std::string(watcher) == "w1") {
        ASSERT_TRUE(store.Create(MakePod("cascade")).ok());
      }
    };
  };
  store.Watch(log("w1"));
  store.Watch(log("w2"));
  sim.ScheduleAt(Millis(3), [&] {
    ASSERT_TRUE(store.Create(MakePod("a")).ok());
    ASSERT_TRUE(store.Create(MakePod("b")).ok());
  });
  sim.RunUntil(Millis(10));
  // e1 is the scripted write at 3 ms, e2 the batch it enqueued, e3 the
  // cascade's own event.
  EXPECT_EQ(seen, (Lines{"w1 A a @3000 e2", "w2 A a @3000 e2",
                         "w1 A b @3000 e2", "w2 A b @3000 e2",
                         "w1 A cascade @3000 e3", "w2 A cascade @3000 e3"}));
  EXPECT_EQ(store.watch_hub()->batches(), 2u);
}

TEST(StoreBatch, WatcherRegisteredDuringBatchSeesNoDuplicate) {
  sim::Simulation sim;
  ObjectStore<Pod> store(&sim);
  std::map<std::string, int> late_seen;
  int first_events = 0;
  store.Watch([&](const WatchEvent<Pod>&) {
    if (++first_events == 1) {
      // Mid-batch registration: the replay (kAdded of current state) must
      // be the only thing the late watcher sees for existing objects.
      store.Watch([&](const WatchEvent<Pod>& ev) {
        ++late_seen[ev.object.meta.name];
      });
    }
  });
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.Create(MakePod("p" + std::to_string(i))).ok());
  }
  sim.RunUntil(Millis(10));
  ASSERT_EQ(late_seen.size(), 4u);
  for (const auto& [name, count] : late_seen) {
    EXPECT_EQ(count, 1) << name << " delivered " << count << " times";
  }
}

// The informer crash/resync invariant the DevMgr path relies on: a watcher
// that loses its watch (crash), misses mutations, and resyncs by
// re-watching (the list+watch replay) converges to the store byte-for-byte
// — nothing lost, nothing applied twice.
TEST(StoreBatch, CrashResyncLosesNothingDuplicatesNothing) {
  sim::Simulation sim;
  ObjectStore<Pod> store(&sim);

  // The mirror is version-guarded exactly like DevMgr's: replayed events
  // older than what it already holds are skipped, so a resync replay can
  // never double-apply.
  std::map<std::string, std::uint64_t> mirror;  // name -> resource_version
  std::map<std::string, int> applied;           // name:version -> times
  WatchId watch = 0;
  auto on_event = [&](const WatchEvent<Pod>& ev) {
    const std::string& name = ev.object.meta.name;
    const std::uint64_t version = ev.object.meta.resource_version;
    if (ev.type == WatchEventType::kDeleted) {
      mirror.erase(name);
      return;
    }
    auto it = mirror.find(name);
    if (it != mirror.end() && it->second >= version) return;  // stale replay
    mirror[name] = version;
    ++applied[name + ":" + std::to_string(version)];
  };

  watch = store.Watch(on_event);
  sim.ScheduleAt(Millis(2), [&] {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(store.Create(MakePod("p" + std::to_string(i))).ok());
    }
  });
  // Crash: the watch drops mid-run...
  sim.ScheduleAt(Millis(4), [&] { store.Unwatch(watch); });
  // ...mutations land while nobody is watching...
  sim.ScheduleAt(Millis(6), [&] {
    auto pod = store.Get("p1");
    pod->status.phase = PodPhase::kRunning;
    ASSERT_TRUE(store.Update(*pod).ok());
    ASSERT_TRUE(store.Delete("p2").ok());
    ASSERT_TRUE(store.Create(MakePod("p6")).ok());
  });
  // ...and the resync re-watches: existing objects replay as kAdded, and
  // the relist prunes mirror entries whose kDeleted events are gone for
  // good (the informer's delete-detection half of list+watch).
  sim.ScheduleAt(Millis(8), [&] {
    for (auto it = mirror.begin(); it != mirror.end();) {
      it = store.Contains(it->first) ? std::next(it) : mirror.erase(it);
    }
    watch = store.Watch(on_event);
  });
  // Post-resync traffic must flow normally again.
  sim.ScheduleAt(Millis(12), [&] {
    auto pod = store.Get("p3");
    pod->status.phase = PodPhase::kRunning;
    ASSERT_TRUE(store.Update(*pod).ok());
  });
  sim.RunUntil(Millis(20));

  // Mirror == store, exactly.
  std::map<std::string, std::uint64_t> want;
  store.ForEach([&](const Pod& pod) {
    want[pod.meta.name] = pod.meta.resource_version;
  });
  EXPECT_EQ(mirror, want);
  // No (name, version) applied more than once.
  for (const auto& [key, count] : applied) {
    EXPECT_EQ(count, 1) << key << " applied " << count << " times";
  }
}

TEST(StoreBatch, DroppedEventsRepairedByResync) {
  // The apiserver-side loss mode (DropEvents): the mutation is silently
  // unnotified, and only a relist repairs the mirror.
  sim::Simulation sim;
  ObjectStore<Pod> store(&sim);
  std::map<std::string, std::uint64_t> mirror;
  auto on_event = [&](const WatchEvent<Pod>& ev) {
    if (ev.type == WatchEventType::kDeleted) {
      mirror.erase(ev.object.meta.name);
      return;
    }
    auto it = mirror.find(ev.object.meta.name);
    if (it != mirror.end() && it->second >= ev.object.meta.resource_version) {
      return;
    }
    mirror[ev.object.meta.name] = ev.object.meta.resource_version;
  };
  const WatchId watch = store.Watch(on_event);
  sim.ScheduleAt(Millis(2), [&] {
    ASSERT_TRUE(store.Create(MakePod("a")).ok());
    store.DropEvents(1);
    ASSERT_TRUE(store.Create(MakePod("b")).ok());  // lost at the apiserver
  });
  sim.RunUntil(Millis(5));
  EXPECT_EQ(mirror.count("b"), 0u);  // genuinely lost, not reordered
  // Resync: unwatch + rewatch replays the full state.
  store.Unwatch(watch);
  store.Watch(on_event);
  sim.RunUntil(Millis(10));
  EXPECT_EQ(mirror.count("b"), 1u);
  EXPECT_EQ(mirror.size(), store.size());
}

}  // namespace
}  // namespace ks::k8s
