// Batched watch fan-out (WatchFanout::kBatched + WatchHub): the delivery
// economy must be invisible to watchers. These tests pin the three claims
// the scale path rests on: (1) watcher-visible streams are byte-identical
// to the unbatched path, (2) resource versions inside a batch arrive in
// store order, and (3) an informer that loses its watch and resyncs ends
// byte-equal to the store without losing or double-applying an event.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "k8s/objects.hpp"
#include "k8s/store.hpp"
#include "sim/simulation.hpp"

namespace ks::k8s {
namespace {

Pod MakePod(const std::string& name) {
  Pod p;
  p.meta.name = name;
  return p;
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

/// Runs a fixed mutation script against a store in the given fan-out mode
/// and returns the full watcher-visible trace: every (watcher, event) with
/// its delivery time and resource version, in execution order.
struct ScriptResult {
  std::string trace;
  std::uint64_t engine_events = 0;  // fan-out events actually armed
  std::uint64_t deliveries = 0;
  std::string selected_trace;  // the selector watcher's stream, if any
};

ScriptResult RunScript(WatchFanout fanout, bool selector_watcher = false) {
  sim::Simulation sim;
  ObjectStore<Pod> store(&sim, Millis(1), fanout);
  ScriptResult out;

  auto watcher = [&](const char* tag, std::string* trace) {
    return [&, tag, trace](const WatchEvent<Pod>& ev) {
      *trace += tag;
      *trace += TypeName(ev.type);
      *trace += " " + ev.object.meta.name + " v" +
                std::to_string(ev.object.meta.resource_version) + " @" +
                std::to_string(sim.Now().count()) + "\n";
    };
  };
  store.Watch(watcher("w1:", &out.trace));
  if (selector_watcher) {
    // Registered between the two plain watchers, so its deliveries would
    // interleave with theirs in every batch it joins.
    store.Watch(watcher("sel:", &out.selected_trace), [](const Pod& pod) {
      return pod.meta.name == "pod-3" || pod.meta.name == "pod-5";
    });
  }
  store.Watch(watcher("w2:", &out.trace));

  // Burst of same-time mutations (the fan-out hot case), then spread-out
  // ones, then deletes — all three event types, two watchers.
  sim.ScheduleAt(Millis(5), [&] {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(store.Create(MakePod("pod-" + std::to_string(i))).ok());
    }
  });
  sim.ScheduleAt(Millis(9), [&] {
    auto pod = store.Get("pod-3");
    pod->status.phase = PodPhase::kRunning;
    ASSERT_TRUE(store.Update(*pod).ok());
    ASSERT_TRUE(store.Delete("pod-5").ok());
  });
  sim.ScheduleAt(Millis(20), [&] {
    auto pod = store.Get("pod-0");
    pod->status.phase = PodPhase::kSucceeded;
    ASSERT_TRUE(store.Update(*pod).ok());
  });
  sim.RunUntil(Millis(50));

  out.deliveries = store.watch_deliveries();
  out.engine_events = fanout == WatchFanout::kBatched
                          ? store.watch_hub()->batches()
                          : store.unbatched_fanout_events();
  return out;
}

TEST(StoreBatch, WatcherStreamByteEqualToUnbatched) {
  const ScriptResult unbatched = RunScript(WatchFanout::kUnbatched);
  const ScriptResult batched = RunScript(WatchFanout::kBatched);
  ASSERT_FALSE(unbatched.trace.empty());
  EXPECT_EQ(batched.trace, unbatched.trace);
  EXPECT_EQ(batched.deliveries, unbatched.deliveries);
  // The economy is real: one engine event per distinct delivery time
  // instead of one per (event, watcher) pair.
  EXPECT_EQ(unbatched.engine_events, unbatched.deliveries);
  EXPECT_LT(batched.engine_events, batched.deliveries);
}

TEST(StoreBatch, SelectorWatcherIsInvisibleToOtherWatchers) {
  for (const WatchFanout fanout :
       {WatchFanout::kUnbatched, WatchFanout::kBatched}) {
    const ScriptResult plain = RunScript(fanout);
    const ScriptResult scoped = RunScript(fanout, /*selector_watcher=*/true);
    // The selector watcher gets exactly its objects' Added, Modified and
    // Deleted events...
    EXPECT_EQ(scoped.selected_trace,
              "sel:A pod-3 v4 @6000\n"
              "sel:A pod-5 v6 @6000\n"
              "sel:M pod-3 v9 @10000\n"
              "sel:D pod-5 v10 @10000\n");
    EXPECT_EQ(scoped.deliveries, plain.deliveries + 4);
    // ...and the plain watchers cannot tell it is there.
    EXPECT_EQ(scoped.trace, plain.trace);
    if (fanout == WatchFanout::kBatched) {
      EXPECT_EQ(scoped.engine_events, plain.engine_events);
    }
  }
}

TEST(StoreBatch, ResourceVersionsOrderedWithinBatch) {
  sim::Simulation sim;
  ObjectStore<Pod> store(&sim, Millis(1), WatchFanout::kBatched);
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

TEST(StoreBatch, SharedHubPreservesCrossStoreOrder) {
  // Two stores interleaving same-time mutations: with a shared hub the
  // combined stream must match the unbatched interleaving exactly.
  auto run = [](WatchFanout fanout) {
    sim::Simulation sim;
    WatchHub hub(&sim);
    WatchHub* hub_ptr = fanout == WatchFanout::kBatched ? &hub : nullptr;
    ObjectStore<Pod> pods(&sim, Millis(1), fanout, hub_ptr);
    ObjectStore<Node> nodes(&sim, Millis(1), fanout, hub_ptr);
    std::string trace;
    pods.Watch([&](const WatchEvent<Pod>& ev) {
      trace += "pod:" + ev.object.meta.name + "\n";
    });
    nodes.Watch([&](const WatchEvent<Node>& ev) {
      trace += "node:" + ev.object.meta.name + "\n";
    });
    sim.ScheduleAt(Millis(2), [&] {
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(pods.Create(MakePod("p" + std::to_string(i))).ok());
        Node n;
        n.meta.name = "n" + std::to_string(i);
        ASSERT_TRUE(nodes.Create(std::move(n)).ok());
      }
    });
    sim.RunUntil(Millis(10));
    return trace;
  };
  const std::string unbatched = run(WatchFanout::kUnbatched);
  ASSERT_FALSE(unbatched.empty());
  EXPECT_EQ(run(WatchFanout::kBatched), unbatched);
}

TEST(StoreBatch, WatcherRegisteredDuringBatchSeesNoDuplicate) {
  sim::Simulation sim;
  ObjectStore<Pod> store(&sim, Millis(1), WatchFanout::kBatched);
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
// — nothing lost, nothing applied twice — under batched fan-out.
TEST(StoreBatch, CrashResyncLosesNothingDuplicatesNothing) {
  sim::Simulation sim;
  ObjectStore<Pod> store(&sim, Millis(1), WatchFanout::kBatched);

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
  // The apiserver-side loss mode (DropEvents) composed with batching: the
  // mutation is silently unnotified, and only a relist repairs the mirror.
  sim::Simulation sim;
  ObjectStore<Pod> store(&sim, Millis(1), WatchFanout::kBatched);
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
