#include "k8s/store.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "k8s/objects.hpp"

namespace ks::k8s {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  Pod MakePod(const std::string& name) {
    Pod p;
    p.meta.name = name;
    return p;
  }

  sim::Simulation sim_;
  ObjectStore<Pod> store_{&sim_};
};

TEST_F(StoreTest, CreateAssignsMetadata) {
  ASSERT_TRUE(store_.Create(MakePod("a")).ok());
  auto got = store_.Get("a");
  ASSERT_TRUE(got.ok());
  EXPECT_GT(got->meta.uid, 0u);
  EXPECT_EQ(got->meta.resource_version, 1u);
}

TEST_F(StoreTest, CreateRejectsDuplicatesAndUnnamed) {
  ASSERT_TRUE(store_.Create(MakePod("a")).ok());
  EXPECT_EQ(store_.Create(MakePod("a")).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(store_.Create(MakePod("")).code(), StatusCode::kInvalidArgument);
}

TEST_F(StoreTest, GetMissingFails) {
  EXPECT_EQ(store_.Get("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(StoreTest, UpdateBumpsVersionPreservesUid) {
  ASSERT_TRUE(store_.Create(MakePod("a")).ok());
  auto pod = store_.Get("a");
  const auto uid = pod->meta.uid;
  pod->status.phase = PodPhase::kRunning;
  ASSERT_TRUE(store_.Update(*pod).ok());
  auto got = store_.Get("a");
  EXPECT_EQ(got->meta.uid, uid);
  EXPECT_EQ(got->meta.resource_version, 2u);
  EXPECT_EQ(got->status.phase, PodPhase::kRunning);
}

TEST_F(StoreTest, UpdateMissingFails) {
  EXPECT_EQ(store_.Update(MakePod("ghost")).code(), StatusCode::kNotFound);
}

TEST_F(StoreTest, DeleteRemoves) {
  ASSERT_TRUE(store_.Create(MakePod("a")).ok());
  ASSERT_TRUE(store_.Delete("a").ok());
  EXPECT_FALSE(store_.Contains("a"));
  EXPECT_EQ(store_.Delete("a").code(), StatusCode::kNotFound);
}

TEST_F(StoreTest, ListReturnsAll) {
  store_.Create(MakePod("a"));
  store_.Create(MakePod("b"));
  EXPECT_EQ(store_.List().size(), 2u);
  EXPECT_EQ(store_.size(), 2u);
}

TEST_F(StoreTest, WatchDeliversEventsAsynchronously) {
  std::vector<WatchEventType> events;
  store_.Watch([&](const WatchEvent<Pod>& ev) { events.push_back(ev.type); });
  store_.Create(MakePod("a"));
  // Nothing is delivered synchronously.
  EXPECT_TRUE(events.empty());
  sim_.Run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], WatchEventType::kAdded);

  auto pod = store_.Get("a");
  store_.Update(*pod);
  store_.Delete("a");
  sim_.Run();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1], WatchEventType::kModified);
  EXPECT_EQ(events[2], WatchEventType::kDeleted);
}

TEST_F(StoreTest, LatencyDropKeepsWatchStreamInWriteOrder) {
  // An apiserver latency spike ends while a slow delivery is in flight:
  // the next write's delivery waits for it instead of overtaking it.
  std::vector<std::string> seen;
  store_.Watch([&](const WatchEvent<Pod>& ev) {
    seen.push_back("v" + std::to_string(ev.object.meta.resource_version) +
                   "@" + std::to_string(sim_.Now().count()) + "us");
  });
  ASSERT_TRUE(store_.Create(MakePod("a")).ok());
  auto update = [&](Duration latency) {
    store_.SetNotifyLatency(latency);
    auto pod = store_.Get("a");
    ASSERT_TRUE(store_.Update(*pod).ok());
  };
  sim_.ScheduleAt(Millis(5), [&] { update(Millis(250)); });
  sim_.ScheduleAt(Millis(10), [&] { update(Millis(1)); });
  sim_.Run();
  EXPECT_EQ(seen, (std::vector<std::string>{"v1@1000us", "v2@255000us",
                                            "v3@255000us"}));
}

TEST_F(StoreTest, LateWatcherReplaysExistingObjects) {
  store_.Create(MakePod("a"));
  store_.Create(MakePod("b"));
  sim_.Run();
  std::vector<std::string> seen;
  store_.Watch(
      [&](const WatchEvent<Pod>& ev) { seen.push_back(ev.object.meta.name); });
  sim_.Run();
  EXPECT_EQ(seen.size(), 2u);
}

TEST_F(StoreTest, SelectorWatchSeesOnlyMatchingEventsAndReplay) {
  // A node-scoped watch (spec.nodeName field selector): the selector runs
  // on each event's object, so a pod enters the stream when it is bound
  // to the node and its deletion still reaches the watcher.
  Pod bound = MakePod("bound");
  bound.status.node_name = "n1";
  store_.Create(bound);
  store_.Create(MakePod("unbound"));
  std::vector<std::string> seen;
  store_.Watch(
      [&](const WatchEvent<Pod>& ev) {
        const char* type = ev.type == WatchEventType::kAdded      ? "A"
                           : ev.type == WatchEventType::kModified ? "M"
                                                                  : "D";
        seen.push_back(std::string(type) + " " + ev.object.meta.name);
      },
      [](const Pod& pod) { return pod.status.node_name == "n1"; });
  sim_.Run();
  EXPECT_EQ(seen, std::vector<std::string>{"A bound"});  // replay

  auto pod = store_.Get("unbound");
  store_.Update(*pod);  // still unbound: filtered
  pod = store_.Get("unbound");
  pod->status.node_name = "n2";
  store_.Update(*pod);  // bound elsewhere: filtered
  store_.Create(MakePod("other"));
  store_.Delete("other");
  pod = store_.Get("bound");
  pod->status.phase = PodPhase::kRunning;
  store_.Update(*pod);
  Pod late = MakePod("late");
  store_.Create(late);
  pod = store_.Get("late");
  pod->status.node_name = "n1";
  store_.Update(*pod);  // the bind is the first event it sees
  store_.Delete("bound");
  sim_.Run();
  EXPECT_EQ(seen, (std::vector<std::string>{"A bound", "M bound", "M late",
                                            "D bound"}));
  EXPECT_EQ(store_.watch_deliveries(), 4u);
}

TEST_F(StoreTest, WatchersShareOneEventPerWrite) {
  Pod pod = MakePod("a");
  pod.status.node_name = "n1";
  store_.Create(pod);
  std::vector<const Pod*> all, on_n1;
  int on_n2 = 0;
  store_.Watch([&](const WatchEvent<Pod>& ev) { all.push_back(&ev.object); });
  store_.Watch(
      [&](const WatchEvent<Pod>& ev) { on_n1.push_back(&ev.object); },
      [](const Pod& p) { return p.status.node_name == "n1"; });
  store_.Watch([&](const WatchEvent<Pod>&) { ++on_n2; },
               [](const Pod& p) { return p.status.node_name == "n2"; });
  sim_.Run();
  // Registration replay still delivers to each selected watcher.
  ASSERT_EQ(all.size(), 1u);
  ASSERT_EQ(on_n1.size(), 1u);
  EXPECT_EQ(on_n2, 0);

  auto stored = store_.Get("a");
  stored->status.phase = PodPhase::kRunning;
  ASSERT_TRUE(store_.Update(*stored).ok());
  sim_.Run();
  ASSERT_EQ(all.size(), 2u);
  ASSERT_EQ(on_n1.size(), 2u);
  EXPECT_EQ(all[1], on_n1[1]);  // one event object, not a copy per watcher
  EXPECT_EQ(on_n2, 0);
  EXPECT_EQ(store_.watch_deliveries(), 4u);
}

TEST_F(StoreTest, FindIsZeroCopyLookup) {
  store_.Create(MakePod("a"));
  const Pod* found = store_.Find("a");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->meta.name, "a");
  EXPECT_EQ(found->meta.resource_version, 1u);
  EXPECT_EQ(store_.Find("nope"), nullptr);
  store_.Delete("a");
  EXPECT_EQ(store_.Find("a"), nullptr);
}

TEST_F(StoreTest, UnwatchStopsDelivery) {
  int events = 0;
  const WatchId id = store_.Watch([&](const WatchEvent<Pod>&) { ++events; });
  store_.Create(MakePod("a"));
  store_.Unwatch(id);
  sim_.Run();
  EXPECT_EQ(events, 0);
}

TEST_F(StoreTest, DeletedEventCarriesFinalState) {
  Pod p = MakePod("a");
  p.status.phase = PodPhase::kRunning;
  store_.Create(p);
  std::optional<Pod> deleted;
  store_.Watch([&](const WatchEvent<Pod>& ev) {
    if (ev.type == WatchEventType::kDeleted) deleted = ev.object;
  });
  sim_.Run();
  store_.Delete("a");
  sim_.Run();
  ASSERT_TRUE(deleted.has_value());
  EXPECT_EQ(deleted->status.phase, PodPhase::kRunning);
}

TEST_F(StoreTest, DeletedEventCarriesDeletionVersionNotLastUpdate) {
  store_.Create(MakePod("a"));
  auto pod = store_.Get("a");
  pod->status.phase = PodPhase::kRunning;
  ASSERT_TRUE(store_.Update(*pod).ok());  // object now at version 2
  std::optional<Pod> deleted;
  store_.Watch([&](const WatchEvent<Pod>& ev) {
    if (ev.type == WatchEventType::kDeleted) deleted = ev.object;
  });
  sim_.Run();
  store_.Delete("a");
  sim_.Run();
  ASSERT_TRUE(deleted.has_value());
  // The deletion is its own versioned mutation: an informer replaying the
  // stream against a relist snapshot must see it ordered after the last
  // update, so the event carries version 3, not the object's final 2.
  EXPECT_EQ(deleted->meta.resource_version, 3u);
  EXPECT_EQ(store_.version(), 3u);
}

TEST_F(StoreTest, StaleUpdateRejectedAsConflict) {
  store_.Create(MakePod("a"));
  auto stale = store_.Get("a");  // version 1
  auto fresh = store_.Get("a");
  fresh->status.phase = PodPhase::kRunning;
  ASSERT_TRUE(store_.Update(*fresh).ok());  // store moves to version 2
  stale->status.phase = PodPhase::kFailed;
  const Status s = store_.Update(*stale);
  EXPECT_EQ(s.code(), StatusCode::kConflict);
  EXPECT_EQ(store_.update_conflicts(), 1u);
  // The losing write was not applied.
  EXPECT_EQ(store_.Get("a")->status.phase, PodPhase::kRunning);
  // Version 0 is an unconditional write and bypasses the check.
  stale->meta.resource_version = 0;
  EXPECT_TRUE(store_.Update(*stale).ok());
}

TEST_F(StoreTest, StaleDeleteRejectedAsConflict) {
  store_.Create(MakePod("a"));
  auto read = store_.Get("a");  // version 1
  auto fresh = store_.Get("a");
  fresh->status.phase = PodPhase::kRunning;
  ASSERT_TRUE(store_.Update(*fresh).ok());
  EXPECT_EQ(store_.Delete("a", read->meta.resource_version).code(),
            StatusCode::kConflict);
  EXPECT_TRUE(store_.Contains("a"));
  EXPECT_TRUE(store_.Delete("a", store_.Get("a")->meta.resource_version).ok());
}

TEST_F(StoreTest, RetryOnConflictConvergesAgainstConcurrentWriter) {
  store_.Create(MakePod("a"));
  // The mutator's first application doubles as the concurrent writer: it
  // lands an interfering update between the helper's read and its write,
  // so the helper's first submit conflicts, re-reads, and converges on
  // the second attempt with both writes preserved.
  int applications = 0;
  const Status s = RetryOnConflict(store_, "a", [&](Pod& p) {
    if (++applications == 1) {
      auto other = store_.Get("a");
      other->meta.labels["other"] = "writer";
      EXPECT_TRUE(store_.Update(*other).ok());
    }
    p.status.phase = PodPhase::kRunning;
    return Status::Ok();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(applications, 2);  // first attempt lost the race, second won
  EXPECT_EQ(store_.update_conflicts(), 1u);
  auto got = store_.Get("a");
  EXPECT_EQ(got->status.phase, PodPhase::kRunning);
  EXPECT_EQ(got->meta.labels.at("other"), "writer");  // both writes kept
}

TEST_F(StoreTest, RetryOnConflictMutatorAbortPropagates) {
  store_.Create(MakePod("a"));
  const Status s = RetryOnConflict(store_, "a", [](Pod&) {
    return FailedPreconditionError("object became terminal");
  });
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store_.Get("a")->meta.resource_version, 1u);  // untouched
}

TEST_F(StoreTest, FencingGateRejectsBelowFloorAdmitsUnfenced) {
  store_.Create(MakePod("a"));
  store_.fencing().Raise(5);
  auto pod = store_.Get("a");
  pod->status.phase = PodPhase::kRunning;
  // Stale leader (token 3): rejected, counted, not retried by the helper.
  Pod stale = *pod;
  EXPECT_EQ(store_.Update(stale, /*fencing_token=*/3).code(),
            StatusCode::kConflict);
  EXPECT_EQ(store_.fencing().rejected(), 1u);
  const Status via_retry = RetryOnConflict(
      store_, "a",
      [](Pod& p) {
        p.status.phase = PodPhase::kFailed;
        return Status::Ok();
      },
      /*fencing_token=*/3);
  EXPECT_EQ(via_retry.code(), StatusCode::kConflict);
  EXPECT_EQ(store_.fencing().rejected(), 2u);  // exactly one more: no retry
  // Current leader (token 5) and unfenced infrastructure (token 0) pass.
  EXPECT_TRUE(store_.Update(*store_.Get("a"), /*fencing_token=*/5).ok());
  EXPECT_TRUE(store_.Update(*store_.Get("a"), /*fencing_token=*/0).ok());
  // Deletes go through the same gate.
  EXPECT_EQ(store_.Delete("a", 0, /*fencing_token=*/2).code(),
            StatusCode::kConflict);
  EXPECT_TRUE(store_.Contains("a"));
  EXPECT_EQ(store_.fencing().rejected(), 3u);
}

// ---- Write observers: the store's synchronous index ----------------------

/// "name@version", or "null".
std::string Describe(const Pod* pod) {
  return pod == nullptr ? "null"
                        : pod->meta.name + "@" +
                              std::to_string(pod->meta.resource_version);
}

TEST_F(StoreTest, ObserverSeesEachWriteInsideIt) {
  std::vector<std::string> seen;
  store_.Observe([&](const Pod* before, const Pod* after) {
    // What the store itself holds while the observer runs.
    const Pod* stored = store_.Find(before != nullptr ? before->meta.name
                                                      : after->meta.name);
    seen.push_back(Describe(before) + " -> " + Describe(after) +
                   " stored " + Describe(stored));
  });
  ASSERT_TRUE(store_.Create(MakePod("a")).ok());
  EXPECT_EQ(seen, std::vector<std::string>{"null -> a@1 stored a@1"});
  Pod pod = *store_.Get("a");
  pod.status.phase = PodPhase::kRunning;
  ASSERT_TRUE(store_.Update(pod).ok());
  ASSERT_TRUE(store_.Delete("a").ok());
  // Update runs before the assignment and Delete before the erase, all
  // before the engine runs a single event.
  EXPECT_EQ(seen, (std::vector<std::string>{"null -> a@1 stored a@1",
                                            "a@1 -> a@2 stored a@1",
                                            "a@2 -> null stored a@2"}));
  EXPECT_EQ(sim_.executed(), 0u);
}

TEST_F(StoreTest, ObserverSeesBeforeAndAfterStates) {
  std::vector<std::pair<PodPhase, PodPhase>> phases;
  store_.Observe([&](const Pod* before, const Pod* after) {
    if (before != nullptr && after != nullptr) {
      phases.emplace_back(before->status.phase, after->status.phase);
    }
  });
  ASSERT_TRUE(store_.Create(MakePod("a")).ok());
  Pod pod = *store_.Get("a");
  pod.status.phase = PodPhase::kSucceeded;
  ASSERT_TRUE(store_.Update(pod).ok());
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].first, PodPhase::kPending);
  EXPECT_EQ(phases[0].second, PodPhase::kSucceeded);
}

TEST_F(StoreTest, RejectedWritesCallNoObserver) {
  ASSERT_TRUE(store_.Create(MakePod("a")).ok());
  const Pod read = *store_.Get("a");
  ASSERT_TRUE(store_.Update(read).ok());  // read is now stale
  int calls = 0;
  store_.Observe([&](const Pod*, const Pod*) { ++calls; });
  ASSERT_EQ(calls, 1);  // the replay of "a"
  calls = 0;
  EXPECT_EQ(store_.Create(MakePod("a")).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(store_.Create(MakePod("")).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store_.Update(MakePod("ghost")).code(), StatusCode::kNotFound);
  EXPECT_EQ(store_.Delete("ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(store_.Update(read).code(), StatusCode::kConflict);
  EXPECT_EQ(store_.Delete("a", read.meta.resource_version).code(),
            StatusCode::kConflict);
  store_.fencing().Raise(5);
  EXPECT_EQ(store_.Create(MakePod("b"), /*fencing_token=*/3).code(),
            StatusCode::kConflict);
  EXPECT_EQ(store_.Update(*store_.Get("a"), /*fencing_token=*/3).code(),
            StatusCode::kConflict);
  EXPECT_EQ(store_.Delete("a", 0, /*fencing_token=*/3).code(),
            StatusCode::kConflict);
  EXPECT_EQ(calls, 0);
}

TEST_F(StoreTest, DroppedWatchEventStillReachesObservers) {
  int watched = 0;
  int observed = 0;
  store_.Watch([&](const WatchEvent<Pod>&) { ++watched; });
  store_.Observe([&](const Pod*, const Pod*) { ++observed; });
  store_.DropEvents(1);
  ASSERT_TRUE(store_.Create(MakePod("a")).ok());
  ASSERT_TRUE(store_.Delete("a").ok());
  sim_.Run();
  EXPECT_EQ(store_.dropped_events(), 1u);
  EXPECT_EQ(watched, 1);   // only the Delete reached the watcher
  EXPECT_EQ(observed, 2);  // the observer saw both writes
}

TEST_F(StoreTest, ObserveReplaysStoredObjectsInNameOrder) {
  ASSERT_TRUE(store_.Create(MakePod("c")).ok());
  ASSERT_TRUE(store_.Create(MakePod("a")).ok());
  ASSERT_TRUE(store_.Create(MakePod("b")).ok());
  std::vector<std::string> seen;
  store_.Observe([&](const Pod* before, const Pod* after) {
    seen.push_back(Describe(before) + " -> " + Describe(after));
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"null -> a@2", "null -> b@3",
                                            "null -> c@1"}));
}

TEST_F(StoreTest, UnobserveStopsDelivery) {
  int first = 0;
  int second = 0;
  const ObserverId a = store_.Observe([&](const Pod*, const Pod*) { ++first; });
  const ObserverId b =
      store_.Observe([&](const Pod*, const Pod*) { ++second; });
  EXPECT_NE(a, b);
  ASSERT_TRUE(store_.Create(MakePod("x")).ok());
  store_.Unobserve(a);
  ASSERT_TRUE(store_.Create(MakePod("y")).ok());
  store_.Unobserve(b);
  ASSERT_TRUE(store_.Delete("x").ok());
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
}

}  // namespace
}  // namespace ks::k8s
