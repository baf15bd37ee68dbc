#include "common/ids.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace ks {
namespace {

TEST(StringIdTest, SeparatelyBuiltIdsAreEqualAndOrderLexicographically) {
  const ContainerId a("node-1/pod-a#1");
  const ContainerId b(std::string("node-1/") + "pod-a#1");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_NE(a, ContainerId("node-1/pod-a#2"));

  const std::vector<std::string> names = {"b", "a", "ab", "node-10", "node-1",
                                          "node-2", "B", ""};
  for (const std::string& x : names) {
    for (const std::string& y : names) {
      EXPECT_EQ(ContainerId(x) <=> ContainerId(y), x <=> y) << x << " " << y;
      EXPECT_EQ(ContainerId(x) == ContainerId(y), x == y) << x << " " << y;
    }
  }
}

TEST(StringIdTest, HashIsTheStringHash) {
  for (const std::string s :
       {"", "GPU-0-1", "an identifier longer than the small-string buffer"}) {
    EXPECT_EQ(std::hash<GpuUuid>{}(GpuUuid(s)), std::hash<std::string>{}(s));
    EXPECT_EQ(GpuUuid(s).hash(), std::hash<std::string>{}(s));
  }
}

TEST(StringIdTest, EmptyIdBehavesAsBefore) {
  const ContainerId none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.value(), "");
  EXPECT_EQ(none, ContainerId(""));
  EXPECT_LT(none, ContainerId("a"));
  EXPECT_EQ(std::hash<ContainerId>{}(none), std::hash<std::string>{}(""));
  std::ostringstream os;
  os << none << "|" << ContainerId("x");
  EXPECT_EQ(os.str(), "|x");

  ContainerId reassigned("x");
  reassigned = ContainerId{};
  EXPECT_TRUE(reassigned.empty());
  EXPECT_EQ(reassigned, none);
}

TEST(StringIdTest, MapLookupsWithSeparatelyBuiltKeysFindEntries) {
  std::map<ContainerId, int> ordered;
  std::unordered_map<ContainerId, int> hashed;
  for (int i = 0; i < 100; ++i) {
    ordered[ContainerId("c" + std::to_string(i))] = i;
    hashed[ContainerId("c" + std::to_string(i))] = i;
  }
  for (int i = 0; i < 100; ++i) {
    const ContainerId key("c" + std::to_string(i));
    EXPECT_EQ(ordered.at(key), i);
    EXPECT_EQ(hashed.at(key), i);
  }
  EXPECT_EQ(ordered.count(ContainerId("c100")), 0u);
  EXPECT_EQ(hashed.count(ContainerId("c100")), 0u);

  std::vector<std::string> keys;
  for (const auto& [key, value] : ordered) keys.push_back(key.value());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(StringIdTest, CopySharesRepresentation) {
  const GpuUuid a("GPU-3-2");
  const GpuUuid copy = a;
  EXPECT_EQ(&a.value(), &copy.value());
  GpuUuid assigned;
  assigned = copy;
  EXPECT_EQ(&a.value(), &assigned.value());

  const GpuUuid separate("GPU-3-2");
  EXPECT_NE(&a.value(), &separate.value());
  EXPECT_EQ(a, separate);
}

TEST(StringIdTest, CopiesOnSeveralThreadsAreSafe) {
  const std::string text = "an identifier shared by every worker thread";
  std::vector<std::thread> workers;
  {
    const ContainerId original(text);
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([id = original, &text] {
        std::vector<ContainerId> copies;
        for (int i = 0; i < 20000; ++i) {
          copies.push_back(id);
          if (copies.size() == 64) copies.clear();
        }
        copies.push_back(id);
        EXPECT_EQ(&copies.back().value(), &id.value());
        EXPECT_EQ(id.value(), text);
      });
    }
  }  // the original is gone; the last copy is dropped on a worker
  for (std::thread& w : workers) w.join();
}

}  // namespace
}  // namespace ks
