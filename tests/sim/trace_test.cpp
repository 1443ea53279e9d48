#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/string_pool.hpp"

namespace cyd::sim {
namespace {

TraceLog make_sample_log() {
  TraceLog log;
  log.record(10, TraceCategory::kFile, "hostA", "file.write", "C:\\a.txt");
  log.record(20, TraceCategory::kFile, "hostB", "file.delete", "C:\\b.txt");
  log.record(30, TraceCategory::kNetwork, "hostA", "dns.lookup", "evil.com");
  log.record(40, TraceCategory::kDriver, "hostA", "driver.load", "mrxcls.sys");
  log.record(50, TraceCategory::kFile, "hostA", "file.write", "C:\\c.txt");
  return log;
}

TEST(StringPoolTest, InternDeduplicates) {
  StringPool pool;
  const auto a = pool.intern("file.write");
  const auto b = pool.intern("file.delete");
  const auto c = pool.intern("file.write");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.view(a), "file.write");
  EXPECT_EQ(pool.view(b), "file.delete");
}

TEST(StringPoolTest, FindDoesNotIntern) {
  StringPool pool;
  EXPECT_EQ(pool.find("ghost"), kNoString);
  EXPECT_EQ(pool.size(), 0u);
  const auto id = pool.intern("ghost");
  EXPECT_EQ(pool.find("ghost"), id);
}

TEST(StringPoolTest, IdsAreAssignedInFirstSeenOrder) {
  StringPool a;
  StringPool b;
  for (const char* s : {"x", "y", "x", "z"}) {
    EXPECT_EQ(a.intern(s), b.intern(s));
  }
  EXPECT_TRUE(a == b);
}

TEST(StringPoolTest, ViewsStayValidAcrossGrowth) {
  StringPool pool;
  const auto first = pool.view(pool.intern("the-first-string-interned"));
  for (int i = 0; i < 1000; ++i) pool.intern("filler" + std::to_string(i));
  EXPECT_EQ(first, "the-first-string-interned");
}

TEST(TraceTest, RecordsInOrder) {
  const auto log = make_sample_log();
  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(log.ref(0).action(), "file.write");
  EXPECT_EQ(log.ref(4).detail(), "C:\\c.txt");
  EXPECT_EQ(log.ref(0).time(), 10);
}

TEST(TraceTest, EventsShareInternedIds) {
  const auto log = make_sample_log();
  const auto& events = log.events();
  // "hostA" and "file.write" each appear several times but intern once.
  EXPECT_EQ(events[0].actor, events[2].actor);
  EXPECT_EQ(events[0].action, events[4].action);
  EXPECT_NE(events[0].actor, events[1].actor);
}

TEST(TraceTest, CountsAreIndexBacked) {
  const auto log = make_sample_log();
  EXPECT_EQ(log.count_category(TraceCategory::kFile), 3u);
  EXPECT_EQ(log.count_category(TraceCategory::kNetwork), 1u);
  EXPECT_EQ(log.count_category(TraceCategory::kCnc), 0u);
  EXPECT_EQ(log.count_action("file.write"), 2u);
  EXPECT_EQ(log.count_action("nonexistent"), 0u);
  EXPECT_EQ(log.count_actor("hostA"), 4u);
  EXPECT_EQ(log.count_actor("hostB"), 1u);
  EXPECT_EQ(log.count_actor("hostC"), 0u);
}

TEST(TraceTest, PostingListsPointAtEvents) {
  const auto log = make_sample_log();
  const auto* writes = log.action_index("file.write");
  ASSERT_NE(writes, nullptr);
  EXPECT_EQ(*writes, (std::vector<std::uint32_t>{0, 4}));
  EXPECT_EQ(log.action_index("nonexistent"), nullptr);
  const auto& files = log.category_index(TraceCategory::kFile);
  EXPECT_EQ(files, (std::vector<std::uint32_t>{0, 1, 4}));
  // An actor name never used as an action has no action postings.
  EXPECT_EQ(log.action_index("hostA"), nullptr);
  EXPECT_EQ(log.actor_index("file.write"), nullptr);
}

TEST(TraceTest, ForEachVisitorsAreOrderedAndComplete) {
  const auto log = make_sample_log();
  std::vector<TimePoint> times;
  log.for_each_actor("hostA", [&](const TraceEventRef& e) {
    times.push_back(e.time());
  });
  EXPECT_EQ(times, (std::vector<TimePoint>{10, 30, 40, 50}));

  std::size_t visited = 0;
  log.for_each([&](const TraceEventRef&) { ++visited; });
  EXPECT_EQ(visited, 5u);

  std::vector<std::string> details;
  log.for_each_action("file.write", [&](const TraceEventRef& e) {
    details.emplace_back(e.detail());
  });
  EXPECT_EQ(details, (std::vector<std::string>{"C:\\a.txt", "C:\\c.txt"}));

  visited = 0;
  log.for_each_category(TraceCategory::kDriver,
                        [&](const TraceEventRef&) { ++visited; });
  EXPECT_EQ(visited, 1u);

  std::vector<std::string> actions;
  log.for_each_actor("hostB", [&](const TraceEventRef& e) {
    actions.emplace_back(e.action());
  });
  EXPECT_EQ(actions, (std::vector<std::string>{"file.delete"}));

  // A compound filter is a for_each_* walk plus a predicate.
  std::size_t host_a_files = 0;
  log.for_each_category(TraceCategory::kFile, [&](const TraceEventRef& e) {
    if (e.actor() == "hostA") ++host_a_files;
  });
  EXPECT_EQ(host_a_files, 2u);
}

TEST(TraceTest, ClearEmptiesLogAndIndexes) {
  auto log = make_sample_log();
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.count_action("file.write"), 0u);
  EXPECT_EQ(log.count_category(TraceCategory::kFile), 0u);
  EXPECT_TRUE(log.pool().empty());
  // The log is fully reusable after clear().
  log.record(5, TraceCategory::kSim, "x", "restart");
  EXPECT_EQ(log.count_action("restart"), 1u);
}

TEST(TraceTest, ReserveDoesNotDisturbContents) {
  TraceLog log;
  log.reserve(1000, 64 * 1024);
  log.record(1, TraceCategory::kSim, "a", "b", "c");
  log.reserve(10, 16);  // shrinking reserve is a no-op
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.ref(0).detail(), "c");
}

TEST(TraceTest, FingerprintIsOrderAndContentSensitive) {
  const auto log = make_sample_log();
  EXPECT_EQ(log.fingerprint(), make_sample_log().fingerprint());

  TraceLog other;
  other.record(10, TraceCategory::kFile, "hostA", "file.write", "C:\\a.txt");
  EXPECT_NE(log.fingerprint(), other.fingerprint());

  TraceLog reordered;
  reordered.record(20, TraceCategory::kFile, "hostB", "file.delete",
                   "C:\\b.txt");
  reordered.record(10, TraceCategory::kFile, "hostA", "file.write",
                   "C:\\a.txt");
  reordered.record(30, TraceCategory::kNetwork, "hostA", "dns.lookup",
                   "evil.com");
  reordered.record(40, TraceCategory::kDriver, "hostA", "driver.load",
                   "mrxcls.sys");
  reordered.record(50, TraceCategory::kFile, "hostA", "file.write",
                   "C:\\c.txt");
  EXPECT_NE(log.fingerprint(), reordered.fingerprint());
}

TEST(TraceTest, EqualityComparesResolvedContent) {
  EXPECT_TRUE(make_sample_log() == make_sample_log());

  // Same events recorded with a different interleaving of *other* strings
  // still compare equal: equality is semantic, not id-based.
  TraceLog a;
  a.record(1, TraceCategory::kSim, "z-actor", "noise");
  a.clear();
  a.record(10, TraceCategory::kFile, "hostA", "file.write", "C:\\a.txt");
  TraceLog b;
  b.record(10, TraceCategory::kFile, "hostA", "file.write", "C:\\a.txt");
  EXPECT_TRUE(a == b);

  b.record(11, TraceCategory::kFile, "hostA", "file.write");
  EXPECT_FALSE(a == b);
}

TEST(TraceTest, RenderTailLimitsLines) {
  const auto log = make_sample_log();
  const auto tail = log.render_tail(2);
  EXPECT_EQ(tail.find("a.txt"), std::string::npos);
  EXPECT_NE(tail.find("c.txt"), std::string::npos);
  EXPECT_NE(tail.find("mrxcls.sys"), std::string::npos);
}

TEST(TraceTest, CategoryNamesRoundTrip) {
  EXPECT_STREQ(to_string(TraceCategory::kScada), "scada");
  EXPECT_STREQ(to_string(TraceCategory::kMalware), "malware");
  EXPECT_STREQ(to_string(TraceCategory::kSecurity), "security");
}

}  // namespace
}  // namespace cyd::sim
