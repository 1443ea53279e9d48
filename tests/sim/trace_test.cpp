#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/string_pool.hpp"
#include "winsys/host.hpp"

namespace cyd::sim {
namespace {

TraceLog make_sample_log() {
  TraceLog log;
  const StringId host_a = log.intern_actor("hostA");
  const StringId host_b = log.intern_actor("hostB");
  log.record(10, host_a, TraceAction::kProcessStart, "C:\\a.exe");
  log.record(20, host_b, TraceAction::kServiceInstall, "svc");
  log.record(30, host_a, TraceAction::kHttpInternet, "evil.com/");
  log.record(40, host_a, TraceAction::kDriverLoad, "mrxcls.sys");
  log.record(50, host_a, TraceAction::kProcessStart, "C:\\c.exe");
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
  EXPECT_EQ(log.ref(0).action(), TraceAction::kProcessStart);
  EXPECT_EQ(log.ref(0).actor(), "hostA");
  EXPECT_EQ(log.ref(4).detail(), "C:\\c.exe");
  EXPECT_EQ(log.ref(0).time(), 10);
}

TEST(TraceTest, EventsShareInternedIds) {
  const auto log = make_sample_log();
  const auto& events = log.events();
  // "hostA" is interned once and every one of its events carries that id.
  EXPECT_EQ(events[0].actor, events[2].actor);
  EXPECT_EQ(events[0].action, events[4].action);
  EXPECT_NE(events[0].actor, events[1].actor);
}

TEST(TraceTest, CountActionCountsItsEnumeratorOnly) {
  const auto log = make_sample_log();
  EXPECT_EQ(log.count_action(TraceAction::kProcessStart), 2u);
  EXPECT_EQ(log.count_action(TraceAction::kDriverLoad), 1u);
  EXPECT_EQ(log.count_action(TraceAction::kNetAttach), 0u);
  std::size_t visited = 0;
  log.for_each_action(TraceAction::kDriverRejected,
                      [&](const TraceEventRef&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST(TraceTest, ForEachVisitorsAreOrderedAndComplete) {
  const auto log = make_sample_log();
  std::vector<TimePoint> times;
  log.for_each([&](const TraceEventRef& e) { times.push_back(e.time()); });
  EXPECT_EQ(times, (std::vector<TimePoint>{10, 20, 30, 40, 50}));

  times.clear();
  std::vector<std::string> details;
  log.for_each_action(TraceAction::kProcessStart, [&](const TraceEventRef& e) {
    times.push_back(e.time());
    details.emplace_back(e.detail());
  });
  EXPECT_EQ(times, (std::vector<TimePoint>{10, 50}));
  EXPECT_EQ(details, (std::vector<std::string>{"C:\\a.exe", "C:\\c.exe"}));

  // Category, actor and compound filters are for_each plus a predicate.
  std::size_t process = 0, network = 0, cnc = 0, host_a = 0, host_b = 0,
              host_c = 0, host_a_process = 0;
  log.for_each([&](const TraceEventRef& e) {
    process += e.category() == TraceCategory::kProcess;
    network += e.category() == TraceCategory::kNetwork;
    cnc += e.category() == TraceCategory::kCnc;
    host_a += e.actor() == "hostA";
    host_b += e.actor() == "hostB";
    host_c += e.actor() == "hostC";
    host_a_process +=
        e.category() == TraceCategory::kProcess && e.actor() == "hostA";
  });
  EXPECT_EQ(process, 3u);
  EXPECT_EQ(network, 1u);
  EXPECT_EQ(cnc, 0u);
  EXPECT_EQ(host_a, 4u);
  EXPECT_EQ(host_b, 1u);
  EXPECT_EQ(host_c, 0u);
  EXPECT_EQ(host_a_process, 2u);
}

TEST(TraceTest, ClearEmptiesEventsAndKeepsHostActor) {
  Simulation simulation;
  winsys::ProgramRegistry programs;
  winsys::Host host(simulation, programs, "ws-01", winsys::OsVersion::kWin7);
  auto& log = simulation.trace();
  host.trace(TraceAction::kHostReboot);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.count_action(TraceAction::kHostReboot), 0u);
  // The host keeps the id it took when it was built, and the log still
  // resolves it after clear().
  host.trace(TraceAction::kUsbUnplug, "stick");
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.ref(0).actor(), "ws-01");
  EXPECT_EQ(log.ref(0).detail(), "stick");
  EXPECT_EQ(log.events()[0].actor, host.actor_id());
}

TEST(TraceTest, ReserveDoesNotDisturbContents) {
  TraceLog log;
  log.reserve(1000, 64 * 1024);
  log.record(1, log.intern_actor("a"), TraceAction::kHostReboot, "c");
  log.reserve(10, 16);  // shrinking reserve is a no-op
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.ref(0).detail(), "c");
}

TEST(TraceTest, FingerprintIsOrderAndContentSensitive) {
  const auto log = make_sample_log();
  EXPECT_EQ(log.fingerprint(), make_sample_log().fingerprint());

  TraceLog other;
  other.record(10, other.intern_actor("hostA"), TraceAction::kProcessStart,
               "C:\\a.exe");
  EXPECT_NE(log.fingerprint(), other.fingerprint());

  // Same events, first two swapped.
  TraceLog reordered;
  const StringId host_a = reordered.intern_actor("hostA");
  const StringId host_b = reordered.intern_actor("hostB");
  reordered.record(20, host_b, TraceAction::kServiceInstall, "svc");
  reordered.record(10, host_a, TraceAction::kProcessStart, "C:\\a.exe");
  reordered.record(30, host_a, TraceAction::kHttpInternet, "evil.com/");
  reordered.record(40, host_a, TraceAction::kDriverLoad, "mrxcls.sys");
  reordered.record(50, host_a, TraceAction::kProcessStart, "C:\\c.exe");
  EXPECT_NE(log.fingerprint(), reordered.fingerprint());
}

TEST(TraceTest, EqualityComparesResolvedContent) {
  EXPECT_TRUE(make_sample_log() == make_sample_log());

  // Same events with actors interned in a different order still compare
  // equal: equality is semantic, not id-based.
  TraceLog a;
  a.intern_actor("z-actor");
  a.record(10, a.intern_actor("hostA"), TraceAction::kProcessStart, "x");
  TraceLog b;
  const StringId host_a = b.intern_actor("hostA");
  b.record(10, host_a, TraceAction::kProcessStart, "x");
  ASSERT_NE(a.events()[0].actor, b.events()[0].actor);
  EXPECT_TRUE(a == b);

  b.record(11, host_a, TraceAction::kProcessStart);
  EXPECT_FALSE(a == b);
}

TEST(TraceTest, RenderTailLimitsLines) {
  const auto log = make_sample_log();
  const auto tail = log.render_tail(2);
  EXPECT_EQ(tail.find("a.exe"), std::string::npos);
  EXPECT_NE(tail.find("hostA process.start C:\\c.exe"), std::string::npos);
  EXPECT_NE(tail.find("[driver] hostA driver.load mrxcls.sys"),
            std::string::npos);
}

TEST(TraceTest, CategoryNamesRoundTrip) {
  EXPECT_STREQ(to_string(TraceCategory::kScada), "scada");
  EXPECT_STREQ(to_string(TraceCategory::kMalware), "malware");
  EXPECT_STREQ(to_string(TraceCategory::kSecurity), "security");
}

// The action table (trace_actions.hpp) against its generated accessors:
// every enumerator reads back its own string and category, and every string
// names exactly one enumerator.
TEST(TraceVocabularyTest, EveryActionHasAUniqueStringAndItsCategory) {
  struct Entry {
    TraceAction action;
    TraceCategory category;
    std::string_view string;
  };
#define CYD_TRACE_ACTION_ENTRY(name, cat, str) \
  Entry{TraceAction::name, TraceCategory::cat, str},
  const Entry table[] = {CYD_TRACE_ACTIONS(CYD_TRACE_ACTION_ENTRY)};
#undef CYD_TRACE_ACTION_ENTRY
  ASSERT_EQ(std::size(table), std::size(kTraceActionStrings));

  std::map<std::string_view, TraceAction> by_string;
  for (std::size_t i = 0; i < std::size(table); ++i) {
    const Entry& entry = table[i];
    EXPECT_EQ(static_cast<std::size_t>(entry.action), i);
    EXPECT_EQ(to_string(entry.action), entry.string);
    EXPECT_EQ(category_of(entry.action), entry.category) << entry.string;
    EXPECT_FALSE(entry.string.empty());
    EXPECT_TRUE(by_string.emplace(entry.string, entry.action).second)
        << "two actions share the string " << entry.string;
  }
}

}  // namespace
}  // namespace cyd::sim
