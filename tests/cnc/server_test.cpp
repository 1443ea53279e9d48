#include "cnc/server.hpp"

#include <gtest/gtest.h>

#include "cnc/attack_center.hpp"
#include "cnc/database.hpp"
#include "cnc/domains.hpp"

namespace cyd::cnc {
namespace {

/// `prefix` followed by `n`. Appending to a string, instead of
/// `"lit" + std::to_string(n)`, stays clear of GCC 12's -Wrestrict false
/// positive on the inlined insert-at-0 in Release builds.
std::string numbered(std::string prefix, std::int64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

class CncServerTest : public ::testing::Test {
 protected:
  CncServerTest()
      : center_(simulation_, 0xabc),
        server_(simulation_, "cc-0", {"trafficspot.com", "quickmask.net"},
                center_.upload_key()) {
    center_.manage(server_);
  }

  net::HttpRequest get_news(const std::string& client) {
    net::HttpRequest r;
    r.host = "trafficspot.com";
    r.path = "/newsforyou";
    r.params = {{"cmd", "GET_NEWS"}, {"client", client}, {"type", "FL"}};
    return r;
  }

  net::HttpRequest add_entry(const std::string& client,
                             const std::string& name,
                             const std::string& content) {
    net::HttpRequest r;
    r.host = "trafficspot.com";
    r.path = "/newsforyou";
    r.method = "POST";
    r.params = {{"cmd", "ADD_ENTRY"}, {"client", client}, {"type", "FL"}};
    r.body = serialize_entry_upload(
        name, encrypt_for(server_.upload_key(), content));
    return r;
  }

  sim::Simulation simulation_;
  AttackCenter center_;
  CncServer server_;
};

TEST_F(CncServerTest, PayloadSerializationRoundTrip) {
  std::vector<Payload> payloads{{"module-a", "bytes-a"}, {"module-b", "b"}};
  const auto parsed = parse_payloads(serialize_payloads(payloads));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].name, "module-a");
  EXPECT_EQ(parsed[1].data, "b");
  EXPECT_TRUE(parse_payloads("garbage").empty());
  EXPECT_TRUE(parse_payloads(serialize_payloads({})).empty());
}

TEST_F(CncServerTest, GetNewsEmptyForUnknownClient) {
  const auto response = server_.handle(get_news("victim-1"));
  EXPECT_TRUE(response.ok());
  EXPECT_TRUE(parse_payloads(response.body).empty());
  // ...but the client is now registered in the database.
  EXPECT_EQ(server_.known_clients(), (std::vector<std::string>{"victim-1"}));
}

TEST_F(CncServerTest, AdsDeliveredOnceToTargetClient) {
  server_.push_ad("victim-1", {"flask-update-v2", "module bytes"});
  // Wrong client sees nothing.
  EXPECT_TRUE(parse_payloads(server_.handle(get_news("other")).body).empty());
  // Target gets it exactly once.
  auto first = parse_payloads(server_.handle(get_news("victim-1")).body);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].name, "flask-update-v2");
  EXPECT_TRUE(
      parse_payloads(server_.handle(get_news("victim-1")).body).empty());
}

TEST_F(CncServerTest, NewsBroadcastReachesEveryClientOnce) {
  server_.push_news({"beetlejuice-v3", "bt module"});
  for (const std::string client : {"a", "b", "c"}) {
    auto payloads = parse_payloads(server_.handle(get_news(client)).body);
    ASSERT_EQ(payloads.size(), 1u) << client;
    EXPECT_EQ(payloads[0].name, "beetlejuice-v3");
    EXPECT_TRUE(parse_payloads(server_.handle(get_news(client)).body).empty());
  }
}

TEST_F(CncServerTest, NewsPublishedLaterStillDelivered) {
  server_.handle(get_news("a"));
  server_.push_news({"late-module", "x"});
  auto payloads = parse_payloads(server_.handle(get_news("a")).body);
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0].name, "late-module");
}

TEST_F(CncServerTest, EntryUploadStoredEncrypted) {
  const auto response =
      server_.handle(add_entry("victim-1", "docs.7z", "design documents"));
  EXPECT_TRUE(response.ok());
  ASSERT_EQ(server_.entries().size(), 1u);
  const Entry& entry = server_.entries()[0];
  EXPECT_EQ(entry.client_id, "victim-1");
  EXPECT_EQ(entry.data_name, "docs.7z");
  EXPECT_FALSE(entry.retrieved);
  // Server-side bytes are ciphertext; the loot is opaque to the box itself.
  EXPECT_EQ(entry.blob.ciphertext.find("design documents"),
            common::Bytes::npos);
  EXPECT_GT(server_.total_upload_bytes(), 0u);
  EXPECT_EQ(server_.upload_count(), 1u);
}

TEST_F(CncServerTest, MalformedRequestsRejected) {
  net::HttpRequest r;
  r.path = "/newsforyou";
  EXPECT_EQ(server_.handle(r).status, 400);  // no cmd
  r.params = {{"cmd", "DANCE"}};
  EXPECT_EQ(server_.handle(r).status, 400);  // unknown cmd
  r.params = {{"cmd", "GET_NEWS"}};
  EXPECT_EQ(server_.handle(r).status, 400);  // no client
  r.path = "/other";
  EXPECT_EQ(server_.handle(r).status, 404);
  auto bad_upload = add_entry("v", "x", "y");
  bad_upload.body = "not an upload";
  EXPECT_EQ(server_.handle(bad_upload).status, 400);
}

TEST_F(CncServerTest, ParsePayloadsRejectsTruncatedLengthFields) {
  std::vector<Payload> payloads{{"module-a", "0123456789"}};
  const common::Bytes good = serialize_payloads(payloads);
  // Chop the buffer at every prefix length: a reader must never crash or
  // fabricate payloads out of half a length field.
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_TRUE(parse_payloads(good.substr(0, cut)).empty()) << cut;
  }
  EXPECT_EQ(parse_payloads(good).size(), 1u);
}

TEST_F(CncServerTest, ParsePayloadsRejectsLyingCount) {
  // Header advertises 3 payloads, body carries only 1.
  std::vector<Payload> payloads{{"module-a", "bytes"}};
  common::Bytes lying = serialize_payloads(payloads);
  lying[4] = 3;  // count is little-endian at offset 4
  EXPECT_TRUE(parse_payloads(lying).empty());
  // Huge declared name length cannot read out of bounds either.
  common::Bytes huge("PLS1");
  common::put_u32(huge, 1);
  common::put_u32(huge, 0xffffffffu);  // name_len far past the buffer
  huge.append("abc");
  EXPECT_TRUE(parse_payloads(huge).empty());
}

TEST_F(CncServerTest, AddEntryRejectsTruncatedUploads) {
  auto upload = add_entry("victim", "doc.7z", "contents");
  const common::Bytes good = upload.body;
  // Every cut inside the length-framed prefix (UPL1 + name_len + name +
  // ENC1 blob header) must be rejected; past that the wire format carries
  // no more framing (the ciphertext is the rest of the body by design).
  const std::size_t framed = 8 + std::string("doc.7z").size() + 12;
  for (std::size_t cut = 0; cut < framed; ++cut) {
    auto r = upload;
    r.body = good.substr(0, cut);
    EXPECT_EQ(server_.handle(r).status, 400) << cut;
  }
  EXPECT_TRUE(server_.entries().empty());
  EXPECT_EQ(server_.upload_count(), 0u);
  // The untruncated original is still accepted afterwards.
  EXPECT_TRUE(server_.handle(upload).ok());
  EXPECT_EQ(server_.entries().size(), 1u);
}

TEST_F(CncServerTest, AddEntryRejectsLyingNameLength) {
  auto r = add_entry("victim", "doc", "contents");
  common::Bytes body("UPL1");
  common::put_u32(body, 0xfffffff0u);  // name_len far past the buffer
  body.append("doc");
  r.body = body;
  EXPECT_EQ(server_.handle(r).status, 400);
  EXPECT_TRUE(server_.entries().empty());
}

TEST_F(CncServerTest, AttackCenterCollectsAndDecrypts) {
  server_.handle(add_entry("victim-1", "cad.dwg", "centrifuge drawing"));
  server_.handle(add_entry("victim-2", "mail.pst", "inbox archive"));
  EXPECT_EQ(center_.collect(), 2u);
  ASSERT_EQ(center_.archive().size(), 2u);
  EXPECT_EQ(center_.archive()[0].plaintext, "centrifuge drawing");
  EXPECT_EQ(center_.archive()[1].client_id, "victim-2");
  EXPECT_EQ(center_.decrypt_failures(), 0u);
  // Entries are marked retrieved but not yet deleted.
  EXPECT_EQ(server_.entries().size(), 2u);
  EXPECT_TRUE(server_.entries()[0].retrieved);
  // Second collection finds nothing new.
  EXPECT_EQ(center_.collect(), 0u);
}

TEST_F(CncServerTest, WrongKeyUploadCountsAsDecryptFailure) {
  const auto stranger = CncKeyPair::generate(0xdead);
  net::HttpRequest r = add_entry("v", "x", "y");
  r.body = serialize_entry_upload(
      "x", encrypt_for(public_half(stranger), "unreadable"));
  server_.handle(r);
  EXPECT_EQ(center_.collect(), 0u);
  EXPECT_EQ(center_.decrypt_failures(), 1u);
}

TEST_F(CncServerTest, PurgeDeletesOnlyRetrievedEntries) {
  server_.handle(add_entry("a", "1", "data1"));
  center_.collect();
  server_.handle(add_entry("a", "2", "data2"));  // not yet retrieved
  EXPECT_EQ(server_.purge_retrieved(0), 1u);
  ASSERT_EQ(server_.entries().size(), 1u);
  EXPECT_EQ(server_.entries()[0].data_name, "2");
}

TEST_F(CncServerTest, PurgeTaskRunsEvery30Minutes) {
  server_.start_purge_task();
  server_.handle(add_entry("a", "1", "data1"));
  center_.collect();
  EXPECT_EQ(server_.entries().size(), 1u);
  simulation_.run_for(31 * sim::kMinute);
  EXPECT_TRUE(server_.entries().empty());
}

TEST_F(CncServerTest, PurgeTaskHonorsConfiguredRetention) {
  // Ticks at 10/20/30 minutes; the entry is retrieved immediately but must
  // survive until it is 30 minutes old (Fig. 5's retention) — the pre-fix
  // task passed max_age 0 and deleted it on the very first tick.
  server_.start_purge_task(10 * sim::kMinute);
  server_.handle(add_entry("a", "loot.7z", "data"));
  center_.collect();
  simulation_.run_for(15 * sim::kMinute);
  EXPECT_EQ(server_.entries().size(), 1u);
  simulation_.run_for(20 * sim::kMinute);  // tick at 30 min: now past retention
  EXPECT_TRUE(server_.entries().empty());
}

TEST_F(CncServerTest, RestartingPurgeTaskKeepsASingleSeries) {
  server_.start_purge_task(30 * sim::kMinute);
  const auto pending_before = simulation_.queue().pending();
  // Restage: the second start must cancel the 30-minute series before
  // arming the 10-minute one, not stack a second concurrent cycle.
  server_.start_purge_task(10 * sim::kMinute);
  EXPECT_EQ(simulation_.queue().pending(), pending_before);
  const auto executed_before = simulation_.queue().stats().executed;
  simulation_.run_for(60 * sim::kMinute);
  // Exactly the 10-minute ticks (6 in an hour); a leaked 30-minute series
  // would add two more.
  EXPECT_EQ(simulation_.queue().stats().executed - executed_before, 6u);
}

TEST_F(CncServerTest, StopPurgeTaskSafeWhenNeverStarted) {
  server_.stop_purge_task();  // never started: harmless no-op
  server_.start_purge_task(10 * sim::kMinute);
  server_.handle(add_entry("a", "1", "data1"));
  center_.collect();
  server_.stop_purge_task();
  server_.stop_purge_task();  // double-stop: also harmless
  simulation_.run_for(2 * sim::kHour);
  // The series is dead: the long-retrieved entry survives untouched.
  ASSERT_EQ(server_.entries().size(), 1u);
  EXPECT_EQ(simulation_.queue().pending(), 0u);
}

TEST_F(CncServerTest, DatabaseTracksClientContacts) {
  server_.handle(get_news("victim-1"));
  server_.handle(get_news("victim-1"));
  server_.handle(add_entry("victim-1", "x", "y"));
  // One client, one row, however often it phones home.
  EXPECT_EQ(server_.known_clients(), (std::vector<std::string>{"victim-1"}));
  Database db = server_.db();
  const auto rows = db.table("clients").all();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].second->at("client_id"), "victim-1");
  EXPECT_EQ(rows[0].second->at("contacts"), "3");
  EXPECT_EQ(rows[0].second->at("type"), "FL");
}

TEST_F(CncServerTest, LogWiperDestroysAccessLog) {
  server_.handle(get_news("victim-1"));
  EXPECT_FALSE(server_.access_log().empty());
  server_.run_log_wiper();
  EXPECT_TRUE(server_.access_log().empty());
  EXPECT_TRUE(server_.logs_wiped());
  // Logging stays off afterwards.
  server_.handle(get_news("victim-2"));
  EXPECT_TRUE(server_.access_log().empty());
}

TEST_F(CncServerTest, SuicideOrderBroadcastsAndWipes) {
  server_.handle(get_news("victim-1"));
  center_.order_suicide();
  EXPECT_TRUE(server_.logs_wiped());
  auto payloads = parse_payloads(server_.handle(get_news("victim-1")).body);
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0].name, AttackCenter::kSuicidePayload);
}

TEST_F(CncServerTest, PushCommandToReachesEveryManagedServer) {
  CncServer second(simulation_, "cc-1", {"webzone.org"}, center_.upload_key());
  center_.manage(second);
  center_.push_command_to("victim-9", "jimmy-config", "docx pdf dwg");
  EXPECT_EQ(server_.pending_ads(), 1u);
  EXPECT_EQ(second.pending_ads(), 1u);
}

TEST_F(CncServerTest, CollectionTaskRunsPeriodically) {
  center_.start_collection_task(sim::kHour);
  server_.handle(add_entry("a", "doc", "contents"));
  simulation_.run_for(sim::kHour + sim::kMinute);
  EXPECT_EQ(center_.archive().size(), 1u);
  EXPECT_EQ(center_.archived_bytes(), 8u);  // "contents"
}

TEST_F(CncServerTest, PlatformServesAllFourClientTypes) {
  // CLIENT_TYPE_FL was only one of four supported clients (§III-B).
  for (const char* type : {kClientTypeFl, kClientTypeSp, kClientTypeSpe,
                           kClientTypeIp}) {
    net::HttpRequest r;
    r.path = "/newsforyou";
    r.params = {{"cmd", "GET_NEWS"},
                {"client", std::string("c-") + type},
                {"type", type}};
    EXPECT_TRUE(server_.handle(r).ok());
  }
  Database db = server_.db();
  std::set<std::string> types;
  for (const auto& [id, row] : db.table("clients").all()) {
    types.insert(row->at("type"));
  }
  EXPECT_EQ(types, (std::set<std::string>{"FL", "IP", "SP", "SPE"}));
}

TEST_F(CncServerTest, AdsForOneClientInvisibleToOthersForever) {
  server_.push_ad("target", {"payload", "secret module"});
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(parse_payloads(
                    server_.handle(get_news("bystander-" +
                                            std::to_string(i)))
                        .body)
                    .empty());
  }
  EXPECT_EQ(server_.pending_ads(), 1u);
  EXPECT_EQ(parse_payloads(server_.handle(get_news("target")).body).size(),
            1u);
  EXPECT_EQ(server_.pending_ads(), 0u);
}

TEST_F(CncServerTest, EntryPickupCostTracksPendingNotHistory) {
  // Regression guard for the retrieved-watermark cursor: with a long history
  // of already-collected entries, picking up one new upload must examine one
  // entry, not re-scan the archive. The pre-cursor implementation walked all
  // of entries_ on every take_new_entries().
  for (int i = 0; i < 500; ++i) {
    server_.handle(add_entry("a", numbered("f", i), "x"));
    EXPECT_EQ(server_.take_new_entries().size(), 1u);
    EXPECT_EQ(server_.engine().scan_stats().last_pickup_scanned, 1u) << i;
  }
  // An empty pickup over a 500-entry history examines nothing.
  EXPECT_TRUE(server_.take_new_entries().empty());
  EXPECT_EQ(server_.engine().scan_stats().last_pickup_scanned, 0u);
  EXPECT_EQ(server_.entries().size(), 500u);
}

TEST_F(CncServerTest, PurgeCostTracksPurgedNotHistory) {
  for (int i = 0; i < 200; ++i) {
    server_.handle(add_entry("a", numbered("f", i), "x"));
  }
  server_.take_new_entries();
  // Nothing old enough: the prefix scan stops at the first young entry.
  EXPECT_EQ(server_.purge_retrieved(sim::kHour), 0u);
  EXPECT_EQ(server_.engine().scan_stats().last_purge_scanned, 1u);
  // Everything old enough: scanned == purged, and pending entries (after the
  // watermark) are never visited.
  server_.handle(add_entry("a", "pending", "x"));  // not retrieved
  EXPECT_EQ(server_.purge_retrieved(0), 200u);
  EXPECT_EQ(server_.engine().scan_stats().last_purge_scanned, 200u);
  ASSERT_EQ(server_.entries().size(), 1u);
  EXPECT_EQ(server_.entries()[0].data_name, "pending");
}

TEST_F(CncServerTest, AccessLogBoundedByHalvingRetention) {
  server_.set_access_log_cap(8);
  for (int i = 0; i < 9; ++i) {
    server_.handle(get_news("c-" + std::to_string(i)));
  }
  // The 9th line found the log full: the oldest half (+1) was shed, the
  // newest lines survive, and the loss is counted.
  EXPECT_EQ(server_.access_log().size(), 4u);
  EXPECT_EQ(server_.access_log_dropped(), 5u);
  EXPECT_NE(server_.access_log().back().find("client=c-8"), std::string::npos);

  // The wiper still destroys everything and resets the counter — the wipe
  // starts a fresh forensic window.
  server_.run_log_wiper();
  EXPECT_TRUE(server_.access_log().empty());
  EXPECT_EQ(server_.access_log_dropped(), 0u);
  EXPECT_TRUE(server_.logs_wiped());
}

TEST_F(CncServerTest, HandleBatchMatchesPerRequestLoop) {
  std::vector<net::HttpRequest> requests;
  server_.push_news({"mod-1", "bytes"});
  for (int i = 0; i < 20; ++i) {
    requests.push_back(get_news("c-" + std::to_string(i % 7)));
    if (i % 3 == 0) {
      requests.push_back(
          add_entry(numbered("c-", i % 7), numbered("f", i), "loot"));
    }
    if (i % 5 == 0) requests.push_back(net::HttpRequest{});  // 404s
  }

  // A twin server handles the same stream one request at a time.
  sim::Simulation twin_sim;
  AttackCenter twin_center(twin_sim, 0xabc);
  CncServer twin(twin_sim, "cc-0", {"trafficspot.com"},
                 twin_center.upload_key());
  twin.push_news({"mod-1", "bytes"});

  const auto batched = server_.handle_batch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto single = twin.handle(requests[i]);
    EXPECT_EQ(batched[i].status, single.status) << i;
    EXPECT_EQ(batched[i].body, single.body) << i;
  }
  EXPECT_EQ(server_.engine().response_chain(),
            twin.engine().response_chain());
  EXPECT_EQ(server_.engine().state_checksum(),
            twin.engine().state_checksum());
}

TEST_F(CncServerTest, ClientsTableRendersEngineStatesInContactOrder) {
  // "late-target" is first seen through an ad and phones home second;
  // "ghost" is only ever an ad target. Neither may claim a row before it
  // contacts the server: rows follow first contact, not first sight.
  server_.push_ad("late-target", {"mod", "bytes"});
  server_.push_ad("ghost", {"mod", "bytes"});
  EXPECT_TRUE(server_.known_clients().empty());
  EXPECT_EQ(server_.db().table_names(),
            (std::vector<std::string>{"panel_auth", "settings"}));
  server_.push_news({"news-1", "bytes"});
  simulation_.run_for(sim::kHour);
  server_.handle(get_news("a"));
  simulation_.run_for(sim::kHour);
  server_.handle(get_news("late-target"));
  server_.handle(add_entry("b", "doc", "x"));
  simulation_.run_for(sim::kHour);
  server_.handle(get_news("a"));

  const std::vector<std::string> order{"a", "late-target", "b"};
  EXPECT_EQ(server_.known_clients(), order);
  // Four states, three rows: ghost's state holds its ad and nothing else.
  EXPECT_EQ(server_.engine().clients().states().size(), 4u);
  EXPECT_EQ(server_.pending_ads(), 1u);

  Database db = server_.db();
  EXPECT_EQ(db.total_rows(), CncServer::kPanelRows + order.size());
  const auto settings = db.table("settings").all();
  ASSERT_EQ(settings.size(), 1u);
  EXPECT_EQ(settings[0].second->at("purge_minutes"), "30");
  const auto rows = db.table("clients").all();
  ASSERT_EQ(rows.size(), order.size());
  const std::vector<std::uint64_t> contacts{2, 1, 1};
  const std::vector<std::uint64_t> last_news_seq{1, 1, 0};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].first, i + 1) << order[i];
    const ClientState* s = server_.engine().clients().find(order[i]);
    ASSERT_NE(s, nullptr) << order[i];
    EXPECT_EQ(s->contacts, contacts[i]) << order[i];
    EXPECT_EQ(s->last_news_seq, last_news_seq[i]) << order[i];
    const Row expected{{"client_id", order[i]},
                       {"type", s->type},
                       {"first_seen", sim::format_time(s->first_seen)},
                       {"last_seen", sim::format_time(s->last_seen)},
                       {"contacts", std::to_string(s->contacts)},
                       {"last_news_seq", std::to_string(s->last_news_seq)}};
    EXPECT_EQ(*rows[i].second, expected) << order[i];
  }
  // "a" was first seen an hour in and last seen three hours in.
  EXPECT_EQ(rows[0].second->at("first_seen"), sim::format_time(sim::kHour));
  EXPECT_EQ(rows[0].second->at("last_seen"),
            sim::format_time(3 * sim::kHour));
  EXPECT_EQ(rows[0].second->at("type"), "FL");
}

TEST(DatabaseTest, InsertNumbersRowsPerTable) {
  Database db;
  db.table("clients").insert({{"client_id", "a"}});
  db.table("clients").insert({{"client_id", "b"}});
  db.table("settings").insert({{"k", "v"}});
  const auto rows = db.table("clients").all();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, 1u);
  EXPECT_EQ(rows[1].first, 2u);
  EXPECT_EQ(rows[1].second->at("client_id"), "b");
  // Ids count per table.
  EXPECT_EQ(db.table("settings").all().front().first, 1u);
  EXPECT_EQ(db.total_rows(), 3u);
  EXPECT_EQ(db.table_names(),
            (std::vector<std::string>{"clients", "settings"}));
}

TEST(DomainFleetTest, GeneratesRequestedShape) {
  sim::Rng rng(1234);
  const auto fleet = DomainFleet::generate(80, 22, rng);
  EXPECT_EQ(fleet.size(), 80u);
  std::set<std::string> servers, domains;
  for (const auto& r : fleet) {
    servers.insert(r.server_id);
    domains.insert(r.domain);
  }
  EXPECT_EQ(servers.size(), 22u);
  EXPECT_EQ(domains.size(), 80u);  // all unique
  EXPECT_GE(DomainFleet::registrar_count(fleet), 3u);
  EXPECT_GE(DomainFleet::country_count(fleet), 2u);
}

TEST(DomainFleetTest, DeterministicForSeed) {
  sim::Rng a(7), b(7);
  const auto f1 = DomainFleet::generate(10, 3, a);
  const auto f2 = DomainFleet::generate(10, 3, b);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(f1[i].domain, f2[i].domain);
    EXPECT_EQ(f1[i].registrant, f2[i].registrant);
  }
}

TEST(DomainFleetTest, DomainsOfFiltersByServer) {
  sim::Rng rng(9);
  const auto fleet = DomainFleet::generate(10, 2, rng);
  const auto d0 = DomainFleet::domains_of(fleet, "cc-0");
  const auto d1 = DomainFleet::domains_of(fleet, "cc-1");
  EXPECT_EQ(d0.size() + d1.size(), 10u);
  EXPECT_EQ(d0.size(), 5u);
}

}  // namespace
}  // namespace cyd::cnc
