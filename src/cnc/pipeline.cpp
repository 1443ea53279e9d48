#include "cnc/pipeline.hpp"

#include <algorithm>

#include "common/bytes.hpp"

namespace cyd::cnc {

std::uint64_t checksum_mix_bytes(std::uint64_t h, std::string_view bytes) {
  // Length first so "ab"+"c" and "a"+"bc" digest differently even though the
  // concatenated FNV would not distinguish the splits.
  return checksum_mix(checksum_mix(h, bytes.size()), common::fnv1a64(bytes));
}

std::uint64_t RequestEngine::fold_response(std::uint64_t h,
                                           const net::HttpResponse& response) {
  h = checksum_mix(h, static_cast<std::uint64_t>(response.status));
  return checksum_mix_bytes(h, response.body);
}

void RequestEngine::log_access(sim::TimePoint now, std::string_view verb,
                               std::string_view client, std::string_view key,
                               std::string_view value) {
  if (!logging_enabled_) return;
  if (access_log_.size() >= access_log_cap_ && access_log_cap_ > 0) {
    // Halving retention (Host::log_event pattern): shed the oldest half so a
    // beacon storm cannot grow the log without bound, keep the newest lines
    // a forensic pass actually wants, and count what was lost.
    const std::size_t drop = access_log_.size() / 2 + 1;
    access_log_.erase(access_log_.begin(),
                      access_log_.begin() + static_cast<std::ptrdiff_t>(drop));
    access_log_dropped_ += drop;
  }
  std::string line;
  line.reserve(32 + verb.size() + client.size() + key.size() + value.size());
  sim::format_time_to(line, now);
  line += ' ';
  line += verb;
  line += " client=";
  line += client;
  line += ' ';
  line += key;
  line += '=';
  line += value;
  access_log_.push_back(std::move(line));
}

ClientState& RequestEngine::contact(std::string_view client_id,
                                    std::string_view type,
                                    sim::TimePoint now) {
  const std::uint32_t index = index_.get_or_create(client_id);
  ClientState& s = index_.state(index);
  if (s.contacts == 0) {
    // First actual contact — an earlier push_ad may have created the state,
    // but like the seed's database it gets a row (and a type) only now.
    s.type.assign(type);
    s.first_seen = now;
    contact_order_.push_back(index);
  }
  s.last_seen = now;
  ++s.contacts;
  return s;
}

net::HttpResponse RequestEngine::do_get_news(const DecodedRequest& d,
                                             sim::TimePoint now,
                                             Outcome& outcome) {
  ++counters_.get_news;
  log_access(now, "GET_NEWS", d.client, "type", d.type);
  ClientState& s = contact(d.client, d.type, now);

  // Broadcast news the client has not seen yet: news_ is sorted by seq (the
  // seqs are handed out monotonically), so the unseen suffix starts at the
  // first seq > last_news_seq.
  const auto news_begin = std::lower_bound(
      news_.begin(), news_.end(), s.last_news_seq,
      [](const auto& entry, std::uint64_t seen) { return entry.first <= seen; });
  const std::size_t ads_n = s.ads.size();
  const std::size_t news_n =
      static_cast<std::size_t>(news_.end() - news_begin);

  // Serialize straight into the response body — no intermediate `delivery`
  // vector, no payload copies for the ads. Targeted commands first, each
  // delivered exactly once, matching the seed's ordering byte for byte.
  common::Bytes body("PLS1");
  common::put_u32(body, static_cast<std::uint32_t>(ads_n + news_n));
  for (const Payload& p : s.ads) append_payload(body, p);
  for (auto it = news_begin; it != news_.end(); ++it) {
    append_payload(body, it->second);
  }

  counters_.pending_ads -= ads_n;
  s.ads.clear();
  if (news_n > 0) s.last_news_seq = news_.back().first;

  outcome.client = d.client;
  outcome.delivered = ads_n + news_n;
  return net::HttpResponse{200, std::move(body)};
}

net::HttpResponse RequestEngine::do_add_entry(const DecodedRequest& d,
                                              sim::TimePoint now,
                                              Outcome& outcome) {
  // decode_request already validated the UPL1 body, so reaching here means
  // the upload is accepted — the one place the wire bytes are copied.
  contact(d.client, d.type, now);
  Entry entry;
  entry.id = next_entry_id_++;
  entry.client_id.assign(d.client);
  entry.client_type.assign(d.type);
  entry.data_name.assign(d.upload.data_name);
  entry.blob = d.upload.blob.materialize();
  entry.received_at = now;
  counters_.upload_bytes += entry.blob.ciphertext.size();
  ++counters_.uploads;
  entries_.push_back(std::move(entry));

  log_access(now, "ADD_ENTRY", d.client, "name", entries_.back().data_name);
  outcome.client = d.client;
  outcome.data_name = entries_.back().data_name;
  return net::HttpResponse{200, "OK"};
}

net::HttpResponse RequestEngine::handle(const net::HttpRequest& request,
                                        sim::TimePoint now,
                                        Outcome* outcome) {
  Outcome local;
  Outcome& o = outcome != nullptr ? *outcome : local;
  o = Outcome{};
  const DecodedRequest d = decode_request(request);
  o.verb = d.verb;
  net::HttpResponse response;
  switch (d.verb) {
    case RequestVerb::kGetNews:
      response = do_get_news(d, now, o);
      break;
    case RequestVerb::kAddEntry:
      response = do_add_entry(d, now, o);
      break;
    case RequestVerb::kInvalid:
      ++counters_.rejected;
      response = net::HttpResponse{d.error_status, {}};
      break;
  }
  response_chain_ = fold_response(response_chain_, response);
  return response;
}

std::vector<net::HttpResponse> RequestEngine::handle_batch(
    std::span<const net::HttpRequest> requests, sim::TimePoint now) {
  std::vector<net::HttpResponse> responses;
  responses.reserve(requests.size());
  for (const net::HttpRequest& request : requests) {
    responses.push_back(handle(request, now));
  }
  return responses;
}

void RequestEngine::push_ad(std::string_view client_id, Payload payload) {
  const std::uint32_t index = index_.get_or_create(client_id);
  index_.state(index).ads.push_back(std::move(payload));
  ++counters_.pending_ads;
}

void RequestEngine::push_news(Payload payload) {
  news_.emplace_back(next_news_seq_++, std::move(payload));
}

std::vector<Entry> RequestEngine::take_new_entries() {
  // Everything before the watermark was returned by an earlier call; only
  // the new suffix is visited, so pickup cost tracks pending work, not the
  // server's full upload history.
  const std::size_t scanned = entries_.size() - retrieved_mark_;
  scan_stats_.last_pickup_scanned = scanned;
  scan_stats_.total_pickup_scanned += scanned;
  std::vector<Entry> out;
  out.reserve(scanned);
  for (std::size_t i = retrieved_mark_; i < entries_.size(); ++i) {
    entries_[i].retrieved = true;
    out.push_back(entries_[i]);
  }
  retrieved_mark_ = entries_.size();
  return out;
}

std::size_t RequestEngine::purge_retrieved(sim::TimePoint cutoff) {
  // Invariant: entries_[0..retrieved_mark_) are retrieved and received_at is
  // nondecreasing (simulated time is monotonic, and retrieval happens in
  // arrival order). The purgeable set is therefore a prefix — the scan stops
  // at the first young entry and never touches pending uploads.
  std::size_t k = 0;
  while (k < retrieved_mark_ && entries_[k].received_at <= cutoff) ++k;
  const std::size_t scanned = k < retrieved_mark_ ? k + 1 : k;
  scan_stats_.last_purge_scanned = scanned;
  scan_stats_.total_purge_scanned += scanned;
  if (k > 0) {
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(k));
    retrieved_mark_ -= k;
  }
  return k;
}

std::uint64_t RequestEngine::state_checksum() const {
  std::uint64_t h = kChecksumBasis;
  h = checksum_mix(h, counters_.get_news);
  h = checksum_mix(h, counters_.uploads);
  h = checksum_mix(h, counters_.upload_bytes);
  h = checksum_mix(h, counters_.rejected);
  h = checksum_mix(h, counters_.pending_ads);
  // Client states in first-contact order — the order of the `clients`
  // table's rows, so the digest does not depend on hash-map layout.
  for_each_contact([&h](std::string_view id, const ClientState& s) {
    h = checksum_mix_bytes(h, id);
    h = checksum_mix_bytes(h, s.type);
    h = checksum_mix(h, s.contacts);
    h = checksum_mix(h, s.last_news_seq);
  });
  for (const Entry& e : entries_) {
    h = checksum_mix_bytes(h, e.client_id);
    h = checksum_mix_bytes(h, e.data_name);
    h = checksum_mix(h, e.blob.key_id);
    h = checksum_mix_bytes(h, e.blob.ciphertext);
    h = checksum_mix(h, static_cast<std::uint64_t>(e.received_at));
    h = checksum_mix(h, e.retrieved ? 1u : 0u);
    h = checksum_mix(h, e.id);
  }
  h = checksum_mix(h, retrieved_mark_);
  h = checksum_mix(h, news_.size());
  h = checksum_mix(h, next_news_seq_);
  h = checksum_mix(h, next_entry_id_);
  return h;
}

StormMerge merge_storm(std::span<const RequestEngine> shards) {
  StormMerge merge;
  for (const RequestEngine& shard : shards) {
    const RequestEngine::Counters& c = shard.counters();
    merge.totals.get_news += c.get_news;
    merge.totals.uploads += c.uploads;
    merge.totals.upload_bytes += c.upload_bytes;
    merge.totals.rejected += c.rejected;
    merge.totals.pending_ads += c.pending_ads;
    merge.clients += shard.contacted_clients();
    merge.entries += shard.entries().size();
    merge.response_checksum =
        checksum_mix(merge.response_checksum, shard.response_chain());
    merge.state_checksum =
        checksum_mix(merge.state_checksum, shard.state_checksum());
  }
  return merge;
}

}  // namespace cyd::cnc
