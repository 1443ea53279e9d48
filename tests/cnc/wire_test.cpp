// Wire-format tests for the zero-copy decode layer (cnc/wire.hpp).
//
// Two properties anchor the layer: (1) serialize/parse round-trips arbitrary
// payload lists, and (2) the view parsers accept and reject exactly the same
// inputs as the seed's owned parser — verified against a verbatim copy of
// that parser over the malformed-input corpus from the hardening pass plus
// randomized corruptions.

#include "cnc/wire.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "cnc/crypto.hpp"
#include "sim/rng.hpp"

namespace cyd::cnc {
namespace {

// The seed's throwing little-endian read, kept here so the reference parser
// below keeps its exact accept/reject semantics.
std::uint32_t get_u32(std::string_view data, std::size_t offset) {
  if (offset + 4 > data.size()) {
    throw std::out_of_range("get_u32: truncated buffer");
  }
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(data[offset + static_cast<std::size_t>(i)]);
  }
  return v;
}

// The seed's parse_payloads, kept verbatim as the reference implementation
// the zero-copy parser must agree with input-for-input.
std::vector<Payload> seed_parse_payloads(std::string_view bytes) {
  std::vector<Payload> out;
  if (bytes.size() < 8 || bytes.substr(0, 4) != "PLS1") return out;
  try {
    std::size_t off = 4;
    const std::uint32_t count = get_u32(bytes, off);
    off += 4;
    for (std::uint32_t i = 0; i < count; ++i) {
      Payload p;
      const std::uint32_t name_len = get_u32(bytes, off);
      off += 4;
      if (off + name_len > bytes.size()) return {};
      p.name = std::string(bytes.substr(off, name_len));
      off += name_len;
      const std::uint32_t data_len = get_u32(bytes, off);
      off += 4;
      if (off + data_len > bytes.size()) return {};
      p.data = common::Bytes(bytes.substr(off, data_len));
      off += data_len;
      out.push_back(std::move(p));
    }
  } catch (const std::out_of_range&) {
    return {};
  }
  return out;
}

std::vector<Payload> random_payloads(sim::Rng& rng, std::size_t count) {
  std::vector<Payload> out;
  for (std::size_t i = 0; i < count; ++i) {
    Payload p;
    // Sizes deliberately cover the degenerate cases: empty and 1-byte names
    // and bodies are as likely as anything else.
    const auto name_len = static_cast<std::size_t>(rng.uniform_int(0, 24));
    const auto data_len = static_cast<std::size_t>(rng.uniform_int(0, 64));
    for (std::size_t k = 0; k < name_len; ++k) {
      p.name.push_back(static_cast<char>(rng.uniform_int('a', 'z')));
    }
    p.data = common::random_bytes(rng, data_len);
    out.push_back(std::move(p));
  }
  return out;
}

void expect_parsers_agree(std::string_view bytes, const std::string& label) {
  const auto seed = seed_parse_payloads(bytes);
  const auto owned = parse_payloads(bytes);
  std::vector<PayloadView> views;
  const bool view_ok = parse_payload_views(bytes, views);

  ASSERT_EQ(owned.size(), seed.size()) << label;
  for (std::size_t i = 0; i < seed.size(); ++i) {
    EXPECT_EQ(owned[i].name, seed[i].name) << label;
    EXPECT_EQ(owned[i].data, seed[i].data) << label;
  }
  // The view parser's accept/reject decision must match too. The only
  // asymmetry by design: a *valid* empty list is "true, no views" for the
  // view parser but indistinguishable from a reject in the owned API.
  if (seed.empty()) {
    EXPECT_TRUE(views.empty()) << label;
  } else {
    ASSERT_TRUE(view_ok) << label;
    ASSERT_EQ(views.size(), seed.size()) << label;
    for (std::size_t i = 0; i < seed.size(); ++i) {
      EXPECT_EQ(views[i].name, seed[i].name) << label;
      EXPECT_EQ(views[i].data, seed[i].data) << label;
    }
  }
}

TEST(WireTest, PayloadRoundTripRandomized) {
  sim::Rng rng(0x9a7e57);
  for (int iter = 0; iter < 200; ++iter) {
    const auto count = static_cast<std::size_t>(rng.uniform_int(0, 8));
    const auto payloads = random_payloads(rng, count);
    const common::Bytes wire = serialize_payloads(payloads);

    const auto parsed = parse_payloads(wire);
    ASSERT_EQ(parsed.size(), payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_EQ(parsed[i].name, payloads[i].name);
      EXPECT_EQ(parsed[i].data, payloads[i].data);
    }

    std::vector<PayloadView> views;
    ASSERT_TRUE(parse_payload_views(wire, views));
    ASSERT_EQ(views.size(), payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_EQ(views[i].name, payloads[i].name);
      EXPECT_EQ(views[i].data, payloads[i].data);
      const Payload owned = views[i].materialize();
      EXPECT_EQ(owned.name, payloads[i].name);
      EXPECT_EQ(owned.data, payloads[i].data);
    }
  }
}

TEST(WireTest, PayloadRoundTripDegenerateSizes) {
  // Explicit corners on top of the randomized sweep: empty list, empty
  // name/data, and 1-byte name/data.
  for (const std::vector<Payload>& payloads :
       {std::vector<Payload>{},
        std::vector<Payload>{{"", ""}},
        std::vector<Payload>{{"a", ""}},
        std::vector<Payload>{{"", "x"}},
        std::vector<Payload>{{"a", "x"}, {"", ""}, {"b", "y"}}}) {
    const common::Bytes wire = serialize_payloads(payloads);
    const auto parsed = parse_payloads(wire);
    ASSERT_EQ(parsed.size(), payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_EQ(parsed[i].name, payloads[i].name);
      EXPECT_EQ(parsed[i].data, payloads[i].data);
    }
    std::vector<PayloadView> views;
    EXPECT_TRUE(parse_payload_views(wire, views));
    EXPECT_EQ(views.size(), payloads.size());
  }
}

TEST(WireTest, ViewParserMatchesSeedParserOnMalformedCorpus) {
  // The corpus from the malformed-input hardening pass: truncations at every
  // prefix, a lying count, and a name length far past the buffer.
  const common::Bytes good =
      serialize_payloads({{"module-a", "0123456789"}, {"b", "x"}});
  for (std::size_t cut = 0; cut <= good.size(); ++cut) {
    expect_parsers_agree(std::string_view(good).substr(0, cut),
                         "cut@" + std::to_string(cut));
  }
  common::Bytes lying = good;
  lying[4] = 3;
  expect_parsers_agree(lying, "lying-count");
  common::Bytes huge("PLS1");
  common::put_u32(huge, 1);
  common::put_u32(huge, 0xffffffffu);
  huge.append("abc");
  expect_parsers_agree(huge, "huge-name-len");
  expect_parsers_agree("garbage", "garbage");
  expect_parsers_agree("", "empty");
  expect_parsers_agree("PLS1", "magic-only");
}

TEST(WireTest, ViewParserMatchesSeedParserUnderRandomCorruption) {
  sim::Rng rng(0xc0de);
  for (int iter = 0; iter < 300; ++iter) {
    const auto payloads =
        random_payloads(rng, static_cast<std::size_t>(rng.uniform_int(1, 4)));
    common::Bytes wire = serialize_payloads(payloads);
    // Corrupt 1-4 random bytes (often length fields) and/or truncate.
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int f = 0; f < flips && !wire.empty(); ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
      wire[pos] = static_cast<char>(rng.uniform_int(0, 255));
    }
    if (rng.bernoulli(0.3)) {
      wire.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(wire.size()))));
    }
    expect_parsers_agree(wire, "iter " + std::to_string(iter));
  }
}

TEST(WireTest, BlobViewMatchesOwnedParse) {
  const auto pair = CncKeyPair::generate(0xfee1);
  const EncryptedBlob blob = encrypt_for(public_half(pair), "stolen docs");
  const common::Bytes wire = blob.serialize();
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    const std::string_view slice = std::string_view(wire).substr(0, cut);
    const auto owned = EncryptedBlob::parse(slice);
    const auto view = parse_blob_view(slice);
    ASSERT_EQ(owned.has_value(), view.has_value()) << cut;
    if (owned) {
      EXPECT_EQ(view->key_id, owned->key_id);
      EXPECT_EQ(view->ciphertext, owned->ciphertext);
      const EncryptedBlob copy = view->materialize();
      EXPECT_EQ(copy.key_id, owned->key_id);
      EXPECT_EQ(copy.ciphertext, owned->ciphertext);
    }
  }
}

TEST(WireTest, EntryUploadViewAliasesBody) {
  const auto pair = CncKeyPair::generate(0xfee2);
  const EncryptedBlob blob = encrypt_for(public_half(pair), "contents");
  const common::Bytes body = serialize_entry_upload("doc.7z", blob);
  const auto view = parse_entry_upload_view(body);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->data_name, "doc.7z");
  EXPECT_EQ(view->blob.key_id, blob.key_id);
  EXPECT_EQ(view->blob.ciphertext, blob.ciphertext);
  // Zero-copy: the views point into the body buffer itself.
  EXPECT_GE(view->data_name.data(), body.data());
  EXPECT_LT(view->data_name.data(), body.data() + body.size());
  EXPECT_GE(view->blob.ciphertext.data(), body.data());

  // Truncations inside the framed prefix are rejected.
  const std::size_t framed = 8 + std::string("doc.7z").size() + 12;
  for (std::size_t cut = 0; cut < framed; ++cut) {
    EXPECT_FALSE(
        parse_entry_upload_view(std::string_view(body).substr(0, cut))
            .has_value())
        << cut;
  }
}

TEST(WireTest, DecodeRequestValidatesBeforeDispatch) {
  net::HttpRequest r;
  r.path = "/other";
  EXPECT_EQ(decode_request(r).verb, RequestVerb::kInvalid);
  EXPECT_EQ(decode_request(r).error_status, 404);

  r.path = "/newsforyou";
  EXPECT_EQ(decode_request(r).error_status, 400);  // no cmd
  r.params = {{"cmd", "DANCE"}};
  EXPECT_EQ(decode_request(r).error_status, 400);  // unknown cmd
  r.params = {{"cmd", "GET_NEWS"}};
  EXPECT_EQ(decode_request(r).error_status, 400);  // no client

  r.params = {{"cmd", "GET_NEWS"}, {"client", "v-1"}};
  DecodedRequest d = decode_request(r);
  EXPECT_EQ(d.verb, RequestVerb::kGetNews);
  EXPECT_EQ(d.client, "v-1");
  EXPECT_EQ(d.type, kClientTypeFl);  // type defaults to FL

  r.params = {{"cmd", "GET_NEWS"}, {"client", "v-1"}, {"type", "SPE"}};
  EXPECT_EQ(decode_request(r).type, "SPE");

  // ADD_ENTRY validates the body before reporting a verb at all — exactly
  // the seed's ordering (a malformed upload never registers the client).
  r.params = {{"cmd", "ADD_ENTRY"}, {"client", "v-1"}};
  r.body = "not an upload";
  d = decode_request(r);
  EXPECT_EQ(d.verb, RequestVerb::kInvalid);
  EXPECT_EQ(d.error_status, 400);

  const auto pair = CncKeyPair::generate(0xfee3);
  r.body = serialize_entry_upload("x.bin",
                                  encrypt_for(public_half(pair), "data"));
  d = decode_request(r);
  EXPECT_EQ(d.verb, RequestVerb::kAddEntry);
  EXPECT_EQ(d.upload.data_name, "x.bin");
}

}  // namespace
}  // namespace cyd::cnc
