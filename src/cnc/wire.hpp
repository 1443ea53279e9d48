#pragma once
// Wire formats of the newsforyou dead-drop, plus the zero-copy decode layer.
//
// Two framings travel over the C&C HTTP endpoint: PLS1 (a counted list of
// named payloads, the GET_NEWS response) and UPL1 (one named encrypted blob,
// the ADD_ENTRY request body). Both use the record layout of
// common/bytes.hpp; append_payload is the one writer of a PLS1 entry, used
// by serialize_payloads and by the server's GET_NEWS body alike. Both
// framings exist in an owned form (Payload — what clients and the attack
// center hold on to) and a view form (PayloadView / EntryUploadView —
// string_view slices over the wire buffer, valid only as long as it is). The
// server's request pipeline validates and dispatches entirely on views;
// bytes are copied exactly once, when an accepted upload is stored as an
// Entry. The view parsers accept exactly the same inputs as the owned
// parsers retained from the malformed-input hardening pass — the
// equivalence is property-tested over that corpus.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cnc/crypto.hpp"
#include "common/bytes.hpp"
#include "net/message.hpp"
#include "sim/time.hpp"

namespace cyd::cnc {

/// Client type tags observed on real Flame infrastructure: Flame itself was
/// only one of four supported client families.
inline constexpr const char* kClientTypeFl = "FL";
inline constexpr const char* kClientTypeSp = "SP";
inline constexpr const char* kClientTypeSpe = "SPE";
inline constexpr const char* kClientTypeIp = "IP";

struct Payload {
  std::string name;
  common::Bytes data;
};

/// Zero-copy slice of one payload inside a PLS1 buffer.
struct PayloadView {
  std::string_view name;
  std::string_view data;

  Payload materialize() const {
    return Payload{std::string(name), common::Bytes(data)};
  }
};

struct Entry {
  std::uint64_t id = 0;
  std::string client_id;
  std::string client_type;
  std::string data_name;
  EncryptedBlob blob;
  sim::TimePoint received_at = 0;
  bool retrieved = false;  // picked up by the attack center
};

// --- PLS1: counted payload list ---
/// Appends one PLS1 entry (the name field, then the data field) to `out`.
void append_payload(common::Bytes& out, const Payload& p);
common::Bytes serialize_payloads(const std::vector<Payload>& payloads);
/// Owned parse; empty vector on any malformed input (and for a valid empty
/// list — the callers treat both as "nothing delivered").
std::vector<Payload> parse_payloads(std::string_view bytes);
/// Zero-copy parse into `out` (cleared first). Returns false — with `out`
/// empty — on exactly the inputs parse_payloads rejects.
bool parse_payload_views(std::string_view bytes, std::vector<PayloadView>& out);

// --- UPL1: one named encrypted upload ---
common::Bytes serialize_entry_upload(const std::string& data_name,
                                     const EncryptedBlob& blob);
/// Zero-copy view of an UPL1 body: the name and ciphertext alias the buffer.
struct EntryUploadView {
  std::string_view data_name;
  EncryptedBlobView blob;
};
std::optional<EntryUploadView> parse_entry_upload_view(std::string_view body);

// --- request decode ---
enum class RequestVerb : std::uint8_t {
  kInvalid,   ///< rejected; DecodedRequest::error_status says how
  kGetNews,
  kAddEntry,
};

/// A fully validated request, decoded without copying: `client`, `type` and
/// the upload views alias the HttpRequest they were decoded from. `verb` is
/// kGetNews/kAddEntry only when every check the handler needs has already
/// passed (path, cmd, client param, and — for ADD_ENTRY — the UPL1 body).
struct DecodedRequest {
  RequestVerb verb = RequestVerb::kInvalid;
  int error_status = 0;  ///< 404 or 400 when verb == kInvalid
  std::string_view client;
  std::string_view type;  ///< defaults to kClientTypeFl
  EntryUploadView upload;  ///< ADD_ENTRY only
};

DecodedRequest decode_request(const net::HttpRequest& request);

}  // namespace cyd::cnc
