#include "cnc/wire.hpp"

namespace cyd::cnc {

void append_payload(common::Bytes& out, const Payload& p) {
  common::put_field(out, p.name);
  common::put_field(out, p.data);
}

common::Bytes serialize_payloads(const std::vector<Payload>& payloads) {
  common::Bytes out("PLS1");
  common::put_u32(out, static_cast<std::uint32_t>(payloads.size()));
  for (const auto& p : payloads) append_payload(out, p);
  return out;
}

bool parse_payload_views(std::string_view bytes,
                         std::vector<PayloadView>& out) {
  out.clear();
  common::ByteReader in(bytes);
  in.magic("PLS1");
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; i < count && in.ok(); ++i) {
    const std::string_view name = in.field();
    out.push_back(PayloadView{name, in.field()});
  }
  if (!in.ok()) out.clear();
  return in.ok();
}

std::vector<Payload> parse_payloads(std::string_view bytes) {
  std::vector<PayloadView> views;
  std::vector<Payload> out;
  if (!parse_payload_views(bytes, views)) return out;
  out.reserve(views.size());
  for (const auto& view : views) out.push_back(view.materialize());
  return out;
}

common::Bytes serialize_entry_upload(const std::string& data_name,
                                     const EncryptedBlob& blob) {
  common::Bytes out("UPL1");
  common::put_field(out, data_name);
  out.append(blob.serialize());
  return out;
}

std::optional<EntryUploadView> parse_entry_upload_view(std::string_view body) {
  common::ByteReader in(body);
  in.magic("UPL1");
  const std::string_view data_name = in.field();
  const auto blob = parse_blob_view(in.rest());
  if (!in.ok() || !blob) return std::nullopt;
  return EntryUploadView{data_name, *blob};
}

DecodedRequest decode_request(const net::HttpRequest& request) {
  DecodedRequest d;
  if (request.path != "/newsforyou") {
    d.error_status = 404;
    return d;
  }
  const auto cmd = request.params.find("cmd");
  if (cmd == request.params.end()) {
    d.error_status = 400;
    return d;
  }
  const bool get_news = cmd->second == "GET_NEWS";
  const bool add_entry = !get_news && cmd->second == "ADD_ENTRY";
  if (!get_news && !add_entry) {
    d.error_status = 400;
    return d;
  }
  const auto client = request.params.find("client");
  if (client == request.params.end()) {
    d.error_status = 400;
    return d;
  }
  d.client = client->second;
  const auto type = request.params.find("type");
  d.type = type == request.params.end() ? std::string_view(kClientTypeFl)
                                        : std::string_view(type->second);
  if (add_entry) {
    const auto upload = parse_entry_upload_view(request.body);
    if (!upload) {
      d.error_status = 400;
      return d;
    }
    d.upload = *upload;
    d.verb = RequestVerb::kAddEntry;
  } else {
    d.verb = RequestVerb::kGetNews;
  }
  return d;
}

}  // namespace cyd::cnc
