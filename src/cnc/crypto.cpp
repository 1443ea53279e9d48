#include "cnc/crypto.hpp"

#include "sim/rng.hpp"

namespace cyd::cnc {
namespace {

/// `data` XORed with the key's stream from offset 0, in one copy. The stream
/// is seeded from the wrap value, which derives from the *private* scalar,
/// so at the model level producing it requires key possession; encrypt_for
/// gets the same stream through the wrap provisioned into the public half.
/// Encryption and decryption are the same call.
common::Bytes xor_with_stream(std::uint64_t wrap, std::string_view data) {
  sim::Rng rng(wrap ^ 0xc0dec0dec0dec0deULL);
  common::Bytes out(data);
  common::xor_random_bytes(rng, out);
  return out;
}

std::uint64_t derive_public(std::uint64_t private_scalar) {
  common::Bytes material("cnc-pub");
  common::put_u64(material, private_scalar);
  return common::fnv1a64(material);
}

std::uint64_t derive_wrap(std::uint64_t private_scalar) {
  common::Bytes material("cnc-wrap");
  common::put_u64(material, private_scalar);
  return common::fnv1a64(material);
}

}  // namespace

CncKeyPair CncKeyPair::generate(std::uint64_t seed) {
  CncKeyPair key;
  common::Bytes material("cnc-priv");
  common::put_u64(material, seed);
  key.private_scalar = common::fnv1a64(material);
  key.public_id = derive_public(key.private_scalar);
  return key;
}

CncPublicKey public_half(const CncKeyPair& key) {
  return CncPublicKey{key.public_id, derive_wrap(key.private_scalar)};
}

common::Bytes EncryptedBlob::serialize() const {
  common::Bytes out("ENC1");
  common::put_u64(out, key_id);
  out.append(ciphertext);
  return out;
}

std::optional<EncryptedBlob> EncryptedBlob::parse(std::string_view bytes) {
  const auto view = parse_blob_view(bytes);
  if (!view) return std::nullopt;
  return view->materialize();
}

std::optional<EncryptedBlobView> parse_blob_view(std::string_view bytes) {
  common::ByteReader in(bytes);
  in.magic("ENC1");
  EncryptedBlobView view;
  view.key_id = in.u64();
  view.ciphertext = in.rest();
  if (!in.ok()) return std::nullopt;
  return view;
}

EncryptedBlob encrypt_for(const CncPublicKey& recipient,
                          std::string_view plaintext) {
  EncryptedBlob blob;
  blob.key_id = recipient.public_id;
  blob.ciphertext = xor_with_stream(recipient.wrap, plaintext);
  return blob;
}

std::optional<common::Bytes> decrypt(const CncKeyPair& key,
                                     const EncryptedBlob& blob) {
  if (derive_public(key.private_scalar) != blob.key_id) return std::nullopt;
  return xor_with_stream(derive_wrap(key.private_scalar), blob.ciphertext);
}

}  // namespace cyd::cnc
