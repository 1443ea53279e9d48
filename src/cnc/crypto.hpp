#pragma once
// Asymmetric encryption model for stolen data.
//
// On a Flame C&C server, uploads are encrypted with a public key whose
// private half only the attack *coordinator* holds — the server admin and
// the panel operator cannot read the loot (paper Fig. 5 discussion). As in
// the pki module, crypto is possession-based: decryption requires the
// CncKeyPair value, and ciphertext is an XOR stream keyed off the private
// scalar so holding only the public id is useless.
//
// All blobs encrypted to one key share one stream: each is XORed with it
// from offset 0, with no per-blob nonce, so two blobs under one key leak the
// XOR of their plaintexts. The model keeps this; a nonce would move every
// ciphertext byte that CncCryptoTest.CiphertextKnownAnswer pins.

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.hpp"

namespace cyd::cnc {

struct CncKeyPair {
  std::uint64_t public_id = 0;
  std::uint64_t private_scalar = 0;

  static CncKeyPair generate(std::uint64_t seed);
};

/// Public half, safe to bake into deployed servers/clients.
struct CncPublicKey {
  std::uint64_t public_id = 0;
  /// Key-wrapping value derived from the private scalar at provisioning
  /// time; computationally opaque (you cannot recover the scalar from it).
  std::uint64_t wrap = 0;
};

CncPublicKey public_half(const CncKeyPair& key);

struct EncryptedBlob {
  std::uint64_t key_id = 0;  // public id this blob is encrypted to
  common::Bytes ciphertext;

  common::Bytes serialize() const;
  static std::optional<EncryptedBlob> parse(std::string_view bytes);
};

/// Zero-copy view of a serialized blob: `ciphertext` aliases the wire buffer
/// and stays valid only as long as it does. The request pipeline validates
/// uploads through this without copying; only accepted entries materialize.
struct EncryptedBlobView {
  std::uint64_t key_id = 0;
  std::string_view ciphertext;

  EncryptedBlob materialize() const {
    return EncryptedBlob{key_id, common::Bytes(ciphertext)};
  }
};

/// Parses the ENC1 framing without copying the ciphertext. Same acceptance
/// set as EncryptedBlob::parse (which is implemented on top of this).
std::optional<EncryptedBlobView> parse_blob_view(std::string_view bytes);

/// Encrypts for the holder of the matching private key.
EncryptedBlob encrypt_for(const CncPublicKey& recipient,
                          std::string_view plaintext);

/// Succeeds only with the right private key.
std::optional<common::Bytes> decrypt(const CncKeyPair& key,
                                     const EncryptedBlob& blob);

}  // namespace cyd::cnc
