#pragma once
// Golden template images for archetype host fleets.
//
// A HostImage is the immutable baseline state of one machine archetype —
// filesystem tree, registry hive, certificate and trust stores — built once
// and shared by every host stamped from it. Image-backed hosts layer their
// Volume/Registry/CertStore/TrustStore copy-on-write over the image
// (set_base), so a 100k-host fleet costs one image plus 100k small deltas
// instead of 100k full Windows trees. This is what lifts the fig/trend
// worlds from 1:30 scale to the paper's real campaign sizes (Stuxnet's
// ~100k infections, the full 9,000-centrifuge Natanz cascade hall).
//
// Every image starts from the write_windows_skeleton a materialized Host
// constructor also writes; archetype images add populate_archetype on top,
// which writes the same bytes every time. HostTwinTest relies on a
// materialized host and an image-backed host starting from identical state.

#include <cstdint>
#include <memory>
#include <string>

#include "pki/certificate.hpp"
#include "pki/trust.hpp"
#include "winsys/filesystem.hpp"
#include "winsys/host.hpp"
#include "winsys/registry.hpp"

namespace cyd::winsys {

/// Machine archetypes the campaign fleets are stamped from: the paper's
/// victim offices and the Step 7 engineering stations Stuxnet hunted.
enum class HostArchetype : std::uint8_t {
  kOfficePc,
  kEngineeringStation,
};

const char* to_string(HostArchetype a);

/// Default OS for an archetype (engineering stations ran the older 32-bit
/// systems the exploits targeted).
OsVersion default_os(HostArchetype a);

/// One immutable template image. Construct through HostImage::Builder; the
/// shared_ptr<const ...> members are handed to each stamped host's
/// set_base(), so the image must never change after build().
class HostImage {
 public:
  /// Accumulates image content through the ordinary FileSystem/Registry
  /// APIs, starting from write_windows_skeleton on a fresh 'c' volume, then
  /// freezes it with build().
  class Builder {
   public:
    explicit Builder(OsVersion os);

    FileSystem& fs() { return fs_; }
    Registry& registry() { return registry_; }
    pki::CertStore& cert_store() { return certs_; }
    pki::TrustStore& trust_store() { return trust_; }

    /// Freezes the accumulated state into an immutable image. The builder
    /// is spent afterwards.
    std::shared_ptr<const HostImage> build();

   private:
    OsVersion os_;
    FileSystem fs_;
    Registry registry_;
    pki::CertStore certs_;
    pki::TrustStore trust_;
  };

  OsVersion os() const { return os_; }
  const std::shared_ptr<const Volume>& system_volume() const {
    return volume_;
  }
  const std::shared_ptr<const Registry>& registry() const {
    return registry_;
  }
  const std::shared_ptr<const pki::CertStore>& cert_store() const {
    return certs_;
  }
  const std::shared_ptr<const pki::TrustStore>& trust_store() const {
    return trust_;
  }
  /// Files in the image tree (for bench reporting).
  std::size_t file_count() const { return volume_->files().delta_size(); }

 private:
  HostImage() = default;

  OsVersion os_ = OsVersion::kWin7;
  std::shared_ptr<const Volume> volume_;
  std::shared_ptr<const Registry> registry_;
  std::shared_ptr<const pki::CertStore> certs_;
  std::shared_ptr<const pki::TrustStore> trust_;
};

/// Writes the archetype's baseline state over the Windows skeleton in
/// fs/registry: a stock OS payload and the archetype's software footprint.
/// Deterministic. Shared by archetype image builds and the materialized
/// hosts the tests compare image-backed hosts against.
void populate_archetype(HostArchetype a, FileSystem& fs, Registry& registry);

/// Builds the standard image for an archetype: populate_archetype content at
/// the archetype's default OS. PKI provisioning is the caller's business
/// (core::World bakes the Microsoft landscape in via the Builder's stores).
std::shared_ptr<const HostImage> make_archetype_image(HostArchetype a);

}  // namespace cyd::winsys
