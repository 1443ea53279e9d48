// TREND-C — §V-C "Certified Malwares".
//
// Three distinct PKI abuses power the campaign's kernel access:
//   Stuxnet : drivers signed with *stolen* JMicron/Realtek keys,
//   Flame   : a *forged* code-signing cert off the weak-hash TS chain,
//   Shamoon : a *legitimately signed* third-party raw-disk driver (Eldos).
// The bench builds the full matrix: driver provenance x host signing policy
// x revocation state, and prints whether the kernel lets each one in.

#include "bench_util.hpp"
#include "pki/forgery.hpp"
#include "pki/licensing.hpp"
#include "pki/signing.hpp"
#include "sim/sweep.hpp"
#include "winsys/host.hpp"
#include "winsys/host_image.hpp"

using namespace cyd;

namespace {

struct DriverCase {
  std::string label;
  pe::Image image;
};

void reproduce() {
  pki::MicrosoftPki ms(0, 0xc3);
  auto vendor_root = pki::SigningIdentity::make(
      "Realtek Semiconductor Corp", 0x2ea1);
  auto eldos = pki::SigningIdentity::make("EldoS Corporation", 0xe1d0);

  auto make_driver = [](const char* filename) {
    return pe::Builder{}
        .program("bench.driver")
        .filename(filename)
        .section(".text", std::string("driver body of ") + filename, true)
        .build();
  };

  std::vector<DriverCase> drivers;
  drivers.push_back({"unsigned rootkit driver", make_driver("rootkit.sys")});
  {
    auto image = make_driver("mrxcls.sys");
    pki::sign_image(image, vendor_root.cert, vendor_root.key);  // stolen key
    drivers.push_back({"stolen Realtek certificate", std::move(image)});
  }
  {
    auto activation = ms.activate_license_server("Victim Org");
    auto forged =
        pki::forge_code_signing_cert(activation.license_cert, "MS", 0xf0);
    auto image = make_driver("flame.sys");
    pki::sign_image(image, forged->certificate, forged->private_key);
    drivers.push_back({"forged MS (weak-hash) certificate", std::move(image)});
  }
  {
    auto image = make_driver("drdisk.sys");
    pki::sign_image(image, eldos.cert, eldos.key);
    drivers.push_back({"legit Eldos raw-disk driver", std::move(image)});
  }
  {
    auto image = make_driver("mrxcls.sys");
    pki::sign_image(image, vendor_root.cert, vendor_root.key);
    auto* section = &image.sections[0];
    section->data += " [re-patched after signing]";
    drivers.push_back({"stolen cert, tampered post-sign", std::move(image)});
  }

  struct Posture {
    std::string label;
    winsys::DriverPolicy policy;
    bool revoke_abused;      // JMicron/Realtek certs pulled, advisory applied
    bool reject_weak_hash;
  } postures[] = {
      {"WinXP-era (unsigned ok)", winsys::DriverPolicy::kAllowUnsigned, false,
       false},
      {"Win7-x64 (signature enforced)",
       winsys::DriverPolicy::kRequireValidSignature, false, false},
      {"post-incident (revocations applied)",
       winsys::DriverPolicy::kRequireValidSignature, true, false},
      {"hardened (also rejects weak hash)",
       winsys::DriverPolicy::kRequireValidSignature, true, true},
  };

  benchutil::section("driver-load matrix (provenance x host posture)");
  std::printf("%-36s", "driver \\ posture");
  for (const auto& posture : postures) std::printf("| %-22.22s ", posture.label.c_str());
  std::printf("\n");

  // One parallel run per driver row. Each run builds its own Simulation,
  // registry, probe image and probe hosts; the PKI identities are shared
  // read-only. The image trusts the Microsoft, vendor and EldoS roots; each
  // posture's edits land in its probe's delta.
  const auto rows = sim::Sweep::map_items(
      drivers, [&](const DriverCase& driver_case) {
        sim::Simulation simulation;
        winsys::ProgramRegistry programs;
        winsys::HostImage::Builder builder(winsys::OsVersion::kWin7);
        ms.install_into(builder.cert_store());
        ms.anchor_root(builder.trust_store());
        vendor_root.trust_on(builder.cert_store(), builder.trust_store());
        eldos.trust_on(builder.cert_store(), builder.trust_store());
        const auto image = builder.build();
        std::vector<std::string> verdicts;
        for (const auto& posture : postures) {
          winsys::Host host(simulation, programs, "probe", image);
          host.set_driver_policy(posture.policy);
          if (posture.revoke_abused) {
            host.trust_store().mark_untrusted(vendor_root.cert.serial);
            ms.apply_advisory_2718704(host.trust_store());
          }
          host.trust_store().set_reject_weak_hash(posture.reject_weak_hash);

          host.fs().write_file("c:\\d.sys", driver_case.image.serialize(), 0);
          const auto result =
              host.load_driver("c:\\d.sys", "d", winsys::kCapRawDiskAccess);
          verdicts.emplace_back(result == winsys::DriverLoadResult::kLoaded
                                    ? "LOADED"
                                    : to_string(result));
        }
        return verdicts;
      });

  for (std::size_t i = 0; i < drivers.size(); ++i) {
    std::printf("%-36s", drivers[i].label.c_str());
    for (const auto& verdict : rows[i]) {
      std::printf("| %-22.22s ", verdict.c_str());
    }
    std::printf("\n");
  }
  std::printf("\nexpected shape: the era's policies load everything signed "
              "(that is the trend); only revocation + weak-hash rejection "
              "close the three abuse classes, and the *legit* Eldos driver "
              "survives even then — exactly why Shamoon chose it.\n");
}

}  // namespace

int main() {
  benchutil::header("TREND-C: certified malware — three PKI abuses",
                    "Section V-C");
  reproduce();
  return 0;
}
