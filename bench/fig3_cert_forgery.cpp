// FIG-3 — "Leveraging Microsoft Certificate to Sign Code" (paper Fig. 3).
//
// The Terminal Services Licensing chain: enterprise activates a TSLS with
// Microsoft, receives a limited (license-verification) certificate whose
// issuer signature still uses a weak hash; the attacker forges a
// code-signing twin via a collision and signs a fake Windows Update that
// stock clients accept. The bench prints the full acceptance matrix across
// certificates and client postures, plus forgery-cost statistics.

#include "bench_util.hpp"
#include "pki/forgery.hpp"
#include "pki/licensing.hpp"
#include "pki/signing.hpp"
#include "sim/sweep.hpp"

using namespace cyd;

namespace {

struct Client {
  const char* label;
  pki::CertStore store;
  pki::TrustStore trust;
};

void reproduce() {
  const sim::TimePoint now = sim::make_date(2012, 5, 1);
  pki::MicrosoftPki ms(sim::make_date(2010, 1, 1), 0xf16c3);
  auto activation = ms.activate_license_server("Contoso Energy");

  // Signer lineup.
  auto forged =
      pki::forge_code_signing_cert(activation.license_cert, "MS", 0xbad);
  auto make_update = [&](const char* program) {
    return pe::Builder{}
        .program(program)
        .filename("WuSetupV.exe")
        .section(".text", "update body", true)
        .build();
  };
  pe::Image genuine = make_update("genuine.update");
  pki::sign_image(genuine, ms.update_signing_cert(), ms.update_signing_key());
  pe::Image license_signed = make_update("flame.fake");
  pki::sign_image(license_signed, activation.license_cert,
                  activation.license_key);
  pe::Image forged_signed = make_update("flame.fake");
  pki::sign_image(forged_signed, forged->certificate, forged->private_key);
  pe::Image unsigned_update = make_update("flame.fake");

  // Client posture lineup.
  std::vector<Client> clients(3);
  clients[0].label = "stock client (2010-2012 era)";
  clients[1].label = "post-advisory-2718704 client";
  clients[2].label = "weak-hash-rejecting client";
  for (auto& client : clients) {
    ms.install_into(client.store);
    ms.anchor_root(client.trust);
  }
  ms.apply_advisory_2718704(clients[1].trust);
  clients[2].trust.set_reject_weak_hash(true);

  benchutil::section("Windows-Update acceptance matrix");
  std::printf("%-34s", "binary \\ client");
  for (const auto& client : clients) std::printf(" | %-30s", client.label);
  std::printf("\n");
  struct RowCase {
    const char* label;
    const pe::Image* image;
  } rows[] = {
      {"genuine Microsoft update", &genuine},
      {"unsigned fake", &unsigned_update},
      {"fake signed w/ license cert", &license_signed},
      {"fake signed w/ FORGED cert", &forged_signed},
  };
  for (const auto& row : rows) {
    std::printf("%-34s", row.label);
    for (auto& client : clients) {
      const auto verdict =
          pki::verify_image(*row.image, client.store, client.trust, now);
      std::printf(" | %-30s", verdict.valid() ? "ACCEPTED+EXECUTED"
                                              : verdict.describe().c_str());
    }
    std::printf("\n");
  }

  benchutil::section("chain anatomy of the forged certificate");
  const auto& cert = forged->certificate;
  std::printf("subject       : %s\n", cert.subject.c_str());
  std::printf("usage         : %s (escalated from %s)\n",
              pki::usage_to_string(cert.usage).c_str(),
              pki::usage_to_string(activation.license_cert.usage).c_str());
  std::printf("issuer        : %s\n", cert.issuer_subject.c_str());
  std::printf("sig algorithm : %s\n", pki::to_string(cert.issuer_sig.alg));
  std::printf("collision pad : %zu bytes\n", cert.collision_padding.size());

  benchutil::section("forgery cost over 200 activations");
  // Activations draw from the shared MicrosoftPki RNG, so they stay serial;
  // the forgeries themselves are pure functions of (cert, seed) and sweep
  // across the pool. Folding in item order keeps the stats deterministic.
  struct ForgeCase {
    pki::Certificate license_cert;
    std::uint64_t seed = 0;
  };
  std::vector<ForgeCase> victims(200);
  for (int i = 0; i < 200; ++i) {
    victims[i].license_cert =
        ms.activate_license_server("Org-" + std::to_string(i)).license_cert;
    victims[i].seed = 0x1000 + static_cast<std::uint64_t>(i);
  }
  struct ForgeOut {
    bool ok = false;
    std::size_t pad = 0;
  };
  const auto attempts =
      sim::Sweep::map_items(victims, [](const ForgeCase& c) {
        auto attempt =
            pki::forge_code_signing_cert(c.license_cert, "MS", c.seed);
        ForgeOut out;
        out.ok = attempt.has_value();
        if (attempt) out.pad = attempt->certificate.collision_padding.size();
        return out;
      });
  std::size_t total_pad = 0, max_pad = 0, failures = 0;
  for (const auto& attempt : attempts) {
    if (!attempt.ok) {
      ++failures;
      continue;
    }
    total_pad += attempt.pad;
    max_pad = std::max(max_pad, attempt.pad);
  }
  std::printf("forgeries: 200, failures: %zu, avg collision pad: %zu bytes, "
              "max: %zu bytes\n",
              failures, total_pad / 200, max_pad);
  std::printf("(against the strong-hash chain the same attack fails: %s)\n",
              pki::forge_code_signing_cert(ms.update_signing_cert(), "MS", 1)
                      .has_value()
                  ? "UNEXPECTEDLY SUCCEEDED"
                  : "no collision available");
}

}  // namespace

int main() {
  benchutil::header("FIG-3: Terminal-Services certificate forgery",
                    "Figure 3 — limited cert + weak hash -> signed malware");
  reproduce();
  return 0;
}
