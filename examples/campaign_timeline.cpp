// The whole campaign the paper chronicles, on one clock:
//   2010        Stuxnet tears through Natanz
//   2011-09     Duqu surfaces: targeted espionage, per-victim builds
//   2012-05     Flame is discovered ... and SUICIDEs overnight
//   2012-06     Gauss: banking espionage + the encrypted Godel warhead
//   2012-08-15  Shamoon bricks the oil company
// One World, five families, the tracker as the historian.

#include <cstdio>

#include "core/scenario.hpp"
#include "core/user_behavior.hpp"
#include "malware/duqu/duqu.hpp"
#include "malware/flame/flame.hpp"
#include "malware/gauss/gauss.hpp"

using namespace cyd;

namespace {

void status(core::World& world, const char* note) {
  std::printf("%s  %-44s", sim::format_time(world.sim().now()).substr(0, 10).c_str(),
              note);
  for (const char* family : {"stuxnet", "duqu", "flame", "gauss", "shamoon"}) {
    std::printf(" %s=%-3zu", family, world.tracker().infected_count(family));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  core::World world(/*seed=*/0x2010);
  world.add_internet_landmarks();

  // --- the region: an enrichment site, ministries, banks, an oil major ---
  auto [natanz, stuxnet, stick] = core::build_natanz_campaign(world);
  core::FleetSpec ministry_spec;
  ministry_spec.name_prefix = "ministry";
  ministry_spec.subnet = "ministry";
  ministry_spec.count = 12;
  ministry_spec.vulns.push_back(exploits::VulnId::kWpadNetbios);
  auto ministry = core::make_office_fleet(world, ministry_spec);
  core::FleetSpec bank_spec;
  bank_spec.name_prefix = "bank";
  bank_spec.subnet = "bank";
  bank_spec.count = 8;
  auto banks = core::make_office_fleet(world, bank_spec);
  core::FleetSpec oil_spec;
  oil_spec.name_prefix = "oilco";
  oil_spec.subnet = "oilco";
  oil_spec.count = 60;
  auto [oilco, shamoon] = core::build_aramco(world, oil_spec);

  std::printf("world: %zu hosts across 4 organisations + %zu cascade PLCs\n\n",
              world.host_count(), natanz.cascades.size());

  // =========== 2010: Stuxnet ===========
  core::schedule_usb_courier(world, *stick,
                             {natanz.office[0], natanz.eng_laptop},
                             sim::hours(9));
  const auto project = natanz.step7->create_project("a26");
  core::schedule_engineering_work(world, *natanz.step7, project,
                                  natanz.cascades[0], sim::days(1));
  status(world, "2010-01: Stuxnet stick seeded at Natanz");
  world.sim().run_until(sim::make_date(2010, 12, 1));
  status(world, "centrifuges destroyed so far:");
  std::printf("          -> %zu of %zu rotors dead, safety systems silent\n",
              natanz.destroyed_centrifuges(), natanz.total_centrifuges());

  // =========== 2011-09: Duqu ===========
  malware::duqu::Duqu duqu_family(world.sim(), world.network(),
                                  world.programs(), world.tracker());
  duqu_family.deploy_cnc(world.network());
  world.sim().run_until(sim::make_date(2011, 9, 1));
  for (auto* target : {ministry[2], ministry[5]}) {
    target->make_vulnerable(exploits::VulnId::kMs11_087_Ttf);
    duqu_family.open_document(
        *target, duqu_family.build_spearphish_document("b-" + target->name()));
  }
  status(world, "2011-09: Duqu spear-phish hits two CA suppliers");

  // =========== 2012: Flame (already resident for years) ===========
  malware::flame::FlameConfig flame_config;
  flame_config.default_domains = {"traffic-spot.biz", "quick-net.info"};
  auto [center, cc, flame] =
      core::build_dead_drop(world, 0x2012, flame_config);
  cc->start_purge_task();
  center->start_collection_task(sim::hours(6));
  for (auto* host : {ministry[0], ministry[1], ministry[7]}) {
    flame->infect(*host, "targeted-drop");
  }
  world.sim().run_until(sim::make_date(2012, 5, 28));
  status(world, "2012-05: Kaspersky finds Flame while hunting Wiper");
  std::printf("          -> %zu documents in the coordinator archive\n",
              center->archive().size());
  center->order_suicide();
  world.sim().run_until(sim::make_date(2012, 6, 5));
  std::size_t active_flame = 0;
  for (auto* host : world.hosts()) {
    auto* inf = malware::flame::Flame::find(*host);
    if (inf != nullptr && inf->active()) ++active_flame;
  }
  status(world, "2012-06: SUICIDE broadcast; Flame goes dark");
  std::printf("          -> active Flame implants remaining: %zu\n",
              active_flame);

  // =========== 2012-06: Gauss ===========
  malware::gauss::Gauss gauss(world.sim(), world.network(),
                              world.programs(), world.tracker());
  gauss.set_upload_key(center->upload_key());
  gauss.deploy_cnc(world.network());
  for (auto* branch : {banks[0], banks[3]}) {
    branch->fs().write_file("c:\\users\\teller\\blombank-session.dat", "s",
                            world.sim().now());
    gauss.infect(*branch, "drive-by");
  }
  world.sim().run_until(sim::make_date(2012, 8, 1));
  status(world, "2012-06..08: Gauss works the banks");

  // =========== 2012-08-15 08:08: Shamoon ===========
  shamoon->infect(*oilco[0], "spear-phish");
  world.sim().run_until(sim::make_date(2012, 8, 15, 8, 7));
  status(world, "2012-08-15 08:07: one minute before the kill date");
  world.sim().run_until(sim::make_date(2012, 8, 16));
  status(world, "2012-08-16: the morning after");
  std::printf("          -> %zu oilco workstations unbootable, %zu reports "
              "reached the attackers\n",
              world.count_unbootable(), shamoon->reports().size());

  // =========== the historian's ledger ===========
  std::printf("\ncampaign ledger (tracker):\n");
  for (const char* family : {"stuxnet", "duqu", "flame", "gauss", "shamoon"}) {
    std::printf("  %-8s infections=%-4zu exfil-events=%-5zu uninstalls=%-3zu "
                "destruction-events=%zu\n",
                family, world.tracker().infected_count(family),
                world.tracker().count(
                    malware::CampaignEventKind::kExfiltration, family),
                world.tracker().count(malware::CampaignEventKind::kUninstall,
                                      family),
                world.tracker().count(
                    malware::CampaignEventKind::kDestruction, family));
  }
  return 0;
}
