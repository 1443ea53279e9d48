// The three campaign workloads: the Aramco wipe (Shamoon), the Natanz
// cascade hall (Stuxnet) and the Flame dead-drop. Each is built through the
// library's public API only, with the wiring of the matching figure bench.
// Sizes keep one repetition near a second, so a run holds many
// repetitions. Each simulated window advances in fixed steps with a lap
// after each step, which cuts the timed phase into the same pieces in every
// repetition of a seed.

#include "workloads.hpp"

#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "cnc/attack_center.hpp"
#include "core/scenario.hpp"
#include "core/user_behavior.hpp"
#include "malware/flame/flame.hpp"
#include "malware/shamoon/shamoon.hpp"
#include "malware/stuxnet/stuxnet.hpp"
#include "sim/rng.hpp"
#include "sim/sweep.hpp"

namespace cb {

using namespace cyd;

std::string format(const char* fmt, ...) {
  char buf[256];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

SigningIdentity SigningIdentity::make(const std::string& subject,
                                      std::uint64_t seed) {
  auto ca = pki::CertificateAuthority::create_root(
      "Commercial Root CA", pki::HashAlgorithm::kStrong64, 0,
      sim::days(20000), seed);
  auto key = pki::KeyPair::generate(seed ^ 0x99);
  auto cert = ca.issue(subject, pki::kUsageCodeSigning,
                       pki::HashAlgorithm::kStrong64, 0, sim::days(20000),
                       key);
  return SigningIdentity{std::move(ca), key, std::move(cert)};
}

void SigningIdentity::trust_on(winsys::Host& host) const {
  host.cert_store().add(ca.certificate());
  host.trust_store().trust_root(ca.certificate().serial);
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Campaign state every simulated workload shares: the world and the
/// event-queue bookkeeping around its run windows.
class Campaign : public Workload {
 protected:
  explicit Campaign(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t sub_seed(std::uint64_t stream) const {
    return sim::derive_seed(seed_, stream);
  }

  /// One window under a span: run_until `first`, then on in `step`s to
  /// `deadline`, with a lap after each piece. The queue's executed count is
  /// sampled at both boundaries.
  std::uint64_t window(Tracer& tracer, const char* span, sim::TimePoint first,
                       sim::TimePoint deadline, sim::Duration step) {
    const auto before = world_->sim().queue().stats().executed;
    {
      Tracer::Span s(tracer, span);
      for (sim::TimePoint t = first; t < deadline; t += step) {
        world_->sim().run_until(t);
        tracer.lap();
      }
      world_->sim().run_until(deadline);
      tracer.lap();
    }
    const auto executed = world_->sim().queue().stats().executed - before;
    run_events_ += executed;
    tracer.counter("sim.events_executed",
                   static_cast<double>(world_->sim().queue().stats().executed));
    tracer.counter("sim.trace_records",
                   static_cast<double>(world_->sim().trace().size()));
    return executed;
  }

  /// The sim-layer counters plus ns/event over the given window spans.
  void add_sim_layer(Outcome& out, const Tracer& tracer,
                     std::initializer_list<const char*> windows) const {
    const auto& stats = world_->sim().queue().stats();
    out.layer["sim.events_executed"] = static_cast<double>(stats.executed);
    out.layer["sim.events_scheduled"] = static_cast<double>(stats.scheduled);
    out.layer["sim.peak_pending"] = static_cast<double>(stats.peak_pending);
    out.layer["sim.trace_records"] =
        static_cast<double>(world_->sim().trace().size());
    double window_s = 0.0;
    for (const char* w : windows) window_s += tracer.total(w);
    out.layer["sim.ns_per_event"] =
        ratio(window_s * 1e9, static_cast<double>(run_events_));
  }

  std::size_t subnet_size(const std::string& subnet) const {
    return world_->network().subnet_members(subnet).size();
  }

  std::uint64_t seed_;
  std::unique_ptr<core::World> world_;
  std::uint64_t run_events_ = 0;
};

// ---------------------------------------------------------------------------
// aramco_wipe: the fig6 detonation on one office subnet.

class AramcoWipe final : public Campaign {
 public:
  AramcoWipe(std::uint64_t seed, bool tiny)
      : Campaign(seed), hosts_(tiny ? 40 : 250) {}

  void setup(Tracer& tracer) override {
    {
      Tracer::Span s(tracer, "core.fleet_build");
      world_ = std::make_unique<core::World>(sub_seed(0));
      world_->add_internet_landmarks();
      core::FleetSpec spec;
      spec.count = hosts_;
      spec.name_prefix = "aramco";
      spec.documents_per_host = 3;
      fleet_ = core::make_office_fleet(*world_, spec);
    }
    pe::Image driver;
    {
      Tracer::Span s(tracer, "pki.trust_provision");
      const auto eldos = SigningIdentity::make("EldoS Corporation", sub_seed(1));
      for (auto* host : fleet_) eldos.trust_on(*host);
      driver = pe::Builder{}
                   .program(malware::shamoon::Shamoon::kDriverProgram)
                   .filename("drdisk.sys")
                   .build();
      pki::sign_image(driver, eldos.cert, eldos.key);
    }
    {
      Tracer::Span s(tracer, "malware.install");
      malware::shamoon::ShamoonConfig config;
      config.kill_date = sim::make_date(2012, 8, 15, 8, 8);
      config.spread_period = sim::minutes(20);
      config.rng_seed = sub_seed(2);
      shamoon_ = std::make_unique<malware::shamoon::Shamoon>(
          world_->sim(), world_->network(), world_->programs(),
          world_->tracker(), config);
      shamoon_->deploy_reporter_sink(world_->network());
      shamoon_->set_disk_driver(std::move(driver));
      // The spear-phish lands on 2012-08-01 on a seed-chosen workstation.
      winsys::Host* patient_zero = fleet_[sub_seed(3) % fleet_.size()];
      world_->sim().at(sim::make_date(2012, 8, 1), [this, patient_zero] {
        shamoon_->infect(*patient_zero, "spear-phish");
      });
    }
  }

  void run(Tracer& tracer) override {
    // Nothing runs before the spear-phish; from then on, hourly pieces.
    spread_events_ = window(tracer, "malware.spread_window",
                            sim::make_date(2012, 8, 1),
                            sim::make_date(2012, 8, 15, 8, 7), sim::kHour);
    const auto now = world_->sim().now();
    window(tracer, "malware.wipe_window", now + sim::kHour,
           sim::make_date(2012, 8, 16), sim::kHour);
  }

  Outcome finish(const Tracer& tracer) override {
    Outcome out;
    std::size_t unbootable = 0, reported = 0, both = 0;
    std::uint64_t raw_writes = 0;
    for (auto* host : fleet_) {
      const bool dead = host->state() == winsys::HostState::kUnbootable;
      const auto* inf = malware::shamoon::Shamoon::find(*host);
      const bool rep = inf != nullptr && inf->reported;
      unbootable += dead;
      reported += rep;
      both += dead && rep;
      // The wiper overwrites the MBR and the active boot sector through the
      // signed driver; Disk::raw_write_count covers only other sectors.
      const auto& disk = host->disk();
      raw_writes += disk.raw_write_count() + !disk.mbr_intact() +
                    !disk.active_partition_intact();
    }
    std::uint64_t files = 0;
    for (const auto& r : shamoon_->reports()) {
      files += static_cast<std::uint64_t>(r.files_overwritten);
    }
    const std::size_t infected = world_->tracker().infected_count("shamoon");

    out.ops = hosts_;
    out.ops_failed = hosts_ - both;
    out.checks = {
        {"every workstation unbootable", unbootable == hosts_,
         format("%zu/%zu", unbootable, hosts_)},
        {"every victim reported domain+ip+count to the sink",
         reported == hosts_ && shamoon_->reports().size() == hosts_,
         format("%zu hosts, %zu reports", reported,
                shamoon_->reports().size())},
    };
    out.digest_fields = {{"hosts", hosts_},
                         {"infected", infected},
                         {"unbootable", unbootable},
                         {"reports", shamoon_->reports().size()},
                         {"raw_disk_writes", raw_writes},
                         {"files_overwritten", files}};
    out.layer = {
        {"malware.us_per_spread_event",
         ratio(tracer.total("malware.spread_window") * 1e6,
               static_cast<double>(spread_events_))},
        {"winsys.raw_disk_writes", static_cast<double>(raw_writes)},
        {"winsys.unbootable", static_cast<double>(unbootable)},
        {"malware.reports", static_cast<double>(shamoon_->reports().size())},
        {"malware.infected", static_cast<double>(infected)},
        {"net.subnet_size", static_cast<double>(subnet_size("office"))},
    };
    add_sim_layer(out, tracer,
                  {"malware.spread_window", "malware.wipe_window"});
    return out;
  }

 private:
  std::size_t hosts_;
  std::vector<winsys::Host*> fleet_;
  std::unique_ptr<malware::shamoon::Shamoon> shamoon_;
  std::uint64_t spread_events_ = 0;
};

// ---------------------------------------------------------------------------
// natanz_cascade: 11 of the hall's 55 cascades under Stuxnet for twelve
// months (fig1).

class NatanzCascade final : public Campaign {
 public:
  NatanzCascade(std::uint64_t seed, bool tiny)
      : Campaign(seed), cascades_(tiny ? 3 : 11) {}

  void setup(Tracer& tracer) override {
    {
      Tracer::Span s(tracer, "core.site_build");
      world_ = std::make_unique<core::World>(sub_seed(0));
      world_->add_internet_landmarks();
      core::NatanzSpec spec;
      spec.office_hosts = 9;
      spec.cascade_count = cascades_;
      site_ = core::build_natanz_site(*world_, spec);
    }
    {
      Tracer::Span s(tracer, "malware.install");
      malware::stuxnet::StuxnetConfig config;
      config.plc_timing.observe_window = sim::days(13);
      config.plc_timing.cover_duration = sim::days(27);
      config.rng_seed = sub_seed(1);
      stuxnet_ = std::make_unique<malware::stuxnet::Stuxnet>(
          world_->sim(), world_->network(), world_->programs(),
          world_->s7_registry(), world_->tracker(), config);
      auto& stick = world_->add_usb("integrator-stick");
      stuxnet_->arm_usb(stick);
      core::schedule_usb_courier(
          *world_, stick, {site_.office[0], site_.office[3], site_.eng_laptop},
          sim::hours(8));
      for (std::size_t c = 0; c < site_.cascades.size(); ++c) {
        const auto project =
            site_.step7->create_project("a2" + std::to_string(1 + c));
        core::schedule_engineering_work(*world_, *site_.step7, project,
                                        site_.cascades[c],
                                        sim::days(1) + sim::hours(2 * c));
      }
    }
  }

  void run(Tracer& tracer) override {
    // Months 1-4 carry the Windows -> Step 7 -> PLC infection; months 5-12
    // the frequency attack. One window per month in daily pieces, so the
    // trace shows the destruction curve as a counter.
    for (int month = 1; month <= 12; ++month) {
      const char* span =
          month <= 4 ? "scada.infection_window" : "scada.attack_window";
      const auto now = world_->sim().now();
      window(tracer, span, now + sim::kDay, now + 30 * sim::kDay, sim::kDay);
      tracer.counter("scada.destroyed",
                     static_cast<double>(site_.destroyed_centrifuges()));
    }
  }

  Outcome finish(const Tracer& tracer) override {
    Outcome out;
    const std::size_t total = site_.total_centrifuges();
    const std::size_t destroyed = site_.destroyed_centrifuges();
    const bool tripped = site_.any_safety_tripped();
    bool operator_saw = false;
    for (const auto& hmi : site_.hmis) {
      if (hmi->operator_saw_anomaly(800.0, 1250.0)) operator_saw = true;
    }
    const std::size_t infected = world_->tracker().infected_count("stuxnet");

    out.ops = total;
    out.ops_failed = tripped || operator_saw ? total : total - destroyed;
    out.checks = {
        {"every centrifuge of the cascades destroyed",
         destroyed == total && total == cascades_ * 164,
         format("%zu/%zu", destroyed, total)},
        {"digital safety system stayed quiet", !tripped,
         tripped ? "tripped" : "quiet"},
        {"HMI never showed an out-of-band value", !operator_saw,
         operator_saw ? "anomaly seen" : "in band"},
    };
    out.digest_fields = {{"centrifuges", total},
                         {"destroyed", destroyed},
                         {"plc_strikes", stuxnet_->plc_strikes()},
                         {"infected", infected},
                         {"safety_tripped", tripped},
                         {"operator_saw", operator_saw}};
    const double windows_s = tracer.total("scada.infection_window") +
                             tracer.total("scada.attack_window");
    out.layer = {
        {"scada.destroyed", static_cast<double>(destroyed)},
        {"malware.plc_strikes", static_cast<double>(stuxnet_->plc_strikes())},
        {"malware.infected", static_cast<double>(infected)},
        {"scada.us_per_centrifuge_month",
         ratio(windows_s * 1e6, static_cast<double>(total) * 12.0)},
        {"net.subnet_size", static_cast<double>(subnet_size("natanz-office"))},
    };
    add_sim_layer(out, tracer,
                  {"scada.infection_window", "scada.attack_window"});
    return out;
  }

 private:
  std::size_t cascades_;
  core::NatanzSite site_;
  std::unique_ptr<malware::stuxnet::Stuxnet> stuxnet_;
};

// ---------------------------------------------------------------------------
// flame_dead_drop: Flame victims against one newsforyou server (fig5).

class FlameDeadDrop final : public Campaign {
 public:
  FlameDeadDrop(std::uint64_t seed, bool tiny)
      : Campaign(seed), victims_(tiny ? 50 : 300) {}

  void setup(Tracer& tracer) override {
    {
      Tracer::Span s(tracer, "core.fleet_build");
      world_ = std::make_unique<core::World>(sub_seed(0));
      world_->add_internet_landmarks();
      core::FleetSpec spec;
      spec.count = victims_;
      spec.documents_per_host = 4;
      fleet_ = core::make_office_fleet(*world_, spec);
    }
    {
      Tracer::Span s(tracer, "cnc.deploy");
      center_ = std::make_unique<cnc::AttackCenter>(world_->sim(), sub_seed(1));
      server_ = std::make_unique<cnc::CncServer>(
          world_->sim(), "cc-3", std::vector<std::string>{"newsforyou.example"},
          center_->upload_key());
      server_->deploy(world_->network());
      server_->start_purge_task(30 * sim::kMinute);
      center_->manage(*server_);
    }
    {
      Tracer::Span s(tracer, "malware.install");
      malware::flame::FlameConfig config;
      config.default_domains = {"newsforyou.example"};
      config.collect_period = sim::hours(8);
      config.beacon_period = sim::hours(4);
      config.rng_seed = sub_seed(2);
      flame_ = std::make_unique<malware::flame::Flame>(
          world_->sim(), world_->network(), world_->programs(),
          world_->tracker(), config);
      flame_->set_upload_key(center_->upload_key());
      // The targeted drops land over the first beacon period, so the
      // victims' beacons and collections spread over the day.
      sim::Rng drops(sub_seed(5));
      for (auto* host : fleet_) {
        core::schedule_document_work(*world_, *host, sim::days(1));
        world_->sim().after(drops.uniform_int(0, config.beacon_period - 1),
                            [this, host] {
                              flame_->infect(*host, "targeted-drop");
                            });
      }
      // The operator's shift: collect every 3 h, push a module update on
      // day 1 and order one victim's documents in full on day 2.
      center_->start_collection_task(sim::hours(3));
      world_->sim().after(sim::days(1), [this] {
        center_->push_command_all("module:jimmy:2", "improved scanner");
      });
      winsys::Host* target = fleet_[sub_seed(3) % fleet_.size()];
      world_->sim().after(sim::days(2), [this, target] {
        center_->push_command_to(malware::flame::Flame::find(*target)->client_id,
                                 "jimmy-fetch:docx", "");
      });
    }
  }

  void run(Tracer& tracer) override {
    // Fourteen days, then 90 minutes more, so the run stops between two of
    // the operator's collections and blobs are left on the server.
    const auto now = world_->sim().now();
    window(tracer, "malware.spread_window", now + sim::kHour,
           now + 14 * sim::kDay + 90 * sim::kMinute, sim::kHour);
    Tracer::Span s(tracer, "cnc.final_collect");
    // Role separation: the panel operator's key must open none of the blobs
    // still on the server; then the coordinator drains what is left.
    const auto wrong_key = cnc::CncKeyPair::generate(sub_seed(4));
    blobs_on_server_ = server_->entries().size();
    for (const auto& entry : server_->entries()) {
      if (cnc::decrypt(wrong_key, entry.blob)) ++operator_reads_;
    }
    center_->collect();
    tracer.lap();
  }

  Outcome finish(const Tracer& tracer) override {
    Outcome out;
    const auto& counters = server_->engine().counters();
    const auto& scans = server_->engine().scan_stats();
    const std::size_t archived = center_->archive().size();
    std::uint64_t collections = 0, staged = 0;
    for (auto* host : fleet_) {
      if (const auto* inf = malware::flame::Flame::find(*host)) {
        collections += static_cast<std::uint64_t>(inf->collections_run);
        staged += static_cast<std::uint64_t>(inf->documents_staged);
      }
    }
    const std::uint64_t missing =
        counters.uploads > archived ? counters.uploads - archived : 0;
    const std::size_t infected = world_->tracker().infected_count("flame");

    out.ops = counters.get_news + counters.uploads + counters.rejected;
    out.ops_failed = counters.rejected + missing + center_->decrypt_failures();
    out.checks = {
        {"operator key decrypts none of the blobs on the server",
         operator_reads_ == 0 && blobs_on_server_ > 0,
         format("%zu of %zu", operator_reads_, blobs_on_server_)},
        {"coordinator archive equals the uploads",
         archived == counters.uploads && center_->decrypt_failures() == 0,
         format("%zu archived, %llu uploads, %zu decrypt failures", archived,
                static_cast<unsigned long long>(counters.uploads),
                center_->decrypt_failures())},
        {"no request rejected", counters.rejected == 0,
         format("%llu rejected",
                static_cast<unsigned long long>(counters.rejected))},
        {"every victim infected", infected == victims_,
         format("%zu/%zu", infected, victims_)},
    };
    out.digest_fields = {{"victims", victims_},
                         {"get_news", counters.get_news},
                         {"uploads", counters.uploads},
                         {"upload_bytes", counters.upload_bytes},
                         {"rejected", counters.rejected},
                         {"archived", archived},
                         {"collections_run", collections},
                         {"documents_staged", staged}};
    out.layer = {
        {"malware.us_per_spread_event",
         ratio(tracer.total("malware.spread_window") * 1e6,
               static_cast<double>(run_events_))},
        {"malware.infected", static_cast<double>(infected)},
        {"net.subnet_size", static_cast<double>(subnet_size("office"))},
        {"cnc.get_news", static_cast<double>(counters.get_news)},
        {"cnc.uploads", static_cast<double>(counters.uploads)},
        {"cnc.upload_bytes", static_cast<double>(counters.upload_bytes)},
        {"cnc.rejected", static_cast<double>(counters.rejected)},
        {"cnc.pickup_scanned", static_cast<double>(scans.total_pickup_scanned)},
        {"cnc.purge_scanned", static_cast<double>(scans.total_purge_scanned)},
        {"cnc.pickup_scan_ratio",
         ratio(static_cast<double>(scans.total_pickup_scanned),
               static_cast<double>(counters.uploads))},
        {"cnc.access_log_dropped",
         static_cast<double>(server_->access_log_dropped())},
        {"malware.collections_run", static_cast<double>(collections)},
        {"malware.documents_staged", static_cast<double>(staged)},
    };
    add_sim_layer(out, tracer, {"malware.spread_window"});
    return out;
  }

 private:
  std::size_t victims_;
  std::vector<winsys::Host*> fleet_;
  std::unique_ptr<cnc::AttackCenter> center_;
  std::unique_ptr<cnc::CncServer> server_;
  std::unique_ptr<malware::flame::Flame> flame_;
  std::size_t blobs_on_server_ = 0;
  std::size_t operator_reads_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny) {
  if (name == "aramco_wipe") return std::make_unique<AramcoWipe>(seed, tiny);
  if (name == "natanz_cascade") {
    return std::make_unique<NatanzCascade>(seed, tiny);
  }
  if (name == "flame_dead_drop") {
    return std::make_unique<FlameDeadDrop>(seed, tiny);
  }
  if (name == "triage_pile") return make_triage_pile(seed, tiny);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace cb
