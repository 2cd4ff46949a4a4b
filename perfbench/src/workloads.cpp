// The three application workloads and the per-layer counter snapshot.
//
// The seed picks each application's input from a pool of inputs whose run
// sizes agree closely, so runs on different seeds measure the same amount of
// work (see perfbench/README.md for how the pools were chosen):
//   * mapcolor_ic: the four colour costs (the 29-state map is fixed);
//   * jacobi_lrc:  the grid's column count (its initial values are fixed);
//   * tsp_migrate: the seed of the random distance matrix.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "apps/jacobi.hpp"
#include "apps/map_coloring.hpp"
#include "apps/tsp.hpp"
#include "common/rng.hpp"
#include "dsm/dsm.hpp"
#include "hyperion/runtime.hpp"
#include "pm2/pm2.hpp"
#include "workloads.hpp"

namespace perfbench {

using dsmpm2::NodeId;
using dsmpm2::SimTime;
namespace apps = dsmpm2::apps;
namespace dsm = dsmpm2::dsm;
namespace hyperion = dsmpm2::hyperion;
namespace madeleine = dsmpm2::madeleine;
namespace pm2 = dsmpm2::pm2;

namespace {

std::size_t pick(std::uint64_t seed, std::size_t pool_size) {
  dsmpm2::Rng rng(seed);
  return static_cast<std::size_t>(rng.next_below(pool_size));
}

/// Colour costs whose 4-node java_ic search takes 558.9-564.4 ms virtual.
constexpr std::array<std::array<int, 4>, 12> kColourCosts{{
    {10, 20, 30, 40}, {10, 20, 30, 41}, {10, 20, 30, 42}, {10, 20, 31, 41},
    {10, 20, 31, 42}, {11, 20, 31, 41}, {11, 20, 32, 42}, {11, 21, 30, 41},
    {11, 21, 30, 42}, {12, 20, 31, 40}, {12, 20, 32, 40}, {12, 22, 30, 42},
}};

/// Distance-matrix seeds (of 1-240) whose 17-city, 8-node migrate_thread
/// search takes 3645-3675 ms virtual.
constexpr std::array<std::uint64_t, 6> kTspMatrixSeeds{78, 195, 47, 26, 48, 84};

constexpr int kTspCities = 17;
/// Column counts whose 8-node lrc_mw run takes 137.8-139.0 ms virtual.
constexpr std::array<int, 4> kJacobiCols{250, 252, 254, 255};
constexpr int kJacobiRows = 256;
constexpr int kJacobiIterations = 20;

/// HostSampler periods: segments of 0.2-0.6 ms host time, much shorter than
/// the passes so the fastest of each is likely undisturbed.
constexpr SimTime kMapcolorTick = 50 * dsmpm2::kNsPerUs;  // ~11k per ~5 s pass
constexpr SimTime kJacobiTick = 50 * dsmpm2::kNsPerUs;    // ~2.8k per ~1.5 s pass
constexpr SimTime kTspTick = 1 * dsmpm2::kNsPerMs;        // ~3.7k per ~0.9 s pass

/// The measured phase's set-up: the runtime, the DSM and (map colouring
/// only) the Hyperion runtime, each constructor under its own span.
struct Cluster {
  std::unique_ptr<pm2::Runtime> rt;
  std::unique_ptr<dsm::Dsm> dsm;
  std::unique_ptr<hyperion::Runtime> hyp;
};

Cluster build(int nodes, const madeleine::DriverParams& driver, bool with_hyperion,
              Tracer* tracer, PassResult& out) {
  const double s0 = host_seconds();
  ScopedSpan setup(tracer, "bench.setup", kNoParent, [] { return SimTime{0}; });
  pm2::Config cfg;
  cfg.nodes = nodes;
  cfg.driver = driver;
  Cluster c;
  c.rt = make_traced<pm2::Runtime>(tracer, "pm2.Runtime", setup.id(), cfg);
  c.dsm = make_traced<dsm::Dsm>(tracer, "dsm.Dsm", setup.id(), *c.rt, dsm::DsmConfig{});
  if (with_hyperion) {
    c.hyp = make_traced<hyperion::Runtime>(tracer, "hyperion.Runtime", setup.id(),
                                           *c.dsm, hyperion::Detection::kInlineCheck);
  }
  out.setup_s = host_seconds() - s0;
  return c;
}

/// Runs `app` inside rt.run under a pm2.run span with the app span nested,
/// sampling the host clock every `period` of virtual time.
template <typename App>
pm2::RunStats measured_run(Cluster& c, SimTime period, const char* app_span,
                           Tracer* tracer, PassResult& out, App&& app) {
  const double h0 = host_seconds();
  HostSampler sampler(*c.rt, period, out.host_marks);
  ScopedSpan run(tracer, "pm2.run", kNoParent, [&] { return c.rt->now(); });
  const pm2::RunStats stats = c.rt->run([&] {
    ScopedSpan span(tracer, app_span, run.id(), [&] { return c.rt->now(); });
    app();
  });
  sampler.finish();
  out.host_s = host_seconds() - h0;
  return stats;
}

PassResult mapcolor_pass(std::uint64_t seed, Tracer* tracer, bool setup_only) {
  PassResult out;
  apps::MapColoringConfig mc;
  mc.n_states = 29;
  mc.color_costs = kColourCosts[pick(seed, kColourCosts.size())];
  Cluster c = build(4, madeleine::sisci_sci(), true, tracer, out);
  if (setup_only) return out;
  apps::MapColoringResult result;
  const auto stats =
      measured_run(c, kMapcolorTick, "apps.run_map_coloring", tracer, out,
                   [&] { result = apps::run_map_coloring(*c.rt, *c.hyp, mc); });
  out.sim = result.elapsed;
  out.expansions = static_cast<double>(result.expansions);
  out.check(result.best_cost == apps::solve_map_coloring_sequential(mc),
            "colouring cost equals the sequential solver's");
  collect_layers(*c.rt, *c.dsm, stats, out);
  out.layers["hyperion.gets_per_expansion"] =
      result.expansions > 0 ? static_cast<double>(result.gets) /
                                  static_cast<double>(result.expansions)
                            : 0.0;
  return out;
}

PassResult jacobi_pass(std::uint64_t seed, Tracer* tracer, bool setup_only) {
  PassResult out;
  apps::JacobiConfig jc;
  jc.rows = kJacobiRows;
  jc.cols = kJacobiCols[pick(seed, kJacobiCols.size())];
  jc.iterations = kJacobiIterations;
  Cluster c = build(8, madeleine::bip_myrinet(), false, tracer, out);
  if (setup_only) return out;
  jc.protocol = c.dsm->builtin().lrc_mw;
  apps::JacobiResult result;
  const auto stats = measured_run(c, kJacobiTick, "apps.run_jacobi", tracer, out, [&] {
    result = apps::run_jacobi(*c.rt, *c.dsm, jc);
  });
  out.sim = result.elapsed;
  const double expected = apps::jacobi_sequential_checksum(jc);
  out.check(std::abs(result.checksum - expected) <= 1e-12 * std::abs(expected),
            "Jacobi checksum equals the sequential kernel's");
  collect_layers(*c.rt, *c.dsm, stats, out);
  return out;
}

PassResult tsp_pass(std::uint64_t seed, Tracer* tracer, bool setup_only) {
  PassResult out;
  apps::TspConfig tc;
  tc.n_cities = kTspCities;
  tc.seed = kTspMatrixSeeds[pick(seed, kTspMatrixSeeds.size())];
  Cluster c = build(8, madeleine::bip_myrinet(), false, tracer, out);
  if (setup_only) return out;
  tc.protocol = c.dsm->builtin().migrate_thread;
  apps::TspResult result;
  const auto stats = measured_run(c, kTspTick, "apps.run_tsp", tracer, out, [&] {
    result = apps::run_tsp(*c.rt, *c.dsm, tc);
  });
  out.sim = result.elapsed;
  out.expansions = static_cast<double>(result.expansions);
  out.check(result.best_length ==
            apps::solve_tsp_sequential(apps::make_distance_matrix(tc.n_cities, tc.seed),
                                       tc.n_cities),
            "TSP best length equals the sequential solver's");
  collect_layers(*c.rt, *c.dsm, stats, out);
  return out;
}

std::uint64_t sum_over_nodes(pm2::Runtime& rt, auto&& per_node) {
  std::uint64_t sum = 0;
  for (NodeId n = 0; n < static_cast<NodeId>(rt.node_count()); ++n) sum += per_node(n);
  return sum;
}

}  // namespace

HostSampler::HostSampler(pm2::Runtime& rt, SimTime period, std::vector<double>& marks)
    : rt_(rt), period_(period), marks_(marks) {
  marks_.push_back(host_seconds());
  rt_.scheduler().schedule_background_after(period_, [this] { tick(); });
}

void HostSampler::tick() {
  marks_.push_back(host_seconds());
  if (marks_.size() < kMaxMarks) {
    rt_.scheduler().schedule_background_after(period_, [this] { tick(); });
  }
}

void HostSampler::finish() { marks_.push_back(host_seconds()); }

void collect_layers(pm2::Runtime& rt, dsm::Dsm& d, const pm2::RunStats& stats,
                    PassResult& out) {
  auto& L = out.layers;
  const auto total = [&](dsm::Counter c) {
    return static_cast<double>(d.counters().total(c));
  };
  out.events = stats.events_executed - (out.host_marks.size() - 2);

  // sim
  L["sim.events"] = static_cast<double>(out.events);
  L["sim.fibers"] = static_cast<double>(stats.fibers_spawned);
  SimTime busy_total = 0;
  SimTime busy_max = 0;
  for (NodeId n = 0; n < static_cast<NodeId>(rt.node_count()); ++n) {
    const SimTime b = rt.cluster().node(n).cpu().busy_time();
    busy_total += b;
    busy_max = std::max(busy_max, b);
  }
  L["sim.cpu_busy_ms"] = dsmpm2::to_ms(busy_total);
  L["sim.cpu_max_share"] =
      busy_total > 0 ? static_cast<double>(busy_max) / static_cast<double>(busy_total) : 0;

  // marcel
  L["marcel.threads"] = static_cast<double>(rt.threads().threads_created());
  L["marcel.migrations"] = static_cast<double>(rt.migration().migrations());

  // madeleine
  const auto& net = rt.network();
  const double msgs = static_cast<double>(
      sum_over_nodes(rt, [&](NodeId n) { return net.stats(n).messages_sent; }));
  const double bytes = static_cast<double>(
      sum_over_nodes(rt, [&](NodeId n) { return net.stats(n).bytes_sent; }));
  L["madeleine.msgs"] = msgs;
  L["madeleine.kb"] = bytes / 1024.0;
  L["madeleine.bytes_per_msg"] = msgs > 0 ? bytes / msgs : 0;
  for (const auto kind : {madeleine::MsgKind::kControl, madeleine::MsgKind::kPageRequest,
                          madeleine::MsgKind::kBulk, madeleine::MsgKind::kMigration}) {
    std::string name = "madeleine.msgs.";
    name += madeleine::msg_kind_name(kind);
    L[name] = static_cast<double>(
        sum_over_nodes(rt, [&](NodeId n) { return net.stats(n).messages_sent_of(kind); }));
  }

  // pm2
  L["pm2.rpc_calls"] = static_cast<double>(rt.rpc().calls_issued());
  L["pm2.image_bytes"] = static_cast<double>(rt.migration().last_image_bytes());

  // dsm
  L["dsm.read_faults"] = total(dsm::Counter::kReadFaults);
  L["dsm.write_faults"] = total(dsm::Counter::kWriteFaults);
  L["dsm.lock_wait_ms"] = total(dsm::Counter::kLockWaitUs) / 1000.0;
  L["dsm.lock_handoffs"] = total(dsm::Counter::kLockHandoffs);
  L["dsm.local_grants"] = total(dsm::Counter::kLocalGrants);
  L["dsm.redirects"] = total(dsm::Counter::kRedirectsFollowed);
  L["dsm.invalidations_sent"] = total(dsm::Counter::kInvalidationsSent);
  L["dsm.notices_applied"] = total(dsm::Counter::kWriteNoticesApplied);
  L["dsm.diff_fetches"] = total(dsm::Counter::kDiffFetchesSent);
  L["dsm.diffs_sent"] = total(dsm::Counter::kDiffsSent);
  L["dsm.diff_kb"] = total(dsm::Counter::kDiffBytesSent) / 1024.0;
  L["dsm.diff_batches"] = total(dsm::Counter::kDiffBatchesSent);
  L["dsm.twins_created"] = total(dsm::Counter::kTwinsCreated);
  const double span_hits = total(dsm::Counter::kSpanDiffHits);
  const double span_tries = span_hits + total(dsm::Counter::kSpanDiffFallbacks);
  L["dsm.span_hit_frac"] = span_tries > 0 ? span_hits / span_tries : 0;
  L["dsm.barriers_crossed"] = total(dsm::Counter::kBarriersCrossed);
  L["dsm.gc_rounds"] = total(dsm::Counter::kGcWatermarkRounds);
  std::uint64_t retained_max = 0;
  for (NodeId n = 0; n < static_cast<NodeId>(rt.node_count()); ++n) {
    const auto g = d.retained_gauges(n);
    retained_max = std::max(retained_max, g.diff_store_bytes + g.notice_list_bytes +
                                              g.lock_history_bytes +
                                              g.barrier_history_bytes);
  }
  L["dsm.retained_kb"] = static_cast<double>(retained_max) / 1024.0;
  L["dsm.inline_checks"] = total(dsm::Counter::kInlineChecks);
  L["dsm.gets"] = total(dsm::Counter::kGets);
  L["dsm.puts"] = total(dsm::Counter::kPuts);
  L["dsm.home_migrations"] = total(dsm::Counter::kHomeMigrations);
  L["dsm.manager_migrations"] = total(dsm::Counter::kManagerMigrations);

  // hyperion and apps (set by the application passes that search)
  L["hyperion.gets_per_expansion"] = 0;
  L["apps.expansions"] = out.expansions;

  // protocols
  const double switches = total(dsm::Counter::kProtoSwitches);
  const double nacks = total(dsm::Counter::kSwitchNacks);
  L["protocols.switches"] = switches;
  L["protocols.switch_nacks"] = nacks;
  L["protocols.switch_useful_frac"] =
      switches + nacks > 0 ? switches / (switches + nacks) : 0;
  L["protocols.classify_events"] = total(dsm::Counter::kClassifyEvents);
  L["protocols.pages_reclassified"] = total(dsm::Counter::kPagesReclassified);
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"mapcolor_ic", mapcolor_pass, false},
      {"mixed_sync", run_sync_loop, true},
      {"jacobi_lrc", jacobi_pass, false},
      {"tsp_migrate", tsp_pass, false},
  };
  return kAll;
}

}  // namespace perfbench
