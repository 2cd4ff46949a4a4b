// The benchmark's workloads. One pass builds a fresh cluster (timed as set
// up), runs the measured phase once (timed on both clocks), checks the
// outputs and snapshots every layer's public counters.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "trace.hpp"

namespace dsmpm2::pm2 {
class Runtime;
struct RunStats;
}  // namespace dsmpm2::pm2
namespace dsmpm2::dsm {
class Dsm;
}  // namespace dsmpm2::dsm

namespace perfbench {

/// Virtual latencies (µs) of the benchmark's own DSM calls.
struct OpSamples {
  std::vector<double> acquire;  ///< Dsm::lock_acquire
  std::vector<double> release;  ///< Dsm::lock_release
  std::vector<double> access;   ///< every Dsm::read/write call
  std::vector<double> fault;    ///< the access calls that faulted
  std::vector<double> barrier;  ///< Dsm::barrier_wait
};

struct PassResult {
  double setup_s = 0;          ///< host: constructors and allocations
  double host_s = 0;           ///< host: the measured phase
  /// Host clock at the measured phase's start, at every tick of a
  /// HostSampler and at its end: the pass cut into segments of work that
  /// is identical in every pass of one seed.
  std::vector<double> host_marks;
  dsmpm2::SimTime sim = 0;     ///< virtual: the measured phase
  std::uint64_t events = 0;    ///< simulator events of the measured phase
  double expansions = 0;       ///< search-tree expansions (apps that search)
  /// Per-layer values derived only from the virtual run, so they repeat
  /// exactly between passes of one seed (the determinism rail).
  std::map<std::string, double> layers;
  OpSamples ops;
  std::uint64_t checks = 0;
  std::uint64_t failed = 0;

  /// Counts one output check; the first failures are named on stderr.
  void check(bool ok, const char* what) {
    ++checks;
    if (ok) return;
    if (++failed <= 5) std::fprintf(stderr, "FAILED CHECK: %s\n", what);
  }
};

/// Samples the host clock every `period` of virtual time while a run is
/// under way, from a self-renewing background event. Background events never
/// keep a run alive, and the tick touches no simulated state, so every other
/// event fires in the same order at the same virtual instant as without it;
/// the marks cut each pass of one seed into the same segments of work.
/// Construct before rt.run; marks gains the start now and the end at finish().
class HostSampler {
 public:
  HostSampler(dsmpm2::pm2::Runtime& rt, dsmpm2::SimTime period,
              std::vector<double>& marks);
  /// Appends the end mark. Call right after rt.run returns.
  void finish();

  /// Ticks stop here, so a run left with a blocked fiber and nothing else
  /// pending still ends.
  static constexpr std::size_t kMaxMarks = std::size_t{1} << 20;

 private:
  void tick();

  dsmpm2::pm2::Runtime& rt_;
  dsmpm2::SimTime period_;
  std::vector<double>& marks_;
};

/// Snapshot of every layer's public counters after a measured phase.
/// The HostSampler's ticks (out.host_marks less its start and end) are left
/// out of the event count.
void collect_layers(dsmpm2::pm2::Runtime& rt, dsmpm2::dsm::Dsm& dsm,
                    const dsmpm2::pm2::RunStats& stats, PassResult& out);

/// The seeded lock/barrier loop over four page groups (migratory,
/// read-mostly, producer-consumer, false sharing) on 8 BIP/Myrinet nodes,
/// pages allocated under the adaptive protocol, home and manager migration
/// on at their default thresholds; see sync_loop.cpp. With `setup_only` the
/// pass stops after its timed set-up.
PassResult run_sync_loop(std::uint64_t seed, Tracer* tracer, bool setup_only);

struct Workload {
  const char* name;
  /// One measured pass of the workload (or only its set-up).
  PassResult (*pass)(std::uint64_t seed, Tracer* tracer, bool setup_only);
  /// The pass is the sync loop itself (mixed_sync). The other workloads run
  /// the sync loop once more per run for the per-call latency metrics.
  bool is_sync_loop;
};

const std::vector<Workload>& workloads();

}  // namespace perfbench
