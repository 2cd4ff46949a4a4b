// perfbench: the repository benchmark's binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//   perfbench --list-metrics
//
// Untraced (--trace 0) it repeats untraced passes of the workload for about
// --seconds and reports the end-to-end metrics: medians of the host timings,
// the virtual time and the per-call latency percentiles of the workload's
// sync loop. Traced (--trace 1) it alternates untraced and traced passes and
// reports the per-layer metrics, the spans' self times and the tracing
// overhead, and writes the spans as Chrome trace JSON. Every pass of one
// seed must agree exactly on the virtual time and on every count (the
// determinism rail); a mismatch is a failed check. The last stdout line is
// the result object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported with --trace 0 (also printed: fail_frac, and each percentile's
/// sample count).
const std::vector<MetricDef> kEndToEnd = {
    {"sim_ms", "ms"},           {"host_s", "s"},
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"acquire_p50_us", "us"},   {"acquire_p99_us", "us"},
    {"fault_p50_us", "us"},     {"fault_p99_us", "us"},
    {"barrier_p50_us", "us"},   {"barrier_p99_us", "us"},
};

/// Reported with --trace 1.
const std::vector<MetricDef> kPerLayer = {
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.fibers", "count"},
    {"sim.cpu_busy_ms", "ms"},
    {"sim.cpu_max_share", "fraction"},
    {"marcel.threads", "count"},
    {"marcel.migrations", "count"},
    {"madeleine.msgs", "count"},
    {"madeleine.kb", "KiB"},
    {"madeleine.bytes_per_msg", "B"},
    {"madeleine.msgs.control", "count"},
    {"madeleine.msgs.page_request", "count"},
    {"madeleine.msgs.bulk", "count"},
    {"madeleine.msgs.migration", "count"},
    {"pm2.rpc_calls", "count"},
    {"pm2.image_bytes", "B"},
    {"dsm.read_faults", "count"},
    {"dsm.write_faults", "count"},
    {"dsm.access_p50_us", "us"},
    {"dsm.access_p99_us", "us"},
    {"dsm.access_n", "count"},
    {"dsm.release_p50_us", "us"},
    {"dsm.release_p99_us", "us"},
    {"dsm.release_n", "count"},
    {"dsm.acquire_n", "count"},
    {"dsm.fault_n", "count"},
    {"dsm.barrier_n", "count"},
    {"dsm.lock_wait_ms", "ms"},
    {"dsm.lock_handoffs", "count"},
    {"dsm.local_grants", "count"},
    {"dsm.redirects", "count"},
    {"dsm.invalidations_sent", "count"},
    {"dsm.notices_applied", "count"},
    {"dsm.diff_fetches", "count"},
    {"dsm.diffs_sent", "count"},
    {"dsm.diff_kb", "KiB"},
    {"dsm.diff_batches", "count"},
    {"dsm.twins_created", "count"},
    {"dsm.span_hit_frac", "fraction"},
    {"dsm.barriers_crossed", "count"},
    {"dsm.gc_rounds", "count"},
    {"dsm.retained_kb", "KiB"},
    {"dsm.inline_checks", "count"},
    {"dsm.gets", "count"},
    {"dsm.puts", "count"},
    {"dsm.home_migrations", "count"},
    {"dsm.manager_migrations", "count"},
    {"protocols.switches", "count"},
    {"protocols.switch_nacks", "count"},
    {"protocols.switch_useful_frac", "fraction"},
    {"protocols.classify_events", "count"},
    {"protocols.pages_reclassified", "count"},
    {"hyperion.gets_per_expansion", "count"},
    {"apps.expansions", "count"},
    {"apps.expansions_per_host_s", "1/s"},
    {"trace.spans", "count"},
    {"trace.overhead_s", "s"},
    {"trace.self_host_ms.bench", "ms"},
    {"trace.self_host_ms.pm2", "ms"},
    {"trace.self_host_ms.dsm", "ms"},
    {"trace.self_host_ms.hyperion", "ms"},
    {"trace.self_host_ms.apps", "ms"},
    {"trace.self_virtual_ms.bench", "ms"},
    {"trace.self_virtual_ms.pm2", "ms"},
    {"trace.self_virtual_ms.dsm", "ms"},
    {"trace.self_virtual_ms.hyperion", "ms"},
    {"trace.self_virtual_ms.apps", "ms"},
};

/// Layers the benchmark's spans are named after ("<layer>.<call>").
constexpr const char* kSpanLayers[] = {"bench", "pm2", "dsm", "hyperion", "apps"};

/// Sync-loop rounds whose spans go to the trace file (the metrics use all).
constexpr int kTraceFileRounds = 100;

/// Set-ups per run (each in its own child process) that feed the setup_s
/// median.
constexpr int kSetups = 15;

/// Host seconds kept back from the passes' budget for the application
/// workloads' extra sync loop (one mixed_sync pass, 1.4-2.3 s on a shared
/// 4-core x86 VM), so a run ends close to --seconds.
constexpr double kLatencyLoopReserveS = 2.5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>]\n       %s --list-metrics\n",
               argv0, argv0);
  std::exit(2);
}

void list_metrics() {
  const auto print = [](const char* key, const std::vector<MetricDef>& defs) {
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < defs.size(); ++i) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i > 0 ? ", " : "",
                  defs[i].name, defs[i].unit);
    }
    std::printf("]");
  };
  std::printf("{\"workloads\": [");
  for (std::size_t i = 0; i < workloads().size(); ++i) {
    std::printf("%s\"%s\"", i > 0 ? ", " : "", workloads()[i].name);
  }
  std::printf("], ");
  print("end_to_end", kEndToEnd);
  std::printf(", ");
  print("per_layer", kPerLayer);
  std::printf("}\n");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host seconds of one set-up, timed in a child forked before any pass.
/// Set-up time is mostly first-touch page faults, so it depends on what the
/// allocator kept from earlier set-ups and passes; in-process repeats varied
/// 4x between runs, while every child starts from the same state. Returns a
/// negative value when the child fails.
double setup_in_child(const Workload& wl, std::uint64_t seed) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const double s = wl.pass(seed, nullptr, true).setup_s;
    const bool sent = write(fds[1], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double s = -1;
  const bool got = pid > 0 && read(fds[0], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
  close(fds[0]);
  int status = 0;
  const bool ok = pid > 0 && waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                  WEXITSTATUS(status) == 0;
  return got && ok ? s : -1;
}

/// Everything a pass produces that must repeat exactly for one seed.
bool same_virtual_run(const PassResult& a, const PassResult& b) {
  return a.sim == b.sim && a.layers == b.layers &&
         a.host_marks.size() == b.host_marks.size() && a.ops.acquire == b.ops.acquire &&
         a.ops.release == b.ops.release && a.ops.access == b.ops.access &&
         a.ops.fault == b.ops.fault && a.ops.barrier == b.ops.barrier;
}

struct Run {
  std::uint64_t checks = 0;
  std::uint64_t failed = 0;
  bool rail_ok = true;

  /// Folds a pass's output checks in, and holds it to the reference pass.
  void add(const PassResult& pass, const PassResult& reference, const char* what) {
    checks += pass.checks + 1;
    failed += pass.failed;
    if (!same_virtual_run(pass, reference)) {
      ++failed;
      rail_ok = false;
      std::fprintf(stderr,
                   "DETERMINISM RAIL BROKEN: %s pass differs from the first pass "
                   "(sim %lld vs %lld ns)\n",
                   what, static_cast<long long>(pass.sim),
                   static_cast<long long>(reference.sim));
    }
  }
};

int run(const Options& opt) {
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (opt.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const double t_start = host_seconds();
  const auto elapsed = [&] { return host_seconds() - t_start; };
  const double budget = opt.seconds - (wl->is_sync_loop ? 0 : kLatencyLoopReserveS);
  Run run;
  Tracer tracer;
  Tracer* const traced = opt.trace ? &tracer : nullptr;

  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const double s = setup_in_child(*wl, opt.seed);
    ++run.checks;
    if (s < 0) {
      ++run.failed;
      std::fprintf(stderr, "FAILED CHECK: set-up child %d did not report\n", i);
    } else {
      setups.push_back(s);
    }
  }
  if (setups.empty()) setups.push_back(0);

  // Measured passes: at least one (two when traced: untraced + traced), then
  // more while another fits in the budget. Only the first pass is kept whole
  // (the rail's reference); of the others only the host-clock marks, a few
  // thousand doubles each.
  std::optional<PassResult> first_pass;
  std::vector<double> host;
  std::vector<double> traced_host;
  // Host-clock marks of each untraced and traced pass, for host_s.
  std::vector<std::vector<double>> marks;
  std::vector<std::vector<double>> traced_marks;
  double longest = 0;
  for (int i = 0;; ++i) {
    const bool traced_pass = opt.trace && i % 2 == 1;
    // Only the first traced pass keeps its spans; later ones time the
    // overhead into a scratch tracer.
    Tracer scratch;
    Tracer* const sink = traced_host.empty() ? traced : &scratch;
    const double before = elapsed();
    PassResult p = wl->pass(opt.seed, traced_pass ? sink : nullptr, false);
    longest = std::max(longest, elapsed() - before);
    run.add(p, first_pass ? *first_pass : p, traced_pass ? "traced" : "untraced");
    std::printf("pass %d (%s): setup %.4f s, host %.3f s, sim %.3f ms, checks %llu\n", i,
                traced_pass ? "traced" : "untraced", p.setup_s, p.host_s,
                dsmpm2::to_ms(p.sim), static_cast<unsigned long long>(run.checks));
    std::fflush(stdout);
    (traced_pass ? traced_host : host).push_back(p.host_s);
    if (run.rail_ok) (traced_pass ? traced_marks : marks).push_back(p.host_marks);
    if (!first_pass) first_pass = std::move(p);
    const bool enough = opt.trace ? traced_host.size() >= 1 : !host.empty();
    if (enough && elapsed() + longest > budget) break;
  }
  // Taken before the application workloads' extra sync loop, so it is the
  // workload's own peak.
  const double peak_rss = peak_rss_mb();

  // The sync loop's per-call latencies for the application workloads
  // (virtual, so one pass suffices; a traced mirror pass holds the rail in
  // traced mode).
  PassResult loop;
  if (!wl->is_sync_loop) {
    loop = run_sync_loop(opt.seed, nullptr, false);
    run.add(loop, loop, "latency loop");
    if (opt.trace) {
      run.add(run_sync_loop(opt.seed, traced, false), loop, "traced latency loop");
    }
  }
  const PassResult& first = *first_pass;
  const PassResult& lat = wl->is_sync_loop ? first : loop;

  const Tail acquire = summarize(lat.ops.acquire);
  const Tail fault = summarize(lat.ops.fault);
  const Tail barrier = summarize(lat.ops.barrier);
  const Tail access = summarize(lat.ops.access);
  const Tail release = summarize(lat.ops.release);
  // Every reported p99 needs ten samples beyond it.
  for (const Tail* t : {&acquire, &fault, &barrier, &access, &release}) {
    ++run.checks;
    if (!t->p99_supported) {
      ++run.failed;
      std::fprintf(stderr, "FAILED CHECK: a p99 from only %zu samples\n", t->n);
    }
  }
  // With the rail broken the passes' segments differ; fall back to medians.
  const double host_s = run.rail_ok ? fastest_segments(marks) : median(host);

  std::map<std::string, double> out;
  if (!opt.trace) {
    out["sim_ms"] = dsmpm2::to_ms(first.sim);
    out["host_s"] = host_s;
    out["setup_s"] = median(setups);
    out["peak_rss_mb"] = peak_rss;
    out["acquire_p50_us"] = acquire.p50;
    out["acquire_p99_us"] = acquire.p99;
    out["fault_p50_us"] = fault.p50;
    out["fault_p99_us"] = fault.p99;
    out["barrier_p50_us"] = barrier.p50;
    out["barrier_p99_us"] = barrier.p99;
  } else {
    out = first.layers;
    out["sim.host_ns_per_event"] =
        first.events > 0 ? host_s * 1e9 / static_cast<double>(first.events) : 0;
    out["apps.expansions_per_host_s"] = first.expansions / host_s;
    out["dsm.access_p50_us"] = access.p50;
    out["dsm.access_p99_us"] = access.p99;
    out["dsm.access_n"] = static_cast<double>(access.n);
    out["dsm.release_p50_us"] = release.p50;
    out["dsm.release_p99_us"] = release.p99;
    out["dsm.release_n"] = static_cast<double>(release.n);
    out["dsm.acquire_n"] = static_cast<double>(acquire.n);
    out["dsm.fault_n"] = static_cast<double>(fault.n);
    out["dsm.barrier_n"] = static_cast<double>(barrier.n);
    out["trace.spans"] = static_cast<double>(tracer.spans().size());
    out["trace.overhead_s"] =
        (run.rail_ok ? fastest_segments(traced_marks) : median(traced_host)) - host_s;
    const auto self_virtual = self_times(tracer.spans(), Clock::kVirtual);
    for (const char* layer : kSpanLayers) {
      out[std::string("trace.self_host_ms.") + layer] =
          layer_wall_self(tracer.spans(), layer, Clock::kHost) * 1e3;
      out[std::string("trace.self_virtual_ms.") + layer] = 0;
    }
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      out["trace.self_virtual_ms." + layer_of(tracer.spans()[i].name)] +=
          self_virtual[i] / 1e6;
    }
    if (!opt.trace_out.empty()) {
      ++run.checks;
      if (!tracer.write_chrome_json(opt.trace_out, kTraceFileRounds)) {
        std::fprintf(stderr, "FAILED CHECK: cannot write %s\n", opt.trace_out.c_str());
        ++run.failed;
      }
    }
  }

  // Human-readable report, then the result object as the last line.
  std::printf("workload %s, seed %llu: %zu untraced + %zu traced passes, %zu set-ups\n",
              wl->name, static_cast<unsigned long long>(opt.seed), host.size(),
              traced_host.size(), setups.size());
  std::printf("  %-32s %.6g\n", "fail_frac",
              static_cast<double>(run.failed) / static_cast<double>(run.checks));
  std::printf("  %-32s %s\n", "determinism rail", run.rail_ok ? "exact" : "BROKEN");
  std::printf("  %-32s %.6g s over %zu segments (median pass %.6g s)\n",
              "host_s fastest segments", host_s, first.host_marks.size() - 1,
              median(host));
  const auto& defs = opt.trace ? kPerLayer : kEndToEnd;
  for (const MetricDef& d : defs) {
    std::printf("  %-32s %.6g %s\n", d.name, out.at(d.name), d.unit);
  }
  if (!opt.trace) {
    std::printf("  samples: acquire n=%zu, fault n=%zu, barrier n=%zu\n", acquire.n,
                fault.n, barrier.n);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              run.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(run.checks),
              static_cast<unsigned long long>(run.failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                defs[i].name, out.at(defs[i].name), defs[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) perfbench::usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--list-metrics") {
      perfbench::list_metrics();
      return 0;
    } else if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else {
      perfbench::usage(argv[0]);
    }
  }
  if (opt.workload.empty()) perfbench::usage(argv[0]);
  return perfbench::run(opt);
}
