// The seeded lock/barrier loop: the mixed_sync workload, and the per-call
// latency loop of the application workloads (on their own cluster shape).
//
// Pages are allocated under the adaptive protocol (the advisor rebinds each
// page online), with home and manager migration on at their default
// thresholds; failover stays off (adaptive switching plus failover aborts
// today, ROADMAP open item 1). Four page groups after bench_adaptive, each
// guarded by its own lock, one long-lived worker per node and one barrier
// crossing per round:
//   * migratory (3 pages): two seeded writers per round each rewrite the same
//     run of words after reading one word of that half page, plus an
//     auditor's read every fourth round;
//   * read-mostly (3 pages): node 0 refreshes one hot word, every other node
//     reads a hot word;
//   * producer-consumer (1 page): a seeded producer writes a word, a seeded
//     consumer reads it and writes it back as an acknowledgement;
//   * false sharing (1 page): three seeded writers each rewrite a run of
//     their own quarter of the page.
// The seed fixes every choice above and the order in which each worker
// visits its critical sections in a round. Every read is made under its
// group's lock and checked against a host-side shadow of the shared data,
// and after the last round every written word is read back and checked.
#include <algorithm>
#include <array>
#include <memory>

#include "common/rng.hpp"
#include "dsm/dsm.hpp"
#include "pm2/pm2.hpp"
#include "workloads.hpp"

namespace perfbench {

using dsmpm2::DsmAddr;
using dsmpm2::NodeId;
using dsmpm2::Rng;
using dsmpm2::SimTime;
namespace dsm = dsmpm2::dsm;
namespace pm2 = dsmpm2::pm2;

namespace {

constexpr int kNodes = 8;
/// Rounds per pass: >= 1000 samples of every call kind, and enough that
/// the percentiles settle (1600 rounds spread fault_p50 by 11% over seeds).
constexpr int kRounds = 3200;
/// HostSampler period: ~3200 segments of ~0.6 ms host time per ~2 s pass.
constexpr SimTime kTick = 1 * dsmpm2::kNsPerMs;
constexpr std::size_t kGroups = 4;
constexpr int kMig = 0;
constexpr int kRm = 1;
constexpr int kPc = 2;
constexpr int kFs = 3;
/// First page index and page count of each group.
constexpr std::array<int, kGroups> kFirstPage{0, 3, 6, 7};
constexpr std::array<int, kGroups> kPages{3, 3, 1, 1};
constexpr int kTotalPages = 8;
constexpr std::uint32_t kWords = 4096 / 8;  // 64-bit words per page
constexpr std::uint32_t kHalf = kWords / 2;
constexpr std::uint32_t kQuarter = kWords / 4;
constexpr std::uint32_t kMigRun = 32;
constexpr std::uint32_t kFsRun = 16;
constexpr std::uint32_t kHotWords = 8;

/// One critical section: acquire the group's lock, optionally read one word
/// (checked), optionally write a run of words, release.
struct Cs {
  int group = 0;
  int page = 0;
  bool read = false;
  std::uint32_t read_word = 0;
  std::uint32_t write_word = 0;
  std::uint32_t write_len = 0;
  /// Producer-consumer ack: write back the value just read.
  bool echo = false;
};

constexpr std::array<const char*, kGroups> group_read_check{
    "migratory read under lock", "read-mostly read under lock",
    "producer-consumer read under lock", "false-sharing read under lock"};

/// A word value that changes every byte, so diffs are honestly word-sized.
std::uint64_t word_value(int round, int worker, std::uint32_t word) {
  std::uint64_t x = (static_cast<std::uint64_t>(round) << 40) ^
                    (static_cast<std::uint64_t>(worker) << 32) ^ word;
  x ^= x >> 31;
  x *= 0x9e3779b97f4a7c15ULL;
  return x ^ (x >> 29);
}

/// plan[round][worker]: the worker's critical sections in execution order.
using Plan = std::vector<std::vector<std::vector<Cs>>>;

Plan make_plan(int nodes, int rounds, std::uint64_t seed) {
  Rng rng(seed);
  const auto below = [&](std::uint64_t n) {
    return static_cast<std::uint32_t>(rng.next_below(n));
  };
  Plan plan(static_cast<std::size_t>(rounds),
            std::vector<std::vector<Cs>>(static_cast<std::size_t>(nodes)));
  for (int r = 0; r < rounds; ++r) {
    auto& round = plan[static_cast<std::size_t>(r)];
    const auto add = [&](std::uint32_t worker, const Cs& cs) { round[worker].push_back(cs); };
    // Migratory: a seeded pair rewrites the start of one half of one page.
    const std::uint32_t a = below(static_cast<std::uint64_t>(nodes));
    const std::uint32_t b = (a + 1 + below(static_cast<std::uint64_t>(nodes - 1))) %
                            static_cast<std::uint32_t>(nodes);
    const int mig_page = kFirstPage[kMig] + static_cast<int>(below(kPages[kMig]));
    const std::uint32_t half = below(2) * kHalf;
    for (const std::uint32_t w : {a, b}) {
      add(w, Cs{kMig, mig_page, true, half + below(kHalf), half, kMigRun, false});
    }
    if (r % 4 == 3) {
      add(below(static_cast<std::uint64_t>(nodes)),
          Cs{kMig, kFirstPage[kMig] + static_cast<int>(below(kPages[kMig])), true,
             below(kWords), 0, 0, false});
    }
    // Read-mostly: node 0 refreshes a hot word, the others read one.
    const auto hot = [&] { return below(kHotWords) * (kWords / kHotWords); };
    const auto rm_page = [&] {
      return kFirstPage[kRm] + static_cast<int>(below(kPages[kRm]));
    };
    add(0, Cs{kRm, rm_page(), false, 0, hot(), 1, false});
    for (std::uint32_t n = 1; n < static_cast<std::uint32_t>(nodes); ++n) {
      add(n, Cs{kRm, rm_page(), true, hot(), 0, 0, false});
    }
    // Producer-consumer: word 2k carries the datum, 2k+1 the ack.
    const std::uint32_t prod = 1 + below(static_cast<std::uint64_t>(nodes - 1));
    const std::uint32_t cons =
        1 + (prod - 1 + 1 + below(static_cast<std::uint64_t>(nodes - 2))) %
                static_cast<std::uint32_t>(nodes - 1);
    const std::uint32_t pc_word = 2 * below(32);
    add(prod, Cs{kPc, kFirstPage[kPc], false, 0, pc_word, 1, false});
    add(cons, Cs{kPc, kFirstPage[kPc], true, pc_word, pc_word + 1, 1, true});
    // False sharing: three distinct writers, each in its own quarter.
    std::vector<std::uint32_t> writers;
    while (writers.size() < 3) {
      const std::uint32_t w = 1 + below(static_cast<std::uint64_t>(nodes - 1));
      if (std::find(writers.begin(), writers.end(), w) == writers.end()) {
        writers.push_back(w);
      }
    }
    for (const std::uint32_t w : writers) {
      const std::uint32_t start = (w % 4) * kQuarter + below(kQuarter / kFsRun) * kFsRun;
      add(w, Cs{kFs, kFirstPage[kFs], true, start, start, kFsRun, false});
    }
    // Each worker visits its critical sections in a seeded order.
    for (auto& list : round) {
      for (std::size_t i = list.size(); i > 1; --i) {
        std::swap(list[i - 1], list[rng.next_below(i)]);
      }
    }
  }
  return plan;
}

class Loop {
 public:
  Loop(pm2::Runtime& rt, dsm::Dsm& d, const std::vector<DsmAddr>& pages,
       const std::array<int, kGroups>& locks, int barrier, Tracer* tracer,
       PassResult& out)
      : rt_(rt), dsm_(d), pages_(pages), locks_(locks), barrier_(barrier),
        tracer_(tracer), out_(out),
        shadow_(static_cast<std::size_t>(kTotalPages),
                std::vector<std::uint64_t>(kWords, 0)),
        written_(static_cast<std::size_t>(kTotalPages),
                 std::vector<bool>(kWords, false)) {}

  void worker(int w, const Plan& plan) {
    for (int r = 0; r < static_cast<int>(plan.size()); ++r) {
      for (const Cs& cs : plan[static_cast<std::size_t>(r)][static_cast<std::size_t>(w)]) {
        critical_section(cs, r, w);
      }
      timed("dsm.barrier_wait", &out_.ops.barrier, r,
            [&] { dsm_.barrier_wait(barrier_); });
    }
  }

  /// Reads back every word ever written, each group under its lock.
  void verify() {
    for (std::size_t g = 0; g < kGroups; ++g) {
      dsm_.lock_acquire(locks_[g]);
      for (int p = kFirstPage[g]; p < kFirstPage[g] + kPages[g]; ++p) {
        const auto page = static_cast<std::size_t>(p);
        for (std::uint32_t i = 0; i < kWords; ++i) {
          if (!written_[page][i]) continue;
          out_.check(dsm_.read<std::uint64_t>(addr(p, i)) == shadow_[page][i],
                     "final page contents");
        }
      }
      dsm_.lock_release(locks_[g]);
    }
  }

  void set_parent(int span) { parent_ = span; }

 private:
  [[nodiscard]] DsmAddr addr(int page, std::uint32_t word) const {
    return pages_[static_cast<std::size_t>(page)] + word * 8;
  }

  template <typename F>
  void timed(const char* name, std::vector<double>* sink, int round, F&& call) {
    const SimTime v0 = rt_.now();
    {
      ScopedSpan span(tracer_, name, parent_, [&] { return rt_.now(); }, round,
                      static_cast<int>(rt_.self_node()));
      call();
    }
    sink->push_back(dsmpm2::to_us(rt_.now() - v0));
  }

  [[nodiscard]] std::uint64_t faults(NodeId n) const {
    return dsm_.counters().get(n, dsm::Counter::kReadFaults) +
           dsm_.counters().get(n, dsm::Counter::kWriteFaults);
  }

  /// One read or write call: an access sample, and a fault sample when the
  /// calling node's fault counters moved across it.
  template <typename F>
  void access(const char* name, int round, F&& call) {
    const NodeId node = rt_.self_node();
    const std::uint64_t f0 = faults(node);
    timed(name, &out_.ops.access, round, call);
    if (faults(node) != f0) out_.ops.fault.push_back(out_.ops.access.back());
  }

  void critical_section(const Cs& cs, int round, int w) {
    const int lock = locks_[static_cast<std::size_t>(cs.group)];
    timed("dsm.lock_acquire", &out_.ops.acquire, round,
          [&] { dsm_.lock_acquire(lock); });
    auto& shadow = shadow_[static_cast<std::size_t>(cs.page)];
    std::uint64_t seen = 0;
    if (cs.read) {
      access("dsm.read", round,
             [&] { seen = dsm_.read<std::uint64_t>(addr(cs.page, cs.read_word)); });
      out_.check(seen == shadow[cs.read_word], group_read_check[cs.group]);
    }
    for (std::uint32_t i = 0; i < cs.write_len; ++i) {
      const std::uint32_t word = cs.write_word + i;
      const std::uint64_t v = cs.echo ? seen : word_value(round, w, word);
      access("dsm.write", round,
             [&] { dsm_.write<std::uint64_t>(addr(cs.page, word), v); });
      shadow[word] = v;
      written_[static_cast<std::size_t>(cs.page)][word] = true;
    }
    timed("dsm.lock_release", &out_.ops.release, round,
          [&] { dsm_.lock_release(lock); });
  }

  pm2::Runtime& rt_;
  dsm::Dsm& dsm_;
  const std::vector<DsmAddr>& pages_;
  const std::array<int, kGroups>& locks_;
  int barrier_;
  Tracer* tracer_;
  PassResult& out_;
  int parent_ = kNoParent;
  std::vector<std::vector<std::uint64_t>> shadow_;
  std::vector<std::vector<bool>> written_;
};

}  // namespace

PassResult run_sync_loop(std::uint64_t seed, Tracer* tracer, bool setup_only) {
  PassResult out;
  const Plan plan = make_plan(kNodes, kRounds, seed);

  const double s0 = host_seconds();
  const int setup_span =
      tracer != nullptr ? tracer->begin("bench.setup", kNoParent, -1, 0, 0) : kNoParent;
  pm2::Config cfg;
  cfg.nodes = kNodes;
  cfg.driver = dsmpm2::madeleine::bip_myrinet();
  auto rt = make_traced<pm2::Runtime>(tracer, "pm2.Runtime", setup_span, cfg);
  dsm::DsmConfig dcfg;
  dcfg.enable_adaptive_protocols = true;
  dcfg.enable_home_migration = true;
  dcfg.enable_manager_migration = true;
  auto d = make_traced<dsm::Dsm>(tracer, "dsm.Dsm", setup_span, *rt, dcfg);
  const dsm::ProtocolId proto = d->builtin().adaptive;
  std::vector<DsmAddr> pages;
  std::array<int, kGroups> locks{};
  int barrier = 0;
  {
    ScopedSpan span(tracer, "dsm.allocate", setup_span, [] { return SimTime{0}; });
    dsm::AllocAttr attr;
    attr.protocol = proto;
    attr.home_policy = dsm::HomePolicy::kFixed;
    attr.fixed_home = 0;
    for (int p = 0; p < kTotalPages; ++p) {
      pages.push_back(d->dsm_malloc(d->config().page_size, attr));
    }
    for (int& lock : locks) lock = d->create_lock(proto);
    barrier = d->create_barrier(kNodes, proto);
  }
  if (tracer != nullptr) tracer->end(setup_span, 0);
  out.setup_s = host_seconds() - s0;
  if (setup_only) return out;

  Loop loop(*rt, *d, pages, locks, barrier, tracer, out);
  SimTime loop_begin = 0;
  SimTime loop_end = 0;
  const double h0 = host_seconds();
  HostSampler sampler(*rt, kTick, out.host_marks);
  const pm2::RunStats stats = [&] {
    ScopedSpan span(tracer, "pm2.run", kNoParent, [&] { return rt->now(); });
    loop.set_parent(span.id());
    return rt->run([&] {
      loop_begin = rt->now();
      std::vector<dsmpm2::marcel::Thread*> workers;
      for (int w = 0; w < kNodes; ++w) {
        workers.push_back(&rt->spawn_on(static_cast<NodeId>(w), "sync.worker",
                                        [&, w] { loop.worker(w, plan); }));
      }
      for (auto* t : workers) rt->threads().join(*t);
      loop_end = rt->now();
      auto& v = rt->spawn_on(static_cast<NodeId>(kNodes - 1), "sync.verify",
                             [&] { loop.verify(); });
      rt->threads().join(v);
    });
  }();
  sampler.finish();
  out.host_s = host_seconds() - h0;
  out.sim = loop_end - loop_begin;
  collect_layers(*rt, *d, stats, out);
  return out;
}

}  // namespace perfbench
