// Tests of the benchmark's own helpers: percentiles under the "ten samples
// beyond" rule, the fastest-segments host time, and span self time. Exits
// non-zero on the first failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentiles() {
  using namespace perfbench;
  // Distinct samples: value i sits at mid-CDF (i - 0.5)/n.
  expect(near(percentile(one_to(100), 0.50), 50.5), "p50 of 1..100");
  expect(near(percentile(one_to(100), 0.99), 99.5), "p99 of 1..100");
  expect(near(percentile(one_to(100), 0.001), 1), "below the first mid");
  expect(near(percentile(one_to(100), 1.0), 100), "above the last mid");
  expect(near(percentile({7.0}, 0.99), 7), "p99 of one sample");
  // Discrete samples: 30 at 1, 70 at 5 -> mids 0.15 and 0.65. The median
  // interpolates (0.5 - 0.15) / 0.5 of the way from 1 to 5, and moves
  // continuously as the mix shifts instead of jumping to a mode.
  std::vector<double> discrete(30, 1.0);
  discrete.insert(discrete.end(), 70, 5.0);
  expect(near(percentile(discrete, 0.5), 1 + 0.7 * 4), "mid-quantile of two modes");
  discrete.push_back(1.0);
  const double shifted = percentile(discrete, 0.5);
  expect(shifted < 1 + 0.7 * 4 && shifted > 3.5, "one more sample moves it a little");
  expect(near(percentile(discrete, 0.9), 5), "inside the upper mode");
  expect(near(median({3, 1, 2}), 2), "odd median");
  expect(near(median({4, 1, 3, 2}), 2.5), "even median");
  // p99 needs ten samples beyond it: 1000 samples is the least.
  expect(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  expect(percentile_supported(1000, 0.99), "p99 supported at n=1000");
  expect(!percentile_supported(999, 0.99), "p99 unsupported at n=999");
  expect(percentile_supported(20, 0.50), "p50 supported at n=20");
  expect(!percentile_supported(19, 0.50), "p50 unsupported at n=19");
  expect(!percentile_supported(0, 0.50), "nothing supported at n=0");
  const Tail t = summarize(one_to(1000));
  expect(t.n == 1000 && near(t.p50, 500.5) && near(t.p99, 990.5) && t.p99_supported,
         "summarize 1..1000");
  const Tail small = summarize(one_to(500));
  expect(small.n == 500 && !small.p99_supported, "summarize flags a thin tail");
  expect(summarize({}).n == 0, "summarize of no samples");
}

void fastest_segments() {
  using perfbench::fastest_segments;
  // Host-clock marks of three passes over the same three segments. Each
  // segment's fastest pass differs: 1 (pass b) + 2 (pass a) + 1 (pass c).
  const std::vector<double> a{10, 12, 14, 16};
  const std::vector<double> b{0, 1, 5, 8};
  const std::vector<double> c{3, 6, 9, 10};
  expect(near(fastest_segments({a, b, c}), 4), "fastest of each segment");
  expect(near(fastest_segments({b}), 8), "one pass is its own length");
  expect(near(fastest_segments({a, a}), 6), "identical passes");
  expect(near(fastest_segments({{5, 7}, {1, 4}}), 2), "a single segment");
  expect(fastest_segments({a, b, c}) <= 6, "never above the fastest pass");
}

void self_times() {
  using namespace perfbench;
  expect(near(self_time({0, 10}, {}), 10), "no children");
  expect(near(self_time({0, 10}, {{2, 4}, {6, 7}}), 7), "disjoint children");
  expect(near(self_time({0, 10}, {{2, 6}, {4, 8}}), 4), "overlapping children count once");
  expect(near(self_time({0, 10}, {{3, 5}, {3, 4}}), 8), "nested children");
  expect(near(self_time({0, 10}, {{-5, 2}, {9, 20}}), 7), "children clipped to parent");

  // A three-level tree through the recorder, on the virtual clock.
  Tracer tr;
  const int root = tr.begin("pm2.run", kNoParent, -1, 0, 0);
  const int a = tr.begin("dsm.lock_acquire", root, 0, 1, 10);
  tr.end(a, 30);
  const int b = tr.begin("dsm.read", root, 0, 2, 20);  // overlaps a (another fiber)
  const int c = tr.begin("dsm.inner", b, 0, 2, 22);
  tr.end(c, 25);
  tr.end(b, 40);
  tr.end(root, 100);
  const auto self = perfbench::self_times(tr.spans(), Clock::kVirtual);
  expect(near(self[static_cast<std::size_t>(root)], 70), "root self = 100 - [10,40]");
  expect(near(self[static_cast<std::size_t>(a)], 20), "leaf self = duration");
  expect(near(self[static_cast<std::size_t>(b)], 17), "mid self = 20 - 3");
  expect(layer_of("dsm.lock_acquire") == "dsm", "layer of a span name");
  // Layer wall time: the two concurrent dsm spans cover [10,40] once, minus
  // their child [22,25]; pm2 is open over [0,100] minus that same [10,40].
  expect(near(layer_wall_self(tr.spans(), "dsm", Clock::kVirtual), 27),
         "dsm wall self counts concurrent spans once");
  expect(near(layer_wall_self(tr.spans(), "pm2", Clock::kVirtual), 70), "pm2 wall self");
  expect(near(union_length({{0, 2}, {1, 3}, {5, 6}}), 4), "union length");
}

}  // namespace

int main() {
  percentiles();
  fastest_segments();
  self_times();
  if (failures == 0) std::printf("perfbench helpers: all tests passed\n");
  return failures == 0 ? 0 : 1;
}
