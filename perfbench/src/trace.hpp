// In-memory span recorder for the traced benchmark mode.
//
// Spans are recorded by the benchmark around its own calls into each layer's
// public API (constructors, rt.run, apps::run_*, DSM calls); nothing inside
// src/ is instrumented. Each span carries both clocks: virtual time (the
// modelled cluster, deterministic) and host time (the simulator's own speed).
// Recording charges no simulated time, so a traced run keeps the untraced
// run's virtual schedule exactly. Spans are written out at the end as Chrome
// trace-event JSON (chrome://tracing, Perfetto).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace perfbench {

inline constexpr int kNoParent = -1;

struct Span {
  const char* name = "";  ///< "<layer>.<call>", a string literal
  int parent = kNoParent;
  int round = -1;  ///< workload round the call belongs to (-1: none)
  int node = 0;    ///< node the call was issued on
  dsmpm2::SimTime v_begin = 0;
  dsmpm2::SimTime v_end = 0;
  double h_begin = 0;  ///< host seconds since the tracer was created
  double h_end = 0;
};

/// The layer a span belongs to: its name up to the first '.'.
inline std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

struct Interval {
  double begin = 0;
  double end = 0;
};

/// Length of the union of `intervals` (overlaps counted once).
inline double union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  double covered = 0;
  double cursor = 0;
  bool first = true;
  for (const Interval& iv : intervals) {
    const double b = first ? iv.begin : std::max(iv.begin, cursor);
    if (iv.end > b) {
      covered += iv.end - b;
      cursor = iv.end;
      first = false;
    }
  }
  return covered;
}

/// A span's self time: its length minus the part of it its children cover
/// (overlapping children counted once, children clipped to the parent).
inline double self_time(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  return (parent.end - parent.begin) - union_length(std::move(children));
}

enum class Clock { kVirtual, kHost };

inline Interval interval_of(const Span& s, Clock clock) {
  if (clock == Clock::kVirtual) {
    return {static_cast<double>(s.v_begin), static_cast<double>(s.v_end)};
  }
  return {s.h_begin, s.h_end};
}

/// Self time of every span, in the clock's unit (ns virtual, s host).
inline std::vector<double> self_times(const std::vector<Span>& spans, Clock clock) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent) {
      children[static_cast<std::size_t>(s.parent)].push_back(interval_of(s, clock));
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = self_time(interval_of(spans[i], clock), std::move(children[i]));
  }
  return out;
}

/// Wall time during which some span of `layer` was open and none of that
/// layer's children was. Spans on concurrent fibers overlap on the host
/// clock, so summing per-span self times would count that wall time twice.
inline double layer_wall_self(const std::vector<Span>& spans, const std::string& layer,
                              Clock clock) {
  std::vector<Interval> own;
  std::vector<Interval> children;
  for (const Span& s : spans) {
    if (s.parent != kNoParent &&
        layer_of(spans[static_cast<std::size_t>(s.parent)].name) == layer) {
      children.push_back(interval_of(s, clock));
    }
    if (layer_of(s.name) == layer) own.push_back(interval_of(s, clock));
  }
  return union_length(std::move(own)) - union_length(std::move(children));
}

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span and returns its id (the index into spans()).
  int begin(const char* name, int parent, int round, int node, dsmpm2::SimTime vnow) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.round = round;
    s.node = node;
    s.v_begin = vnow;
    s.h_begin = host_now();
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id, dsmpm2::SimTime vnow) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.v_end = vnow;
    s.h_end = host_now();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes spans as Chrome "complete" events on the virtual timeline (one
  /// track per node), host timings and self times in their args. Spans of
  /// rounds >= `max_round` are left out to bound the file's size.
  bool write_chrome_json(const std::string& path, int max_round) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const auto self_v = self_times(spans_, Clock::kVirtual);
    const auto self_h = self_times(spans_, Clock::kHost);
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    const char* sep = "";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.round >= max_round) continue;
      std::fprintf(
          f,
          "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
          "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
          "\"parent\": %d, \"round\": %d, \"host_begin_us\": %.3f, "
          "\"host_dur_us\": %.3f, \"self_virtual_us\": %.3f, "
          "\"self_host_us\": %.3f}}\n",
          sep, s.name, layer_of(s.name).c_str(), s.node, dsmpm2::to_us(s.v_begin),
          dsmpm2::to_us(s.v_end - s.v_begin), i, s.parent, s.round, s.h_begin * 1e6,
          (s.h_end - s.h_begin) * 1e6, self_v[i] / 1e3, self_h[i] * 1e6);
      sep = ",";
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] double host_now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a no-op when
/// the tracer is null (the untraced mode).
template <typename Now>
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, Now now, int round = -1,
             int node = 0)
      : tracer_(tracer), now_(now) {
    if (tracer_ != nullptr) id_ = tracer_->begin(name, parent, round, node, now_());
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_, now_());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  Now now_;
  int id_ = kNoParent;
};

/// Host seconds on the steady clock.
inline double host_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Constructs a T under a span (set-up runs before virtual time starts).
template <typename T, typename... Args>
std::unique_ptr<T> make_traced(Tracer* tracer, const char* name, int parent,
                               Args&&... args) {
  ScopedSpan span(tracer, name, parent, [] { return dsmpm2::SimTime{0}; });
  return std::make_unique<T>(std::forward<Args>(args)...);
}

}  // namespace perfbench
