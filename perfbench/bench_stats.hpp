// The benchmark's own arithmetic: percentiles with the "at least ten
// samples beyond" rule, median-of-passes aggregation, process CPU
// bookkeeping, and an in-memory span recorder with self-time attribution
// and a Chrome trace-event JSON writer. Header-only; selftest.cpp checks
// every piece.

#ifndef PERFBENCH_BENCH_STATS_HPP_
#define PERFBENCH_BENCH_STATS_HPP_

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "metrics/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- Percentiles ---------------------------------------------------------

/// p-th percentile (p in [0, 100]): the library's linear interpolation
/// between closest ranks, non-finite samples dropped, 0 when empty.
using psi::Percentile;

inline double Median(std::span<const double> v) {
  return psi::Percentile(v, 50.0);
}

/// Samples of `n` that lie strictly beyond the p-th percentile rank:
/// n - ceil(n * p / 100).
inline size_t SamplesBeyond(size_t n, double p) {
  const auto at = static_cast<size_t>(
      std::ceil(static_cast<double>(n) * p / 100.0 - 1e-9));
  return n > at ? n - at : 0;
}

/// A percentile is reportable only when at least ten samples lie beyond
/// it (p99 therefore needs >= 1000 samples).
inline bool PercentileSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= 10;
}

// ---- Median of passes ----------------------------------------------------

/// Per-query latency samples across interleaved passes: `ms[q]` holds one
/// entry per pass that served query q.
class PassMatrix {
 public:
  explicit PassMatrix(size_t queries = 0) : ms_(queries) {}
  void Add(size_t query, double ms) { ms_[query].push_back(ms); }
  size_t samples(size_t query) const { return ms_[query].size(); }
  /// Each query's median over its passes; queries never served are left
  /// out.
  std::vector<double> PerQueryMedians() const {
    std::vector<double> out;
    out.reserve(ms_.size());
    for (const auto& row : ms_) {
      if (!row.empty()) out.push_back(Median(row));
    }
    return out;
  }

 private:
  std::vector<std::vector<double>> ms_;
};

// ---- CPU bookkeeping -----------------------------------------------------

/// Process user+sys CPU time in ms: every thread of the process, so pool
/// workers and all client threads are included.
inline double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// Peak resident set size in MB (Linux reports ru_maxrss in KiB).
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Accumulates CPU time and completed queries over timed windows only
/// (set-up, reference computation and calibration stay outside).
class CpuAccount {
 public:
  void Begin() { start_ms_ = ProcessCpuMs(); }
  /// Closes a window in which `queries` queries completed (summed over
  /// every client thread by the caller).
  void End(uint64_t queries) {
    cpu_ms_ += ProcessCpuMs() - start_ms_;
    queries_ += queries;
  }
  double cpu_ms() const { return cpu_ms_; }
  uint64_t queries() const { return queries_; }
  double per_query() const {
    return queries_ == 0 ? 0.0 : cpu_ms_ / static_cast<double>(queries_);
  }

 private:
  double start_ms_ = 0.0;
  double cpu_ms_ = 0.0;
  uint64_t queries_ = 0;
};

// ---- Spans ---------------------------------------------------------------

/// One timed call into a layer. `parent` is 0 for a root span; spans of
/// one request share `query`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t query = 0;
  uint32_t tid = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t dur_ns() const { return end_ns - start_ns; }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Per-thread span buffer: no locking on the record path. Ids are unique
/// across buffers (thread id in the high bits).
class SpanBuffer {
 public:
  explicit SpanBuffer(uint32_t tid = 0) : tid_(tid) {}

  /// Opens a span and returns its id.
  uint64_t Begin(std::string name, uint64_t parent, uint64_t query) {
    Span s;
    s.id = (static_cast<uint64_t>(tid_) << 40) | ++next_;
    s.parent = parent;
    s.query = query;
    s.tid = tid_;
    s.name = std::move(name);
    s.start_ns = NowNs();
    open_.push_back(spans_.size());
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  /// Closes the innermost open span.
  void End() {
    spans_[open_.back()].end_ns = NowNs();
    open_.pop_back();
  }
  /// Records an already-measured interval (e.g. a matcher's own
  /// elapsed time, placed at the end of its enclosing span).
  void Add(std::string name, uint64_t parent, uint64_t query,
           int64_t start_ns, int64_t end_ns) {
    Span s;
    s.id = (static_cast<uint64_t>(tid_) << 40) | ++next_;
    s.parent = parent;
    s.query = query;
    s.tid = tid_;
    s.name = std::move(name);
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(std::move(s));
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t tid_;
  uint64_t next_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span on a buffer; nullptr buffer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, std::string name, uint64_t parent,
             uint64_t query)
      : buf_(buf),
        id_(buf != nullptr ? buf->Begin(std::move(name), parent, query)
                           : 0) {}
  ~ScopedSpan() {
    if (buf_ != nullptr) buf_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanBuffer* buf_;
  uint64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children counted once, parts
/// outside the parent ignored). Keyed by span id.
inline std::map<uint64_t, int64_t> SelfTimes(std::span<const Span> spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const Span& s : spans) {
    if (s.parent != 0) kids[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<uint64_t, int64_t> out;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    out[s.id] = s.dur_ns() - covered;
  }
  return out;
}

/// Sum of self time per span name, in ms.
inline std::map<std::string, double> SelfMsByName(
    std::span<const Span> spans) {
  const auto self = SelfTimes(spans);
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    out[s.name] += static_cast<double>(self.at(s.id)) / 1e6;
  }
  return out;
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Chrome trace-event JSON ("X" complete events, microsecond times
/// relative to the earliest span), readable by Perfetto and
/// chrome://tracing.
inline std::string ChromeTraceJson(std::span<const Span> spans) {
  int64_t t0 = 0;
  bool first = true;
  for (const Span& s : spans) {
    if (first || s.start_ns < t0) t0 = s.start_ns;
    first = false;
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",";
    out += "\n{\"name\":\"" + JsonEscape(s.name) + "\",\"cat\":\"perfbench\"";
    std::snprintf(buf, sizeof buf,
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                  "\"query\":%llu}}",
                  s.tid, static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.dur_ns()) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.query));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

// ---- Host calibration ----------------------------------------------------

/// A fixed stand-in for a serving query, independent of the repository's
/// code, that is slow when the host is slow in the ways the serving path
/// is. On a shared VM the host's speed drifts with what other tenants do,
/// and a pure ALU loop does not see it. The stand-in is a small race: in
/// each of kRounds rounds the caller wakes kHelpers helper threads through
/// a condition variable, each helper does a short piece of graph work, and
/// the caller sleeps until both are done. So it has the serving path's
/// hand-offs, where the wake-up of an idle vCPU goes through the
/// hypervisor, and graph work on the vCPUs the pool would use, with a
/// working set beyond the per-core L2 cache that feels contention in the
/// shared cache and memory. The graph work counts triangles through
/// vertices of a seeded random graph (2^17 vertices, average degree ~16,
/// ~9 MB) by sorted-list merging; each round takes the next vertices of a
/// fixed permutation, so it never finds its data in a private cache,
/// whatever ran before it.
class HostCalibration {
 public:
  static constexpr uint32_t kVertices = 1u << 17;
  static constexpr uint32_t kEdgesPerVertex = 8;  ///< each side: degree ~16
  static constexpr int kHelpers = 2;
  static constexpr int kRounds = 64;
  static constexpr uint32_t kPerTask = 8;  ///< vertices per helper and round

  HostCalibration() {
    // Two passes over the same seeded edge stream: degrees, then lists;
    // no edge list is ever held, so the kernel adds only its graph to the
    // process's peak RSS.
    const auto edges = [](auto&& add) {
      uint64_t x = 0x2545F4914F6CDD1Dull;
      for (uint32_t v = 0; v < kVertices; ++v) {
        for (uint32_t k = 0; k < kEdgesPerVertex; ++k) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          const auto u = static_cast<uint32_t>(x % kVertices);
          if (u != v) add(v, u);
        }
      }
    };
    std::vector<uint32_t> end(kVertices + 1, 0);
    edges([&](uint32_t v, uint32_t u) {
      ++end[v + 1];
      ++end[u + 1];
    });
    for (uint32_t v = 0; v < kVertices; ++v) end[v + 1] += end[v];
    adjacency_.resize(end[kVertices]);
    std::vector<uint32_t> fill(end.begin(), end.end() - 1);
    edges([&](uint32_t v, uint32_t u) {
      adjacency_[fill[v]++] = u;
      adjacency_[fill[u]++] = v;
    });
    // Sort each list and drop repeated neighbours, compacting in place.
    offsets_.assign(kVertices + 1, 0);
    uint32_t out = 0;
    for (uint32_t v = 0; v < kVertices; ++v) {
      auto first = adjacency_.begin() + end[v];
      auto last = adjacency_.begin() + end[v + 1];
      std::sort(first, last);
      last = std::unique(first, last);
      for (auto it = first; it != last; ++it) adjacency_[out++] = *it;
      offsets_[v + 1] = out;
    }
    adjacency_.resize(out);
    adjacency_.shrink_to_fit();
    for (int h = 0; h < kHelpers; ++h) {
      helpers_.emplace_back([this, h] { Helper(h); });
    }
  }

  ~HostCalibration() {
    {
      std::lock_guard<std::mutex> l(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& t : helpers_) t.join();
  }
  HostCalibration(const HostCalibration&) = delete;
  HostCalibration& operator=(const HostCalibration&) = delete;

  /// The i-th vertex of the fixed probe order. An odd multiplier permutes
  /// [0, kVertices), so every kVertices consecutive i cover the graph once.
  static uint32_t Vertex(uint64_t i) {
    return static_cast<uint32_t>((i * 2654435761u) % kVertices);
  }

  /// Triangles through vertices Vertex(first) .. Vertex(first + n - 1),
  /// each counted once per probed vertex and neighbour.
  uint64_t Count(uint64_t first, uint32_t n) const {
    uint64_t triangles = 0;
    for (uint64_t i = first; i < first + n; ++i) {
      const uint32_t v = Vertex(i);
      for (uint32_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
        const uint32_t u = adjacency_[e];
        uint32_t a = offsets_[v], b = offsets_[u];
        while (a < offsets_[v + 1] && b < offsets_[u + 1]) {
          const uint32_t av = adjacency_[a], bv = adjacency_[b];
          triangles += av == bv;
          a += av <= bv;
          b += bv <= av;
        }
      }
    }
    return triangles;
  }

  /// Wall time in ms of one stand-in query (kRounds rounds).
  double Ms() {
    const auto t0 = Clock::now();
    std::unique_lock<std::mutex> l(mu_);
    for (int r = 0; r < kRounds; ++r) {
      ++round_;
      pending_ = kHelpers;
      wake_.notify_all();
      done_.wait(l, [this] { return pending_ == 0; });
    }
    return MsBetween(t0, Clock::now());
  }

 private:
  void Helper(int h) {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> l(mu_);
    for (;;) {
      wake_.wait(l, [&] { return stop_ || round_ != seen; });
      if (stop_) return;
      seen = round_;
      const uint64_t first =
          ((seen - 1) * kHelpers + static_cast<uint64_t>(h)) * kPerTask;
      l.unlock();
      const uint64_t n = Count(first, kPerTask);
      l.lock();
      sink_ += n;
      if (--pending_ == 0) done_.notify_one();
    }
  }

  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> adjacency_;
  std::mutex mu_;
  std::condition_variable wake_;  ///< helpers: a new round or stop
  std::condition_variable done_;  ///< caller: every helper finished
  uint64_t round_ = 0;
  int pending_ = 0;
  uint64_t sink_ = 0;  ///< keeps the counts observable
  bool stop_ = false;
  std::vector<std::thread> helpers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_HPP_
