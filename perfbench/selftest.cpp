// Tests of the benchmark's own arithmetic (bench_stats.hpp): the
// percentile rule, median-of-passes aggregation, CPU bookkeeping across
// client threads, self time, the Chrome trace JSON, and the host
// calibration kernel. Prints one line
// per failed check; exit status 0 only when every check passes.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.hpp"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b, double eps = 1e-9) {
  return std::fabs(a - b) <= eps;
}

// Minimal JSON well-formedness check (RFC 8259 grammar, no semantics).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool Valid() {
    Ws();
    if (!Value()) return false;
    Ws();
    return i_ == s_.size();
  }

 private:
  void Ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t')) {
      ++i_;
    }
  }
  bool Lit(const char* w) {
    const std::string t(w);
    if (s_.compare(i_, t.size(), t) != 0) return false;
    i_ += t.size();
    return true;
  }
  bool String() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      const char c = s_[i_];
      if (c == '"') {
        ++i_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') ++i_;
    }
    return false;
  }
  bool Number() {
    const size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start;
  }
  bool Value() {
    Ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return Container('}', true);
    if (c == '[') return Container(']', false);
    if (c == '"') return String();
    if (c == 't') return Lit("true");
    if (c == 'f') return Lit("false");
    if (c == 'n') return Lit("null");
    return Number();
  }
  bool Container(char close, bool object) {
    ++i_;
    Ws();
    if (i_ < s_.size() && s_[i_] == close) {
      ++i_;
      return true;
    }
    for (;;) {
      Ws();
      if (object) {
        if (!String()) return false;
        Ws();
        if (i_ >= s_.size() || s_[i_++] != ':') return false;
      }
      if (!Value()) return false;
      Ws();
      if (i_ >= s_.size()) return false;
      if (s_[i_] == ',') {
        ++i_;
        continue;
      }
      if (s_[i_] == close) {
        ++i_;
        return true;
      }
      return false;
    }
  }
  const std::string& s_;
  size_t i_ = 0;
};

void TestPercentileRule() {
  using perfbench::PercentileSupported;
  using perfbench::SamplesBeyond;
  Check(SamplesBeyond(1000, 99.0) == 10, "1000 samples: 10 beyond p99");
  Check(SamplesBeyond(1200, 99.0) == 12, "1200 samples: 12 beyond p99");
  Check(SamplesBeyond(999, 99.0) == 9, "999 samples: 9 beyond p99");
  Check(PercentileSupported(1000, 99.0), "p99 reportable at 1000");
  Check(!PercentileSupported(999, 99.0), "p99 refused at 999");
  Check(PercentileSupported(100, 90.0), "p90 reportable at 100");
  Check(!PercentileSupported(99, 90.0), "p90 refused at 99");
  Check(PercentileSupported(20, 50.0), "p50 reportable at 20");

  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  Check(Near(perfbench::Percentile(v, 50.0), 51.0), "p50 of 1..101");
  Check(Near(perfbench::Percentile(v, 99.0), 100.0), "p99 of 1..101");
  Check(Near(perfbench::Percentile(std::vector<double>{1.0, 2.0}, 50.0), 1.5),
        "p50 interpolates");
  Check(perfbench::Percentile(std::vector<double>{}, 50.0) == 0.0,
        "empty sample -> 0");
}

void TestMedianOfPasses() {
  perfbench::PassMatrix m(3);
  // Query 0: a slow host moment in one pass must not move its median.
  m.Add(0, 1.0);
  m.Add(0, 9.0);
  m.Add(0, 1.2);
  m.Add(1, 4.0);
  m.Add(1, 2.0);
  // Query 2 never served: left out.
  const auto med = m.PerQueryMedians();
  Check(med.size() == 2, "unserved queries left out");
  Check(med.size() == 2 && Near(med[0], 1.2), "odd pass count median");
  Check(med.size() == 2 && Near(med[1], 3.0), "even pass count median");
  Check(m.samples(0) == 3 && m.samples(2) == 0, "sample counts");
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

void TestCpuAcrossClients() {
  perfbench::CpuAccount cpu;
  cpu.Begin();
  std::atomic<uint64_t> queries{0};
  double thread_cpu[2] = {0.0, 0.0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&queries, &thread_cpu, c] {
      // Burn 100 ms of this thread's own CPU time (not wall time, which a
      // busy host stretches) and "complete" 50 queries.
      const double t0 = ThreadCpuMs();
      volatile uint64_t x = 1;
      while (ThreadCpuMs() - t0 < 100.0) x = x * 3 + 1;
      thread_cpu[c] = ThreadCpuMs() - t0;
      queries.fetch_add(50);
    });
  }
  for (auto& t : clients) t.join();
  cpu.End(queries.load());
  const double both = thread_cpu[0] + thread_cpu[1];
  Check(cpu.queries() == 100, "queries summed over both clients");
  Check(cpu.cpu_ms() >= both - 2.0, "CPU counts both client threads");
  Check(cpu.cpu_ms() <= both + 50.0, "CPU has no unrelated time");
  Check(Near(cpu.per_query(), cpu.cpu_ms() / 100.0), "per-query division");
  cpu.Begin();
  cpu.End(0);
  Check(cpu.queries() == 100, "empty window adds no queries");
}

void TestSelfTime() {
  using perfbench::Span;
  std::vector<Span> spans;
  auto add = [&](uint64_t id, uint64_t parent, const char* name, int64_t a,
                 int64_t b) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.start_ns = a;
    s.end_ns = b;
    spans.push_back(s);
  };
  add(1, 0, "query", 0, 100);
  add(2, 1, "plan", 10, 20);
  add(3, 1, "race", 30, 80);
  add(4, 3, "match", 50, 80);
  add(5, 1, "overlap", 70, 90);   // overlaps race: counted once for query
  add(6, 3, "outside", 75, 120);  // sticks out of race: clipped
  const auto self = perfbench::SelfTimes(spans);
  Check(self.at(1) == 100 - (10 + (90 - 30)), "query self = span - children");
  Check(self.at(2) == 10, "leaf self = duration");
  Check(self.at(3) == 50 - 30, "race self = span - clipped children union");
  Check(self.at(4) == 30, "match leaf");
  const auto by_name = perfbench::SelfMsByName(spans);
  Check(Near(by_name.at("plan"), 10e-6), "self by name in ms");

  // The recorder: nested scoped spans link to their parents.
  perfbench::SpanBuffer buf(7);
  {
    perfbench::ScopedSpan q(&buf, "query", 0, 3);
    perfbench::ScopedSpan p(&buf, "plan", q.id(), 3);
  }
  Check(buf.spans().size() == 2, "two spans recorded");
  Check(buf.spans()[1].parent == buf.spans()[0].id, "child links parent");
  Check(buf.spans()[0].end_ns >= buf.spans()[1].end_ns, "parent encloses");
  Check((buf.spans()[0].id >> 40) == 7, "thread id in span id");
  perfbench::ScopedSpan none(nullptr, "x", 0, 0);
  Check(none.id() == 0, "null buffer records nothing");
}

void TestChromeTrace() {
  perfbench::SpanBuffer buf(1);
  {
    perfbench::ScopedSpan q(&buf, "query \"quoted\"\\", 0, 1);
    perfbench::ScopedSpan r(&buf, "race", q.id(), 1);
  }
  buf.Add("match", 2, 1, buf.spans()[1].start_ns, buf.spans()[1].end_ns);
  const std::string json = perfbench::ChromeTraceJson(buf.spans());
  Check(JsonChecker(json).Valid(), "trace is well-formed JSON");
  Check(json.find("\"traceEvents\":[") != std::string::npos,
        "traceEvents array");
  Check(json.find("\"ph\":\"X\"") != std::string::npos, "complete events");
  Check(json.find("query \\\"quoted\\\"\\\\") != std::string::npos,
        "names escaped");
  size_t events = 0;
  for (size_t p = json.find("\"ph\""); p != std::string::npos;
       p = json.find("\"ph\"", p + 1)) {
    ++events;
  }
  Check(events == 3, "one event per span");
  Check(JsonChecker(perfbench::ChromeTraceJson({})).Valid(),
        "empty trace is well-formed");
  Check(!JsonChecker("{\"a\":[1,2,}").Valid(), "checker rejects bad JSON");
}

void TestHostCalibration() {
  using perfbench::HostCalibration;
  std::vector<uint8_t> seen(HostCalibration::kVertices, 0);
  for (uint64_t i = 0; i < HostCalibration::kVertices; ++i) {
    ++seen[HostCalibration::Vertex(i)];
  }
  Check(std::all_of(seen.begin(), seen.end(), [](uint8_t n) { return n == 1; }),
        "calibration probe order is a permutation of the graph");
  HostCalibration a, b;
  Check(a.Count(5000, 1024) == b.Count(5000, 1024),
        "calibration graph is the same every time");
  Check(a.Count(7, 3) == a.Count(7 + HostCalibration::kVertices, 3),
        "probe order wraps");
  Check(a.Ms() > 0.0 && a.Ms() > 0.0, "stand-in rounds complete");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestMedianOfPasses();
  TestCpuAcrossClients();
  TestSelfTime();
  TestChromeTrace();
  TestHostCalibration();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
