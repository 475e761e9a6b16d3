// psi_perfbench: one closed-loop run of one workload.
//
//   psi_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out trace.json] [--result-out result.json]
//                 [--cleared-env NAME,NAME]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that yields the per-layer metrics and writes the spans as
// Chrome trace-event JSON. The last line of stdout is the result object
// {"correct", "attempted", "failed", "metrics"}. Exit status 0 only when
// every answer check passed.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.hpp"
#include "exec/executor.hpp"
#include "fault/failpoint.hpp"
#include "match/intersect.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

constexpr size_t kSetupRepeats = 5;  ///< untraced set-ups; median reported
constexpr size_t kMinPasses = 3;     ///< timed passes per query, at least
constexpr size_t kPoolWidth = 2;     ///< pool workers the benchmark owns
/// Wall time of one chunk of a pass, between host calibrations.
constexpr double kChunkMs = 200.0;
/// HostCalibration::Ms() on the reference host (Intel Xeon, 4 vCPUs, AVX2);
/// the end-to-end times are reported at this speed.
constexpr double kCalibRefMs = 5.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  std::string result_out;
  std::string cleared_env;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else if (k == "--result-out") {
      a->result_out = v;
    } else if (k == "--cleared-env") {
      a->cleared_env = v;
    } else {
      std::cerr << "unknown argument " << k << "\n";
      return false;
    }
  }
  if ((argc - 1) % 2 != 0) {
    std::cerr << "arguments come in --key value pairs\n";
    return false;
  }
  return !a->workload.empty() && a->seconds > 0.0 &&
         (a->trace == 0 || a->trace == 1);
}

/// Every PSI_* variable in the environment; the run refuses to start
/// when there is one, so no knob differs from its pinned default.
std::vector<std::string> PsiEnvVars() {
  std::vector<std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PSI_", 4) == 0) out.emplace_back(*e);
  }
  return out;
}

std::string GitSha() {
  // Resolved by run.py from the checkout; "unknown" outside a git tree.
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  return sha != nullptr ? sha : "unknown";
}

/// Result rows: name -> (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + Num(v[i]);
  return out + "]";
}

std::string MetricsJson(const Metrics& m) {
  std::string out = "{";
  for (size_t i = 0; i < m.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(m[i].first) + "\": {\"value\": " +
           Num(m[i].second.first) + ", \"unit\": \"" + m[i].second.second +
           "\"}";
  }
  return out + "}";
}

struct RunMeta {
  std::map<std::string, std::string> kv;
  std::string Json() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : kv) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + JsonEscape(k) + "\": \"" + JsonEscape(v) + "\"";
    }
    return out + "}";
  }
};

/// Query order of pass `pass`: a seeded permutation, so a slow host
/// period does not always land on the same queries.
std::vector<size_t> PassOrder(size_t n, uint64_t seed, size_t pass) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + pass + 1;
  for (size_t i = n; i > 1; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(order[i - 1], order[x % i]);
  }
  return order;
}

struct PassResult {
  double wall_ms = 0.0;
  uint64_t correct = 0;
  uint64_t wrong = 0;
  uint64_t unanswered = 0;
  std::vector<double> ms;  ///< latency per query index (served ones)
  std::vector<uint8_t> served;
  uint64_t attempted() const { return correct + wrong + unanswered; }
};

void Count(Outcome o, PassResult* r) {
  if (o == Outcome::kCorrect) ++r->correct;
  if (o == Outcome::kWrong) ++r->wrong;
  if (o == Outcome::kUnanswered) ++r->unanswered;
}

/// One closed-loop pass: `clients` threads take the next query of `order`
/// as soon as their previous one returns. With `traced`, each client
/// records spans and layer tallies into its own buffer; the pass then
/// stops taking new queries at `stop_at`.
PassResult RunPass(Workload& wl, const std::vector<size_t>& order,
                   CpuAccount* cpu, std::vector<SpanBuffer>* bufs = nullptr,
                   std::vector<LayerTally>* tallies = nullptr,
                   Clock::time_point stop_at = Clock::time_point::max()) {
  const uint32_t clients = wl.clients();
  PassResult total;
  total.ms.assign(wl.num_queries(), 0.0);
  total.served.assign(wl.num_queries(), 0);
  std::vector<PassResult> per(clients);
  std::atomic<size_t> next{0};
  auto client = [&](uint32_t c) {
    for (;;) {
      if (bufs != nullptr && Clock::now() >= stop_at) return;
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= order.size()) return;
      const size_t q = order[i];
      const auto t0 = Clock::now();
      const Outcome o = bufs != nullptr
                            ? wl.ServeTraced(q, (*bufs)[c], (*tallies)[c])
                            : wl.Serve(q);
      total.ms[q] = MsBetween(t0, Clock::now());  // distinct q per client
      total.served[q] = 1;
      Count(o, &per[c]);
    }
  };
  if (cpu != nullptr) cpu->Begin();
  const auto w0 = Clock::now();
  if (clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (auto& t : threads) t.join();
  }
  total.wall_ms = MsBetween(w0, Clock::now());
  for (const auto& p : per) {
    total.correct += p.correct;
    total.wrong += p.wrong;
    total.unanswered += p.unanswered;
  }
  if (cpu != nullptr) cpu->End(total.attempted());
  return total;
}

bool CheckShape(const Workload& wl) {
  if (wl.Shape() == wl.ExpectedShape()) return true;
  std::cerr << "workload shape differs from its specification:";
  for (const auto& [e, n] : wl.Shape()) std::cerr << " " << e << "e:" << n;
  std::cerr << "\n";
  return false;
}

/// A run is correct only when every query was answered right: no wrong
/// answer, no kill or typed error, and no injected fault, rejected or shed
/// task in the pool's gauges.
bool Clean(uint64_t wrong, uint64_t unanswered, const psi::PoolGauges& g) {
  if (wrong == 0 && unanswered == 0 && g.fault_injected == 0 &&
      g.tasks_rejected == 0 && g.tasks_shed == 0) {
    return true;
  }
  std::cerr << "run failed: " << wrong << " wrong, " << unanswered
            << " unanswered, " << g.fault_injected << " faults, "
            << g.tasks_rejected << " rejected, " << g.tasks_shed
            << " shed\n";
  return false;
}

void WriteFile(const std::string& path, const std::string& body) {
  if (path.empty()) return;
  std::ofstream f(path);
  f << body;
}

/// Prints the result line (last line of stdout) and the full record.
int Finish(const Args& args, const RunMeta& meta, bool correct,
           uint64_t attempted, uint64_t failed, const Metrics& metrics,
           const std::string& extra_json) {
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";
  WriteFile(args.result_out, "{\"meta\": " + meta.Json() +
                                 ", \"detail\": " + extra_json +
                                 ", \"result\": " + result + "}\n");
  std::cout << "meta " << meta.Json() << "\n" << result << std::endl;
  return correct ? 0 : 1;
}

// ---- Untraced run: end-to-end metrics ------------------------------------

int RunUntraced(const Args& args, Workload& wl, RunMeta meta) {
  HostCalibration calib;
  std::vector<double> calib_ms;
  std::vector<double> setups;
  // The first set-up serves the run; the others come after it, so that
  // peak_rss_mb is one set-up plus serving, not what repeated builds leave
  // behind in the allocator.
  const auto set_up = [&] {
    calib_ms.push_back(calib.Ms());
    setups.push_back(wl.Setup(args.seed, nullptr).total_s);
  };
  set_up();
  const auto ref0 = Clock::now();
  if (!CheckShape(wl) || !wl.ComputeReference()) return 1;
  const auto warm0 = Clock::now();
  PassResult warm = RunPass(wl, PassOrder(wl.num_queries(), args.seed, 0),
                            nullptr);
  // Passes are served in chunks of about kChunkMs with a host calibration
  // before each, so that the calibrations sample the whole run.
  const size_t n = wl.num_queries();
  const size_t chunk = std::clamp<size_t>(
      static_cast<size_t>(static_cast<double>(n) * kChunkMs /
                          std::max(warm.wall_ms, 1.0)),
      std::min<size_t>(n, 50), n);
  std::cerr << wl.name() << ": set-up " << setups[0] << " s, reference "
            << MsBetween(ref0, warm0) / 1e3 << " s, warm-up pass "
            << warm.wall_ms / 1e3 << " s, chunks of " << chunk
            << " queries\n";
  uint64_t wrong = warm.wrong;

  PassMatrix matrix(n);
  CpuAccount cpu;
  std::vector<double> pass_qps, pass_cpu;
  uint64_t correct = 0, unanswered = 0, attempted = 0;
  size_t passes = 0;
  const auto t0 = Clock::now();
  for (;;) {
    const double spent_ms = MsBetween(t0, Clock::now());
    if (passes >= kMinPasses &&
        spent_ms + spent_ms / static_cast<double>(passes) >
            args.seconds * 1e3) {
      break;
    }
    const std::vector<size_t> order = PassOrder(n, args.seed, passes + 1);
    double wall_ms = 0.0;
    const double cpu0 = cpu.cpu_ms();
    uint64_t served = 0, pass_attempted = 0;
    for (size_t a = 0; a < n; a += chunk) {
      const std::vector<size_t> part(
          order.begin() + static_cast<std::ptrdiff_t>(a),
          order.begin() + static_cast<std::ptrdiff_t>(std::min(n, a + chunk)));
      calib_ms.push_back(calib.Ms());
      const PassResult p = RunPass(wl, part, &cpu);
      wall_ms += p.wall_ms;
      served += p.attempted() - p.unanswered;
      pass_attempted += p.attempted();
      correct += p.correct;
      wrong += p.wrong;
      unanswered += p.unanswered;
      for (size_t q : part) matrix.Add(q, p.ms[q]);
    }
    ++passes;
    attempted += pass_attempted;
    pass_qps.push_back(static_cast<double>(served) / (wall_ms / 1e3));
    pass_cpu.push_back((cpu.cpu_ms() - cpu0) /
                       static_cast<double>(pass_attempted));
  }
  calib_ms.push_back(calib.Ms());
  const double timed_s = MsBetween(t0, Clock::now()) / 1e3;

  const std::vector<double> medians = matrix.PerQueryMedians();
  if (!PercentileSupported(medians.size(), 99.0)) {
    std::cerr << "p99 needs >= 1000 queries; have " << medians.size() << "\n";
    return 1;
  }
  const psi::PoolGauges g = wl.Gauges();
  const double peak_rss_mb = PeakRssMb();
  while (setups.size() < kSetupRepeats) set_up();

  // As measured. Throughput and CPU per query are medians over passes,
  // like the per-query latencies: a pass that a slow host moment hit
  // moves them no more than any other pass.
  const double p50 = Percentile(medians, 50.0);
  const double p99 = Percentile(medians, 99.0);
  const double qps = Median(pass_qps);
  const double cpu_ms = Median(pass_cpu);
  const double setup_s = Median(setups);
  // Reported at reference-host speed: scaled by the run's median
  // calibration time.
  const double host_ms = Median(calib_ms);
  const double scale = kCalibRefMs / host_ms;
  Metrics m = {
      {"qps", {qps / scale, "1/s"}},
      {"latency_p50_ms", {p50 * scale, "ms"}},
      {"latency_p99_ms", {p99 * scale, "ms"}},
      {"answered_frac",
       {static_cast<double>(correct) / static_cast<double>(attempted),
        "ratio"}},
      {"cpu_ms_per_query", {cpu_ms * scale, "ms"}},
      {"setup_s", {setup_s * scale, "s"}},
      {"peak_rss_mb", {peak_rss_mb, "MB"}},
  };
  std::cerr << wl.name() << ": " << passes << " passes x " << n
            << " queries in " << timed_s << " s; as measured: p50 " << p50
            << " ms, p99 " << p99 << " ms over " << medians.size()
            << " per-query medians (" << SamplesBeyond(medians.size(), 99.0)
            << " beyond p99), qps " << qps << ", cpu/query " << cpu_ms
            << " ms, set-up " << setup_s << " s; calibration median "
            << host_ms << " ms (reference " << kCalibRefMs
            << "), time scale " << scale << "\n";
  meta.kv["passes"] = std::to_string(passes);
  meta.kv["chunk_queries"] = std::to_string(chunk);
  meta.kv["p99_samples"] = std::to_string(medians.size());
  meta.kv["p99_samples_beyond"] =
      std::to_string(SamplesBeyond(medians.size(), 99.0));
  std::string detail =
      "{\"as_measured\": {\"qps\": " + Num(qps) +
      ", \"latency_p50_ms\": " + Num(p50) +
      ", \"latency_p99_ms\": " + Num(p99) +
      ", \"cpu_ms_per_query\": " + Num(cpu_ms) +
      ", \"setup_s\": " + JsonArray(setups) + "}" +
      ", \"time_scale\": " + Num(scale) +
      ", \"pass_qps\": " + JsonArray(pass_qps) +
      ", \"calib_ms\": " + JsonArray(calib_ms);
  detail += ", \"fault_injected\": " + std::to_string(g.fault_injected) +
            ", \"rejected\": " + std::to_string(g.tasks_rejected) +
            ", \"shed\": " + std::to_string(g.tasks_shed) + "}";
  const bool ok = Clean(wrong, unanswered + warm.unanswered, g);
  return Finish(args, meta, ok, attempted + warm.attempted(),
                wrong + unanswered + warm.unanswered, m, detail);
}

// ---- Traced run: per-layer metrics ---------------------------------------

double PerQuery(double v, uint64_t queries) {
  return queries == 0 ? 0.0 : v / static_cast<double>(queries);
}

int RunTraced(const Args& args, Workload& wl, RunMeta meta) {
  std::vector<SpanBuffer> bufs;
  for (uint32_t c = 0; c < wl.clients(); ++c) bufs.emplace_back(c + 1);
  const SetupTiming st = wl.Setup(args.seed, &bufs[0]);
  if (!CheckShape(wl) || !wl.ComputeReference()) return 1;

  PassResult warm = RunPass(wl, PassOrder(wl.num_queries(), args.seed, 0),
                            nullptr);
  const psi::PoolGauges g0 = wl.Gauges();
  const psi::RewriteCache::Stats rw0 = wl.RewriteStats();
  HostCalibration host;
  std::vector<double> calib = {host.Ms()};
  const std::vector<size_t> order =
      PassOrder(wl.num_queries(), args.seed, 1);
  // Untraced pass: serving-path executor and cache counters, and the
  // baseline of the tracing overhead.
  const PassResult plain = RunPass(wl, order, nullptr);
  const psi::PoolGauges g1 = wl.Gauges();
  const psi::RewriteCache::Stats rw1 = wl.RewriteStats();
  calib.push_back(host.Ms());

  // The traced pass: every query once, unless --seconds runs out first.
  std::vector<LayerTally> tallies(wl.clients());
  const PassResult traced = RunPass(
      wl, order, nullptr, &bufs, &tallies,
      Clock::now() + std::chrono::milliseconds(
                         static_cast<int64_t>(args.seconds * 1e3)));
  calib.push_back(host.Ms());
  const psi::PoolGauges g2 = wl.Gauges();
  LayerTally t;
  for (const auto& x : tallies) t.Merge(x);

  // Overhead: traced serving latency vs the same queries untraced.
  std::vector<double> base;
  for (size_t q = 0; q < wl.num_queries(); ++q) {
    if (traced.served[q] != 0) base.push_back(plain.ms[q]);
  }
  const double overhead =
      Percentile(t.serve_ms, 50.0) / Percentile(base, 50.0) - 1.0;

  std::vector<Span> spans;
  for (const auto& b : bufs) {
    spans.insert(spans.end(), b.spans().begin(), b.spans().end());
  }
  WriteFile(args.trace_out, ChromeTraceJson(spans));
  const auto self = SelfMsByName(spans);
  const auto self_of = [&](const char* n) {
    auto it = self.find(n);
    return it == self.end() ? 0.0 : it->second;
  };
  const std::vector<std::pair<std::string, const char*>> layers = {
      {"plan", "plan"},     {"rewrite", "rewrite"}, {"filter", "filter"},
      {"verify", "verify"}, {"psi", "race"},        {"match", "match"}};
  double serving_self = 0.0;
  for (const auto& l : layers) serving_self += self_of(l.second);

  const uint64_t nq = t.queries;
  const uint64_t plain_n = plain.attempted();
  const auto d = [](uint64_t a, uint64_t b) {
    return static_cast<double>(a - b);
  };
  const uint64_t waits = g1.queue_wait_count - g0.queue_wait_count;
  const auto wait_le = [&](size_t buckets) {
    uint64_t n = 0;
    for (size_t b = 0; b < buckets; ++b) {
      n += g1.queue_wait_hist[b] - g0.queue_wait_hist[b];
    }
    return n;
  };
  const double over01 =
      waits == 0 ? 0.0 : 1.0 - static_cast<double>(wait_le(1)) / waits;
  const double over1 =
      waits == 0 ? 0.0 : 1.0 - static_cast<double>(wait_le(2)) / waits;
  const uint64_t rw_lookups = (rw1.hits + rw1.misses) - (rw0.hits + rw0.misses);
  const double hit_rate =
      rw_lookups == 0 ? 0.0
                      : static_cast<double>(rw1.hits - rw0.hits) / rw_lookups;
  const auto share = [&](const char* variant) {
    uint64_t total = 0;
    for (const auto& [k, v] : t.winners) total += v;
    auto it = t.winners.find(variant);
    return it == t.winners.end() || total == 0
               ? 0.0
               : static_cast<double>(it->second) / static_cast<double>(total);
  };
  const auto solo_p50 = [&](const char* rw) {
    auto it = t.solo_ms_by_rewriting.find(rw);
    return it == t.solo_ms_by_rewriting.end() ? 0.0
                                              : Percentile(it->second, 50.0);
  };
  const auto prep_share = [&](const char* m) {
    auto it = st.matcher_prepare_s.find(m);
    return it == st.matcher_prepare_s.end() || st.prepare_s <= 0.0
               ? 0.0
               : it->second / st.prepare_s;
  };
  // The race tails are p99 when >= 10 samples lie beyond it. A traced
  // pass cut short by --seconds may have fewer races; it then reports the
  // highest percentile that has them, and says which in the meta line.
  double tail_p = 50.0;
  for (double p : {90.0, 95.0, 99.0}) {
    if (PercentileSupported(t.race_ms.size(), p)) tail_p = p;
  }
  const auto tail = [&](const std::vector<double>& v) {
    return Percentile(v, tail_p);
  };
  const psi::MatchStats& ks = t.solo_stats;
  const uint64_t kq = t.solo_complete_queries;
  const double races = static_cast<double>(t.race_ms.size());
  Metrics m;
  const auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), {value, unit}});
  };
  const auto count_per_query = [&](uint64_t v, uint64_t n) {
    return PerQuery(static_cast<double>(v), n);
  };
  add("exec.tasks_per_query",
      PerQuery(d(g1.tasks_submitted, g0.tasks_submitted), plain_n), "count");
  add("exec.discarded_per_query",
      PerQuery(d(g1.tasks_discarded, g0.tasks_discarded), plain_n), "count");
  add("exec.queue_wait_over_0.1ms_frac", over01, "ratio");
  add("exec.queue_wait_over_1ms_frac", over1, "ratio");
  add("exec.queue_wait_ms_mean",
      waits == 0 ? 0.0
                 : (g1.queue_wait_total_ms - g0.queue_wait_total_ms) / waits,
      "ms");
  add("exec.rejected_per_query",
      PerQuery(d(g2.tasks_rejected, g0.tasks_rejected), plain_n), "count");
  add("exec.shed_per_query", PerQuery(d(g2.tasks_shed, g0.tasks_shed), plain_n),
      "count");
  add("plan.ms_per_query", PerQuery(t.plan_ms, nq), "ms");
  add("plan.variants_per_query", count_per_query(t.plan_variants, nq),
      "count");
  add("rewrite.ms_per_query", PerQuery(t.rewrite_ms, nq), "ms");
  add("rewrite.cache_hit_rate", hit_rate, "ratio");
  add("race.ms_p50", Percentile(t.race_ms, 50.0), "ms");
  add("race.ms_p99", tail(t.race_ms), "ms");
  add("race.overhead_ms_p50", Percentile(t.race_overhead_ms, 50.0), "ms");
  add("race.overhead_ms_p99", tail(t.race_overhead_ms), "ms");
  add("race.oracle_gap_p50", Percentile(t.oracle_gap, 50.0), "ratio");
  add("race.useful_frac",
      t.variant_elapsed_ms > 0.0 ? t.winner_elapsed_ms / t.variant_elapsed_ms
                                 : 0.0,
      "ratio");
  for (const char* v : {"gql-orig", "gql-dnd", "spa-orig", "spa-dnd",
                        "vf2-orig", "vf2-dnd"}) {
    add(std::string("race.winner_share.") + v, share(v), "ratio");
  }
  add("verify.pairs_per_query", PerQuery(races, nq), "count");
  add("filter.candidates_per_query", count_per_query(t.filter_candidates, nq),
      "count");
  add("filter.precision",
      t.filter_candidates == 0
          ? 0.0
          : static_cast<double>(t.matched_pairs) / t.filter_candidates,
      "ratio");
  add("match.solo_ms_p50.orig", solo_p50("orig"), "ms");
  add("match.solo_ms_p50.dnd", solo_p50("dnd"), "ms");
  add("match.solo_ms_p50.fastest", Percentile(t.solo_fastest_ms, 50.0), "ms");
  add("match.solo_timeouts_per_query", count_per_query(t.solo_timeouts, nq),
      "count");
  add("kernel.candidates_tried_per_query",
      count_per_query(ks.candidates_tried, kq), "count");
  add("kernel.nlf_rejects_per_query", count_per_query(ks.nlf_rejects, kq),
      "count");
  add("kernel.bitset_checks_per_query",
      count_per_query(ks.bitset_edge_checks, kq), "count");
  add("kernel.multiway_intersections_per_query",
      count_per_query(ks.multiway_intersections, kq), "count");
  add("kernel.simd_galloped_per_query", count_per_query(ks.simd_galloped, kq),
      "count");
  add("kernel.split_tasks_per_query",
      PerQuery(d(g2.kernel_split_tasks, g0.kernel_split_tasks), plain_n + nq),
      "count");
  add("kernel.steal_spills_per_query",
      PerQuery(d(g2.kernel_steal_spills, g0.kernel_steal_spills), plain_n + nq),
      "count");
  for (const auto& l : layers) {
    add("self_frac." + l.first,
        serving_self > 0.0 ? self_of(l.second) / serving_self : 0.0, "ratio");
  }
  add("setup.workload_gen_s", st.workload_gen_s, "s");
  add("setup.index_build_s", st.index_build_s, "s");
  add("setup.prepare_s", st.prepare_s, "s");
  add("setup.matcher_prepare_share.gql", prep_share("gql"), "ratio");
  add("setup.matcher_prepare_share.spa", prep_share("spa"), "ratio");
  add("fault.injected", static_cast<double>(g2.fault_injected), "count");
  add("host.calib_ms", Median(calib), "ms");
  add("trace.overhead_frac", overhead, "ratio");

  std::string dominant;
  double best = -1.0;
  for (const auto& l : layers) {
    if (self_of(l.second) > best) {
      best = self_of(l.second);
      dominant = l.first;
    }
  }
  std::cerr << wl.name() << " traced: " << nq << " queries, " << spans.size()
            << " spans, dominant serving layer by self time: " << dominant
            << " (" << (serving_self > 0 ? best / serving_self : 0.0) * 100.0
            << "%), trace overhead " << overhead * 100.0 << "%\n";
  meta.kv["traced_queries"] = std::to_string(nq);
  meta.kv["kernel_count_queries"] = std::to_string(kq);
  meta.kv["race_samples"] = std::to_string(t.race_ms.size());
  meta.kv["race_tail_percentile"] = Num(tail_p);
  meta.kv["dominant_layer"] = dominant;
  std::string detail = "{\"self_ms\": {";
  bool first = true;
  for (const auto& [k, v] : self) {
    detail += (first ? "\"" : ", \"") + JsonEscape(k) + "\": " + Num(v);
    first = false;
  }
  detail += "}}";
  const uint64_t wrong = warm.wrong + plain.wrong + traced.wrong;
  const uint64_t unanswered =
      warm.unanswered + plain.unanswered + traced.unanswered;
  const uint64_t attempted =
      warm.attempted() + plain.attempted() + traced.attempted();
  const bool ok = Clean(wrong, unanswered, g2);
  return Finish(args, meta, ok, attempted, wrong + unanswered, m, detail);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: psi_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out f] "
                 "[--result-out f] [--cleared-env names]\n";
    return 2;
  }
  const auto env = PsiEnvVars();
  if (!env.empty()) {
    std::cerr << "refusing to run with PSI_* knobs set:";
    for (const auto& e : env) std::cerr << " " << e;
    std::cerr << "\n";
    return 2;
  }
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  psi::ExecutorOptions eo;
  eo.num_threads = kPoolWidth;
  eo.queue_capacity = psi::ExecutorOptions::kUnboundedQueue;
  eo.overload_policy = psi::OverloadPolicy::kRejectNew;
  eo.discipline = psi::QueueDiscipline::kEdf;
  eo.no_deadline_aging = std::chrono::milliseconds(500);
  psi::Executor pool(eo);
  auto wl = MakeWorkload(args.workload, &pool);
  if (wl == nullptr) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  if (wl->clients() + kPoolWidth > nproc) {
    std::cerr << "needs " << wl->clients() + kPoolWidth
              << " busy threads; nproc is " << nproc << "\n";
    return 2;
  }
  RunMeta meta;
  meta.kv["workload"] = wl->name();
  meta.kv["seed"] = std::to_string(args.seed);
  meta.kv["seconds"] = Num(args.seconds);
  meta.kv["trace"] = std::to_string(args.trace);
  meta.kv["nproc"] = std::to_string(nproc);
  meta.kv["simd_level"] = psi::ToString(psi::ActiveSimdLevel());
  meta.kv["build_type"] = PERFBENCH_BUILD_TYPE;
  meta.kv["faults_compiled"] = psi::FaultsCompiledIn() ? "in" : "out";
  meta.kv["git_sha"] = GitSha();
  meta.kv["pool_width"] = std::to_string(pool.num_threads());
  meta.kv["clients"] = std::to_string(wl->clients());
  meta.kv["busy_threads"] = std::to_string(wl->clients() + kPoolWidth);
  meta.kv["cleared_env"] = args.cleared_env;
  return args.trace == 0 ? RunUntraced(args, *wl, meta)
                         : RunTraced(args, *wl, meta);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
