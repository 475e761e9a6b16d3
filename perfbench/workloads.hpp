// The benchmark's three closed-loop workloads over the public serving
// entry points (see README.md for why each exists):
//
//   nfv-match      PsiEngine::Run, matching capped at 1000, HumanLike, 1 client
//   ftv-decide     RunFtvWorkloadPsiParallel over one query on a 2-shard
//                  GrapesIndex, GraphGenLike dataset, 1 client
//   nfv-decide-2c  PsiEngine::Contains, YeastLike, 2 clients on one engine
//
// Every workload owns nothing but its inputs and serving structures; the
// 2-worker Executor is owned by the caller and passed in.

#ifndef PERFBENCH_WORKLOADS_HPP_
#define PERFBENCH_WORKLOADS_HPP_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "exec/executor.hpp"
#include "match/matcher.hpp"
#include "metrics/metrics.hpp"
#include "rewrite/rewrite_cache.hpp"

namespace perfbench {

/// Wall seconds of one set-up, split by phase.
struct SetupTiming {
  double total_s = 0.0;         ///< input generation + prepare/build
  double workload_gen_s = 0.0;  ///< src/gen/ graphs and queries
  double prepare_s = 0.0;       ///< PsiEngine::Prepare or GrapesIndex::Build
  /// Traced set-up only: standalone timings of the pieces Prepare runs.
  double index_build_s = 0.0;  ///< CandidateIndex::Build / GrapesIndex::Build
  std::map<std::string, double> matcher_prepare_s;  ///< Matcher::Prepare
};

enum class Outcome { kCorrect, kWrong, kUnanswered };

/// Per-layer tallies of traced queries; one per client thread, merged.
struct LayerTally {
  uint64_t queries = 0;
  double plan_ms = 0.0;
  uint64_t plan_variants = 0;
  double rewrite_ms = 0.0;
  std::vector<double> race_ms;           ///< one per race (FTV: per pair)
  std::vector<double> race_overhead_ms;  ///< race wall - winner elapsed
  std::vector<double> oracle_gap;        ///< race wall / fastest solo
  double winner_elapsed_ms = 0.0;        ///< useful work ...
  double variant_elapsed_ms = 0.0;       ///< ... over all variant work
  std::map<std::string, uint64_t> winners;
  std::map<std::string, std::vector<double>> solo_ms_by_rewriting;
  std::vector<double> solo_fastest_ms;
  uint64_t solo_timeouts = 0;
  /// Summed MatchStats of the solo runs of the queries none of whose solo
  /// runs hit the cap, and the number of such queries: exact counts that
  /// do not depend on where a timer cut a search.
  psi::MatchStats solo_stats;
  uint64_t solo_complete_queries = 0;
  uint64_t filter_candidates = 0;  ///< candidate pairs after filtering
  uint64_t matched_pairs = 0;
  std::vector<double> serve_ms;  ///< traced serving-call latency

  void Merge(const LayerTally& o);
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  virtual uint32_t clients() const = 0;
  /// Generates the inputs from `seed` and builds the serving structures,
  /// replacing any earlier ones. `buf` non-null also times the pieces of
  /// the build standalone (SetupTiming::index_build_s and
  /// matcher_prepare_s) as spans.
  virtual SetupTiming Setup(uint64_t seed, SpanBuffer* buf) = 0;
  virtual size_t num_queries() const = 0;
  /// Query count per edge count, as generated.
  virtual std::map<uint32_t, uint32_t> Shape() const = 0;
  /// The shape the workload is specified to have.
  virtual std::map<uint32_t, uint32_t> ExpectedShape() const = 0;
  /// Untimed serial reference answers for the answer checks. Returns
  /// false (with a message on stderr) when no reference could be made.
  virtual bool ComputeReference() = 0;
  /// Serves query `q` once through the public entry point and checks the
  /// answer. Safe to call from several client threads at once.
  virtual Outcome Serve(size_t q) = 0;
  /// Serves query `q` and then calls each layer's public functions on it
  /// from here, recording a span around every call.
  virtual Outcome ServeTraced(size_t q, SpanBuffer& buf, LayerTally& t) = 0;
  /// Pool gauges with the kernel and fault counters folded in.
  virtual psi::PoolGauges Gauges() const = 0;
  /// Counters of the rewrite cache the serving path uses.
  virtual psi::RewriteCache::Stats RewriteStats() const = 0;
};

/// nullptr for an unknown name. `pool` must outlive the workload.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       psi::Executor* pool);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP_
