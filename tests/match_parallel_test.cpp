// Differential + stress tests of intra-query parallel enumeration
// (match/parallel.hpp):
//
//  * 100-seed differential harness (PSI_TEST_SEEDS): for every matcher
//    (VF2, QuickSI, GraphQL, sPath), index on and off, and split widths
//    {2, 3, 4, 8}, the split search must produce the byte-identical
//    embedding *stream*, count and completeness of the serial search —
//    and, on uncapped runs, exactly equal MatchStats counters (the
//    primary-range folding discipline, satellite of ISSUE PR 6).
//  * Shared-budget exactness: max_embeddings at {1, total-1, total,
//    total+1} truncates the split stream at exactly the same byte as the
//    serial one.
//  * Race integration: split variants under kThreads / kSequential /
//    kPool — including kPool on a capacity-0 (reject-all) and a
//    capacity-1 shedding pool, where displaced ranges re-run inline —
//    still answer exactly like serial racing.
//  * kSplit escalation: a warm staged planner with split_workers emits
//    the probe→split plan, a guaranteed probe miss escalates to the
//    split stage with the correct answer, and the split width follows
//    the winner's observed straggler spread.
//  * Concurrency: 8 client threads hammering one shared pool with split
//    calls (runs under TSan in CI), and cancellation arriving mid-split.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/env.hpp"
#include "exec/executor.hpp"
#include "gen/dataset_gen.hpp"
#include "gen/query_gen.hpp"
#include "graphql/graphql.hpp"
#include "match/candidate_index.hpp"
#include "match/parallel.hpp"
#include "metrics/metrics.hpp"
#include "plan/plan.hpp"
#include "plan/planner.hpp"
#include "psi/racer.hpp"
#include "quicksi/quicksi.hpp"
#include "spath/spath.hpp"
#include "vf2/vf2.hpp"

namespace psi {
namespace {

int NumSeeds() { return static_cast<int>(EnvInt("PSI_TEST_SEEDS", 100)); }

Graph MakeDataGraph(uint64_t seed) {
  gen::GraphGenLikeOptions o;
  o.num_graphs = 1;
  o.avg_nodes = 40 + static_cast<uint32_t>(seed % 7) * 10;  // 40..100
  o.density = 0.05 + 0.01 * static_cast<double>(seed % 5);
  o.num_labels = 3 + static_cast<uint32_t>(seed % 8);  // 3..10
  o.seed = seed * 7919 + 11;
  return gen::GraphGenLike(o).graph(0);
}

std::vector<gen::Query> MakeQueries(const Graph& g, uint64_t seed) {
  const uint32_t size = 4 + static_cast<uint32_t>(seed % 4);  // 4..7
  auto w = gen::GenerateWorkload(g, /*count=*/3, size, seed * 104729 + 5);
  return w.ok() ? std::move(w).value() : std::vector<gen::Query>{};
}

std::unique_ptr<Matcher> MakeMatcher(int which) {
  switch (which) {
    case 0: return std::make_unique<Vf2Matcher>();
    case 1: return std::make_unique<QuickSiMatcher>();
    case 2: return std::make_unique<GraphQlMatcher>();
    default: return std::make_unique<SPathMatcher>();
  }
}

struct Capture {
  std::vector<Embedding> stream;
  MatchResult result;
};

Capture Serial(const Matcher& m, const Graph& q, uint64_t cap) {
  Capture r;
  MatchOptions mo;
  mo.max_embeddings = cap;
  mo.sink = [&](const Embedding& e) {
    r.stream.push_back(e);
    return true;
  };
  r.result = m.Match(q, mo);
  return r;
}

Capture Split(const Matcher& m, const Graph& q, uint64_t cap, size_t width,
          Executor* exec) {
  Capture r;
  MatchOptions mo;
  mo.max_embeddings = cap;
  mo.sink = [&](const Embedding& e) {
    r.stream.push_back(e);
    return true;
  };
  ParallelMatchOptions po;
  po.split = width;
  po.min_slice = 1;  // exercise real splits even on small frontiers
  po.executor = exec;
  r.result = MatchParallel(m, q, mo, po);
  return r;
}

void ExpectSameStream(const Capture& split, const Capture& serial, const char* tag) {
  ASSERT_EQ(split.stream, serial.stream)
      << tag << ": embedding stream diverged";
  EXPECT_EQ(split.result.embedding_count, serial.result.embedding_count)
      << tag;
  EXPECT_EQ(split.result.complete, serial.result.complete) << tag;
}

void ExpectSameStats(const MatchStats& a, const MatchStats& b,
                     const char* tag) {
  EXPECT_EQ(a.recursion_nodes, b.recursion_nodes) << tag;
  EXPECT_EQ(a.candidates_tried, b.candidates_tried) << tag;
  EXPECT_EQ(a.nlf_rejects, b.nlf_rejects) << tag;
  EXPECT_EQ(a.bitset_edge_checks, b.bitset_edge_checks) << tag;
  EXPECT_EQ(a.slice_candidates, b.slice_candidates) << tag;
}

// ---- Differential: split on vs. off, streams AND counters ----

TEST(MatchParallelDifferentialTest, StreamsAndCountersIdenticalSplitOnVsOff) {
  Executor pool(/*num_threads=*/4);
  const int seeds = NumSeeds();
  const size_t widths[] = {2, 3, 4, 8};
  for (int seed = 1; seed <= seeds; ++seed) {
    const Graph g = MakeDataGraph(static_cast<uint64_t>(seed));
    const auto queries = MakeQueries(g, static_cast<uint64_t>(seed));
    // Rotate matcher and index arm per seed (all combinations still get
    // full coverage across the default 100 seeds) to keep runtime sane.
    const int which = seed % 4;
    const bool indexed = (seed / 4) % 2 == 0;
    auto m = MakeMatcher(which);
    if (indexed) {
      m->set_candidate_index(CandidateIndex::Build(g));
    } else {
      m->set_candidate_index(nullptr);
    }
    ASSERT_TRUE(m->Prepare(g).ok());
    ASSERT_TRUE(m->SupportsRootSplit());
    for (const auto& q : queries) {
      // Uncapped: stream, count, completeness AND stats must all agree
      // exactly (the primary-range folding discipline).
      const Capture serial = Serial(*m, q.graph, /*cap=*/1u << 30);
      for (size_t w : widths) {
        const Capture split = Split(*m, q.graph, 1u << 30, w, &pool);
        ExpectSameStream(split, serial, m->name().data());
        ExpectSameStats(split.result.stats, serial.result.stats,
                        m->name().data());
      }
    }
  }
}

// ---- Shared-budget exactness at the cap boundaries ----

TEST(MatchParallelTest, BudgetExactAtEveryBoundary) {
  Executor pool(/*num_threads=*/4);
  const int seeds = std::max(1, NumSeeds() / 5);
  for (int seed = 1; seed <= seeds; ++seed) {
    const Graph g = MakeDataGraph(static_cast<uint64_t>(seed) + 200);
    const auto queries = MakeQueries(g, static_cast<uint64_t>(seed) + 200);
    auto m = MakeMatcher(seed % 4);
    m->set_candidate_index(CandidateIndex::Build(g));
    ASSERT_TRUE(m->Prepare(g).ok());
    for (const auto& q : queries) {
      const uint64_t total =
          Serial(*m, q.graph, 1u << 30).result.embedding_count;
      std::vector<uint64_t> caps = {1};
      if (total > 1) caps.push_back(total - 1);
      if (total > 0) {
        caps.push_back(total);
        caps.push_back(total + 1);
      }
      for (uint64_t cap : caps) {
        const Capture serial = Serial(*m, q.graph, cap);
        for (size_t w : {2, 4}) {
          const Capture split = Split(*m, q.graph, cap, w, &pool);
          ExpectSameStream(split, serial, m->name().data());
          // The cap applies to the merged stream exactly.
          EXPECT_EQ(split.result.embedding_count, std::min(cap, total));
        }
      }
    }
  }
}

// A sink that stops the merge early truncates the split stream at the
// same embedding as the serial search.
TEST(MatchParallelTest, SinkEarlyStopMatchesSerial) {
  Executor pool(/*num_threads=*/4);
  const Graph g = MakeDataGraph(42);
  const auto queries = MakeQueries(g, 42);
  ASSERT_FALSE(queries.empty());
  GraphQlMatcher m;
  ASSERT_TRUE(m.Prepare(g).ok());
  for (const auto& q : queries) {
    for (uint64_t stop_after : {uint64_t{1}, uint64_t{3}}) {
      auto collect = [&](auto run_fn) {
        std::vector<Embedding> stream;
        MatchOptions mo;
        mo.max_embeddings = 1u << 30;
        mo.sink = [&](const Embedding& e) {
          stream.push_back(e);
          return stream.size() < stop_after;
        };
        run_fn(mo);
        return stream;
      };
      const auto serial =
          collect([&](const MatchOptions& mo) { return m.Match(q.graph, mo); });
      ParallelMatchOptions po;
      po.split = 4;
      po.min_slice = 1;
      po.executor = &pool;
      const auto split = collect([&](const MatchOptions& mo) {
        return MatchParallel(m, q.graph, mo, po);
      });
      EXPECT_EQ(split, serial);
    }
  }
}

// ---- Race integration: all modes, split on vs. off ----

// Builds a two-variant universe (serial + split entry points) over one
// matcher and races it under `mode`, requesting a split for variant 0.
RaceResult RaceSplit(const Matcher& m, const Graph& q, RaceMode mode,
                     Executor* exec, uint32_t width) {
  RaceVariant v;
  v.name = "split";
  v.run = [&m, &q](const MatchOptions& mo) { return m.Match(q, mo); };
  v.run_split = [&m, &q, exec](const MatchOptions& mo, uint32_t workers) {
    ParallelMatchOptions po;
    po.split = workers;
    po.min_slice = 1;
    po.executor = exec;
    return MatchParallel(m, q, mo, po);
  };
  RaceOptions ro;
  ro.mode = mode;
  ro.executor = exec;
  ro.max_embeddings = 1000;
  ro.variant_splits = {width};
  const RaceVariant variants[] = {v};
  return Race(variants, ro);
}

TEST(MatchParallelRaceTest, AllRaceModesAnswerLikeSerial) {
  Executor pool(/*num_threads=*/4);
  const int seeds = std::max(1, NumSeeds() / 10);
  for (int seed = 1; seed <= seeds; ++seed) {
    const Graph g = MakeDataGraph(static_cast<uint64_t>(seed) + 400);
    const auto queries = MakeQueries(g, static_cast<uint64_t>(seed) + 400);
    auto m = MakeMatcher(seed % 4);
    ASSERT_TRUE(m->Prepare(g).ok());
    for (const auto& q : queries) {
      MatchOptions mo;
      mo.max_embeddings = 1000;
      const uint64_t want = m->Match(q.graph, mo).embedding_count;
      for (RaceMode mode :
           {RaceMode::kThreads, RaceMode::kSequential, RaceMode::kPool}) {
        const RaceResult r = RaceSplit(*m, q.graph, mode, &pool, 4);
        ASSERT_TRUE(r.completed()) << ToString(mode);
        EXPECT_EQ(r.result.embedding_count, want) << ToString(mode);
      }
    }
  }
}

TEST(MatchParallelRaceTest, CapacityZeroPoolRunsAllRangesInline) {
  // A pool that can never queue anything: every range task is rejected at
  // admission and re-runs inline, degrading to the serial search with the
  // identical stream.
  ExecutorOptions eo;
  eo.num_threads = 2;
  eo.queue_capacity = 0;
  eo.overload_policy = OverloadPolicy::kRejectNew;
  Executor pool(eo);
  const Graph g = MakeDataGraph(7);
  const auto queries = MakeQueries(g, 7);
  ASSERT_FALSE(queries.empty());
  Vf2Matcher m;
  ASSERT_TRUE(m.Prepare(g).ok());
  for (const auto& q : queries) {
    const Capture serial = Serial(m, q.graph, 1u << 30);
    const Capture split = Split(m, q.graph, 1u << 30, 4, &pool);
    ExpectSameStream(split, serial, "capacity0");
    ExpectSameStats(split.result.stats, serial.result.stats, "capacity0");
  }
}

TEST(MatchParallelRaceTest, SheddingPoolStaysExact) {
  // Capacity 1 with shed-latest-deadline: range tasks displace each other
  // from the queue; displaced ranges must re-run inline in order.
  ExecutorOptions eo;
  eo.num_threads = 1;
  eo.queue_capacity = 1;
  eo.overload_policy = OverloadPolicy::kShedLatestDeadline;
  Executor pool(eo);
  const Graph g = MakeDataGraph(8);
  const auto queries = MakeQueries(g, 8);
  ASSERT_FALSE(queries.empty());
  GraphQlMatcher m;
  ASSERT_TRUE(m.Prepare(g).ok());
  for (const auto& q : queries) {
    const Capture serial = Serial(m, q.graph, 1u << 30);
    const Capture split = Split(m, q.graph, 1u << 30, 8, &pool);
    ExpectSameStream(split, serial, "shed");
    ExpectSameStats(split.result.stats, serial.result.stats, "shed");
  }
}

// ---- kSplit escalation ----

TEST(MatchParallelPlanTest, WarmStagedPlannerEmitsSplitPlan) {
  const Graph g = MakeDataGraph(21);
  GraphQlMatcher gql;
  SPathMatcher spa;
  ASSERT_TRUE(gql.Prepare(g).ok());
  ASSERT_TRUE(spa.Prepare(g).ok());
  Portfolio p;
  p.entries.push_back({&gql, Rewriting::kOriginal, 0});
  p.entries.push_back({&spa, Rewriting::kOriginal, 0});
  const LabelStats stats = LabelStats::FromGraph(g);
  QueryPlannerOptions po;
  po.budget = std::chrono::milliseconds(100);
  po.staged = true;
  po.min_samples = 2;
  po.split_workers = 4;
  QueryPlanner planner;
  planner.Configure(&p, &stats, po);
  const auto queries = MakeQueries(g, 21);
  ASSERT_FALSE(queries.empty());
  const QueryFeatures f = ExtractFeatures(queries[0].graph, stats);
  // Cold: no staging yet.
  EXPECT_EQ(planner.Plan(f).escalation, EscalationPolicy::kNone);
  planner.Observe(f, 0);
  planner.Observe(f, 0);
  // Warm: probe -> split-the-winner.
  const QueryPlan plan = planner.Plan(f);
  ASSERT_EQ(plan.escalation, EscalationPolicy::kSplit);
  ASSERT_EQ(plan.stages.size(), 2u);
  ASSERT_EQ(plan.stages[1].steps.size(), 1u);
  EXPECT_EQ(plan.stages[1].steps[0].split, 4u);
  EXPECT_EQ(plan.stages[1].steps[0].variant, 0u);  // the predicted winner
  EXPECT_NE(plan.name.find("split4"), std::string::npos) << plan.name;
  // FormatPlan renders the split width.
  const std::string rendered = FormatPlan(plan, p);
  EXPECT_NE(rendered.find("x4"), std::string::npos) << rendered;
}

TEST(MatchParallelPlanTest, ProbeMissEscalatesToSplitStageWithCorrectAnswer) {
  Executor pool(/*num_threads=*/4);
  const Graph g = MakeDataGraph(22);
  const auto queries = MakeQueries(g, 22);
  ASSERT_FALSE(queries.empty());
  GraphQlMatcher m;
  ASSERT_TRUE(m.Prepare(g).ok());
  Portfolio p;
  p.entries.push_back({&m, Rewriting::kOriginal, 0});
  const LabelStats stats = LabelStats::FromGraph(g);
  for (const auto& q : queries) {
    MatchOptions mo;
    mo.max_embeddings = 1000;
    const uint64_t want = m.Match(q.graph, mo).embedding_count;

    QueryPlan plan;
    plan.name = "probe->split";
    plan.escalation = EscalationPolicy::kSplit;
    PlanStage probe;  // an already-expired probe budget: guaranteed miss
    probe.budget = std::chrono::nanoseconds(1);
    probe.steps.push_back(PlanStep{0, {}});
    PlanStage split_stage;
    split_stage.budget = std::chrono::seconds(30);
    PlanStep step{0, {}};
    step.split = 4;
    split_stage.steps.push_back(step);
    plan.stages.push_back(probe);
    plan.stages.push_back(split_stage);

    RaceOptions base;
    base.mode = RaceMode::kPool;
    base.executor = &pool;
    base.max_embeddings = 1000;
    base.guard_period = 1;  // poll every step: the 1ns probe always dies
    const PlanResult r =
        ExecutePortfolioPlan(plan, p, q.graph, stats, base);
    ASSERT_TRUE(r.race.completed());
    EXPECT_TRUE(r.escalated);
    EXPECT_EQ(r.stages_run, 2u);
    EXPECT_EQ(r.race.result.embedding_count, want);
  }
}

// The planner's adaptive split width: full split_workers while the
// winner's straggler profile is cold, clamp(ceil(spread)+1, 2, max) once
// NoteRangeSpread has reported.
TEST(MatchParallelPlanTest, SplitWidthFollowsStragglerSpread) {
  const Graph g = MakeDataGraph(21);
  GraphQlMatcher gql;
  SPathMatcher spa;
  ASSERT_TRUE(gql.Prepare(g).ok());
  ASSERT_TRUE(spa.Prepare(g).ok());
  Portfolio p;
  p.entries.push_back({&gql, Rewriting::kOriginal, 0});
  p.entries.push_back({&spa, Rewriting::kOriginal, 0});
  const LabelStats stats = LabelStats::FromGraph(g);
  QueryPlannerOptions po;
  po.budget = std::chrono::milliseconds(100);
  po.staged = true;
  po.min_samples = 2;
  po.split_workers = 8;
  QueryPlanner planner;
  planner.Configure(&p, &stats, po);
  const auto queries = MakeQueries(g, 21);
  ASSERT_FALSE(queries.empty());
  const QueryFeatures f = ExtractFeatures(queries[0].graph, stats);
  planner.Observe(f, 0);
  planner.Observe(f, 0);
  // Cold straggler profile: the configured ceiling stands.
  {
    const QueryPlan plan = planner.Plan(f);
    ASSERT_EQ(plan.escalation, EscalationPolicy::kSplit);
    ASSERT_EQ(plan.stages.size(), 2u);
    EXPECT_EQ(plan.stages[1].steps[0].split, 8u);
  }
  // Warm: spread 2.5 -> ceil(2.5) + 1 = 4 ranges suffice.
  gql.kernel_stats().NoteRangeSpread(2.5);
  {
    const QueryPlan plan = planner.Plan(f);
    ASSERT_EQ(plan.escalation, EscalationPolicy::kSplit);
    EXPECT_EQ(plan.stages[1].steps[0].split, 4u);
    EXPECT_NE(plan.name.find("split4"), std::string::npos) << plan.name;
  }
  // A flat profile (spread ~1) floors at 2, never 1.
  GraphQlMatcher flat;
  ASSERT_TRUE(flat.Prepare(g).ok());
  flat.kernel_stats().NoteRangeSpread(1.0);
  Portfolio p2;
  p2.entries.push_back({&flat, Rewriting::kOriginal, 0});
  p2.entries.push_back({&spa, Rewriting::kOriginal, 0});  // staging needs n>1
  QueryPlanner planner2;
  planner2.Configure(&p2, &stats, po);
  planner2.Observe(f, 0);
  planner2.Observe(f, 0);
  {
    const QueryPlan plan = planner2.Plan(f);
    ASSERT_EQ(plan.escalation, EscalationPolicy::kSplit);
    EXPECT_EQ(plan.stages[1].steps[0].split, 2u);
  }
}

// ---- Concurrency & cancellation ----

TEST(MatchParallelStressTest, EightClientThreadsOneSharedPool) {
  Executor pool(/*num_threads=*/4);
  const Graph g = MakeDataGraph(33);
  const auto queries = MakeQueries(g, 33);
  ASSERT_FALSE(queries.empty());
  GraphQlMatcher gql;
  Vf2Matcher vf2;
  gql.set_candidate_index(CandidateIndex::Build(g));
  vf2.set_candidate_index(nullptr);  // one indexed, one unindexed client
  ASSERT_TRUE(gql.Prepare(g).ok());
  ASSERT_TRUE(vf2.Prepare(g).ok());
  std::vector<uint64_t> want;
  for (const auto& q : queries) {
    MatchOptions mo;
    mo.max_embeddings = 1u << 30;
    want.push_back(gql.Match(q.graph, mo).embedding_count);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < 6; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          const Matcher& m =
              (t + round) % 2 == 0 ? static_cast<const Matcher&>(gql)
                                   : static_cast<const Matcher&>(vf2);
          MatchOptions mo;
          mo.max_embeddings = 1u << 30;
          ParallelMatchOptions po;
          po.split = 2 + (t + round) % 3;  // widths 2..4
          po.min_slice = 1;
          po.executor = &pool;
          const MatchResult r = MatchParallel(m, queries[i].graph, mo, po);
          if (r.embedding_count != want[i] || !r.complete) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(MatchParallelStressTest, CancellationMidSplitIsCleanAndReported) {
  Executor pool(/*num_threads=*/4);
  // A dense single-label graph: enough embeddings that the search is
  // still running when the cancel lands.
  gen::GraphGenLikeOptions o;
  o.num_graphs = 1;
  o.avg_nodes = 60;
  o.density = 0.3;
  o.num_labels = 1;
  o.seed = 77;
  const Graph g = gen::GraphGenLike(o).graph(0);
  auto w = gen::GenerateWorkload(g, 1, 6, 778899);
  ASSERT_TRUE(w.ok());
  const Graph& q = (*w)[0].graph;
  Vf2Matcher m;
  ASSERT_TRUE(m.Prepare(g).ok());
  for (int round = 0; round < 5; ++round) {
    StopToken stop;
    std::thread canceller([&stop, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      stop.RequestStop();
    });
    MatchOptions mo;
    mo.max_embeddings = 1u << 30;
    mo.stop = &stop;
    mo.guard_period = 16;
    ParallelMatchOptions po;
    po.split = 4;
    po.min_slice = 1;
    po.executor = &pool;
    const MatchResult r = MatchParallel(m, q, mo, po);
    canceller.join();
    // Either the search finished before the cancel landed, or it reports
    // a clean cancellation; never a hang, crash or TSan report.
    if (!r.complete) {
      EXPECT_TRUE(r.cancelled);
    }
  }
}

// Serial-fallback edge cases keep exact serial semantics.
TEST(MatchParallelTest, FallbackCasesMatchSerial) {
  Executor pool(/*num_threads=*/2);
  const Graph g = MakeDataGraph(3);
  const auto queries = MakeQueries(g, 3);
  ASSERT_FALSE(queries.empty());
  Vf2Matcher m;
  ASSERT_TRUE(m.Prepare(g).ok());
  const Graph& q = queries[0].graph;
  const Capture serial = Serial(m, q, 1u << 30);
  // Width 0 / 1: plain serial call.
  for (size_t width : {size_t{0}, size_t{1}}) {
    const Capture r = Split(m, q, 1u << 30, width, &pool);
    ExpectSameStream(r, serial, "width<=1");
  }
  // min_slice larger than the frontier: clamped back to serial.
  {
    Capture r;
    MatchOptions mo;
    mo.max_embeddings = 1u << 30;
    mo.sink = [&](const Embedding& e) {
      r.stream.push_back(e);
      return true;
    };
    ParallelMatchOptions po;
    po.split = 4;
    po.min_slice = 1u << 20;
    po.executor = &pool;
    r.result = MatchParallel(m, q, mo, po);
    ExpectSameStream(r, serial, "min_slice clamp");
  }
  // Occupied stop2 slot: serial fallback (the split needs stop2 itself).
  {
    StopToken unrelated;
    Capture r;
    MatchOptions mo;
    mo.max_embeddings = 1u << 30;
    mo.stop2 = &unrelated;
    mo.sink = [&](const Embedding& e) {
      r.stream.push_back(e);
      return true;
    };
    ParallelMatchOptions po;
    po.split = 4;
    po.min_slice = 1;
    po.executor = &pool;
    r.result = MatchParallel(m, q, mo, po);
    ExpectSameStream(r, serial, "stop2 occupied");
  }
}

// The split gauges surface through MatchKernelStats -> PoolGauges.
TEST(MatchParallelTest, SplitGaugesAccumulate) {
  Executor pool(/*num_threads=*/4);
  const Graph g = MakeDataGraph(5);
  const auto queries = MakeQueries(g, 5);
  ASSERT_FALSE(queries.empty());
  GraphQlMatcher m;
  ASSERT_TRUE(m.Prepare(g).ok());
  for (const auto& q : queries) {
    (void)Split(m, q.graph, 1u << 30, 4, &pool);
  }
  PoolGauges gauges;
  m.kernel_stats().AddTo(&gauges);
  // At least one of the queries must have a frontier wide enough to split
  // (min_slice = 1 and every label bucket has several vertices here).
  EXPECT_GE(gauges.kernel_split_matches, 1u);
  EXPECT_GT(gauges.kernel_split_tasks + gauges.kernel_split_tasks_inline, 0u);
}

}  // namespace
}  // namespace psi
