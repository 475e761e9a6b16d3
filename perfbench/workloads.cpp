#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <cctype>
#include <iostream>
#include <set>
#include <span>
#include <utility>

#include "core/dataset.hpp"
#include "core/label_stats.hpp"
#include "fault/failpoint.hpp"
#include "gen/dataset_gen.hpp"
#include "gen/query_gen.hpp"
#include "graphql/graphql.hpp"
#include "grapes/grapes.hpp"
#include "match/candidate_index.hpp"
#include "plan/planner.hpp"
#include "psi/engine.hpp"
#include "psi/racer.hpp"
#include "rewrite/rewrite.hpp"
#include "spath/spath.hpp"
#include "workload/runner.hpp"

namespace perfbench {
namespace {

/// The engine's default kill budget; no query of these workloads comes
/// near it, so a kill means a regression, not noise.
constexpr auto kBudget = std::chrono::seconds(10);
constexpr double kBudgetMs =
    std::chrono::duration<double, std::milli>(kBudget).count();
/// Standalone (solo) variant runs of the traced pass are diagnostics: each
/// is capped at ten times its race's wall time (at least 5 ms), so a
/// variant the race would have cancelled cannot stall the pass. A capped
/// run is counted (solo_timeouts), and the effort counters of its query
/// are left out of the kernel counts (LayerTally::solo_stats).
psi::Deadline SoloDeadline(double race_ms) {
  const double cap_ms = std::max(5.0, 10.0 * race_ms);
  return psi::Deadline::After(std::chrono::microseconds(
      static_cast<int64_t>(std::min(cap_ms, 2000.0) * 1e3)));
}
/// Per-variant probe budget of the serial reference (see ComputeReference).
constexpr auto kReferenceProbe = std::chrono::milliseconds(500);

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

/// Returns the previous set-up's freed memory to the system before the next
/// one. Freed pages can sit in another thread's malloc arena, where the
/// next build cannot reuse them; without this, peak_rss_mb on ftv-decide
/// read either ~300 or ~420 MB depending on which arenas the pool threads
/// had used.
void ReleaseFreedMemory() { malloc_trim(0); }

double SecondsSince(Clock::time_point t0) {
  return MsBetween(t0, Clock::now()) / 1e3;
}

/// Appends `per_size` queries of each edge count in `sizes`. A failed
/// generation leaves the workload short, which the shape check reports.
template <typename Source>
void AppendQueries(const Source& source, const std::vector<uint32_t>& sizes,
                   uint32_t per_size, uint64_t seed,
                   std::vector<psi::gen::Query>* out) {
  for (uint32_t edges : sizes) {
    auto r = psi::gen::GenerateWorkload(source, per_size, edges,
                                        Mix(seed ^ (0x51ull * edges)));
    if (!r.ok()) {
      std::cerr << "query generation failed: " << r.status().ToString()
                << "\n";
      return;
    }
    for (auto& q : r.value()) out->push_back(std::move(q));
  }
}

std::map<uint32_t, uint32_t> ShapeOf(
    const std::vector<psi::gen::Query>& queries) {
  std::map<uint32_t, uint32_t> out;
  for (const auto& q : queries) ++out[q.num_edges];
  return out;
}

/// Adds one query's solo-run counters unless one of its runs was capped.
void AddSoloStats(const psi::MatchStats& stats, bool capped, LayerTally& t) {
  if (capped) return;
  t.solo_stats.Add(stats);
  ++t.solo_complete_queries;
}

/// Records the race's winner as a child span placed at the race's end,
/// and the race-level tallies.
void TallyRace(const psi::RaceResult& r, const std::vector<std::string>& names,
               int64_t race_start_ns, int64_t race_end_ns, uint64_t race_id,
               uint64_t query, SpanBuffer& buf, LayerTally& t) {
  const double wall_ms = static_cast<double>(race_end_ns - race_start_ns) / 1e6;
  t.race_ms.push_back(wall_ms);
  if (!r.completed()) return;
  const double win_ms = r.result.elapsed_ms();
  const auto win_ns = static_cast<int64_t>(win_ms * 1e6);
  buf.Add("match", race_id, query, std::max(race_start_ns, race_end_ns - win_ns),
          race_end_ns);
  t.race_overhead_ms.push_back(wall_ms - win_ms);
  t.winner_elapsed_ms += win_ms;
  for (const auto& w : r.workers) t.variant_elapsed_ms += w.result.elapsed_ms();
  ++t.winners[names[static_cast<size_t>(r.winner)]];
}

// ---- NFV: one stored graph, PsiEngine over GQL/SPA x Orig/DND -------------

struct NfvSpec {
  std::string name;
  bool human = true;  ///< HumanLike, else YeastLike
  std::vector<uint32_t> sizes;
  uint32_t per_size = 0;
  bool decision = false;  ///< Contains (first match) vs Run (cap 1000)
  uint32_t clients = 1;
  /// Planner learning (PsiEngineOptions::learn). Off, plans stay the
  /// rule-ordered full race, so no run-dependent state moves latency.
  bool learn = false;
};

class NfvWorkload final : public Workload {
 public:
  NfvWorkload(NfvSpec spec, psi::Executor* pool)
      : spec_(std::move(spec)), pool_(pool) {}

  std::string name() const override { return spec_.name; }
  uint32_t clients() const override { return spec_.clients; }
  size_t num_queries() const override { return queries_.size(); }
  std::map<uint32_t, uint32_t> Shape() const override {
    return ShapeOf(queries_);
  }
  std::map<uint32_t, uint32_t> ExpectedShape() const override {
    std::map<uint32_t, uint32_t> out;
    for (uint32_t e : spec_.sizes) out[e] = spec_.per_size;
    return out;
  }

  SetupTiming Setup(uint64_t seed, SpanBuffer* buf) override {
    engine_.reset();  // holds a pointer into graph_
    queries_.clear();
    graph_.reset();
    rewrite_cache_.Clear();
    ReleaseFreedMemory();
    SetupTiming st;
    const auto t0 = Clock::now();
    {
      ScopedSpan s(buf, "setup.workload_gen", 0, 0);
      // The stored graph is a fixed dataset (the generator's own default
      // seed), as the paper's are; the seed draws the queries.
      graph_ = std::make_unique<psi::Graph>(
          spec_.human ? psi::gen::HumanLike() : psi::gen::YeastLike());
      AppendQueries(*graph_, spec_.sizes, spec_.per_size, seed, &queries_);
    }
    st.workload_gen_s = SecondsSince(t0);
    const auto t1 = Clock::now();
    {
      ScopedSpan span(buf, "setup.prepare", 0, 0);
      psi::PsiEngineOptions o;
      o.budget = kBudget;
      o.max_embeddings = 1000;
      o.mode = psi::RaceMode::kPool;
      o.executor = pool_;
      o.rewritings = {psi::Rewriting::kOriginal, psi::Rewriting::kDnd};
      o.portfolio_limit = 0;
      o.learn = spec_.learn;
      o.staged = false;
      o.probe_fraction = 0.1;
      o.plan_min_samples = 8;
      o.split_workers = 0;
      o.guard_period = 256;
      o.fail_fast_on_overload = false;
      engine_ = std::make_unique<psi::PsiEngine>(o);
      engine_->AddMatcher(std::make_unique<psi::GraphQlMatcher>());
      engine_->AddMatcher(std::make_unique<psi::SPathMatcher>());
      const psi::Status s = engine_->Prepare(*graph_);
      if (!s.ok()) std::cerr << "Prepare failed: " << s.ToString() << "\n";
    }
    st.prepare_s = SecondsSince(t1);
    st.total_s = SecondsSince(t0);
    names_.clear();
    for (const auto& e : engine_->portfolio().entries) {
      names_.push_back(Lower(psi::EntryName(e)));
    }
    if (buf != nullptr) TimePreparePieces(buf, &st);
    reference_.assign(queries_.size(), 0);
    return st;
  }

  bool ComputeReference() override {
    if (spec_.decision) return true;  // every extracted query is contained
    // One variant at a time, serially: the first that completes gives
    // min(total, 1000), whichever algorithm or rewriting it is. Each gets
    // a probe budget first, so one variant's straggler does not stall
    // the reference; the full budget only when every probe missed.
    const auto& entries = engine_->portfolio().entries;
    for (size_t q = 0; q < queries_.size(); ++q) {
      bool done = false;
      for (std::chrono::nanoseconds budget : {
               std::chrono::nanoseconds(kReferenceProbe),
               std::chrono::nanoseconds(kBudget)}) {
        for (size_t i = 0; i < entries.size() && !done; ++i) {
          const auto rq = psi::RewriteQuery(queries_[q].graph,
                                            entries[i].rewriting,
                                            engine_->stats());
          if (!rq.ok()) continue;
          psi::MatchOptions mo;
          mo.max_embeddings = 1000;
          mo.deadline = psi::Deadline::After(budget);
          const psi::MatchResult r = entries[i].matcher->Match(rq->graph, mo);
          if (r.complete) {
            reference_[q] = r.embedding_count;
            done = true;
          }
        }
        if (done) break;
      }
      if (!done) {
        std::cerr << "no reference for query " << q << "\n";
        return false;
      }
    }
    return true;
  }

  Outcome Serve(size_t q) override {
    const psi::Graph& g = queries_[q].graph;
    if (spec_.decision) {
      const psi::Result<bool> r = engine_->Contains(g);
      if (!r.ok()) return Outcome::kUnanswered;
      return r.value() ? Outcome::kCorrect : Outcome::kWrong;
    }
    return Judge(q, engine_->Run(g, 1000));
  }

  Outcome ServeTraced(size_t q, SpanBuffer& buf, LayerTally& t) override {
    const psi::Graph& g = queries_[q].graph;
    const auto& entries = engine_->portfolio().entries;
    const uint64_t max_emb = spec_.decision ? 1 : 1000;
    ScopedSpan query(&buf, "query", 0, q);
    ++t.queries;

    psi::QueryPlan plan;
    {
      const auto t0 = Clock::now();
      ScopedSpan s(&buf, "plan", query.id(), q);
      plan = engine_->ExplainPlan(g);
      t.plan_ms += MsBetween(t0, Clock::now());
    }
    std::set<size_t> planned;
    for (const auto& stage : plan.stages) {
      for (const auto& step : stage.steps) planned.insert(step.variant);
    }
    t.plan_variants += planned.size();

    std::vector<std::shared_ptr<const psi::RewrittenQuery>> inst(
        entries.size());
    {
      const auto t0 = Clock::now();
      ScopedSpan s(&buf, "rewrite", query.id(), q);
      for (size_t i = 0; i < entries.size(); ++i) {
        inst[i] = rewrite_cache_.Get(g, entries[i].rewriting,
                                     engine_->stats());
      }
      t.rewrite_ms += MsBetween(t0, Clock::now());
    }

    psi::RaceResult race;
    int64_t r0 = 0, r1 = 0;
    uint64_t race_id = 0;
    {
      ScopedSpan s(&buf, "race", query.id(), q);
      race_id = s.id();
      r0 = NowNs();
      race = engine_->Run(g, max_emb);
      r1 = NowNs();
    }
    const Outcome outcome =
        spec_.decision ? (!race.completed()      ? Outcome::kUnanswered
                          : race.result.found() ? Outcome::kCorrect
                                                : Outcome::kWrong)
                       : Judge(q, race);
    t.serve_ms.push_back(static_cast<double>(r1 - r0) / 1e6);
    TallyRace(race, names_, r0, r1, race_id, q, buf, t);

    double fastest = 0.0;
    psi::MatchStats stats;
    bool capped = false;
    {
      ScopedSpan solo(&buf, "solo", query.id(), q);
      for (size_t i = 0; i < entries.size(); ++i) {
        ScopedSpan s(&buf, "solo." + names_[i], solo.id(), q);
        psi::MatchOptions mo;
        mo.max_embeddings = max_emb;
        mo.deadline = SoloDeadline(static_cast<double>(r1 - r0) / 1e6);
        const psi::MatchResult m = entries[i].matcher->Match(inst[i]->graph, mo);
        if (!m.complete) ++t.solo_timeouts;
        capped = capped || !m.complete;
        stats.Add(m.stats);
        const double ms = m.elapsed_ms();
        t.solo_ms_by_rewriting[Lower(std::string(
                                   psi::ToString(entries[i].rewriting)))]
            .push_back(ms);
        if (i == 0 || ms < fastest) fastest = ms;
      }
    }
    t.solo_fastest_ms.push_back(fastest);
    AddSoloStats(stats, capped, t);
    if (race.completed() && fastest > 0.0) {
      t.oracle_gap.push_back(static_cast<double>(r1 - r0) / 1e6 / fastest);
    }
    return outcome;
  }

  psi::PoolGauges Gauges() const override { return engine_->pool_gauges(); }
  psi::RewriteCache::Stats RewriteStats() const override {
    return engine_->rewrite_cache_stats();
  }

 private:
  Outcome Judge(size_t q, const psi::RaceResult& r) const {
    if (!r.completed()) return Outcome::kUnanswered;
    return r.result.embedding_count == reference_[q] ? Outcome::kCorrect
                                                     : Outcome::kWrong;
  }

  /// Times the pieces PsiEngine::Prepare runs, standalone: the shared
  /// candidate index and each matcher's Prepare over it.
  void TimePreparePieces(SpanBuffer* buf, SetupTiming* st) {
    std::shared_ptr<const psi::CandidateIndex> index;
    {
      const auto t0 = Clock::now();
      ScopedSpan s(buf, "setup.candidate_index", 0, 0);
      index = psi::CandidateIndex::Build(*graph_);
      st->index_build_s = SecondsSince(t0);
    }
    std::vector<std::unique_ptr<psi::Matcher>> ms;
    ms.push_back(std::make_unique<psi::GraphQlMatcher>());
    ms.push_back(std::make_unique<psi::SPathMatcher>());
    for (auto& m : ms) {
      const std::string n = Lower(std::string(m->name()));
      const auto t0 = Clock::now();
      ScopedSpan s(buf, "setup.matcher_prepare." + n, 0, 0);
      m->set_candidate_index(index);
      (void)m->Prepare(*graph_);
      st->matcher_prepare_s[n] = SecondsSince(t0);
    }
  }

  NfvSpec spec_;
  psi::Executor* pool_;
  std::unique_ptr<psi::Graph> graph_;
  std::vector<psi::gen::Query> queries_;
  std::unique_ptr<psi::PsiEngine> engine_;
  std::vector<std::string> names_;
  std::vector<uint64_t> reference_;
  /// The traced pass's own rewrite calls (the engine's cache is private).
  psi::RewriteCache rewrite_cache_;
};

// ---- FTV: GraphGenLike collection, sharded Grapes, Orig/DND verify races --

class FtvWorkload final : public Workload {
 public:
  explicit FtvWorkload(psi::Executor* pool) : pool_(pool) {}

  std::string name() const override { return "ftv-decide"; }
  uint32_t clients() const override { return 1; }
  size_t num_queries() const override { return queries_.size(); }
  std::map<uint32_t, uint32_t> Shape() const override {
    return ShapeOf(queries_);
  }
  std::map<uint32_t, uint32_t> ExpectedShape() const override {
    return {{4, 300}, {8, 300}, {12, 300}, {16, 300}};
  }

  SetupTiming Setup(uint64_t seed, SpanBuffer* buf) override {
    index_.reset();  // holds a pointer into dataset_
    queries_.clear();
    dataset_.reset();
    ReleaseFreedMemory();
    SetupTiming st;
    const auto t0 = Clock::now();
    {
      ScopedSpan s(buf, "setup.workload_gen", 0, 0);
      psi::gen::GraphGenLikeOptions o;
      o.num_graphs = 60;
      o.avg_nodes = 150;
      o.density = 0.05;
      o.num_labels = 20;
      dataset_ = std::make_unique<psi::GraphDataset>(psi::gen::GraphGenLike(o));
      AppendQueries(*dataset_, {4, 8, 12, 16}, 300, seed, &queries_);
    }
    st.workload_gen_s = SecondsSince(t0);
    const auto t1 = Clock::now();
    {
      ScopedSpan span(buf, "setup.grapes_build", 0, 0);
      psi::GrapesOptions go;
      go.max_path_edges = 3;
      go.num_threads = 1;
      go.filter_shards = 2;
      go.executor = pool_;
      go.candidate_index = 1;
      index_ = std::make_unique<psi::GrapesIndex>(go);
      const psi::Status s = index_->Build(*dataset_);
      if (!s.ok()) std::cerr << "Grapes build failed: " << s.ToString() << "\n";
      stats_ = psi::LabelStats::FromGraphs(dataset_->graphs());
      portfolio_ = psi::MakeFtvVerificationPortfolio(kRewritings);
      psi::QueryPlannerOptions po;
      po.budget = kBudget;
      po.staged = false;
      po.portfolio_limit = 0;
      po.min_samples = 8;
      po.split_workers = 0;
      planner_ = std::make_unique<psi::QueryPlanner>();
      planner_->Configure(&portfolio_, &stats_, po);
      cache_ = std::make_unique<psi::RewriteCache>();
    }
    st.prepare_s = SecondsSince(t1);
    st.index_build_s = st.prepare_s;
    st.total_s = SecondsSince(t0);
    reference_.assign(queries_.size(), {});
    return st;
  }

  bool ComputeReference() override {
    psi::RunnerOptions ro;
    ro.cap_ms = kBudgetMs;
    ro.max_embeddings = 1;
    const auto recs = psi::RunFtvWorkload(*index_, queries_, ro);
    for (const auto& r : recs) {
      if (r.killed || r.status != psi::Status::Code::kOk) {
        std::cerr << "reference pair killed: query " << r.query_index << "\n";
        return false;
      }
      if (r.matched) reference_[r.query_index].push_back(r.graph_id);
    }
    for (size_t q = 0; q < queries_.size(); ++q) {
      if (!Contains(reference_[q], queries_[q].source_graph)) {
        std::cerr << "reference of query " << q
                  << " misses its source graph\n";
        return false;
      }
    }
    return true;
  }

  Outcome Serve(size_t q) override {
    return Judge(q, ServeOne(q));
  }

  Outcome ServeTraced(size_t q, SpanBuffer& buf, LayerTally& t) override {
    const psi::Graph& g = queries_[q].graph;
    ScopedSpan query(&buf, "query", 0, q);
    ++t.queries;
    Outcome outcome;
    {
      const int64_t s0 = NowNs();
      ScopedSpan s(&buf, "serve", query.id(), q);
      outcome = Judge(q, ServeOne(q));
      t.serve_ms.push_back(static_cast<double>(NowNs() - s0) / 1e6);
    }
    // The serving call again, one layer call at a time.
    {
      const auto t0 = Clock::now();
      ScopedSpan s(&buf, "plan", query.id(), q);
      const psi::QueryPlan plan = planner_->Plan(g);
      t.plan_ms += MsBetween(t0, Clock::now());
      t.plan_variants += plan.final_stage_size();
    }
    std::vector<std::shared_ptr<const psi::RewrittenQuery>> inst;
    {
      const auto t0 = Clock::now();
      ScopedSpan s(&buf, "rewrite", query.id(), q);
      inst = cache_->GetInstances(g, kRewritings, stats_);
      t.rewrite_ms += MsBetween(t0, Clock::now());
    }
    std::vector<psi::GrapesCandidate> cands;
    {
      ScopedSpan s(&buf, "filter", query.id(), q);
      cands = index_->FilterSharded(g, psi::Deadline::After(kBudget));
    }
    t.filter_candidates += cands.size();
    std::vector<double> race_wall_ms(cands.size(), 0.0);
    {
      ScopedSpan verify(&buf, "verify", query.id(), q);
      for (size_t c = 0; c < cands.size(); ++c) {
        std::vector<psi::RaceVariant> variants;
        for (size_t i = 0; i < inst.size(); ++i) {
          variants.push_back(psi::RaceVariant{
              kNames[i],
              [this, rq = inst[i], &cand = cands[c]](
                  const psi::MatchOptions& mo) {
                return index_->VerifyCandidate(rq->graph, cand, mo);
              }});
        }
        psi::RaceOptions ro;
        ro.budget = kBudget;
        ro.max_embeddings = 1;
        ro.mode = psi::RaceMode::kPool;
        ro.executor = pool_;
        psi::RaceResult race;
        const int64_t r0 = NowNs();
        uint64_t race_id = 0;
        {
          ScopedSpan s(&buf, "race", verify.id(), q);
          race_id = s.id();
          race = psi::Race(variants, ro);
        }
        const int64_t r1 = NowNs();
        TallyRace(race, kNames, r0, r1, race_id, q, buf, t);
        race_wall_ms[c] = static_cast<double>(r1 - r0) / 1e6;
        if (race.completed() && race.result.found()) ++t.matched_pairs;
      }
    }
    ScopedSpan solo(&buf, "solo", query.id(), q);
    psi::MatchStats stats;
    bool capped = false;
    for (size_t c = 0; c < cands.size(); ++c) {
      double fastest = 0.0;
      for (size_t i = 0; i < inst.size(); ++i) {
        ScopedSpan s(&buf, "solo." + kNames[i], solo.id(), q);
        psi::MatchOptions mo;
        mo.max_embeddings = 1;
        mo.deadline = SoloDeadline(race_wall_ms[c]);
        const psi::MatchResult m =
            index_->VerifyCandidate(inst[i]->graph, cands[c], mo);
        if (!m.complete) ++t.solo_timeouts;
        capped = capped || !m.complete;
        stats.Add(m.stats);
        const double ms = m.elapsed_ms();
        t.solo_ms_by_rewriting[kNames[i].substr(4)].push_back(ms);
        if (i == 0 || ms < fastest) fastest = ms;
      }
      t.solo_fastest_ms.push_back(fastest);
      if (fastest > 0.0) {
        t.oracle_gap.push_back(race_wall_ms[c] / fastest);
      }
    }
    AddSoloStats(stats, capped, t);
    return outcome;
  }

  psi::PoolGauges Gauges() const override {
    psi::PoolGauges g = pool_->gauges();
    index_->kernel_stats().AddTo(&g);
    index_->filter_stats().AddTo(&g);
    psi::FaultStats::Instance().AddTo(&g);
    return g;
  }
  psi::RewriteCache::Stats RewriteStats() const override {
    return cache_->stats();
  }

 private:
  static constexpr psi::Rewriting kRewritings[] = {psi::Rewriting::kOriginal,
                                                   psi::Rewriting::kDnd};
  inline static const std::vector<std::string> kNames = {"vf2-orig",
                                                         "vf2-dnd"};

  static bool Contains(const std::vector<uint32_t>& v, uint32_t x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  }

  std::vector<psi::FtvPairRecord> ServeOne(size_t q) {
    psi::RunnerOptions ro;
    ro.cap_ms = kBudgetMs;
    ro.max_embeddings = 1;
    return psi::RunFtvWorkloadPsiParallel(
        *index_, std::span<const psi::gen::Query>(&queries_[q], 1),
        kRewritings, stats_, ro, psi::RaceMode::kPool, pool_, planner_.get(),
        cache_.get());
  }

  Outcome Judge(size_t q, const std::vector<psi::FtvPairRecord>& recs) const {
    std::vector<uint32_t> matched;
    for (const auto& r : recs) {
      if (r.killed || r.status != psi::Status::Code::kOk) {
        return Outcome::kUnanswered;
      }
      if (r.matched) matched.push_back(r.graph_id);
    }
    return matched == reference_[q] ? Outcome::kCorrect : Outcome::kWrong;
  }

  psi::Executor* pool_;
  std::unique_ptr<psi::GraphDataset> dataset_;
  std::vector<psi::gen::Query> queries_;
  std::unique_ptr<psi::GrapesIndex> index_;
  psi::LabelStats stats_;
  psi::Portfolio portfolio_;
  std::unique_ptr<psi::QueryPlanner> planner_;
  std::unique_ptr<psi::RewriteCache> cache_;
  /// Matched graph ids per query, ascending (the runner's record order).
  std::vector<std::vector<uint32_t>> reference_;
};

}  // namespace

void LayerTally::Merge(const LayerTally& o) {
  const auto append = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  queries += o.queries;
  plan_ms += o.plan_ms;
  plan_variants += o.plan_variants;
  rewrite_ms += o.rewrite_ms;
  append(race_ms, o.race_ms);
  append(race_overhead_ms, o.race_overhead_ms);
  append(oracle_gap, o.oracle_gap);
  winner_elapsed_ms += o.winner_elapsed_ms;
  variant_elapsed_ms += o.variant_elapsed_ms;
  for (const auto& [k, v] : o.winners) winners[k] += v;
  for (const auto& [k, v] : o.solo_ms_by_rewriting) {
    append(solo_ms_by_rewriting[k], v);
  }
  append(solo_fastest_ms, o.solo_fastest_ms);
  solo_timeouts += o.solo_timeouts;
  solo_stats.Add(o.solo_stats);
  solo_complete_queries += o.solo_complete_queries;
  filter_candidates += o.filter_candidates;
  matched_pairs += o.matched_pairs;
  append(serve_ms, o.serve_ms);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       psi::Executor* pool) {
  if (name == "nfv-match") {
    return std::make_unique<NfvWorkload>(
        NfvSpec{"nfv-match", true, {8, 16, 24}, 400, false, 1, false}, pool);
  }
  if (name == "nfv-decide-2c") {
    return std::make_unique<NfvWorkload>(
        NfvSpec{"nfv-decide-2c", false, {4, 8, 12, 16}, 500, true, 2, true},
        pool);
  }
  if (name == "ftv-decide") return std::make_unique<FtvWorkload>(pool);
  return nullptr;
}

}  // namespace perfbench
