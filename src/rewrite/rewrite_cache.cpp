#include "rewrite/rewrite_cache.hpp"

#include "core/fnv.hpp"
#include "fault/failpoint.hpp"

namespace psi {

uint64_t QueryFingerprint(const Graph& query) {
  uint64_t h = kFnv1aOffset;
  Fnv1aMix(query.num_vertices(), &h);
  Fnv1aMix(query.num_edges(), &h);
  for (VertexId v = 0; v < query.num_vertices(); ++v) {
    Fnv1aMix(query.label(v), &h);
    const auto neigh = query.neighbors(v);
    const auto elabels = query.edge_labels(v);
    for (size_t i = 0; i < neigh.size(); ++i) {
      Fnv1aMix(neigh[i], &h);
      Fnv1aMix(elabels[i], &h);
    }
  }
  return h;
}

bool RewriteCache::StatsDependent(Rewriting r) {
  switch (r) {
    case Rewriting::kIlf:
    case Rewriting::kIlfInd:
    case Rewriting::kIlfDnd:
      return true;
    case Rewriting::kOriginal:
    case Rewriting::kInd:
    case Rewriting::kDnd:
    case Rewriting::kRandom:
      return false;
  }
  return true;  // unknown: be conservative, key per stats identity
}

std::shared_ptr<const RewrittenQuery> RewriteOrOriginal(
    const Graph& query, Rewriting r, const LabelStats& stats,
    uint64_t random_seed) {
  auto rq = RewriteQuery(query, r, stats, random_seed);
  if (rq.ok()) {
    return std::make_shared<const RewrittenQuery>(std::move(rq).value());
  }
  auto fallback = std::make_shared<RewrittenQuery>();
  fallback->graph = query;
  fallback->rewriting = Rewriting::kOriginal;
  return fallback;
}

std::shared_ptr<const RewrittenQuery> RewriteCache::Get(
    const Graph& query, Rewriting r, const LabelStats& stats,
    uint64_t random_seed) {
  return GetWithFingerprint(QueryFingerprint(query), query, r, stats,
                            random_seed);
}

std::shared_ptr<const RewrittenQuery> RewriteCache::GetWithFingerprint(
    uint64_t query_fp, const Graph& query, Rewriting r,
    const LabelStats& stats, uint64_t random_seed) {
  Key key;
  key.query_fp = query_fp;
  key.stats_id = StatsDependent(r) ? stats.identity() : 0;
  key.seed = r == Rewriting::kRandom ? random_seed : 0;
  key.rewriting = r;
  // Failpoint: treat the lookup as a miss and recompute. Rewriting is a
  // pure function of the key, so a forced miss can only cost time — the
  // recompute installs (or re-finds) the identical entry.
  const bool forced_miss =
      PSI_FAULT_POINT("rewrite.lookup") == FaultKind::kMiss;
  if (!forced_miss) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end() && it->second.num_vertices == query.num_vertices() &&
        it->second.num_edges == query.num_edges()) {
      ++hits_;
      return it->second.rewritten;
    }
  }
  // Compute outside the lock: rewriting is pure, and a duplicate compute
  // under contention is cheaper than serializing every rewrite.
  std::shared_ptr<const RewrittenQuery> rewritten =
      RewriteOrOriginal(query, r, stats, random_seed);
  std::lock_guard<std::mutex> lock(mutex_);
  ++misses_;
  Entry& e = map_[key];
  if (e.rewritten == nullptr || e.num_vertices != query.num_vertices() ||
      e.num_edges != query.num_edges()) {
    // Empty slot, or a fingerprint-colliding entry for a *different*
    // query (caught by the dims guard): install our freshly computed
    // rewrite so the colliding queries thrash instead of one of them
    // racing the other's graph.
    e.rewritten = rewritten;
    e.num_vertices = query.num_vertices();
    e.num_edges = query.num_edges();
  }
  // e.rewritten is now either our compute or a concurrent thread's entry
  // that passed the dims guard (same key, same dims: our query).
  return e.rewritten;
}

std::vector<std::shared_ptr<const RewrittenQuery>> RewriteCache::GetInstances(
    const Graph& query, std::span<const Rewriting> rewritings,
    const LabelStats& stats) {
  const uint64_t fp = QueryFingerprint(query);
  std::vector<std::shared_ptr<const RewrittenQuery>> out;
  out.reserve(rewritings.size());
  for (Rewriting r : rewritings) {
    out.push_back(GetWithFingerprint(fp, query, r, stats, /*random_seed=*/0));
  }
  return out;
}

RewriteCache::Stats RewriteCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  return s;
}

size_t RewriteCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

void RewriteCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
}

}  // namespace psi
