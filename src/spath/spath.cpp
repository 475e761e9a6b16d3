#include "spath/spath.hpp"

#include <algorithm>
#include <deque>

#include "match/extend.hpp"

namespace psi {

std::vector<std::vector<SPathMatcher::NsEntry>> BuildDistanceSignatures(
    const Graph& g, uint32_t radius) {
  radius = std::min(radius, SPathMatcher::kMaxRadius);
  const uint32_t n = g.num_vertices();
  std::vector<std::vector<SPathMatcher::NsEntry>> out(n);

  // Epoch-stamped scratch so per-vertex BFS needs no O(n) clears.
  std::vector<uint32_t> seen_epoch(n, 0);
  std::vector<VertexId> frontier, next;
  const LabelId universe = g.LabelUniverseUpperBound();
  // counts[label][d-1] for the current BFS; `touched` lists dirty labels.
  std::vector<std::array<uint32_t, SPathMatcher::kMaxRadius>> counts(
      universe);
  std::vector<LabelId> touched;

  for (VertexId src = 0; src < n; ++src) {
    const uint32_t epoch = src + 1;
    seen_epoch[src] = epoch;
    frontier.assign(1, src);
    for (uint32_t d = 1; d <= radius && !frontier.empty(); ++d) {
      next.clear();
      for (VertexId v : frontier) {
        for (VertexId w : g.neighbors(v)) {
          if (seen_epoch[w] == epoch) continue;
          seen_epoch[w] = epoch;
          next.push_back(w);
          const LabelId l = g.label(w);
          if (counts[l][0] == 0 && counts[l][1] == 0 && counts[l][2] == 0 &&
              counts[l][3] == 0) {
            touched.push_back(l);
          }
          ++counts[l][d - 1];
        }
      }
      frontier.swap(next);
    }
    auto& sig = out[src];
    sig.reserve(touched.size());
    std::sort(touched.begin(), touched.end());
    for (LabelId l : touched) {
      SPathMatcher::NsEntry e;
      e.label = l;
      uint32_t acc = 0;
      for (uint32_t d = 0; d < SPathMatcher::kMaxRadius; ++d) {
        acc += counts[l][d];
        e.cum[d] = acc;
        counts[l][d] = 0;
      }
      sig.push_back(e);
    }
    touched.clear();
  }
  return out;
}

namespace {

using NsEntry = SPathMatcher::NsEntry;

// Dominance test: every (label, cumulative count) requirement of the query
// vertex must be covered by the data vertex at the same distance bound.
bool SignatureDominates(const std::vector<NsEntry>& query_sig,
                        const std::vector<NsEntry>& data_sig) {
  size_t j = 0;
  for (const NsEntry& qe : query_sig) {
    while (j < data_sig.size() && data_sig[j].label < qe.label) ++j;
    if (j == data_sig.size() || data_sig[j].label != qe.label) return false;
    for (uint32_t d = 0; d < SPathMatcher::kMaxRadius; ++d) {
      if (qe.cum[d] > data_sig[j].cum[d]) return false;
    }
  }
  return true;
}

// Flattens the greedy path cover of `q` into a vertex visit order.
void PathCoverOrder(const SPathMatcher& matcher, const Graph& q,
                    std::vector<VertexId>* order) {
  order->clear();
  std::vector<uint8_t> placed(q.num_vertices(), 0);
  for (const auto& path : matcher.DecomposeQuery(q)) {
    for (VertexId u : path) {
      if (!placed[u]) {
        placed[u] = 1;
        order->push_back(u);
      }
    }
  }
  // Safety net for isolated query vertices (absent from any path).
  for (VertexId u = 0; u < q.num_vertices(); ++u) {
    if (!placed[u]) order->push_back(u);
  }
}

}  // namespace

Status SPathMatcher::Prepare(const Graph& data) {
  data_ = &data;
  data.EnsureLabelIndex();
  PrepareCandidateIndex(data);
  ns_ = BuildDistanceSignatures(data, options_.radius);
  return Status::OK();
}

std::vector<std::vector<VertexId>> SPathMatcher::DecomposeQuery(
    const Graph& query) const {
  const uint32_t n = query.num_vertices();
  const uint32_t max_len = std::max<uint32_t>(1, options_.max_path_length);

  // Path pool: for each start vertex (ascending id), a BFS tree with
  // min-id parent preference; one shortest path per reached vertex.
  std::vector<std::vector<VertexId>> pool;
  std::vector<uint32_t> dist(n);
  std::vector<VertexId> parent(n);
  for (VertexId src = 0; src < n; ++src) {
    std::fill(dist.begin(), dist.end(), static_cast<uint32_t>(-1));
    dist[src] = 0;
    parent[src] = kInvalidVertex;
    std::deque<VertexId> queue{src};
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop_front();
      if (dist[v] >= max_len) continue;
      for (VertexId w : query.neighbors(v)) {
        if (dist[w] != static_cast<uint32_t>(-1)) continue;
        dist[w] = dist[v] + 1;
        parent[w] = v;  // BFS pops ascending-id parents first
        queue.push_back(w);
        // Materialize the path src -> w.
        std::vector<VertexId> path;
        for (VertexId x = w; x != kInvalidVertex; x = parent[x]) {
          path.push_back(x);
        }
        std::reverse(path.begin(), path.end());
        pool.push_back(std::move(path));
      }
    }
  }

  // Greedy selectivity-driven edge cover. Estimated path cost = product of
  // per-vertex candidate... at decomposition time the matcher does not have
  // the candidate lists yet, so the original's proxy is used: label
  // frequency in the stored graph per vertex on the path.
  std::vector<double> score(pool.size());
  for (size_t p = 0; p < pool.size(); ++p) {
    double s = 1.0;
    for (VertexId u : pool[p]) {
      s *= static_cast<double>(
               data_->VerticesWithLabel(query.label(u)).size()) +
           1.0;
    }
    score[p] = s;
  }

  auto edge_key = [n](VertexId a, VertexId b) {
    if (a > b) std::swap(a, b);
    return static_cast<uint64_t>(a) * n + b;
  };
  std::vector<uint8_t> covered_edge(static_cast<size_t>(n) * n, 0);
  uint64_t uncovered = query.num_edges();
  std::vector<std::vector<VertexId>> selected;
  std::vector<uint8_t> taken(pool.size(), 0);
  while (uncovered > 0) {
    size_t best = pool.size();
    double best_rate = 0.0;
    for (size_t p = 0; p < pool.size(); ++p) {
      if (taken[p]) continue;
      uint32_t fresh = 0;
      for (size_t i = 0; i + 1 < pool[p].size(); ++i) {
        if (!covered_edge[edge_key(pool[p][i], pool[p][i + 1])]) ++fresh;
      }
      if (fresh == 0) continue;
      // Lower estimated result per newly covered edge wins; ties keep the
      // earlier (lower start id, shorter) pool entry.
      const double rate = score[p] / fresh;
      if (best == pool.size() || rate < best_rate) {
        best = p;
        best_rate = rate;
      }
    }
    if (best == pool.size()) break;  // disconnected leftovers
    taken[best] = 1;
    for (size_t i = 0; i + 1 < pool[best].size(); ++i) {
      auto& flag = covered_edge[edge_key(pool[best][i], pool[best][i + 1])];
      if (!flag) {
        flag = 1;
        --uncovered;
      }
    }
    selected.push_back(pool[best]);
  }
  return selected;
}

MatchResult SPathMatcher::Match(const Graph& query,
                                const MatchOptions& opts) const {
  // The backtracking join is the one sPath shares with GraphQL; sPath
  // supplies the dominance filter and the path-cover order.
  ScratchLease scratch;
  CandidateJoin join(query, *data_, candidate_index(), opts, *scratch);
  MatchResult r = join.Run([&] {
    // The NLF prefilter (CandidateJoin::Filter) runs before the
    // O(labels * radius) dominance walk; dominance at distance 1 implies
    // fingerprint containment, so the prefilter only skips work, never
    // changes the candidate lists.
    const auto query_sig = BuildDistanceSignatures(query, options_.radius);
    if (!join.Filter([&](VertexId u, VertexId v) {
          return SignatureDominates(query_sig[u], ns_[v]);
        })) {
      return false;
    }
    PathCoverOrder(*this, query, &scratch->order);
    return true;
  });
  NoteMatch(opts, r.stats);
  return r;
}

}  // namespace psi
