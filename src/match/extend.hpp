// The extension step the four matchers share.
//
// VF2, QuickSI, GraphQL and sPath differ in three things: their matching
// order, their candidate filter and their feasibility rule. Everything
// else about extending a partial embedding by one query vertex is the
// same in all four and lives here, in one non-virtual helper:
//
//  * the per-depth candidate source — the multiway intersection
//    (match/intersect.hpp) when >= 2 backward neighbours are matched,
//    otherwise the anchored source (CandidateIndex::PickAnchorImage +
//    AnchoredSource), narrowed to the split task's root block at depth 0
//    (SplitRootCandidates);
//  * resolving the multiway/SIMD switches and owning the per-depth
//    MultiwayScratch;
//  * the query-side NLF fingerprints and the backward-edge check;
//  * the primary-range recursion-node gating that keeps split stats
//    exact (MatchOptions, "Root-frontier split");
//  * stop/deadline polling, the embedding cap and filling in the
//    MatchResult.
//
// A matcher supplies the next query vertex at each depth, the list its
// anchored source falls back to when no neighbour is matched (the label
// index or its own filtered candidates), and its per-candidate
// feasibility test. QuickSI keeps its parent-slice fallback — that is
// part of its algorithm — and feeds the multiway branch its QI-sequence
// edges directly.
//
// CandidateJoin, below, is the backtracking join GraphQL and sPath share
// over the leased CandidateScratch: they differ only in how they filter
// candidates and in the order they build.
//
// Everything per node or per candidate is a direct or template call: no
// virtual dispatch and no std::function on the hot path.

#ifndef PSI_MATCH_EXTEND_HPP_
#define PSI_MATCH_EXTEND_HPP_

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "core/graph.hpp"
#include "match/candidate_index.hpp"
#include "match/intersect.hpp"
#include "match/matcher.hpp"
#include "match/scratch.hpp"

namespace psi {

class ExtensionStep {
 public:
  ExtensionStep(const Graph& q, const Graph& g, const CandidateIndex* index,
                const MatchOptions& opts);

  const CandidateIndex* index() const { return index_; }
  const MatchOptions& opts() const { return opts_; }
  CostGuard& guard() { return guard_; }
  MatchStats& stats() { return stats_; }

  /// Polls stop/deadline (the expensive sources every guard_period calls);
  /// true once the search must unwind.
  bool Interrupted() { return guard_.Check() != Interrupt::kNone; }

  /// Counts one expanded search node. The shared depth-0 node belongs to
  /// the primary split range only, so per-range stats merged with
  /// MatchStats::Add equal the serial counters exactly.
  void EnterNode(uint32_t depth) {
    if (depth != 0 || opts_.primary_range()) ++stats_.recursion_nodes;
  }

  /// O(1) NLF prefilter for query vertex `u` onto data vertex `v`; admits
  /// everything when the candidate index is off. Callers count rejects.
  bool NlfAdmits(VertexId u, VertexId v) const {
    return index_ == nullptr ||
           index_->NlfAdmits(qnlf_[u], q_.degree(u), v);
  }

  /// True when every matched neighbour of `u` maps to a neighbour of `v`
  /// through an equally-labelled edge. `image(w)` is w's data image, or
  /// kInvalidVertex when unmatched.
  template <typename ImageFn>
  bool EdgesToMatched(VertexId u, VertexId v, const ImageFn& image) {
    auto adj = q_.neighbors(u);
    auto elabels = q_.edge_labels(u);
    for (size_t i = 0; i < adj.size(); ++i) {
      const VertexId img = image(adj[i]);
      if (img == kInvalidVertex) continue;
      if (!CandidateIndex::CheckEdge(index_, g_, v, img, elabels[i],
                                     stats_)) {
        return false;
      }
    }
    return true;
  }

  /// The multiway branch alone: `fill(inputs)` lists the matched backward
  /// neighbours (image, required edge label) of the vertex being
  /// extended. With >= 2 of them (and the kernel on), stores their slice
  /// intersection in `*out` and returns true: the survivors already hold
  /// the label and every backward edge, in the anchored source's
  /// (degree, id) order. Returns false when the caller's own source
  /// applies.
  template <typename FillFn>
  bool Multiway(uint32_t depth, LabelId ul, const FillFn& fill,
                std::span<const VertexId>* out) {
    if (!multiway_ || depth == 0) return false;
    // One scratch per depth: a deeper extension must not clobber the
    // survivor span an outer loop is still iterating.
    MultiwayScratch& scr = mw_[depth];
    scr.inputs.clear();
    fill(scr.inputs);
    if (scr.inputs.size() < 2) return false;
    *out = ExtendCandidates(*index_, g_, ul, simd_, scr, stats_);
    return true;
  }

  /// The candidate source for query vertex `u` at `depth`: the multiway
  /// intersection (sets `*mw`; survivors need no backward-edge check),
  /// else the matched neighbour image with the smallest source — its
  /// label slice under the index, its adjacency without — else
  /// `fallback`, cut to this task's root block at depth 0.
  template <typename ImageFn>
  std::span<const VertexId> Candidates(uint32_t depth, VertexId u,
                                       std::span<const VertexId> fallback,
                                       const ImageFn& image, bool* mw) {
    const LabelId ul = q_.label(u);
    std::span<const VertexId> out;
    *mw = Multiway(
        depth, ul,
        [&](std::vector<MultiwayScratch::Input>& inputs) {
          auto adj = q_.neighbors(u);
          auto elabels = q_.edge_labels(u);
          for (size_t i = 0; i < adj.size(); ++i) {
            const VertexId img = image(adj[i]);
            if (img != kInvalidVertex) inputs.push_back({img, elabels[i]});
          }
        },
        &out);
    if (*mw) return out;
    const VertexId anchor =
        CandidateIndex::PickAnchorImage(index_, q_, g_, u, ul, image);
    return RootBlock(depth, CandidateIndex::AnchoredSource(
                                index_, g_, anchor, ul, fallback, stats_));
  }

  /// At depth 0 a split task enumerates only its block of the root
  /// frontier; deeper spans pass through unchanged.
  std::span<const VertexId> RootBlock(uint32_t depth,
                                      std::span<const VertexId> c) const {
    return depth == 0 ? SplitRootCandidates(c, opts_) : c;
  }

  /// Reports one complete embedding; false when the search should unwind
  /// (the sink declined more, or the cap is reached).
  bool Emit(const Embedding& e) {
    ++found_;
    if (opts_.sink && !opts_.sink(e)) return false;
    return found_ < opts_.max_embeddings;
  }

  /// Times `search()` and fills in the MatchResult from the counters,
  /// the embedding count and the guard's interrupt state. The empty
  /// query has exactly one (empty) embedding and skips the search.
  template <typename SearchFn>
  MatchResult Run(const SearchFn& search) {
    const auto start = std::chrono::steady_clock::now();
    if (q_.num_vertices() == 0) {
      ++found_;
      if (opts_.sink) opts_.sink(Embedding{});
    } else {
      search();
    }
    MatchResult r;
    r.embedding_count = found_;
    r.complete = !guard_.interrupted();
    r.timed_out = guard_.state() == Interrupt::kDeadline;
    r.cancelled = guard_.state() == Interrupt::kCancelled;
    r.stats = stats_;
    r.elapsed = std::chrono::steady_clock::now() - start;
    return r;
  }

 private:
  const Graph& q_;
  const Graph& g_;
  const CandidateIndex* index_;
  const MatchOptions& opts_;
  CostGuard guard_;
  MatchStats stats_;
  uint64_t found_ = 0;
  std::vector<uint64_t> qnlf_;  // empty when index_ == nullptr
  bool multiway_ = false;       // only ever on with the index
  SimdLevel simd_ = SimdLevel::kScalar;
  std::vector<MultiwayScratch> mw_;
};

/// Backtracking join over per-query-vertex candidate lists in a leased
/// CandidateScratch (GraphQL, sPath). The matcher filters candidates
/// (Filter plus any refinement of its own) and writes its matching order
/// to scratch().order; the join then places vertices in that order,
/// drawing each one's candidates from the shared extension step and
/// keeping those still in its list.
class CandidateJoin {
 public:
  CandidateJoin(const Graph& q, const Graph& g, const CandidateIndex* index,
                const MatchOptions& opts, CandidateScratch& scr);

  ExtensionStep& step() { return step_; }
  CandidateScratch& scratch() { return scr_; }

  /// Epoch-stamped candidate bits: set iff `v` is in u's list.
  bool CandBit(VertexId u, VertexId v) const {
    return scr_.cand_stamp[static_cast<size_t>(u) * nv_ + v] == scr_.epoch;
  }
  void DropCandidate(VertexId u, VertexId v) {
    scr_.cand_stamp[static_cast<size_t>(u) * nv_ + v] = 0;
  }

  /// Builds every query vertex's candidate list from the label index:
  /// degree and NLF prefilters first, then the matcher's `admit(u, v)`.
  /// Returns false when some list ends up empty or the search was
  /// interrupted.
  template <typename AdmitFn>
  bool Filter(const AdmitFn& admit) {
    for (VertexId u = 0; u < q_.num_vertices(); ++u) {
      for (VertexId v : g_.VerticesWithLabel(q_.label(u))) {
        if (step_.Interrupted()) return false;
        if (g_.degree(v) < q_.degree(u)) continue;
        if (!step_.NlfAdmits(u, v)) {
          // Every split range repeats this shared build stage; the
          // primary range alone counts it (exact stats folding).
          if (step_.opts().primary_range()) ++step_.stats().nlf_rejects;
          continue;
        }
        if (!admit(u, v)) continue;
        scr_.cand_list[u].push_back(v);
        scr_.cand_stamp[static_cast<size_t>(u) * nv_ + v] = scr_.epoch;
      }
      if (scr_.cand_list[u].empty()) return false;
    }
    return true;
  }

  /// Runs `prepare()` — candidate filtering and the matching order — and
  /// joins when it returns true.
  template <typename PrepareFn>
  MatchResult Run(const PrepareFn& prepare) {
    return step_.Run([&] {
      if (!prepare() || step_.guard().interrupted()) return;
      scr_.map.assign(q_.num_vertices(), kInvalidVertex);
      Recurse(0);
    });
  }

 private:
  bool Recurse(uint32_t depth);

  const Graph& q_;
  const Graph& g_;
  CandidateScratch& scr_;
  const uint32_t nv_;
  ExtensionStep step_;
};

}  // namespace psi

#endif  // PSI_MATCH_EXTEND_HPP_
