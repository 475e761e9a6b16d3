#include "vf2/vf2.hpp"

#include <span>
#include <vector>

#include "match/extend.hpp"

namespace psi {

namespace {

// Mutable search state for one Vf2Match call. All arrays are indexed by
// vertex id; `in_q`/`in_g` hold the depth+1 at which a vertex entered the
// terminal set (0 = never), enabling O(1) backtracking.
class Vf2State {
 public:
  Vf2State(const Graph& q, const Graph& g, const MatchOptions& opts,
           const CandidateIndex* index)
      : q_(q),
        g_(g),
        step_(q, g, index, opts),
        core_q_(q.num_vertices(), kInvalidVertex),
        core_g_(g.num_vertices(), kInvalidVertex),
        in_q_(q.num_vertices(), 0),
        in_g_(g.num_vertices(), 0) {}

  MatchResult Run() {
    return step_.Run([this] {
      if (FeasibleOnCounts()) Recurse(0);
    });
  }

 private:
  // The data image of query vertex qw (kInvalidVertex while unmatched).
  auto Image() const {
    return [this](VertexId qw) { return core_q_[qw]; };
  }

  // Cheap global reject: not enough vertices of some label in g.
  bool FeasibleOnCounts() const {
    if (q_.num_vertices() > g_.num_vertices()) return false;
    if (q_.num_edges() > g_.num_edges()) return false;
    for (VertexId qv = 0; qv < q_.num_vertices(); ++qv) {
      if (g_.VerticesWithLabel(q_.label(qv)).empty()) return false;
    }
    return true;
  }

  // Chooses the next query vertex: smallest-ID unmatched vertex in the
  // terminal set; if the terminal set is empty (start / disconnected query
  // part), smallest-ID unmatched vertex overall.
  VertexId NextQueryVertex() const {
    VertexId fallback = kInvalidVertex;
    for (VertexId qv = 0; qv < q_.num_vertices(); ++qv) {
      if (core_q_[qv] != kInvalidVertex) continue;
      if (in_q_[qv] != 0) return qv;
      if (fallback == kInvalidVertex) fallback = qv;
    }
    return fallback;
  }

  // The three pruning rules of §3.1.1 for candidate pair (qv, gv).
  bool Feasible(VertexId qv, VertexId gv) {
    if (q_.label(qv) != g_.label(gv)) return false;
    // Rule 1 — consistency: every matched neighbour of qv must map to a
    // neighbour of gv through an equally-labelled edge (non-induced: one
    // direction only).
    if (!step_.EdgesToMatched(qv, gv, Image())) return false;
    return FeasibleLookahead(qv, gv);
  }

  // Rules 2 & 3 alone — the multiway survivor check: label and rule 1 are
  // already established by the intersection (survivors are label-slice
  // members adjacent to every matched neighbour through the required edge
  // labels).
  bool FeasibleLookahead(VertexId qv, VertexId gv) {
    // Lookahead: count qv's unmatched neighbours inside and outside the
    // terminal set; gv must offer at least as many of each.
    uint32_t q_term = 0, q_new = 0;
    for (VertexId qw : q_.neighbors(qv)) {
      if (core_q_[qw] != kInvalidVertex) continue;
      in_q_[qw] != 0 ? ++q_term : ++q_new;
    }
    uint32_t g_term = 0, g_new = 0;
    for (VertexId gw : g_.neighbors(gv)) {
      if (core_g_[gw] != kInvalidVertex) continue;
      in_g_[gw] != 0 ? ++g_term : ++g_new;
    }
    // A terminal data vertex can also serve a "new" query neighbour, hence
    // the combined bound as the third rule.
    return q_term <= g_term && (q_term + q_new) <= (g_term + g_new);
  }

  void Push(VertexId qv, VertexId gv, uint32_t depth) {
    core_q_[qv] = gv;
    core_g_[gv] = qv;
    if (in_q_[qv] == 0) in_q_[qv] = depth + 1;
    if (in_g_[gv] == 0) in_g_[gv] = depth + 1;
    for (VertexId qw : q_.neighbors(qv)) {
      if (in_q_[qw] == 0) in_q_[qw] = depth + 1;
    }
    for (VertexId gw : g_.neighbors(gv)) {
      if (in_g_[gw] == 0) in_g_[gw] = depth + 1;
    }
  }

  void Pop(VertexId qv, VertexId gv, uint32_t depth) {
    for (VertexId qw : q_.neighbors(qv)) {
      if (in_q_[qw] == depth + 1) in_q_[qw] = 0;
    }
    for (VertexId gw : g_.neighbors(gv)) {
      if (in_g_[gw] == depth + 1) in_g_[gw] = 0;
    }
    if (in_q_[qv] == depth + 1) in_q_[qv] = 0;
    if (in_g_[gv] == depth + 1) in_g_[gv] = 0;
    core_q_[qv] = kInvalidVertex;
    core_g_[gv] = kInvalidVertex;
  }

  // Returns false when the search should unwind entirely (cap reached or
  // interrupted).
  bool Recurse(uint32_t depth) {
    if (depth == q_.num_vertices()) return step_.Emit(core_q_);
    step_.EnterNode(depth);
    const VertexId qv = NextQueryVertex();
    // Candidates in ascending data-vertex id (slice-internal (degree, id)
    // order under the index): the multiway intersection, else the
    // smallest source among matched neighbours' images (rule 1
    // pre-applied for that neighbour), else the label index.
    bool mw = false;
    const std::span<const VertexId> candidates = step_.Candidates(
        depth, qv, g_.VerticesWithLabel(q_.label(qv)), Image(), &mw);
    for (VertexId gv : candidates) {
      if (step_.Interrupted()) return false;
      if (core_g_[gv] != kInvalidVertex) continue;
      if (!step_.NlfAdmits(qv, gv)) {
        ++step_.stats().nlf_rejects;
        continue;
      }
      ++step_.stats().candidates_tried;
      // Multiway survivors already satisfy the label and rule 1.
      if (mw ? !FeasibleLookahead(qv, gv) : !Feasible(qv, gv)) continue;
      Push(qv, gv, depth);
      const bool keep_going = Recurse(depth + 1);
      Pop(qv, gv, depth);
      if (!keep_going) return false;
    }
    return true;
  }

  const Graph& q_;
  const Graph& g_;
  ExtensionStep step_;
  std::vector<VertexId> core_q_;
  std::vector<VertexId> core_g_;
  // Depth+1 at which the vertex joined the terminal set; 0 = not a member.
  std::vector<uint32_t> in_q_;
  std::vector<uint32_t> in_g_;
};

}  // namespace

MatchResult Vf2Match(const Graph& query, const Graph& data,
                     const MatchOptions& opts) {
  Vf2State state(query, data, opts, nullptr);
  return state.Run();
}

MatchResult Vf2Match(const Graph& query, const Graph& data,
                     const MatchOptions& opts,
                     const CandidateIndex* index) {
  Vf2State state(query, data, opts, index);
  return state.Run();
}

Status Vf2Matcher::Prepare(const Graph& data) {
  data_ = &data;
  data.EnsureLabelIndex();
  PrepareCandidateIndex(data);
  return Status::OK();
}

MatchResult Vf2Matcher::Match(const Graph& query,
                              const MatchOptions& opts) const {
  MatchResult r = Vf2Match(query, *data_, opts, candidate_index());
  NoteMatch(opts, r.stats);
  return r;
}

}  // namespace psi
