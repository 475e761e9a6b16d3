#include "match/extend.hpp"

namespace psi {

ExtensionStep::ExtensionStep(const Graph& q, const Graph& g,
                             const CandidateIndex* index,
                             const MatchOptions& opts)
    : q_(q),
      g_(g),
      index_(index),
      opts_(opts),
      guard_(opts.stop, opts.deadline, opts.guard_period, opts.stop2) {
  if (index_ == nullptr) return;
  qnlf_ = CandidateIndex::QueryNlf(q);
  if (ResolveMultiwayEnabled(opts.multiway)) {
    multiway_ = true;
    simd_ = ResolveSimdLevel(opts.simd);
    mw_.resize(q.num_vertices());
  }
}

CandidateJoin::CandidateJoin(const Graph& q, const Graph& g,
                             const CandidateIndex* index,
                             const MatchOptions& opts, CandidateScratch& scr)
    : q_(q),
      g_(g),
      scr_(scr),
      nv_(g.num_vertices()),
      step_(q, g, index, opts) {
  scr_.BeginCall(q.num_vertices(), nv_);
}

bool CandidateJoin::Recurse(uint32_t depth) {
  if (depth == scr_.order.size()) return step_.Emit(scr_.map);
  step_.EnterNode(depth);
  const VertexId u = scr_.order[depth];
  const auto image = [this](VertexId w) { return scr_.map[w]; };
  bool mw = false;
  const std::span<const VertexId> source = step_.Candidates(
      depth, u, std::span<const VertexId>(scr_.cand_list[u]), image, &mw);
  for (VertexId v : source) {
    if (step_.Interrupted()) return false;
    ++step_.stats().candidates_tried;
    if (scr_.used_stamp[v] == scr_.epoch || !CandBit(u, v)) continue;
    // The intersection settles the backward edges; the anchored source
    // still checks each placed neighbour per candidate.
    if (!mw && !step_.EdgesToMatched(u, v, image)) continue;
    scr_.map[u] = v;
    scr_.used_stamp[v] = scr_.epoch;
    const bool keep_going = Recurse(depth + 1);
    scr_.used_stamp[v] = 0;
    scr_.map[u] = kInvalidVertex;
    if (!keep_going) return false;
  }
  return true;
}

}  // namespace psi
