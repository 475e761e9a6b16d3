#include "plan/planner.hpp"

#include <algorithm>
#include <cmath>

#include "core/env.hpp"

namespace psi {

QueryPlannerOptions QueryPlannerOptions::FromEnv() {
  QueryPlannerOptions o;
  o.staged = PlanStaged();
  o.probe_fraction = static_cast<double>(PlanProbePercent()) / 100.0;
  o.min_samples = static_cast<size_t>(PlanMinSamples());
  o.split_workers = static_cast<size_t>(MatchSplit());
  return o;
}

void QueryPlanner::Configure(const Portfolio* portfolio,
                             const LabelStats* stats,
                             const QueryPlannerOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  portfolio_ = portfolio;
  stats_ = stats;
  options_ = options;
  selector_ = OnlineSelector();
}

QueryPlan QueryPlanner::Plan(const Graph& query) const {
  return Plan(ExtractFeatures(query, *stats_));
}

QueryPlan QueryPlanner::Plan(const QueryFeatures& features) const {
  QueryPlan plan;
  plan.features = features;
  const size_t n = portfolio_->entries.size();
  if (n == 0) return plan;

  std::vector<size_t> order;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (selector_.sample_count() >= options_.min_samples) {
      order = selector_.Rank(features, n);
      plan.warm = true;
    }
  }
  // The classic unstaged, unnarrowed race needs no ordering decision at
  // all — skip the rule pass and race in portfolio order.
  const bool narrowing = options_.portfolio_limit > 0 &&
                         options_.portfolio_limit < n && plan.warm;
  const bool staging = options_.staged && plan.warm && n > 1 &&
                       options_.budget.count() > 0;
  if (!plan.warm) {
    if (!options_.staged && options_.portfolio_limit == 0) {
      QueryPlan full = FullRacePlan(n, options_.budget);
      full.features = features;
      return full;
    }
    order = RuleBasedOrder(features);
  }

  PlanStage full;
  full.budget = options_.budget;
  const size_t full_size = narrowing ? options_.portfolio_limit : n;
  for (size_t i = 0; i < full_size && i < order.size(); ++i) {
    full.steps.push_back(PlanStep{order[i], {}});
  }

  if (staging) {
    const double fraction =
        std::clamp(options_.probe_fraction, 1.0 / 100.0, 1.0);
    const auto probe_budget = std::chrono::nanoseconds(
        std::max<int64_t>(1, static_cast<int64_t>(
                                 static_cast<double>(
                                     options_.budget.count()) *
                                 fraction)));
    PlanStage probe;
    probe.budget = probe_budget;
    const size_t probes = std::max<size_t>(1, options_.probe_variants);
    for (size_t i = 0; i < probes && i < order.size(); ++i) {
      probe.steps.push_back(PlanStep{order[i], {}});
    }
    if (options_.split_workers > 1 && !order.empty()) {
      // Probe miss → throw the pool at the predicted winner instead of
      // widening the race: one split step at the full budget. The width
      // follows the winner's observed straggler profile (EWMA of
      // max/mean per-range latency, MatchKernelStats): a spread of s
      // means the slowest range ran ~s times the mean, and the width is
      // sized at ceil(s)+1 ranges; until a split has reported
      // (spread 0, or a matcher-less entry) the configured width stands.
      size_t split_width = options_.split_workers;
      const Matcher* winner = portfolio_->entries[order[0]].matcher;
      if (winner != nullptr) {
        const double spread = winner->kernel_stats().straggler_spread();
        if (spread > 0.0) {
          split_width = std::clamp<size_t>(
              static_cast<size_t>(std::ceil(spread)) + 1, 2,
              options_.split_workers);
        }
      }
      PlanStage split_stage;
      split_stage.budget = options_.budget;
      PlanStep step{order[0], {}};
      step.split = static_cast<uint32_t>(split_width);
      split_stage.steps.push_back(step);
      plan.name = "staged(top" + std::to_string(probe.steps.size()) +
                  "->split" + std::to_string(split_width) + ")";
      plan.escalation = EscalationPolicy::kSplit;
      plan.stages.push_back(std::move(probe));
      plan.stages.push_back(std::move(split_stage));
      return plan;
    }
    plan.name = "staged(top" + std::to_string(probe.steps.size()) + "->" +
                (narrowing ? "top" + std::to_string(full.steps.size())
                           : std::string("full")) +
                ")";
    plan.escalation = EscalationPolicy::kOnMiss;
    plan.stages.push_back(std::move(probe));
    plan.stages.push_back(std::move(full));
    return plan;
  }

  plan.name = narrowing
                  ? "top" + std::to_string(full.steps.size())
                  : std::string(plan.warm ? "full(ranked)" : "full(rules)");
  plan.escalation = EscalationPolicy::kNone;
  plan.stages.push_back(std::move(full));
  return plan;
}

std::vector<size_t> QueryPlanner::RuleBasedOrder(
    const QueryFeatures& f) const {
  const size_t n = portfolio_->entries.size();
  // Distinct matchers in first-appearance order, for SelectAlgorithm.
  std::vector<const Matcher*> matchers;
  for (const PortfolioEntry& e : portfolio_->entries) {
    if (e.matcher != nullptr &&
        std::find(matchers.begin(), matchers.end(), e.matcher) ==
            matchers.end()) {
      matchers.push_back(e.matcher);
    }
  }
  const Rewriting preferred_rewriting = SelectRewriting(f);
  const Matcher* preferred_matcher =
      matchers.empty() ? nullptr : matchers[SelectAlgorithm(f, matchers)];

  // Stable two-bit scoring: agreeing with both rules first, one rule
  // next, portfolio order within each tier.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  auto score = [&](size_t i) {
    const PortfolioEntry& e = portfolio_->entries[i];
    int s = 0;
    if (e.rewriting == preferred_rewriting) s += 2;
    if (preferred_matcher != nullptr && e.matcher == preferred_matcher) {
      s += 1;
    }
    return s;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return score(a) > score(b); });
  return order;
}

void QueryPlanner::Observe(const QueryFeatures& features,
                           size_t winner_variant) {
  std::lock_guard<std::mutex> lock(mutex_);
  selector_.Observe(features, winner_variant);
}

size_t QueryPlanner::sample_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return selector_.sample_count();
}

}  // namespace psi
