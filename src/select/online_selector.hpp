// Online variant prediction — the learning half of the paper's §9 future
// work ("using machine learning models to predict which version of our
// framework (algorithms, rewritings) to employ per query").
//
// A tiny instance-based learner: every completed race contributes one
// (query features -> winning variant) sample; prediction is a distance-
// weighted vote among the k nearest stored samples in normalized feature
// space. No training phase, no external dependencies, thread-compatible
// with an external lock (QueryPlanner, which owns the serving-path
// instance, serializes access under its mutex).
//
// Samples live in a ring of at most set_max_samples() entries: learning
// at the cap overwrites the oldest sample in O(1), and a prediction scans
// the ring oldest-first (two contiguous segments), so ties on distance
// still go to the older sample.

#ifndef PSI_SELECT_ONLINE_SELECTOR_HPP_
#define PSI_SELECT_ONLINE_SELECTOR_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "select/selector.hpp"

namespace psi {

class OnlineSelector {
 public:
  /// `k` = neighbourhood size for prediction.
  explicit OnlineSelector(size_t k = 5) : k_(k) {}

  /// Records that `winner_variant` won the race for a query with these
  /// features.
  void Observe(const QueryFeatures& f, size_t winner_variant);

  /// Predicts the most promising variant for `f` among
  /// [0, num_variants). With no (or irrelevant) history returns
  /// kNoPrediction.
  static constexpr size_t kNoPrediction = static_cast<size_t>(-1);
  /// The sample cap until set_max_samples() changes it.
  static constexpr size_t kDefaultMaxSamples = 4096;
  size_t Predict(const QueryFeatures& f, size_t num_variants) const;

  /// Ranks all `num_variants` variants, most promising first; variants
  /// without any supporting samples keep their original relative order at
  /// the tail. Always returns a full permutation.
  std::vector<size_t> Rank(const QueryFeatures& f,
                           size_t num_variants) const;

  size_t sample_count() const { return samples_.size(); }
  /// Caps memory: oldest samples are dropped beyond this (default 4096).
  /// A smaller cap takes effect at the next Observe.
  void set_max_samples(size_t n);

 private:
  struct Sample {
    double x[6];
    size_t winner;
  };
  static void Featurize(const QueryFeatures& f, double out[6]);
  std::vector<double> VoteScores(const QueryFeatures& f,
                                 size_t num_variants) const;

  size_t k_;
  size_t max_samples_ = kDefaultMaxSamples;
  // Ring storage: samples_[head_] is the oldest sample. head_ is 0 unless
  // the ring is full (samples_.size() == max_samples_).
  std::vector<Sample> samples_;
  size_t head_ = 0;
};

}  // namespace psi

#endif  // PSI_SELECT_ONLINE_SELECTOR_HPP_
