#include "select/online_selector.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace psi {

void OnlineSelector::Featurize(const QueryFeatures& f, double out[6]) {
  // Log-ish scaling keeps heavy-tailed features (frequencies) comparable
  // with bounded ones (fractions).
  out[0] = std::log2(1.0 + f.num_vertices);
  out[1] = std::log2(1.0 + f.num_edges);
  out[2] = f.avg_degree;
  out[3] = f.path_fraction * 8.0;  // weight the shape signal up
  out[4] = std::log2(1.0 + static_cast<double>(f.min_label_freq));
  out[5] = std::log2(1.0 + f.avg_label_freq);
}

void OnlineSelector::Observe(const QueryFeatures& f, size_t winner_variant) {
  Sample s;
  Featurize(f, s.x);
  s.winner = winner_variant;
  if (samples_.size() < max_samples_) {
    samples_.push_back(s);
    return;
  }
  if (max_samples_ == 0) {
    samples_.clear();
    return;
  }
  if (samples_.size() > max_samples_) {
    // The cap shrank since the last Observe (set_max_samples left the
    // ring oldest-first): drop the excess oldest samples once.
    samples_.erase(samples_.begin(),
                   samples_.begin() + (samples_.size() - max_samples_ + 1));
    samples_.push_back(s);
    return;
  }
  samples_[head_] = s;
  head_ = head_ + 1 == samples_.size() ? 0 : head_ + 1;
}

void OnlineSelector::set_max_samples(size_t n) {
  // Lay the ring out oldest-first so growing appends after the newest
  // sample and shrinking can trim a prefix.
  std::rotate(samples_.begin(),
              samples_.begin() + static_cast<std::ptrdiff_t>(head_),
              samples_.end());
  head_ = 0;
  max_samples_ = n;
}

std::vector<double> OnlineSelector::VoteScores(const QueryFeatures& f,
                                               size_t num_variants) const {
  std::vector<double> scores(num_variants, 0.0);
  if (samples_.empty() || num_variants == 0) return scores;
  double q[6];
  Featurize(f, q);
  // Distances to all samples, paired with the sample's age (0 = oldest)
  // so ties on distance go to the older sample; take the k nearest. The
  // ring is scanned oldest-first as two contiguous segments.
  std::vector<std::pair<double, size_t>> dist;
  dist.reserve(samples_.size());
  auto scan = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      double d2 = 0.0;
      for (int j = 0; j < 6; ++j) {
        const double d = q[j] - samples_[i].x[j];
        d2 += d * d;
      }
      dist.emplace_back(d2, dist.size());
    }
  };
  scan(head_, samples_.size());
  scan(0, head_);
  const size_t k = std::min(k_, dist.size());
  std::partial_sort(dist.begin(), dist.begin() + k, dist.end());
  for (size_t r = 0; r < k; ++r) {
    size_t i = head_ + dist[r].second;
    if (i >= samples_.size()) i -= samples_.size();
    const Sample& s = samples_[i];
    if (s.winner < num_variants) {
      scores[s.winner] += 1.0 / (1.0 + dist[r].first);
    }
  }
  return scores;
}

size_t OnlineSelector::Predict(const QueryFeatures& f,
                               size_t num_variants) const {
  const auto scores = VoteScores(f, num_variants);
  const auto it = std::max_element(scores.begin(), scores.end());
  if (it == scores.end() || *it <= 0.0) return kNoPrediction;
  return static_cast<size_t>(it - scores.begin());
}

std::vector<size_t> OnlineSelector::Rank(const QueryFeatures& f,
                                         size_t num_variants) const {
  const auto scores = VoteScores(f, num_variants);
  std::vector<size_t> order(num_variants);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores[a] > scores[b];
  });
  return order;
}

}  // namespace psi
