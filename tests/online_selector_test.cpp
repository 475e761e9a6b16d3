#include "select/online_selector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <vector>

namespace psi {
namespace {

QueryFeatures PathQuery(uint32_t n, uint64_t freq) {
  QueryFeatures f;
  f.num_vertices = n;
  f.num_edges = n - 1;
  f.avg_degree = 2.0 * f.num_edges / n;
  f.max_degree = 2;
  f.path_fraction = 1.0;
  f.distinct_labels = 2;
  f.min_label_freq = freq;
  f.avg_label_freq = static_cast<double>(freq);
  return f;
}

QueryFeatures DenseQuery(uint32_t n, uint64_t freq) {
  QueryFeatures f;
  f.num_vertices = n;
  f.num_edges = n * (n - 1) / 2;
  f.avg_degree = n - 1.0;
  f.max_degree = n - 1;
  f.path_fraction = 0.0;
  f.distinct_labels = 4;
  f.min_label_freq = freq;
  f.avg_label_freq = static_cast<double>(freq);
  return f;
}

TEST(OnlineSelectorTest, NoHistoryNoPrediction) {
  OnlineSelector s;
  EXPECT_EQ(s.Predict(PathQuery(10, 5), 4), OnlineSelector::kNoPrediction);
  EXPECT_EQ(s.sample_count(), 0u);
}

TEST(OnlineSelectorTest, LearnsSeparableClusters) {
  OnlineSelector s(3);
  // Path-shaped queries win with variant 1; dense ones with variant 2.
  for (uint32_t i = 0; i < 10; ++i) {
    s.Observe(PathQuery(8 + i, 100), 1);
    s.Observe(DenseQuery(6 + i % 3, 100), 2);
  }
  EXPECT_EQ(s.Predict(PathQuery(12, 100), 4), 1u);
  EXPECT_EQ(s.Predict(DenseQuery(7, 100), 4), 2u);
}

TEST(OnlineSelectorTest, RankIsAFullPermutation) {
  OnlineSelector s(3);
  for (int i = 0; i < 5; ++i) s.Observe(PathQuery(10, 50), 3);
  auto order = s.Rank(PathQuery(10, 50), 5);
  ASSERT_EQ(order.size(), 5u);
  std::vector<bool> seen(5, false);
  for (size_t v : order) {
    ASSERT_LT(v, 5u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  EXPECT_EQ(order[0], 3u);  // the only supported variant ranks first
}

TEST(OnlineSelectorTest, IgnoresOutOfRangeWinners) {
  OnlineSelector s;
  s.Observe(PathQuery(10, 5), 99);  // variant id beyond the portfolio
  EXPECT_EQ(s.Predict(PathQuery(10, 5), 4), OnlineSelector::kNoPrediction);
}

TEST(OnlineSelectorTest, SampleCapEvictsOldest) {
  OnlineSelector s(1);
  s.set_max_samples(4);
  for (int i = 0; i < 10; ++i) s.Observe(PathQuery(10, 5), 0);
  EXPECT_EQ(s.sample_count(), 4u);
}

TEST(OnlineSelectorTest, NearestNeighbourWinsOverFarMajority) {
  OnlineSelector s(1);  // k=1: the closest sample decides
  for (int i = 0; i < 20; ++i) s.Observe(DenseQuery(12, 1000), 0);
  s.Observe(PathQuery(10, 10), 1);
  EXPECT_EQ(s.Predict(PathQuery(10, 10), 2), 1u);
}

TEST(OnlineSelectorTest, SampleCapShrinksAtTheNextObserve) {
  OnlineSelector s(1);
  s.set_max_samples(4);
  for (int i = 0; i < 6; ++i) s.Observe(PathQuery(10, 5), 0);
  s.set_max_samples(2);
  EXPECT_EQ(s.sample_count(), 4u);
  s.Observe(PathQuery(10, 5), 0);
  EXPECT_EQ(s.sample_count(), 2u);
  s.set_max_samples(3);
  s.Observe(PathQuery(10, 5), 0);
  s.Observe(PathQuery(10, 5), 0);
  EXPECT_EQ(s.sample_count(), 3u);
}

// ---- differential test against the vector selector -----------------------

/// The selector as it was before its store became a ring: a vector whose
/// oldest samples are erased past the cap, and a partial_sort over all
/// (distance, age) pairs per prediction. The oracle for the ring.
class VectorSelector {
 public:
  explicit VectorSelector(size_t k) : k_(k) {}

  void Observe(const QueryFeatures& f, size_t winner) {
    Sample s;
    Featurize(f, s.x);
    s.winner = winner;
    samples_.push_back(s);
    if (samples_.size() > max_samples_) {
      samples_.erase(samples_.begin(),
                     samples_.begin() + (samples_.size() - max_samples_));
    }
  }
  void set_max_samples(size_t n) { max_samples_ = n; }
  size_t sample_count() const { return samples_.size(); }

  size_t Predict(const QueryFeatures& f, size_t num_variants) const {
    const auto scores = VoteScores(f, num_variants);
    const auto it = std::max_element(scores.begin(), scores.end());
    if (it == scores.end() || *it <= 0.0) return OnlineSelector::kNoPrediction;
    return static_cast<size_t>(it - scores.begin());
  }

  std::vector<size_t> Rank(const QueryFeatures& f, size_t num_variants) const {
    const auto scores = VoteScores(f, num_variants);
    std::vector<size_t> order(num_variants);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return scores[a] > scores[b];
    });
    return order;
  }

 private:
  struct Sample {
    double x[6];
    size_t winner;
  };
  static void Featurize(const QueryFeatures& f, double out[6]) {
    out[0] = std::log2(1.0 + f.num_vertices);
    out[1] = std::log2(1.0 + f.num_edges);
    out[2] = f.avg_degree;
    out[3] = f.path_fraction * 8.0;
    out[4] = std::log2(1.0 + static_cast<double>(f.min_label_freq));
    out[5] = std::log2(1.0 + f.avg_label_freq);
  }
  std::vector<double> VoteScores(const QueryFeatures& f,
                                 size_t num_variants) const {
    std::vector<double> scores(num_variants, 0.0);
    if (samples_.empty() || num_variants == 0) return scores;
    double q[6];
    Featurize(f, q);
    std::vector<std::pair<double, size_t>> dist;
    for (size_t i = 0; i < samples_.size(); ++i) {
      double d2 = 0.0;
      for (int j = 0; j < 6; ++j) {
        const double d = q[j] - samples_[i].x[j];
        d2 += d * d;
      }
      dist.emplace_back(d2, i);
    }
    const size_t k = std::min(k_, dist.size());
    std::partial_sort(dist.begin(), dist.begin() + k, dist.end());
    for (size_t r = 0; r < k; ++r) {
      const Sample& s = samples_[dist[r].second];
      if (s.winner < num_variants) {
        scores[s.winner] += 1.0 / (1.0 + dist[r].first);
      }
    }
    return scores;
  }

  size_t k_;
  size_t max_samples_ = 4096;
  std::vector<Sample> samples_;
};

/// Features from a small pool of shapes, so many samples share a feature
/// vector (exact distance ties) and many queries sit at equal distances.
QueryFeatures DrawFeatures(std::mt19937_64& rng) {
  const uint32_t shape = static_cast<uint32_t>(rng() % 6);
  const uint32_t n = 4 + static_cast<uint32_t>(rng() % 3) * 4;
  const uint64_t freq = 10 + (rng() % 3) * 90;
  return shape < 3 ? PathQuery(n, freq) : DenseQuery(n / 2 + 2, freq);
}

TEST(OnlineSelectorDifferentialTest, RingMatchesVectorSelector) {
  for (const size_t k : {size_t{1}, size_t{5}}) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      std::mt19937_64 rng(seed * 7919 + k);
      OnlineSelector ring(k);
      VectorSelector oracle(k);
      size_t cap = 8 + rng() % 24;
      ring.set_max_samples(cap);
      oracle.set_max_samples(cap);
      const size_t variants = 2 + rng() % 5;
      // Enough observations to wrap the ring several times over.
      for (int step = 0; step < 600; ++step) {
        const uint64_t op = rng() % 100;
        if (op < 55) {
          // Winners occasionally beyond the universe: ignored by votes.
          const size_t winner = rng() % (variants + 1);
          const QueryFeatures f = DrawFeatures(rng);
          ring.Observe(f, winner);
          oracle.Observe(f, winner);
        } else if (op < 75) {
          const QueryFeatures f = DrawFeatures(rng);
          ASSERT_EQ(ring.Rank(f, variants), oracle.Rank(f, variants))
              << "k=" << k << " seed=" << seed << " step=" << step;
        } else if (op < 95) {
          const QueryFeatures f = DrawFeatures(rng);
          ASSERT_EQ(ring.Predict(f, variants), oracle.Predict(f, variants))
              << "k=" << k << " seed=" << seed << " step=" << step;
        } else {
          // Shrink (possibly below the stored count) or grow mid-stream.
          cap = rng() % 2 == 0 ? rng() % (cap + 1) : cap + 1 + rng() % 32;
          ring.set_max_samples(cap);
          oracle.set_max_samples(cap);
        }
        ASSERT_EQ(ring.sample_count(), oracle.sample_count())
            << "k=" << k << " seed=" << seed << " step=" << step;
      }
    }
  }
}

TEST(OnlineSelectorDifferentialTest, MatchesVectorSelectorAtTheDefaultCap) {
  // Default cap, distinct features: the ring wraps at 4096 and must keep
  // picking the same neighbours in the same order as the erase-based
  // store, with continuous (not tied) distances.
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  OnlineSelector ring(5);
  VectorSelector oracle(5);
  auto random_features = [&] {
    QueryFeatures f;
    f.num_vertices = 4 + static_cast<uint32_t>(rng() % 20);
    f.num_edges = f.num_vertices + static_cast<uint32_t>(rng() % 30);
    f.avg_degree = 2.0 * f.num_edges / f.num_vertices;
    f.path_fraction = unit(rng);
    f.min_label_freq = rng() % 500;
    f.avg_label_freq = unit(rng) * 800.0;
    return f;
  };
  for (int i = 0; i < 3 * 4096 + 77; ++i) {
    const QueryFeatures f = random_features();
    const size_t winner = rng() % 6;
    ring.Observe(f, winner);
    oracle.Observe(f, winner);
    if (i % 97 == 0) {
      const QueryFeatures q = random_features();
      ASSERT_EQ(ring.Rank(q, 6), oracle.Rank(q, 6)) << "i=" << i;
      ASSERT_EQ(ring.Predict(q, 6), oracle.Predict(q, 6)) << "i=" << i;
    }
  }
  EXPECT_EQ(ring.sample_count(), 4096u);
}

}  // namespace
}  // namespace psi
