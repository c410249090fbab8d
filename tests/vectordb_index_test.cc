#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <unordered_set>

#include "llmms/common/rng.h"
#include "llmms/vectordb/distance.h"
#include "llmms/vectordb/flat_index.h"
#include "llmms/vectordb/hnsw_index.h"

namespace llmms::vectordb {
namespace {

Vector RandomUnitVector(Rng* rng, size_t dim) {
  Vector v(dim);
  double norm_sq = 0.0;
  for (auto& x : v) {
    x = static_cast<float>(rng->Normal());
    norm_sq += static_cast<double>(x) * x;
  }
  const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
  for (auto& x : v) x *= inv;
  return v;
}

TEST(DistanceTest, CosineDistanceProperties) {
  Vector a{1.0f, 0.0f};
  Vector b{0.0f, 1.0f};
  EXPECT_NEAR(Distance(DistanceMetric::kCosine, a, a), 0.0, 1e-6);
  EXPECT_NEAR(Distance(DistanceMetric::kCosine, a, b), 1.0, 1e-6);
  Vector zero{0.0f, 0.0f};
  EXPECT_NEAR(Distance(DistanceMetric::kCosine, a, zero), 1.0, 1e-6);
}

TEST(DistanceTest, L2AndInnerProduct) {
  Vector a{1.0f, 2.0f};
  Vector b{3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(Distance(DistanceMetric::kL2, a, b), 8.0);
  EXPECT_DOUBLE_EQ(Distance(DistanceMetric::kInnerProduct, a, b), -11.0);
}

TEST(DistanceTest, SimilarityInversion) {
  EXPECT_DOUBLE_EQ(SimilarityFromDistance(DistanceMetric::kCosine, 0.25), 0.75);
  EXPECT_DOUBLE_EQ(SimilarityFromDistance(DistanceMetric::kL2, 9.0), -3.0);
  EXPECT_DOUBLE_EQ(SimilarityFromDistance(DistanceMetric::kInnerProduct, -5.0),
                   5.0);
}

TEST(DistanceTest, MetricNames) {
  EXPECT_STREQ(DistanceMetricToString(DistanceMetric::kCosine), "cosine");
  EXPECT_STREQ(DistanceMetricToString(DistanceMetric::kL2), "l2");
  EXPECT_STREQ(DistanceMetricToString(DistanceMetric::kInnerProduct), "ip");
}

TEST(FlatIndexTest, AddSearchExactOrder) {
  FlatIndex index(2, DistanceMetric::kL2);
  ASSERT_TRUE(index.Add({0.0f, 0.0f}).ok());
  ASSERT_TRUE(index.Add({1.0f, 0.0f}).ok());
  ASSERT_TRUE(index.Add({5.0f, 0.0f}).ok());
  auto hits = index.Search({0.2f, 0.0f}, 3);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 3u);
  EXPECT_EQ((*hits)[0].slot, 0u);
  EXPECT_EQ((*hits)[1].slot, 1u);
  EXPECT_EQ((*hits)[2].slot, 2u);
}

TEST(FlatIndexTest, DimensionMismatchRejected) {
  FlatIndex index(3, DistanceMetric::kCosine);
  EXPECT_TRUE(index.Add({1.0f, 2.0f}).status().IsInvalidArgument());
  ASSERT_TRUE(index.Add({1.0f, 0.0f, 0.0f}).ok());
  EXPECT_TRUE(index.Search({1.0f}, 1).status().IsInvalidArgument());
}

TEST(FlatIndexTest, RemoveHidesFromResults) {
  FlatIndex index(1, DistanceMetric::kL2);
  ASSERT_TRUE(index.Add({1.0f}).ok());
  ASSERT_TRUE(index.Add({2.0f}).ok());
  EXPECT_EQ(index.size(), 2u);
  ASSERT_TRUE(index.Remove(0).ok());
  EXPECT_EQ(index.size(), 1u);
  auto hits = index.Search({1.0f}, 5);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].slot, 1u);
  EXPECT_EQ(index.GetVector(0), nullptr);
  // Removing twice is idempotent; out-of-range fails.
  EXPECT_TRUE(index.Remove(0).ok());
  EXPECT_TRUE(index.Remove(99).IsNotFound());
}

TEST(FlatIndexTest, KLargerThanSize) {
  FlatIndex index(1, DistanceMetric::kL2);
  ASSERT_TRUE(index.Add({1.0f}).ok());
  auto hits = index.Search({0.0f}, 100);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
}

TEST(HnswIndexTest, ExactOnTinySets) {
  HnswIndex index(2, DistanceMetric::kL2);
  ASSERT_TRUE(index.Add({0.0f, 0.0f}).ok());
  ASSERT_TRUE(index.Add({1.0f, 0.0f}).ok());
  ASSERT_TRUE(index.Add({0.0f, 3.0f}).ok());
  auto hits = index.Search({0.9f, 0.1f}, 2);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 2u);
  EXPECT_EQ((*hits)[0].slot, 1u);
  EXPECT_EQ((*hits)[1].slot, 0u);
}

TEST(HnswIndexTest, EmptyIndexReturnsNothing) {
  HnswIndex index(4, DistanceMetric::kCosine);
  auto hits = index.Search({0.5f, 0.5f, 0.5f, 0.5f}, 3);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST(HnswIndexTest, DimensionMismatchRejected) {
  HnswIndex index(4, DistanceMetric::kCosine);
  EXPECT_TRUE(index.Add({1.0f}).status().IsInvalidArgument());
}

TEST(HnswIndexTest, RemovedSlotsNeverReturned) {
  Rng rng(5);
  HnswIndex index(8, DistanceMetric::kCosine);
  std::vector<Vector> vectors;
  for (int i = 0; i < 200; ++i) {
    vectors.push_back(RandomUnitVector(&rng, 8));
    ASSERT_TRUE(index.Add(vectors.back()).ok());
  }
  std::unordered_set<SlotId> removed;
  for (SlotId s = 0; s < 200; s += 3) {
    ASSERT_TRUE(index.Remove(s).ok());
    removed.insert(s);
  }
  EXPECT_EQ(index.size(), 200u - removed.size());
  for (int q = 0; q < 20; ++q) {
    auto hits = index.Search(RandomUnitVector(&rng, 8), 10);
    ASSERT_TRUE(hits.ok());
    for (const auto& hit : *hits) {
      EXPECT_EQ(removed.count(hit.slot), 0u);
    }
  }
}

TEST(HnswIndexTest, DeterministicForSameSeed) {
  Rng rng(11);
  std::vector<Vector> vectors;
  for (int i = 0; i < 100; ++i) vectors.push_back(RandomUnitVector(&rng, 8));

  HnswIndex a(8, DistanceMetric::kCosine);
  HnswIndex b(8, DistanceMetric::kCosine);
  for (const auto& v : vectors) {
    ASSERT_TRUE(a.Add(v).ok());
    ASSERT_TRUE(b.Add(v).ok());
  }
  const auto query = RandomUnitVector(&rng, 8);
  auto ha = a.Search(query, 5);
  auto hb = b.Search(query, 5);
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(hb.ok());
  ASSERT_EQ(ha->size(), hb->size());
  for (size_t i = 0; i < ha->size(); ++i) {
    EXPECT_EQ((*ha)[i].slot, (*hb)[i].slot);
  }
}

// Recall property sweep: HNSW must find nearly everything brute force finds.
struct RecallParams {
  size_t dim;
  size_t n;
  DistanceMetric metric;
};

class HnswRecallTest : public ::testing::TestWithParam<RecallParams> {};

TEST_P(HnswRecallTest, RecallAtTenAboveNinetyPercent) {
  const auto params = GetParam();
  Rng rng(23);
  FlatIndex flat(params.dim, params.metric);
  HnswIndex hnsw(params.dim, params.metric);
  for (size_t i = 0; i < params.n; ++i) {
    const auto v = RandomUnitVector(&rng, params.dim);
    ASSERT_TRUE(flat.Add(v).ok());
    ASSERT_TRUE(hnsw.Add(v).ok());
  }
  const size_t k = 10;
  size_t found = 0;
  size_t expected = 0;
  for (int q = 0; q < 30; ++q) {
    const auto query = RandomUnitVector(&rng, params.dim);
    auto exact = flat.Search(query, k);
    auto approx = hnsw.Search(query, k);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(approx.ok());
    std::unordered_set<SlotId> truth;
    for (const auto& hit : *exact) truth.insert(hit.slot);
    expected += truth.size();
    for (const auto& hit : *approx) found += truth.count(hit.slot);
  }
  const double recall = static_cast<double>(found) / static_cast<double>(expected);
  EXPECT_GE(recall, 0.9) << "dim=" << params.dim << " n=" << params.n;
}

const RecallParams kRecallSweep[] = {
    {8, 200, DistanceMetric::kCosine},
    {16, 500, DistanceMetric::kCosine},
    {32, 1000, DistanceMetric::kCosine},
    {16, 500, DistanceMetric::kL2},
    {16, 500, DistanceMetric::kInnerProduct},
};

INSTANTIATE_TEST_SUITE_P(Sweep, HnswRecallTest,
                         ::testing::ValuesIn(kRecallSweep));

// FlatIndex's float scan (cached row norms, 8-lane dot products, bounded
// heap) against a brute-force Distance() reference in double, over the
// same sweep: same slots in the same order, distances within 1e-5, exact
// 1.0 for cosine against zero rows and zero queries, duplicate rows tied
// by ascending slot, removed slots never returned, and k = 0 / k > size()
// behaving like the reference.
class FlatKernelTest : public ::testing::TestWithParam<RecallParams> {};

std::vector<IndexHit> ReferenceSearch(const std::vector<Vector>& rows,
                                      const std::vector<bool>& removed,
                                      DistanceMetric metric,
                                      const Vector& query, size_t k) {
  std::vector<IndexHit> hits;
  for (size_t slot = 0; slot < rows.size(); ++slot) {
    if (removed[slot]) continue;
    hits.push_back(IndexHit{static_cast<SlotId>(slot),
                            Distance(metric, query, rows[slot])});
  }
  std::sort(hits.begin(), hits.end(), [](const IndexHit& a, const IndexHit& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.slot < b.slot;
  });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

TEST_P(FlatKernelTest, MatchesDistanceReference) {
  const auto params = GetParam();
  const size_t dim = params.dim;
  Rng rng(29);
  FlatIndex index(dim, params.metric);
  std::vector<Vector> rows;
  auto add = [&](const Vector& v) {
    auto slot = index.Add(v);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(*slot, rows.size());
    rows.push_back(v);
  };
  for (size_t i = 0; i < params.n; ++i) {
    // Varied norms, so the cached per-row norm is what cosine divides by.
    auto v = RandomUnitVector(&rng, dim);
    const float scale = static_cast<float>(rng.Uniform(0.25, 4.0));
    for (auto& x : v) x *= scale;
    add(v);
  }
  const SlotId originals[] = {0, 2, 4, 6, 8};
  std::vector<SlotId> duplicates;
  for (SlotId s : originals) {
    duplicates.push_back(static_cast<SlotId>(rows.size()));
    add(Vector(rows[s]));
  }
  const SlotId first_zero = static_cast<SlotId>(rows.size());
  add(Vector(dim, 0.0f));
  add(Vector(dim, 0.0f));
  std::vector<bool> removed(rows.size(), false);
  size_t removed_count = 0;
  for (SlotId s = 3; s < params.n; s += 7) {
    ASSERT_TRUE(index.Remove(s).ok());
    removed[s] = true;
    ++removed_count;
  }
  ASSERT_EQ(index.size(), rows.size() - removed_count);

  auto expect_reference = [&](const Vector& query, size_t k) {
    auto hits = index.Search(query, k);
    ASSERT_TRUE(hits.ok());
    const auto expected =
        ReferenceSearch(rows, removed, params.metric, query, k);
    ASSERT_EQ(hits->size(), expected.size()) << "k=" << k;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*hits)[i].slot, expected[i].slot) << "rank " << i;
      EXPECT_NEAR((*hits)[i].distance, expected[i].distance, 1e-5)
          << "rank " << i;
      EXPECT_FALSE(removed[(*hits)[i].slot]) << "removed slot returned";
    }
  };

  for (int q = 0; q < 30; ++q) {
    expect_reference(RandomUnitVector(&rng, dim), 10);
  }
  const Vector probe = RandomUnitVector(&rng, dim);
  expect_reference(probe, 0);
  expect_reference(probe, index.size() + 5);

  // Full ranking: every live slot exactly once, each duplicate right after
  // its original, zero rows at cosine distance exactly 1.0.
  auto all = index.Search(probe, index.size() + 5);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), index.size());
  std::vector<size_t> rank(rows.size(), all->size());
  for (size_t i = 0; i < all->size(); ++i) rank[(*all)[i].slot] = i;
  for (size_t i = 0; i < duplicates.size(); ++i) {
    EXPECT_EQ(rank[duplicates[i]], rank[originals[i]] + 1)
        << "duplicate of slot " << originals[i];
  }
  if (params.metric == DistanceMetric::kCosine) {
    for (SlotId s = first_zero; s < rows.size(); ++s) {
      EXPECT_EQ((*all)[rank[s]].distance, 1.0);
    }
    // A zero query is equally far (1.0) from every row, so the k lowest
    // live slots win the tie.
    auto zero = index.Search(Vector(dim, 0.0f), 10);
    ASSERT_TRUE(zero.ok());
    const auto expected =
        ReferenceSearch(rows, removed, params.metric, Vector(dim, 0.0f), 10);
    ASSERT_EQ(zero->size(), expected.size());
    for (size_t i = 0; i < zero->size(); ++i) {
      EXPECT_EQ((*zero)[i].distance, 1.0);
      EXPECT_EQ((*zero)[i].slot, expected[i].slot);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FlatKernelTest,
                         ::testing::ValuesIn(kRecallSweep));
// A dimension that is not a multiple of the kernel's 8 lanes exercises the
// scalar tail of every metric.
INSTANTIATE_TEST_SUITE_P(
    OddDimension, FlatKernelTest,
    ::testing::Values(RecallParams{13, 300, DistanceMetric::kCosine},
                      RecallParams{13, 300, DistanceMetric::kL2},
                      RecallParams{13, 300, DistanceMetric::kInnerProduct}));

}  // namespace
}  // namespace llmms::vectordb
