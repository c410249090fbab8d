#ifndef LLMMS_VECTORDB_HNSW_INDEX_H_
#define LLMMS_VECTORDB_HNSW_INDEX_H_

#include <cstdint>
#include <vector>

#include "llmms/common/rng.h"
#include "llmms/vectordb/index.h"

namespace llmms::vectordb {

// Hierarchical Navigable Small World graph index (Malkov & Yashunin, 2018) —
// the approximate-nearest-neighbor structure behind Chroma's and FAISS's
// default indexes, which the paper uses for "sub-millisecond" top-k
// retrieval (§7.1).
//
// Levels are drawn from a geometric distribution with a deterministic,
// seeded RNG; neighbor selection uses the paper's select-neighbors
// heuristic. Deleted slots are tombstoned: they still route traversals but
// never appear in results.
class HnswIndex final : public VectorIndex {
 public:
  struct Options {
    // Max bidirectional links per node on levels > 0; level 0 allows 2*M.
    size_t M = 16;
    // Candidate-list width during construction.
    size_t ef_construction = 200;
    // Candidate-list width during search; raised automatically to k.
    size_t ef_search = 64;
    uint64_t seed = 0x48e5f1ULL;
  };

  HnswIndex(size_t dimension, DistanceMetric metric)
      : HnswIndex(dimension, metric, Options{}) {}
  HnswIndex(size_t dimension, DistanceMetric metric, const Options& options);

  StatusOr<SlotId> Add(const Vector& vector) override;
  Status Remove(SlotId slot) override;
  StatusOr<std::vector<IndexHit>> Search(const Vector& query,
                                         size_t k) const override;
  // Search with an explicit candidate-list width in place of
  // Options::ef_search (still raised to k and widened past tombstones) —
  // lets recall sweeps walk the ef axis over one built graph instead of
  // rebuilding per setting.
  StatusOr<std::vector<IndexHit>> SearchWithEf(const Vector& query, size_t k,
                                               size_t ef) const;
  size_t size() const override { return live_count_; }
  size_t dimension() const override { return dimension_; }
  DistanceMetric metric() const override { return metric_; }
  const Vector* GetVector(SlotId slot) const override;

  const Options& options() const { return options_; }
  int max_level() const { return max_level_; }

 private:
  struct Node {
    // neighbors[l] is the adjacency list at level l (0..level).
    std::vector<std::vector<SlotId>> neighbors;
    int level = 0;
    bool removed = false;
  };

  struct Candidate {
    double distance;
    SlotId slot;
    bool operator<(const Candidate& other) const {
      if (distance != other.distance) return distance < other.distance;
      return slot < other.slot;
    }
    bool operator>(const Candidate& other) const { return other < *this; }
  };

  double Dist(const Vector& a, SlotId b) const;
  int DrawLevel();

  // Greedy best-first search restricted to one level; returns up to `ef`
  // closest candidates to `query` starting from `entry`.
  std::vector<Candidate> SearchLayer(const Vector& query, SlotId entry,
                                     size_t ef, int level) const;

  // Select-neighbors heuristic (keeps diverse edges). Each candidate's
  // distance is already its distance to the node being linked.
  std::vector<SlotId> SelectNeighbors(std::vector<Candidate> candidates,
                                      size_t m) const;

  size_t MaxNeighbors(int level) const {
    return level == 0 ? options_.M * 2 : options_.M;
  }

  size_t dimension_;
  DistanceMetric metric_;
  Options options_;
  double level_lambda_;  // 1 / ln(M)

  std::vector<Vector> vectors_;
  std::vector<Node> nodes_;
  SlotId entry_point_ = 0;
  int max_level_ = -1;
  size_t live_count_ = 0;
  Rng rng_;
};

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_HNSW_INDEX_H_
