#ifndef LLMMS_VECTORDB_FLAT_INDEX_H_
#define LLMMS_VECTORDB_FLAT_INDEX_H_

#include <vector>

#include "llmms/vectordb/index.h"

namespace llmms::vectordb {

// Exact brute-force index: O(n·d) per query. The reference implementation
// against which HnswIndex recall is measured, and the right choice for the
// small per-session collections the RAG pipeline creates.
//
// Rows live in one contiguous row-major array, and each row's inverse L2
// norm is cached at Add time, so a cosine query computes only its own norm
// and one float dot product per row (the 8-lane kernel in scan.h); the
// top-k is kept in a bounded heap under the index tie order. Float
// accumulation reorders the sums of Distance() (double), so distances
// agree with it to ~1e-6, not bit for bit.
class FlatIndex final : public VectorIndex {
 public:
  FlatIndex(size_t dimension, DistanceMetric metric)
      : dimension_(dimension), metric_(metric) {}

  StatusOr<SlotId> Add(const Vector& vector) override;
  Status Remove(SlotId slot) override;
  StatusOr<std::vector<IndexHit>> Search(const Vector& query,
                                         size_t k) const override;
  size_t size() const override { return live_count_; }
  size_t dimension() const override { return dimension_; }
  DistanceMetric metric() const override { return metric_; }
  // Returns a thread-local copy of the row (see VectorIndex::GetVector).
  const Vector* GetVector(SlotId slot) const override;

 private:
  const float* Row(size_t slot) const {
    return rows_.data() + slot * dimension_;
  }

  size_t dimension_;
  DistanceMetric metric_;
  std::vector<float> rows_;        // dimension_ floats per slot
  std::vector<double> inv_norms_;  // 1 / ||row||; 0 flags a zero row
  std::vector<bool> removed_;
  size_t live_count_ = 0;
};

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_FLAT_INDEX_H_
