#include "llmms/vectordb/flat_index.h"

#include <algorithm>
#include <cmath>

#include "llmms/vectordb/scan.h"

namespace llmms::vectordb {
namespace {

// 1 / ||x|| accumulated in double, or 0 for a zero vector — which makes
// every cosine product against it 0 and so its distance exactly 1.0, the
// value Distance() gives a zero operand.
double InverseNorm(const float* x, size_t dim) {
  double norm2 = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    norm2 += static_cast<double>(x[d]) * x[d];
  }
  return norm2 > 0.0 ? 1.0 / std::sqrt(norm2) : 0.0;
}

// Squared L2 distance with the same eight-accumulator shape as Dot8.
float SquaredL2(const float* a, const float* b, size_t dim) {
  float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
  float a4 = 0.0f, a5 = 0.0f, a6 = 0.0f, a7 = 0.0f;
  size_t d = 0;
  for (; d + 8 <= dim; d += 8) {
    const float d0 = a[d] - b[d];
    const float d1 = a[d + 1] - b[d + 1];
    const float d2 = a[d + 2] - b[d + 2];
    const float d3 = a[d + 3] - b[d + 3];
    const float d4 = a[d + 4] - b[d + 4];
    const float d5 = a[d + 5] - b[d + 5];
    const float d6 = a[d + 6] - b[d + 6];
    const float d7 = a[d + 7] - b[d + 7];
    a0 += d0 * d0;
    a1 += d1 * d1;
    a2 += d2 * d2;
    a3 += d3 * d3;
    a4 += d4 * d4;
    a5 += d5 * d5;
    a6 += d6 * d6;
    a7 += d7 * d7;
  }
  float acc = ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7));
  for (; d < dim; ++d) {
    const float diff = a[d] - b[d];
    acc += diff * diff;
  }
  return acc;
}

}  // namespace

StatusOr<SlotId> FlatIndex::Add(const Vector& vector) {
  if (vector.size() != dimension_) {
    return Status::InvalidArgument(
        "vector dimension " + std::to_string(vector.size()) +
        " does not match index dimension " + std::to_string(dimension_));
  }
  rows_.insert(rows_.end(), vector.begin(), vector.end());
  inv_norms_.push_back(InverseNorm(vector.data(), dimension_));
  removed_.push_back(false);
  ++live_count_;
  return static_cast<SlotId>(removed_.size() - 1);
}

Status FlatIndex::Remove(SlotId slot) {
  if (slot >= removed_.size()) {
    return Status::NotFound("slot " + std::to_string(slot) + " out of range");
  }
  if (!removed_[slot]) {
    removed_[slot] = true;
    --live_count_;
  }
  return Status::OK();
}

StatusOr<std::vector<IndexHit>> FlatIndex::Search(const Vector& query,
                                                  size_t k) const {
  if (query.size() != dimension_) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  const size_t dim = dimension_;
  const size_t slots = removed_.size();
  const float* q = query.data();
  const size_t limit = std::min(k, live_count_);
  if (limit == 0) return std::vector<IndexHit>{};
  TopK top(limit);

  switch (metric_) {
    case DistanceMetric::kCosine: {
      const double inv_query_norm = InverseNorm(q, dim);
      for (size_t slot = 0; slot < slots; ++slot) {
        if (removed_[slot]) continue;
        const double dot = Dot8(q, Row(slot), dim);
        top.Push(static_cast<SlotId>(slot),
                 1.0 - dot * inv_query_norm * inv_norms_[slot]);
      }
      break;
    }
    case DistanceMetric::kInnerProduct:
      for (size_t slot = 0; slot < slots; ++slot) {
        if (removed_[slot]) continue;
        top.Push(static_cast<SlotId>(slot), -Dot8(q, Row(slot), dim));
      }
      break;
    case DistanceMetric::kL2:
      for (size_t slot = 0; slot < slots; ++slot) {
        if (removed_[slot]) continue;
        top.Push(static_cast<SlotId>(slot), SquaredL2(q, Row(slot), dim));
      }
      break;
  }
  return top.Take();
}

const Vector* FlatIndex::GetVector(SlotId slot) const {
  if (slot >= removed_.size() || removed_[slot]) return nullptr;
  // Thread-local scratch, as in QuantizedFlatIndex: the rows are stored
  // once, contiguously, and GetVector must stay callable under the shared
  // (reader) lock, so per-object mutable state is off the table.
  static thread_local Vector row;
  row.assign(Row(slot), Row(slot) + dimension_);
  return &row;
}

}  // namespace llmms::vectordb
