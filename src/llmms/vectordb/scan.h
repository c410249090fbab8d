#ifndef LLMMS_VECTORDB_SCAN_H_
#define LLMMS_VECTORDB_SCAN_H_

// Internal to vectordb: the pieces every exact scan shares — the index tie
// order, the bounded top-k heap, and the 8-lane dot-product kernel.
// FlatIndex and QuantizedFlatIndex scan with them; Collection's re-rank
// sorts by the same order.

#include <algorithm>
#include <utility>
#include <vector>

#include "llmms/vectordb/index.h"

namespace llmms::vectordb {

// "Better hit" under the index tie order (distance asc, slot asc).
inline bool BetterHit(const IndexHit& a, const IndexHit& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.slot < b.slot;
}

// Keeps the k best hits pushed so far in a max-heap ordered by BetterHit,
// so the worst kept hit sits on top and a worse candidate costs one compare.
// Requires 1 <= k; callers bound k by the number of live slots (it is
// reserved up front).
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) { heap_.reserve(k); }

  void Push(SlotId slot, double distance) {
    const IndexHit hit{slot, distance};
    if (heap_.size() < k_) {
      heap_.push_back(hit);
      std::push_heap(heap_.begin(), heap_.end(), BetterHit);
    } else if (BetterHit(hit, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), BetterHit);
      heap_.back() = hit;
      std::push_heap(heap_.begin(), heap_.end(), BetterHit);
    }
  }

  // The kept hits, best first; leaves the heap empty.
  std::vector<IndexHit> Take() {
    std::sort(heap_.begin(), heap_.end(), BetterHit);
    return std::move(heap_);
  }

 private:
  size_t k_;
  std::vector<IndexHit> heap_;
};

// dot(w, x) with eight independent accumulators: a single float
// accumulator serializes the scan on FMA latency (strict FP ordering also
// blocks auto-vectorization of the reduction). The fixed lane structure
// makes the sum order — and so the result — independent of how the
// compiler vectorizes it. `T` is float for raw rows, uint8_t for codes.
template <typename T>
inline float Dot8(const float* w, const T* x, size_t dim) {
  float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
  float a4 = 0.0f, a5 = 0.0f, a6 = 0.0f, a7 = 0.0f;
  size_t d = 0;
  for (; d + 8 <= dim; d += 8) {
    a0 += w[d] * static_cast<float>(x[d]);
    a1 += w[d + 1] * static_cast<float>(x[d + 1]);
    a2 += w[d + 2] * static_cast<float>(x[d + 2]);
    a3 += w[d + 3] * static_cast<float>(x[d + 3]);
    a4 += w[d + 4] * static_cast<float>(x[d + 4]);
    a5 += w[d + 5] * static_cast<float>(x[d + 5]);
    a6 += w[d + 6] * static_cast<float>(x[d + 6]);
    a7 += w[d + 7] * static_cast<float>(x[d + 7]);
  }
  float acc = ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7));
  for (; d < dim; ++d) acc += w[d] * static_cast<float>(x[d]);
  return acc;
}

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_SCAN_H_
