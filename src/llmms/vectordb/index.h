#ifndef LLMMS_VECTORDB_INDEX_H_
#define LLMMS_VECTORDB_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/vectordb/types.h"

namespace llmms::vectordb {

// Internal slot handle assigned by the index on insertion.
using SlotId = uint32_t;

// A search hit at the index level: (slot, distance). Smaller distance =
// closer, for every metric (see Distance()).
struct IndexHit {
  SlotId slot;
  double distance;
};

// Nearest-neighbor index over raw vectors. Implementations: FlatIndex
// (exact, brute force), HnswIndex (approximate graph index, the structure
// Chroma/FAISS use), and QuantizedFlatIndex (int8 scan for the two-stage
// path).
//
// Concurrency contract: const methods (Search, GetVector, size) may run
// concurrently with each other but not with Add/Remove. Collection enforces
// this with a shared/exclusive lock — readers search in parallel under the
// shared lock, the single writer mutates under the exclusive one — so
// implementations must keep their const methods free of hidden shared
// mutable state.
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  // Inserts a vector and returns its slot. Fails on dimension mismatch.
  virtual StatusOr<SlotId> Add(const Vector& vector) = 0;

  // Tombstones a slot; it no longer appears in search results.
  virtual Status Remove(SlotId slot) = 0;

  // Returns up to k nearest live slots to `query`, closest first.
  virtual StatusOr<std::vector<IndexHit>> Search(const Vector& query,
                                                 size_t k) const = 0;

  // Number of live (non-removed) vectors.
  virtual size_t size() const = 0;

  virtual size_t dimension() const = 0;
  virtual DistanceMetric metric() const = 0;

  // Access to the stored vector for a slot (needed for re-ranking); returns
  // nullptr for removed/unknown slots. FlatIndex and QuantizedFlatIndex
  // return per-thread scratch that the calling thread's next GetVector on
  // an index of the same kind overwrites: use the vector at once or copy it.
  virtual const Vector* GetVector(SlotId slot) const = 0;
};

}  // namespace llmms::vectordb

#endif  // LLMMS_VECTORDB_INDEX_H_
