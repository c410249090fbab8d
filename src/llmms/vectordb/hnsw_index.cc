#include "llmms/vectordb/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_set>

#include "llmms/vectordb/distance.h"

namespace llmms::vectordb {

HnswIndex::HnswIndex(size_t dimension, DistanceMetric metric,
                     const Options& options)
    : dimension_(dimension),
      metric_(metric),
      options_(options),
      level_lambda_(1.0 / std::log(static_cast<double>(
                              options.M > 1 ? options.M : 2))),
      rng_(options.seed) {}

double HnswIndex::Dist(const Vector& a, SlotId b) const {
  return Distance(metric_, a, vectors_[b]);
}

int HnswIndex::DrawLevel() {
  double u = rng_.NextDouble();
  while (u <= 1e-12) u = rng_.NextDouble();
  const int level = static_cast<int>(-std::log(u) * level_lambda_);
  return std::min(level, 32);
}

std::vector<HnswIndex::Candidate> HnswIndex::SearchLayer(const Vector& query,
                                                         SlotId entry,
                                                         size_t ef,
                                                         int level) const {
  // Best-first search with a bounded result heap (the HNSW paper's
  // SEARCH-LAYER). `candidates` pops closest-first; `results` holds the ef
  // best found so far, with the worst on top.
  std::priority_queue<Candidate, std::vector<Candidate>,
                      std::greater<Candidate>>
      candidates;
  std::priority_queue<Candidate> results;
  std::unordered_set<SlotId> visited;

  const Candidate start{Dist(query, entry), entry};
  candidates.push(start);
  results.push(start);
  visited.insert(entry);

  while (!candidates.empty()) {
    const Candidate current = candidates.top();
    candidates.pop();
    if (!results.empty() && current.distance > results.top().distance &&
        results.size() >= ef) {
      break;
    }
    const auto& nbrs = nodes_[current.slot].neighbors;
    if (level >= static_cast<int>(nbrs.size())) continue;
    for (SlotId nbr : nbrs[static_cast<size_t>(level)]) {
      if (!visited.insert(nbr).second) continue;
      const double d = Dist(query, nbr);
      if (results.size() < ef || d < results.top().distance) {
        candidates.push(Candidate{d, nbr});
        results.push(Candidate{d, nbr});
        while (results.size() > ef) results.pop();
      }
    }
  }

  std::vector<Candidate> out;
  out.reserve(results.size());
  while (!results.empty()) {
    out.push_back(results.top());
    results.pop();
  }
  std::reverse(out.begin(), out.end());  // closest first
  return out;
}

std::vector<SlotId> HnswIndex::SelectNeighbors(
    std::vector<Candidate> candidates, size_t m) const {
  // Heuristic from the HNSW paper: keep a candidate only if it is closer to
  // the query than to every already-selected neighbor. This preserves edge
  // diversity, which is what gives the graph its navigability.
  std::sort(candidates.begin(), candidates.end());
  std::vector<SlotId> selected;
  selected.reserve(m);
  std::vector<Candidate> discarded;
  for (const Candidate& c : candidates) {
    if (selected.size() >= m) break;
    bool keep = true;
    for (SlotId s : selected) {
      if (Distance(metric_, vectors_[c.slot], vectors_[s]) < c.distance) {
        keep = false;
        break;
      }
    }
    if (keep) {
      selected.push_back(c.slot);
    } else {
      discarded.push_back(c);
    }
  }
  // Backfill with the closest discarded candidates if underfull.
  for (const Candidate& c : discarded) {
    if (selected.size() >= m) break;
    selected.push_back(c.slot);
  }
  return selected;
}

StatusOr<SlotId> HnswIndex::Add(const Vector& vector) {
  if (vector.size() != dimension_) {
    return Status::InvalidArgument(
        "vector dimension " + std::to_string(vector.size()) +
        " does not match index dimension " + std::to_string(dimension_));
  }
  const SlotId slot = static_cast<SlotId>(vectors_.size());
  const int level = DrawLevel();

  vectors_.push_back(vector);
  Node node;
  node.level = level;
  node.neighbors.resize(static_cast<size_t>(level) + 1);
  nodes_.push_back(std::move(node));
  ++live_count_;

  if (slot == 0) {
    entry_point_ = slot;
    max_level_ = level;
    return slot;
  }

  SlotId current = entry_point_;
  // Greedy descent through levels above the new node's level.
  for (int l = max_level_; l > level; --l) {
    bool improved = true;
    while (improved) {
      improved = false;
      const auto& nbrs = nodes_[current].neighbors;
      if (l >= static_cast<int>(nbrs.size())) break;
      double best = Dist(vector, current);
      for (SlotId nbr : nbrs[static_cast<size_t>(l)]) {
        const double d = Dist(vector, nbr);
        if (d < best) {
          best = d;
          current = nbr;
          improved = true;
        }
      }
    }
  }

  // Connect on each level from min(level, max_level_) down to 0.
  for (int l = std::min(level, max_level_); l >= 0; --l) {
    auto candidates = SearchLayer(vector, current, options_.ef_construction, l);
    if (!candidates.empty()) current = candidates.front().slot;
    const auto neighbors = SelectNeighbors(candidates, options_.M);
    auto& my_links = nodes_[slot].neighbors[static_cast<size_t>(l)];
    my_links = neighbors;
    // Add reverse edges, shrinking neighbor lists that overflow.
    for (SlotId nbr : neighbors) {
      auto& links = nodes_[nbr].neighbors[static_cast<size_t>(l)];
      links.push_back(slot);
      const size_t cap = MaxNeighbors(l);
      if (links.size() > cap) {
        std::vector<Candidate> cands;
        cands.reserve(links.size());
        for (SlotId s : links) {
          cands.push_back(Candidate{Distance(metric_, vectors_[nbr],
                                             vectors_[s]),
                                    s});
        }
        links = SelectNeighbors(std::move(cands), cap);
      }
    }
  }

  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = slot;
  }
  return slot;
}

Status HnswIndex::Remove(SlotId slot) {
  if (slot >= nodes_.size()) {
    return Status::NotFound("slot " + std::to_string(slot) + " out of range");
  }
  if (!nodes_[slot].removed) {
    nodes_[slot].removed = true;
    --live_count_;
  }
  return Status::OK();
}

StatusOr<std::vector<IndexHit>> HnswIndex::Search(const Vector& query,
                                                  size_t k) const {
  return SearchWithEf(query, k, options_.ef_search);
}

StatusOr<std::vector<IndexHit>> HnswIndex::SearchWithEf(const Vector& query,
                                                        size_t k,
                                                        size_t ef_search) const {
  if (query.size() != dimension_) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  std::vector<IndexHit> hits;
  if (vectors_.empty() || live_count_ == 0 || k == 0) return hits;

  SlotId current = entry_point_;
  for (int l = max_level_; l > 0; --l) {
    bool improved = true;
    while (improved) {
      improved = false;
      const auto& nbrs = nodes_[current].neighbors;
      if (l >= static_cast<int>(nbrs.size())) break;
      double best = Dist(query, current);
      for (SlotId nbr : nbrs[static_cast<size_t>(l)]) {
        const double d = Dist(query, nbr);
        if (d < best) {
          best = d;
          current = nbr;
          improved = true;
        }
      }
    }
  }

  // Over-fetch when tombstones exist so k live results survive filtering.
  const size_t tombstones = vectors_.size() - live_count_;
  const size_t ef = std::max(ef_search, k) + tombstones;
  const auto candidates = SearchLayer(query, current, ef, /*level=*/0);
  hits.reserve(std::min(k, candidates.size()));
  for (const Candidate& c : candidates) {
    if (nodes_[c.slot].removed) continue;
    hits.push_back(IndexHit{c.slot, c.distance});
    if (hits.size() >= k) break;
  }
  return hits;
}

const Vector* HnswIndex::GetVector(SlotId slot) const {
  if (slot >= vectors_.size() || nodes_[slot].removed) return nullptr;
  return &vectors_[slot];
}

}  // namespace llmms::vectordb
