#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Seeded request sequences for the three workloads. The program under test
// sees only the requests generated here.

#include <cstdint>
#include <string>
#include <vector>

#include "llmms/common/json.h"
#include "llmms/llm/knowledge.h"

namespace perfbench {

enum class OpKind { kQuery, kUpload, kEndSession };

struct Op {
  OpKind kind = OpKind::kQuery;
  std::string session;
  llmms::Json body;       // the in-process request
  std::string wire_body;  // the same request, serialized for HTTP
  size_t item = 0;        // dataset index of the question (queries)
  std::string query;      // question text (queries)
};

// A session is a list of indices into Workload::ops, run in order by one
// client.
using SessionOps = std::vector<size_t>;

struct Workload {
  std::string name;
  bool http = false;
  std::vector<Op> ops;
  std::vector<SessionOps> sessions;  // one pass of the timed phase
  std::vector<SessionOps> warmup;    // part of set-up
  // Uploads measured after the timed phase on workloads whose passes do
  // not upload, so that upload latency is reported for every workload.
  std::vector<SessionOps> probe;
  size_t queries_per_pass = 0;
  size_t uploads_per_pass = 0;
  uint64_t fingerprint = 0;  // FNV-1a over every generated request
};

inline constexpr size_t kTurnsPerSession = 4;
inline constexpr size_t kQueryBudget = 256;
// Three documents per session put the median upload in the middle of the
// three collection sizes an upload lands in, not on a boundary.
inline constexpr size_t kDocsPerRagSession = 3;
inline constexpr size_t kProbeSessions = 20;
inline constexpr size_t kProbeSessionsPerPass = 4;

// FNV-1a over bytes, for the request fingerprint and the answers digest.
inline constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
inline void Fnv1a(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ULL;
  }
}

// `name` is ask, rag or serve; returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed,
                  const std::vector<llmms::llm::QaItem>& dataset,
                  Workload* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
