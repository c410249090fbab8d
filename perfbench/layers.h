#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Per-layer accounting of traced passes: joins the spans the wrappers
// recorded to the requests the clients timed, and sums each module's busy
// time, self time and counts.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "client.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

struct LayerTotals {
  size_t queries = 0;
  double request_ns = 0;  // Σ query spans (issued -> full response)

  // llm substrate (TracedModel).
  double start_ns = 0;
  double chunk_ns = 0;
  double kb_embed_ns = 0;
  size_t starts = 0;
  size_t chunk_calls = 0;
  double substrate_union_ns = 0;  // Σ per-query union of model spans

  // llm runtime fan-out: Σ NextChunk durations vs. their union per query.
  double chunk_sum_ns = 0;
  double chunk_union_ns = 0;

  // core: generation phase minus the union of its child spans.
  double core_self_ns = 0;
  size_t rounds = 0;
  size_t tokens = 0;
  size_t prunes = 0;
  size_t retrieved = 0;

  // embedding.
  double engine_query_embed_ns = 0;
  size_t engine_query_embeds = 0;
  size_t kb_embeds = 0;
  size_t engine_embeds = 0;  // every engine embed, uploads included
  size_t inner_embeds = 0;
  double inner_bytes = 0;
  double inner_ns = 0;

  // rag + vectordb ingest.
  std::vector<double> upload_embed_ms;
  std::vector<double> upload_index_ms;
  std::vector<double> chunks_per_upload;
  std::vector<double> records_per_session;

  // Query phases.
  std::vector<double> pregen_ms;
  std::vector<double> gen_ms;
  std::vector<double> postgen_ms;

  // app HTTP gauges, sampled while tracing on `serve`.
  std::vector<double> queued_samples;
  std::vector<double> in_flight_samples;
  double http_accepted = 0;
  double http_shed = 0;
  double http_seconds = 0;

  size_t unjoined_queries = 0;  // queries no model span could be tied to
};

// Adds one traced run of `sessions` to `totals`. `spans` are the spans the
// tracer recorded during it; records are indexed by op.
void AccumulateLayers(const Workload& workload,
                      const std::vector<SessionOps>& sessions,
                      const std::vector<OpRecord>& records,
                      const std::vector<Span>& spans, bool http,
                      LayerTotals* totals);

// The per-layer metrics by name, each with its unit.
std::map<std::string, std::pair<double, std::string>> LayerMetrics(
    const LayerTotals& totals);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
