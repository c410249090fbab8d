#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <memory>
#include <string>
#include <vector>

#include "llmms/app/http_server.h"
#include "llmms/app/service.h"
#include "llmms/common/status.h"
#include "llmms/core/search_engine.h"
#include "llmms/embedding/embedding_cache.h"
#include "llmms/llm/knowledge.h"
#include "llmms/llm/runtime.h"
#include "trace.h"

namespace perfbench {

// Runtime pool threads: one per paper model.
inline constexpr size_t kPoolThreads = 3;
// Paper-scale dataset: 50 questions in each of 6 domains.
inline constexpr size_t kQuestionsPerDomain = 50;
inline constexpr size_t kEmbeddingCacheEntries = 4096;

// The system under test, built only from public constructors in the shape
// of bench/bench_common.h: three SyntheticModels over one KnowledgeBase,
// HashEmbedder behind one EmbeddingCache, a ModelRuntime on a simulated
// V100, the SearchEngine + ApiService, and (when `http`) an
// HttpServer on an ephemeral localhost port.
//
// A traced world puts TracedModel around each model and TracedEmbedder at
// three places: under the cache (misses), in front of the knowledge base
// (substrate) and in front of the engine (system). The wrappers forward
// unchanged, so a traced world computes the same answers.
struct World {
  Tracer tracer;  // declared first: the wrappers below point at it
  std::vector<llmms::llm::QaItem> dataset;
  std::shared_ptr<llmms::embedding::EmbeddingCache> cache;
  std::shared_ptr<const llmms::embedding::Embedder> engine_embedder;
  std::shared_ptr<llmms::llm::KnowledgeBase> knowledge;
  std::unique_ptr<llmms::llm::ModelRuntime> runtime;
  std::shared_ptr<llmms::vectordb::VectorDatabase> db;
  std::unique_ptr<llmms::core::SearchEngine> engine;
  std::unique_ptr<llmms::app::ApiService> service;
  std::unique_ptr<llmms::app::HttpServer> server;  // stopped first

  ~World();
};

llmms::StatusOr<std::unique_ptr<World>> BuildWorld(bool traced,
                                                   bool http);

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
