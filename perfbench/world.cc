#include "world.h"

#include "llmms/embedding/hash_embedder.h"
#include "llmms/eval/qa_dataset.h"
#include "llmms/hardware/placement.h"
#include "llmms/llm/model_profile.h"
#include "llmms/llm/registry.h"
#include "llmms/llm/synthetic_model.h"
#include "llmms/session/session_store.h"
#include "llmms/vectordb/database.h"

namespace perfbench {

using llmms::Status;
using llmms::StatusOr;

World::~World() {
  if (server != nullptr) server->Stop();
}

StatusOr<std::unique_ptr<World>> BuildWorld(bool traced,
                                            bool http) {
  namespace emb = llmms::embedding;
  namespace llm = llmms::llm;
  auto world = std::make_unique<World>();
  Tracer* tracer = &world->tracer;
  // Over HTTP the server creates each request's context, so spans are
  // joined to requests by the question in the prompt.
  tracer->set_keep_prompts(http);

  llmms::eval::DatasetOptions dataset_options;
  dataset_options.questions_per_domain = kQuestionsPerDomain;
  world->dataset = llmms::eval::GenerateDataset(dataset_options);

  std::shared_ptr<const emb::Embedder> hash =
      std::make_shared<emb::HashEmbedder>();
  if (traced) {
    hash = std::make_shared<TracedEmbedder>(hash, tracer, SpanKind::kInnerEmbed);
  }
  world->cache =
      std::make_shared<emb::EmbeddingCache>(hash, kEmbeddingCacheEntries);
  std::shared_ptr<const emb::Embedder> kb_embedder = world->cache;
  world->engine_embedder = world->cache;
  if (traced) {
    kb_embedder = std::make_shared<TracedEmbedder>(world->cache, tracer,
                                                   SpanKind::kKbEmbed);
    world->engine_embedder = std::make_shared<TracedEmbedder>(
        world->cache, tracer, SpanKind::kEngineEmbed);
  }

  world->knowledge = std::make_shared<llm::KnowledgeBase>(kb_embedder);
  LLMMS_RETURN_NOT_OK(world->knowledge->AddAll(world->dataset));

  auto registry = std::make_shared<llm::ModelRegistry>();
  std::vector<std::string> names;
  for (const auto& profile : llm::DefaultProfiles()) {
    std::shared_ptr<llm::LanguageModel> model =
        std::make_shared<llm::SyntheticModel>(profile, world->knowledge);
    if (traced) model = std::make_shared<TracedModel>(model, tracer);
    names.push_back(profile.name);
    LLMMS_RETURN_NOT_OK(registry->Register(model));
  }

  llmms::hardware::DeviceSpec v100;
  v100.name = "tesla-v100-0";
  v100.kind = llmms::hardware::DeviceKind::kGpu;
  v100.memory_mb = 32 * 1024;
  auto hardware = std::make_shared<llmms::hardware::HardwareManager>(
      std::vector<llmms::hardware::DeviceSpec>{v100});
  world->runtime =
      std::make_unique<llm::ModelRuntime>(registry, hardware, kPoolThreads);
  for (const auto& name : names) {
    LLMMS_RETURN_NOT_OK(world->runtime->LoadModel(name));
  }

  world->db = std::make_shared<llmms::vectordb::VectorDatabase>();
  world->engine = std::make_unique<llmms::core::SearchEngine>(
      world->runtime.get(), world->engine_embedder, world->db,
      std::make_shared<llmms::session::SessionStore>());
  world->service = std::make_unique<llmms::app::ApiService>(world->engine.get());

  if (http) {
    llmms::app::HttpServerOptions options;
    options.num_workers = 1;  // one per client
    world->server =
        std::make_unique<llmms::app::HttpServer>(world->service.get(), options);
    LLMMS_RETURN_NOT_OK(world->server->Start(0));
  }
  return world;
}

}  // namespace perfbench
