#include "llmms/eval/world.h"

#include <utility>

#include "llmms/embedding/embedding_cache.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/llm/synthetic_model.h"

namespace llmms::eval {

StatusOr<World> BuildWorld(const DatasetOptions& options,
                           std::vector<llm::ModelProfile> profiles,
                           ModelFn make) {
  World world;
  world.embedder = std::make_shared<embedding::EmbeddingCache>(
      std::make_shared<embedding::HashEmbedder>(), /*capacity=*/4096);
  world.dataset = GenerateDataset(options);
  world.knowledge = std::make_shared<llm::KnowledgeBase>(world.embedder);
  LLMMS_RETURN_NOT_OK(world.knowledge->AddAll(world.dataset));

  world.registry = std::make_shared<llm::ModelRegistry>();
  for (size_t i = 0; i < profiles.size(); ++i) {
    std::shared_ptr<llm::LanguageModel> model =
        make ? make(profiles[i], i, world.knowledge)
             : std::make_shared<llm::SyntheticModel>(profiles[i],
                                                     world.knowledge);
    world.model_names.push_back(model->name());
    LLMMS_RETURN_NOT_OK(world.registry->Register(std::move(model)));
  }

  hardware::DeviceSpec gpu;
  gpu.name = "tesla-v100-0";
  world.hardware = std::make_shared<hardware::HardwareManager>(
      std::vector<hardware::DeviceSpec>{gpu});
  world.runtime = std::make_unique<llm::ModelRuntime>(
      world.registry, world.hardware, /*num_threads=*/4);
  for (const auto& name : world.model_names) {
    LLMMS_RETURN_NOT_OK(world.runtime->LoadModel(name));
  }
  return world;
}

}  // namespace llmms::eval
