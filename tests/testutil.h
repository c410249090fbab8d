#ifndef LLMMS_TESTS_TESTUTIL_H_
#define LLMMS_TESTS_TESTUTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "llmms/embedding/hash_embedder.h"
#include "llmms/eval/qa_dataset.h"
#include "llmms/hardware/placement.h"
#include "llmms/llm/knowledge.h"
#include "llmms/llm/model_profile.h"
#include "llmms/llm/registry.h"
#include "llmms/llm/runtime.h"
#include "llmms/llm/synthetic_model.h"
#include "llmms/rag/prompt_builder.h"

namespace llmms::testutil {

// A fully wired miniature platform: embedder, synthetic world, the three
// default models registered and loaded on a simulated V100. Shared by the
// orchestrator, engine, and eval tests.
struct World {
  std::shared_ptr<const embedding::Embedder> embedder;
  std::shared_ptr<llm::KnowledgeBase> knowledge;
  std::shared_ptr<llm::ModelRegistry> registry;
  std::shared_ptr<hardware::HardwareManager> hardware;
  std::unique_ptr<llm::ModelRuntime> runtime;
  std::vector<llm::QaItem> dataset;
  std::vector<std::string> model_names;
};

inline World MakeWorld(size_t questions_per_domain = 4,
                       uint64_t seed = 0x7A9E11ULL) {
  World world;
  world.embedder = std::make_shared<embedding::HashEmbedder>();

  eval::DatasetOptions dataset_options;
  dataset_options.questions_per_domain = questions_per_domain;
  dataset_options.seed = seed;
  world.dataset = eval::GenerateDataset(dataset_options);

  auto knowledge = std::make_shared<llm::KnowledgeBase>(world.embedder);
  auto status = knowledge->AddAll(world.dataset);
  if (!status.ok()) std::abort();
  world.knowledge = knowledge;

  world.registry = std::make_shared<llm::ModelRegistry>();
  for (const auto& profile : llm::DefaultProfiles()) {
    world.model_names.push_back(profile.name);
    status = world.registry->Register(
        std::make_shared<llm::SyntheticModel>(profile, knowledge));
    if (!status.ok()) std::abort();
  }

  hardware::DeviceSpec v100;
  v100.name = "tesla-v100-0";
  v100.kind = hardware::DeviceKind::kGpu;
  v100.memory_mb = 32 * 1024;
  v100.throughput_factor = 1.0;
  world.hardware = std::make_shared<hardware::HardwareManager>(
      std::vector<hardware::DeviceSpec>{v100});

  world.runtime = std::make_unique<llm::ModelRuntime>(
      world.registry, world.hardware, /*num_threads=*/4);
  for (const auto& name : world.model_names) {
    status = world.runtime->LoadModel(name);
    if (!status.ok()) std::abort();
  }
  return world;
}

// The three prompt shapes the engine sends, for every item of `dataset`:
// the bare question, the question inside conversation history, and the
// question inside RAG context plus history. Entry 3*i+k belongs to item i.
inline std::vector<std::string> PaperPrompts(
    const std::vector<llm::QaItem>& dataset) {
  const rag::PromptBuilder builder;
  const size_t n = dataset.size();
  std::vector<std::string> prompts;
  prompts.reserve(3 * n);
  for (size_t i = 0; i < n; ++i) {
    const auto& item = dataset[i];
    // Three earlier turns of a session, as Session::ContextText renders them.
    std::string history;
    for (size_t back = 3; back >= 1; --back) {
      const auto& earlier = dataset[(i + n - back) % n];
      if (!history.empty()) history += "\n";
      history += "user: " + earlier.question + "\nassistant: " + earlier.golden;
    }
    // Retrieved context: the item's own answer among two others.
    std::vector<rag::RetrievedChunk> context(3);
    context[0].text = dataset[(i + 1) % n].golden;
    context[1].text = item.golden;
    context[2].text = dataset[(i + 7) % n].golden;

    prompts.push_back(item.question);
    prompts.push_back(builder.Build(item.question, {}, history));
    prompts.push_back(builder.Build(item.question, context, history));
  }
  return prompts;
}

}  // namespace llmms::testutil

#endif  // LLMMS_TESTS_TESTUTIL_H_
