#ifndef LLMMS_EVAL_WORLD_H_
#define LLMMS_EVAL_WORLD_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/embedding/embedder.h"
#include "llmms/eval/qa_dataset.h"
#include "llmms/hardware/placement.h"
#include "llmms/llm/knowledge.h"
#include "llmms/llm/model.h"
#include "llmms/llm/model_profile.h"
#include "llmms/llm/registry.h"
#include "llmms/llm/runtime.h"

namespace llmms::eval {

// The platform every test, bench, example and scenario-matrix cell runs on,
// the stand-in for §3.3's pool of models served from one device: a generated
// benchmark, the knowledge base the synthetic models answer from, the model
// pool registered and loaded on one simulated 32 GB GPU, and the runtime
// that fans generations out over four pool threads. The embedder is a hash
// embedder behind an LRU cache, which returns the same vectors.
struct World {
  std::shared_ptr<const embedding::Embedder> embedder;
  std::shared_ptr<llm::KnowledgeBase> knowledge;
  std::shared_ptr<llm::ModelRegistry> registry;
  std::shared_ptr<hardware::HardwareManager> hardware;
  std::unique_ptr<llm::ModelRuntime> runtime;
  std::vector<llm::QaItem> dataset;
  std::vector<std::string> model_names;  // registration order
};

// Builds the model registered for `profile`, the `index`-th of the pool.
// Callers put their decorators (faults, resilience, hedging, metering) here.
using ModelFn = std::function<std::shared_ptr<llm::LanguageModel>(
    const llm::ModelProfile& profile, size_t index,
    const std::shared_ptr<llm::KnowledgeBase>& knowledge)>;

// Generates the dataset from `options`, registers and loads one model per
// profile in order (a plain SyntheticModel unless `make` is given), and
// returns the wired world.
StatusOr<World> BuildWorld(
    const DatasetOptions& options,
    std::vector<llm::ModelProfile> profiles = llm::DefaultProfiles(),
    ModelFn make = {});

}  // namespace llmms::eval

#endif  // LLMMS_EVAL_WORLD_H_
