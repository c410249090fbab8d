#ifndef LLMMS_CORE_SINGLE_H_
#define LLMMS_CORE_SINGLE_H_

#include <memory>
#include <string>

#include "llmms/core/orchestrator.h"

namespace llmms::core {

// Settings of SingleModelOrchestrator.
struct SingleModelConfig : OrchestratorConfig {
  size_t chunk_tokens = 32;  // streaming granularity for events
};

// The static single-model baseline (§8.1 execution mode 1): every query goes
// to one fixed model, bounded by the same token budget the orchestrators
// get. Scores are still computed (query similarity only; there are no other
// models to agree with) so results are comparable.
class SingleModelOrchestrator final
    : public PolicyOrchestrator<SingleModelConfig> {
 public:
  SingleModelOrchestrator(llm::ModelRuntime* runtime, std::string model,
                          std::shared_ptr<const embedding::Embedder> embedder,
                          const Config& config)
      : PolicyOrchestrator(runtime, {std::move(model)}, std::move(embedder),
                           config) {}

  StatusOr<OrchestrationResult> Run(const std::string& prompt,
                                    const EventCallback& callback) override;
  using Orchestrator::Run;

  std::string name() const override { return "single:" + models_[0]; }
};

}  // namespace llmms::core

#endif  // LLMMS_CORE_SINGLE_H_
