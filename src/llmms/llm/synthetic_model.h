#ifndef LLMMS_LLM_SYNTHETIC_MODEL_H_
#define LLMMS_LLM_SYNTHETIC_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "llmms/llm/knowledge.h"
#include "llmms/llm/model.h"
#include "llmms/llm/model_profile.h"

namespace llmms {
class Rng;
}  // namespace llmms

namespace llmms::llm {

// A statistical stand-in for a quantized 7-8B chat model.
//
// Given a prompt, the model resolves it against the shared KnowledgeBase,
// draws a correct/incorrect stance from its per-domain competence, and plans
// a deterministic token stream: hedging preamble, an answer sentence built
// from a golden/correct or plausible-but-wrong reference answer, and
// verbosity-scaled elaboration that mixes topic words, answer words, filler,
// and (for weak stances and hallucinations) distractor words from the
// incorrect answers.
//
// These mechanics induce exactly the signal structure the orchestration
// algorithms consume: responses from competent models embed closer to the
// query; models taking the same (usually correct) stance agree with each
// other; verbose models pay more tokens for the same content. Everything is
// deterministic in (profile.seed, prompt, request.seed).
class SyntheticModel final : public LanguageModel {
 public:
  SyntheticModel(ModelProfile profile,
                 std::shared_ptr<const KnowledgeBase> knowledge);

  const std::string& name() const override { return profile_.name; }
  uint64_t memory_mb() const override { return profile_.memory_mb; }
  double tokens_per_second() const override {
    return profile_.tokens_per_second;
  }
  size_t context_window() const override { return profile_.context_window; }

  StatusOr<std::unique_ptr<GenerationStream>> StartGeneration(
      const GenerationRequest& request) const override;

  const ModelProfile& profile() const { return profile_; }

  // Diagnostics for tests: the stance the model would take for `prompt`
  // (true = correct) and the effective competence after RAG uplift.
  struct StancePreview {
    bool has_knowledge = false;
    bool correct = false;
    double effective_competence = 0.0;
  };
  StancePreview PreviewStance(const std::string& prompt,
                              uint64_t request_seed = 0) const;

 private:
  struct Plan {
    std::vector<std::string> words;
    StopReason natural_end = StopReason::kStop;
  };

  // The first draws of every plan on a matched prompt: competence jitter,
  // then the stance. BuildPlan goes on drawing from `rng`; PreviewStance
  // stops here, so the preview cannot drift from the plan.
  StancePreview DrawStance(const KnowledgeBase::Resolution& resolution,
                           Rng* rng) const;

  // The plan RNG, deterministic in (profile seed, prompt, request seed).
  Rng PlanRng(const KnowledgeBase::Resolution& resolution,
              uint64_t request_seed) const;

  // knowledge_->Resolve(prompt), or an unmatched resolution without a base.
  std::shared_ptr<const KnowledgeBase::Resolution> Resolve(
      const std::string& prompt) const;

  Plan BuildPlan(const GenerationRequest& request) const;

  ModelProfile profile_;
  std::shared_ptr<const KnowledgeBase> knowledge_;
};

}  // namespace llmms::llm

#endif  // LLMMS_LLM_SYNTHETIC_MODEL_H_
