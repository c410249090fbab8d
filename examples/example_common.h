#ifndef LLMMS_EXAMPLES_EXAMPLE_COMMON_H_
#define LLMMS_EXAMPLES_EXAMPLE_COMMON_H_

#include <cstdlib>
#include <memory>
#include <utility>

#include "llmms/core/search_engine.h"
#include "llmms/eval/world.h"
#include "llmms/llm/fault_injection.h"
#include "llmms/llm/resilient_model.h"
#include "llmms/llm/synthetic_model.h"
#include "llmms/session/session_store.h"
#include "llmms/vectordb/database.h"

namespace llmms::examples {

// Everything an example needs: the three default models loaded on a
// simulated GPU, a synthetic world for them to know about, and the LLM-MS
// search engine wired to a vector database and session store.
struct Platform : eval::World {
  std::shared_ptr<vectordb::VectorDatabase> db;
  std::shared_ptr<session::SessionStore> sessions;
  std::unique_ptr<core::SearchEngine> engine;
};

inline Platform MakePlatform(size_t questions_per_domain = 12) {
  // Every model serves behind the resilience layer (DESIGN.md §8), so
  // /api/health reports a live circuit per model. LLMMS_CHAOS=<prob> also
  // injects that per-call probability of transient chunk errors (seeded) —
  // a quick way to watch retries, quarantine, and a degraded /api/health.
  const char* chaos_env = std::getenv("LLMMS_CHAOS");
  const double chaos_prob = chaos_env != nullptr ? std::atof(chaos_env) : 0.0;
  eval::DatasetOptions options;
  options.questions_per_domain = questions_per_domain;
  auto world = eval::BuildWorld(
      options, llm::DefaultProfiles(),
      [chaos_prob](const llm::ModelProfile& profile, size_t index,
                   const std::shared_ptr<llm::KnowledgeBase>& knowledge) {
        std::shared_ptr<llm::LanguageModel> model =
            std::make_shared<llm::SyntheticModel>(profile, knowledge);
        if (chaos_prob > 0.0) {
          llm::FaultConfig faults;
          faults.chunk_error_prob = chaos_prob;
          faults.seed += index;
          model = std::make_shared<llm::FaultyModel>(model, faults);
        }
        llm::ResilienceConfig resilience;
        resilience.seed += index;
        return std::make_shared<llm::ResilientModel>(model, resilience);
      });
  if (!world.ok()) std::abort();

  Platform p{std::move(world).value(),
             std::make_shared<vectordb::VectorDatabase>(),
             std::make_shared<session::SessionStore>(), nullptr};
  p.engine = std::make_unique<core::SearchEngine>(p.runtime.get(), p.embedder,
                                                  p.db, p.sessions);
  return p;
}

}  // namespace llmms::examples

#endif  // LLMMS_EXAMPLES_EXAMPLE_COMMON_H_
