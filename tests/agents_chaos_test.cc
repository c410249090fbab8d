// Chaos tests for the multi-agent pipeline (§9.5): the decompose →
// research → verify → compose crew must keep the degradation promises
// core/agents.cc makes when the researcher pool is unhealthy — quarantined
// researchers are survivable, the retry path gets a chance to recover a
// failed research pass, and only a pool with nothing left to compose from
// surfaces the typed pipeline error.

#include "llmms/core/agents.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "llmms/llm/fault_injection.h"
#include "llmms/llm/resilient_model.h"
#include "llmms/llm/synthetic_model.h"
#include "testutil.h"

namespace llmms::core {
namespace {

// A world whose first `num_faulty` models are wrapped in FaultyModel; with
// `with_resilience`, every model additionally gets the ResilientModel
// decorator — the production stack. Keeps handles to the FaultyModels so
// tests can assert the chaos actually fired.
struct ChaosAgentsWorld : eval::World {
  std::vector<llm::QaItem> composites;
  std::vector<std::shared_ptr<llm::FaultyModel>> faulty;
};

ChaosAgentsWorld MakeChaosAgentsWorld(size_t num_faulty,
                                      const llm::FaultConfig& faults,
                                      bool with_resilience = false) {
  std::vector<std::shared_ptr<llm::FaultyModel>> faulty;
  eval::DatasetOptions options;
  options.questions_per_domain = 4;
  auto world = eval::BuildWorld(
      options, llm::DefaultProfiles(),
      [&](const llm::ModelProfile& profile, size_t i,
          const std::shared_ptr<llm::KnowledgeBase>& knowledge) {
        std::shared_ptr<llm::LanguageModel> model =
            std::make_shared<llm::SyntheticModel>(profile, knowledge);
        if (i < num_faulty) {
          llm::FaultConfig fault_config = faults;
          fault_config.seed += i;
          faulty.push_back(
              std::make_shared<llm::FaultyModel>(model, fault_config));
          model = faulty.back();
        }
        if (with_resilience) {
          llm::ResilienceConfig resilience;
          resilience.seed += i;
          model = std::make_shared<llm::ResilientModel>(model, resilience);
        }
        return model;
      });
  if (!world.ok()) std::abort();
  ChaosAgentsWorld chaos{std::move(world).value(), {}, std::move(faulty)};
  chaos.composites = eval::GenerateCompositeDataset(chaos.dataset, 4);
  return chaos;
}

MultiAgentPipeline MakePipeline(ChaosAgentsWorld* world,
                                MultiAgentPipeline::Config config = {}) {
  return MultiAgentPipeline(world->runtime.get(), world->model_names,
                            world->embedder, config);
}

TEST(AgentsChaosTest, ResearcherDyingMidStreamIsSurvivable) {
  // One researcher dies mid-generation on every sub-question; the other
  // two carry the research and the pipeline composes a full answer.
  llm::FaultConfig faults;
  faults.fail_after_tokens = 4;
  auto world = MakeChaosAgentsWorld(/*num_faulty=*/1, faults);
  auto pipeline = MakePipeline(&world);

  auto result = pipeline.Run(world.composites[0].question);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->sub_results.size(), 2u);
  EXPECT_FALSE(result->answer.empty());
  for (const auto& sub : result->sub_results) {
    EXPECT_FALSE(sub.answer.empty());
    // The accepted answer must come from a healthy researcher — a
    // quarantined model's partial output is never selected.
    EXPECT_NE(sub.model, world.model_names[0]);
    EXPECT_GT(sub.tokens, 0u);
  }
}

TEST(AgentsChaosTest, RefusedStartsAreSurvivable) {
  // One researcher refuses every StartGeneration (a crashed backend); it
  // joins each research pass pre-failed and the pipeline still answers.
  llm::FaultConfig faults;
  faults.refuse_start_prob = 1.0;
  auto world = MakeChaosAgentsWorld(/*num_faulty=*/1, faults);
  auto pipeline = MakePipeline(&world);

  auto result = pipeline.Run(world.composites[1].question);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->answer.empty());
  for (const auto& sub : result->sub_results) {
    EXPECT_FALSE(sub.answer.empty());
    EXPECT_NE(sub.model, world.model_names[0]);
  }
  // The chaos actually fired: every start on the faulty model was refused.
  ASSERT_EQ(world.faulty.size(), 1u);
  const auto counters = world.faulty[0]->counters();
  EXPECT_GT(counters.starts_attempted, 0u);
  EXPECT_EQ(counters.starts_refused, counters.starts_attempted);
}

TEST(AgentsChaosTest, AllResearchersDeadIsATypedPipelineError) {
  // Every model in the pool dies mid-generation, so research fails, the
  // MAB retry fails, and the pipeline must surface its typed error — with
  // the sub-question named and the underlying status code preserved — not
  // compose an empty answer.
  llm::FaultConfig faults;
  faults.fail_after_tokens = 3;
  auto world = MakeChaosAgentsWorld(/*num_faulty=*/3, faults);
  auto pipeline = MakePipeline(&world);

  auto result = pipeline.Run(world.composites[2].question);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(
                "multi-agent pipeline failed on sub-question"),
            std::string::npos)
      << result.status().ToString();
}

TEST(AgentsChaosTest, RetryPathRecoversAFailedResearchPass) {
  // The whole pool dies mid-stream *probabilistically*: with transient
  // chunk errors and resilience enabled, the stack absorbs the faults and
  // the pipeline completes as if the pool were healthy.
  llm::FaultConfig faults;
  faults.chunk_error_prob = 0.3;  // transient; retryable by ResilientModel
  auto world =
      MakeChaosAgentsWorld(/*num_faulty=*/3, faults, /*with_resilience=*/true);
  auto pipeline = MakePipeline(&world);

  auto result = pipeline.Run(world.composites[3].question);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->answer.empty());
  for (const auto& sub : result->sub_results) {
    EXPECT_FALSE(sub.answer.empty());
    EXPECT_GT(sub.tokens, 0u);
  }
  // The faults fired and were absorbed below the pipeline.
  size_t injected = 0;
  for (const auto& faulty : world.faulty) {
    injected += faulty->counters().chunk_errors_injected;
  }
  EXPECT_GT(injected, 0u);
}

TEST(AgentsChaosTest, DegradedPoolStaysDeterministic) {
  // Chaos is seeded: the same faulty pool answers the same composite
  // question identically across runs — the property every other chaos
  // assertion in this file quietly relies on.
  llm::FaultConfig faults;
  faults.fail_after_tokens = 4;
  auto world_a = MakeChaosAgentsWorld(/*num_faulty=*/1, faults);
  auto world_b = MakeChaosAgentsWorld(/*num_faulty=*/1, faults);
  auto result_a =
      MakePipeline(&world_a).Run(world_a.composites[0].question);
  auto result_b =
      MakePipeline(&world_b).Run(world_b.composites[0].question);
  ASSERT_TRUE(result_a.ok());
  ASSERT_TRUE(result_b.ok());
  EXPECT_EQ(result_a->answer, result_b->answer);
  EXPECT_EQ(result_a->total_tokens, result_b->total_tokens);
}

}  // namespace
}  // namespace llmms::core
