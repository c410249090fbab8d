// Cross-strategy orchestration invariants, swept over (algorithm x budget x
// chunk size) with parameterized gtest: every strategy must respect the
// budget, return the winner's own complete-at-selection response, never
// return a pruned winner, and be deterministic.

#include <gtest/gtest.h>

#include "llmms/core/hybrid.h"
#include "llmms/core/mab.h"
#include "llmms/core/oua.h"
#include "llmms/core/single.h"
#include "testutil.h"

namespace llmms::core {
namespace {

enum class Strategy { kOua, kMab, kHybrid, kSingle };

struct SweepParams {
  Strategy strategy;
  size_t budget;
  size_t chunk;
};

std::string ParamName(const ::testing::TestParamInfo<SweepParams>& info) {
  const char* names[] = {"Oua", "Mab", "Hybrid", "Single"};
  return std::string(names[static_cast<int>(info.param.strategy)]) + "_b" +
         std::to_string(info.param.budget) + "_c" +
         std::to_string(info.param.chunk);
}

class OrchestratorSweepTest : public ::testing::TestWithParam<SweepParams> {
 protected:
  static void SetUpTestSuite() {
    world_ = new testutil::World(testutil::MakeWorld(3));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  std::unique_ptr<Orchestrator> MakeOrchestrator() {
    const auto params = GetParam();
    switch (params.strategy) {
      case Strategy::kOua: {
        OuaOrchestrator::Config config;
        config.token_budget = params.budget;
        config.chunk_tokens = params.chunk;
        return std::make_unique<OuaOrchestrator>(
            world_->runtime.get(), world_->model_names, world_->embedder,
            config);
      }
      case Strategy::kMab: {
        MabOrchestrator::Config config;
        config.token_budget = params.budget;
        config.chunk_tokens = params.chunk;
        return std::make_unique<MabOrchestrator>(
            world_->runtime.get(), world_->model_names, world_->embedder,
            config);
      }
      case Strategy::kHybrid: {
        HybridOrchestrator::Config config;
        config.token_budget = params.budget;
        config.chunk_tokens = params.chunk;
        config.mab_chunk_tokens = params.chunk * 2;
        return std::make_unique<HybridOrchestrator>(
            world_->runtime.get(), world_->model_names, world_->embedder,
            config);
      }
      case Strategy::kSingle: {
        SingleModelOrchestrator::Config config;
        config.token_budget = params.budget;
        config.chunk_tokens = params.chunk;
        return std::make_unique<SingleModelOrchestrator>(
            world_->runtime.get(), world_->model_names[0], world_->embedder,
            config);
      }
    }
    return nullptr;
  }

  static testutil::World* world_;
};

testutil::World* OrchestratorSweepTest::world_ = nullptr;

TEST_P(OrchestratorSweepTest, CoreInvariantsHoldOnEveryQuestion) {
  auto orchestrator = MakeOrchestrator();
  for (size_t i = 0; i < 6 && i < world_->dataset.size(); ++i) {
    auto result = orchestrator->Run(world_->dataset[i].question);
    ASSERT_TRUE(result.ok());
    // 1. Budget is a hard cap on total tokens across all models.
    EXPECT_LE(result->total_tokens, GetParam().budget);
    // 2. Some answer is always produced (possibly empty only if the budget
    //    couldn't buy a single token for the winner).
    if (result->total_tokens >= world_->model_names.size()) {
      EXPECT_FALSE(result->answer.empty());
    }
    // 3. The winner exists in per_model, is not pruned, and the returned
    //    answer is exactly its response.
    ASSERT_TRUE(result->per_model.count(result->best_model) > 0);
    const auto& winner = result->per_model[result->best_model];
    EXPECT_FALSE(winner.pruned);
    EXPECT_EQ(result->answer, winner.response);
    EXPECT_EQ(result->answer_tokens, winner.tokens);
    // 4. Per-model token accounting sums to the total.
    size_t sum = 0;
    for (const auto& [model, outcome] : result->per_model) {
      sum += outcome.tokens;
    }
    EXPECT_EQ(sum, result->total_tokens);
    // 5. Trace ends with the final decision.
    ASSERT_FALSE(result->trace.empty());
    EXPECT_EQ(result->trace.back().action, "final");
    EXPECT_EQ(result->trace.back().model, result->best_model);
  }
}

TEST_P(OrchestratorSweepTest, DeterministicAcrossRepeats) {
  auto orchestrator = MakeOrchestrator();
  const auto& question = world_->dataset[1].question;
  auto a = orchestrator->Run(question);
  auto b = orchestrator->Run(question);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->best_model, b->best_model);
  EXPECT_EQ(a->answer, b->answer);
  EXPECT_EQ(a->total_tokens, b->total_tokens);
  EXPECT_EQ(a->rounds, b->rounds);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OrchestratorSweepTest,
    ::testing::Values(
        SweepParams{Strategy::kOua, 64, 4}, SweepParams{Strategy::kOua, 256, 8},
        SweepParams{Strategy::kOua, 2048, 16},
        SweepParams{Strategy::kMab, 64, 4}, SweepParams{Strategy::kMab, 256, 8},
        SweepParams{Strategy::kMab, 2048, 16},
        SweepParams{Strategy::kHybrid, 64, 4},
        SweepParams{Strategy::kHybrid, 32, 8},
        SweepParams{Strategy::kHybrid, 256, 8},
        SweepParams{Strategy::kHybrid, 2048, 16},
        SweepParams{Strategy::kSingle, 64, 4},
        SweepParams{Strategy::kSingle, 256, 8},
        SweepParams{Strategy::kSingle, 2048, 16}),
    ParamName);

}  // namespace
}  // namespace llmms::core
