#include "llmms/core/mab.h"

#include <limits>

#include "llmms/core/run_state.h"

namespace llmms::core {

StatusOr<OrchestrationResult> MabOrchestrator::Run(
    const std::string& prompt, const EventCallback& callback) {
  if (models_.empty()) {
    return Status::FailedPrecondition("MAB requires at least one model");
  }
  if (config_.token_budget == 0 || config_.chunk_tokens == 0) {
    return Status::InvalidArgument("token_budget and chunk_tokens must be > 0");
  }
  internal::RunState state(name(), models_, prompt, config_, scorer_,
                           callback);
  LLMMS_RETURN_NOT_OK(state.Start(runtime_));

  // Every model is an arm, failed ones included: a pull's reward is scored
  // against all the other models' responses.
  internal::Bandit bandit(&state, models_,
                          {.chunk_tokens = config_.chunk_tokens,
                           .gamma0 = config_.gamma0,
                           .decay_gamma = config_.decay_gamma,
                           .feed = config_.reward_feed,
                           .feed_prior_weight = config_.feed_prior_weight});

  // Termination (Algorithm 2 lines 12-14): stop early when a finished
  // arm's mean reward dominates the optimistic bound of every live arm.
  auto dominated = [&]() {
    const auto& arms = bandit.arms();
    size_t best = arms.size();
    double best_mean = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < arms.size(); ++i) {
      if (arms[i].finished && arms[i].pulls > 0 &&
          arms[i].stop_reason == llm::StopReason::kStop &&
          arms[i].MeanReward() > best_mean) {
        best_mean = arms[i].MeanReward();
        best = i;
      }
    }
    if (best == arms.size()) return false;
    for (const auto& arm : arms) {
      if (arm.finished) continue;
      if (arm.EffectivePulls() <= 0.0 ||
          arm.MeanReward() + bandit.Bonus(arm, bandit.Gamma()) >= best_mean) {
        return false;
      }
    }
    state.EarlyStop(models_[best], best_mean);
    return true;
  };
  LLMMS_RETURN_NOT_OK(bandit.Run(dominated));

  // --- Final selection (line 16): the arm with the highest mean reward
  // across its pulls — the bandit's estimate of the arm's value, averaged
  // over many partial-response observations. Failed arms never win; a
  // fully failed pool is a typed error. ---
  if (state.AllFailed()) return state.AllModelsFailed();
  LLMMS_ASSIGN_OR_RETURN(auto scores, state.FinalScores());
  const auto [winner, best_reward] =
      state.Best(models_, [&](const std::string& m) {
        const internal::Arm* arm = bandit.Find(m);
        return arm->pulls > 0 ? arm->MeanReward()
                              : -std::numeric_limits<double>::infinity();
      });
  for (size_t i = 0; i < models_.size(); ++i) {
    scores[i].combined = bandit.arms()[i].MeanReward();
  }
  return state.Finish(winner, best_reward, scores);
}

}  // namespace llmms::core
