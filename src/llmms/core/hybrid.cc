#include "llmms/core/hybrid.h"

#include <algorithm>
#include <limits>

#include "llmms/core/run_state.h"

namespace llmms::core {

StatusOr<OrchestrationResult> HybridOrchestrator::Run(
    const std::string& prompt, const EventCallback& callback) {
  if (models_.empty()) {
    return Status::FailedPrecondition("hybrid requires at least one model");
  }
  if (config_.token_budget == 0 || config_.chunk_tokens == 0 ||
      config_.mab_chunk_tokens == 0) {
    return Status::InvalidArgument("budgets and chunk sizes must be > 0");
  }
  internal::RunState state(name(), models_, prompt, config_, scorer_,
                           callback);
  LLMMS_RETURN_NOT_OK(state.Start(runtime_));

  // ---------------- Phase 1: OUA-style round-robin screening. ----------------
  // The budget is shared, and one round never asks for more of it than is
  // left. There is no early stop; pruning never goes below min_survivors.
  for (size_t screening = 0; screening < config_.screening_rounds; ++screening) {
    LLMMS_RETURN_NOT_OK(state.BeginRound());
    size_t remaining = config_.token_budget > state.charged()
                           ? config_.token_budget - state.charged()
                           : 0;
    std::vector<std::pair<std::string, size_t>> requests;
    for (const auto& m : state.Survivors()) {
      LLMMS_ASSIGN_OR_RETURN(auto stats, state.generation().StatsOf(m));
      if (stats.finished) continue;
      if (remaining == 0) break;
      const size_t ask = std::min(config_.chunk_tokens, remaining);
      remaining -= ask;
      requests.emplace_back(m, ask);
    }
    if (!requests.empty()) {
      LLMMS_RETURN_NOT_OK(state.PullRound(requests).status());
      if (state.stalled()) break;
    }

    const auto active = state.Survivors();
    if (active.empty()) break;  // everyone failed: handled after phase 2
    LLMMS_RETURN_NOT_OK(
        state.ScoreRound(active, config_.reward_feed).status());
    if (active.size() > config_.min_survivors) {
      state.PruneWorst(active, config_.prune_margin);
    }
  }

  // ---------------- Phase 2: UCB1 allocation among the survivors. -------------
  // A pull is scored against the other contenders only, and there is no
  // dominance early stop.
  internal::Bandit bandit(&state, state.Survivors(),
                          {.chunk_tokens = config_.mab_chunk_tokens,
                           .gamma0 = config_.gamma0,
                           .feed = config_.reward_feed,
                           .feed_prior_weight = config_.feed_prior_weight});
  LLMMS_RETURN_NOT_OK(bandit.Run(nullptr));

  // ---------------- Final selection. Failed models never win; a fully
  // failed pool is a typed error. ----------------
  if (state.AllFailed()) return state.AllModelsFailed();
  // Mean reward when the arm was pulled in phase 2; the last screening
  // score otherwise (arms that finished during screening, pruned models).
  auto value = [&](const std::string& m) {
    const internal::Arm* arm = bandit.Find(m);
    return arm != nullptr && arm->pulls > 0 ? arm->MeanReward()
                                            : state.last_combined(m, 0.0);
  };
  // When every contender failed mid-phase-2, any healthy model wins
  // (possibly one pruned during screening).
  const auto [winner, best] = state.Best(bandit.models(), value);
  LLMMS_ASSIGN_OR_RETURN(auto scores, state.FinalScores());
  for (size_t i = 0; i < models_.size(); ++i) {
    scores[i].combined = value(models_[i]);
  }
  return state.Finish(winner, best, scores);
}

}  // namespace llmms::core
