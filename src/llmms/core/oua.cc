#include "llmms/core/oua.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "llmms/core/run_state.h"

namespace llmms::core {

StatusOr<OrchestrationResult> OuaOrchestrator::Run(
    const std::string& prompt, const EventCallback& callback) {
  if (models_.empty()) {
    return Status::FailedPrecondition("OUA requires at least one model");
  }
  if (config_.token_budget == 0) {
    return Status::InvalidArgument("token_budget must be positive");
  }
  internal::RunState state(name(), models_, prompt, config_, scorer_, callback,
                           internal::RunState::TokenClock::kGenerated);
  LLMMS_RETURN_NOT_OK(state.Start(runtime_));

  std::unordered_map<std::string, size_t> allowance;
  std::unordered_map<std::string, size_t> spent;
  for (const auto& m : models_) {
    allowance[m] = config_.token_budget / models_.size();  // lambda_max / N
    spent[m] = 0;
  }
  // `active`: still generating. Every model not pruned or failed stays a
  // candidate to win, including models that finished naturally.
  std::vector<std::string> active = models_;
  // A pruned or failed model leaves the active set and its unspent
  // allowance goes to the survivors: a dead model must not strand budget.
  auto retire = [&](const std::string& model) {
    const size_t leftover =
        allowance[model] > spent[model] ? allowance[model] - spent[model] : 0;
    active.erase(std::remove(active.begin(), active.end(), model),
                 active.end());
    if (!active.empty() && leftover > 0) {
      const size_t share = leftover / active.size();
      for (const auto& m : active) allowance[m] += share;
    }
  };
  for (const auto& m : models_) {
    if (state.failed(m)) retire(m);  // refused to start
  }

  std::string early_winner;
  while (!active.empty()) {
    LLMMS_RETURN_NOT_OK(state.BeginRound());

    // --- Round-robin chunk generation (Algorithm 1 lines 5-9). ---
    std::vector<std::pair<std::string, size_t>> requests;
    for (const auto& m : active) {
      const size_t remaining = allowance[m] - spent[m];
      if (remaining == 0) continue;
      requests.emplace_back(m, std::min(config_.chunk_tokens, remaining));
    }
    if (requests.empty()) break;  // every active model exhausted its budget
    LLMMS_ASSIGN_OR_RETURN(auto batch, state.PullRound(requests));
    for (const auto& [model, error] : batch.errors) retire(model);
    for (const auto& [model, chunk] : batch.chunks) {
      spent[model] += chunk.num_tokens;
    }
    if (state.stalled()) break;

    // --- Scoring (Algorithm 1 lines 10-15). ---
    const std::vector<std::string> candidates = state.Survivors();
    if (candidates.empty()) break;  // everyone failed: handled below
    LLMMS_ASSIGN_OR_RETURN(const auto scores,
                           state.ScoreRound(candidates, config_.reward_feed));

    // --- Early stop (Algorithm 1 lines 16-19): the best candidate wins now
    // when it leads by the margin and finished with done reason "stop". ---
    size_t best_index = 0;
    double best_score = -std::numeric_limits<double>::infinity();
    double second_best = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (scores[i].combined > best_score) {
        second_best = best_score;
        best_score = scores[i].combined;
        best_index = i;
      } else if (scores[i].combined > second_best) {
        second_best = scores[i].combined;
      }
    }
    if (candidates.size() > 1 &&
        best_score > second_best + config_.early_stop_margin) {
      LLMMS_ASSIGN_OR_RETURN(
          auto stats, state.generation().StatsOf(candidates[best_index]));
      if (stats.finished && stats.stop_reason == llm::StopReason::kStop) {
        early_winner = candidates[best_index];
        state.EarlyStop(early_winner, best_score);
        break;
      }
    }

    // --- Pruning (Algorithm 1 lines 20-23). ---
    if (active.size() > 1 && state.round() >= config_.min_rounds_before_prune) {
      const std::string worst = state.PruneWorst(active, config_.prune_margin);
      if (!worst.empty()) retire(worst);
    }

    // --- Retire models that finished naturally or exhausted their budget;
    // they stay candidates but stop consuming tokens. ---
    std::vector<std::string> still_active;
    for (const auto& m : active) {
      LLMMS_ASSIGN_OR_RETURN(auto stats, state.generation().StatsOf(m));
      if (!stats.finished && spent[m] < allowance[m]) still_active.push_back(m);
    }
    active = std::move(still_active);
  }

  // --- Final selection (Algorithm 1 line 25): the highest last-round score
  // among candidates. Failed models can never win; when the whole pool
  // failed the query fails with the pool's last model's error. ---
  if (state.AllFailed()) {
    return state.AllModelsFailed(state.failure(models_.back()));
  }
  std::string winner = early_winner;
  if (winner.empty()) {
    // Pruned models are out; when every survivor is, any healthy model.
    winner = state.Best(state.Survivors(), [&](const std::string& m) {
      return state.last_combined(m, -std::numeric_limits<double>::infinity());
    }).first;
  }
  std::vector<RoundScore> scores;
  for (const auto& m : models_) {
    const RoundScore* score = state.last_score(m);
    scores.push_back(score != nullptr ? *score : RoundScore());
  }
  return state.Finish(winner, state.last_combined(winner, 0.0), scores);
}

}  // namespace llmms::core
