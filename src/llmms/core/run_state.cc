#include "llmms/core/run_state.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace llmms::core::internal {

RunState::RunState(std::string policy, std::vector<std::string> models,
                   const std::string& prompt,
                   const OrchestratorConfig& config,
                   const ResponseScorer& scorer, const EventCallback& callback,
                   TokenClock clock)
    : policy_(std::move(policy)),
      models_(std::move(models)),
      prompt_(prompt),
      config_(config),
      scorer_(scorer),
      callback_(callback),
      clock_(clock) {}

Status RunState::Start(llm::ModelRuntime* runtime) {
  llm::GenerationRequest request;
  request.prompt = prompt_;
  request.max_tokens = 0;  // the policy enforces the budget itself
  request.context = config_.context;
  request.token_budget = config_.token_budget;
  request.scheduler_weight = config_.scheduler_weight;
  LLMMS_ASSIGN_OR_RETURN(generation_,
                         runtime->StartGeneration(models_, request));
  for (const auto& m : models_) {
    LLMMS_ASSIGN_OR_RETURN(auto stats, generation_->StatsOf(m));
    if (stats.failed) Quarantine(m, Status::Internal(stats.error));
  }
  return Status::OK();
}

Status RunState::CheckContext() const {
  return config_.context != nullptr ? config_.context->Check() : Status::OK();
}

Status RunState::BeginRound() {
  LLMMS_RETURN_NOT_OK(CheckContext());
  NextRound();
  return Status::OK();
}

void RunState::Quarantine(const std::string& model, const Status& error) {
  failures_[model] = error;
  last_failure_ = error;
  Emit(EventType::kFailure, model, 0.0, error.message());
}

Status RunState::AllModelsFailed(const Status& last_error) const {
  // A pool that "failed" because the request's deadline expired (or the
  // client went away) is not an internal fault: keep the typed code so the
  // HTTP layer can answer 504 instead of 500.
  const StatusCode code =
      last_error.IsDeadlineExceeded() || last_error.IsCancelled()
          ? last_error.code()
          : StatusCode::kInternal;
  return Status(code, policy_ + ": all " + std::to_string(models_.size()) +
                          " models failed; last error: " +
                          last_error.ToString());
}

std::pair<std::string, double> RunState::Best(
    const std::vector<std::string>& models,
    const std::function<double(const std::string&)>& value) const {
  std::string winner;
  double best = -std::numeric_limits<double>::infinity();
  for (const auto& m : models) {
    if (failed(m)) continue;
    const double v = value(m);
    if (v > best) {
      best = v;
      winner = m;
    }
  }
  for (size_t i = 0; winner.empty() && i < models_.size(); ++i) {
    if (!failed(models_[i])) winner = models_[i];
  }
  return {winner, best};
}

std::vector<std::string> RunState::Survivors() const {
  std::vector<std::string> out;
  for (const auto& m : models_) {
    if (!pruned(m) && !failed(m)) out.push_back(m);
  }
  return out;
}

StatusOr<llm::ParallelGeneration::ChunkBatch> RunState::PullRound(
    const std::vector<std::pair<std::string, size_t>>& requests) {
  LLMMS_ASSIGN_OR_RETURN(auto batch, generation_->NextChunks(requests));
  for (const auto& [model, error] : batch.errors) Quarantine(model, error);
  size_t round_tokens = 0;
  for (const auto& [model, chunk] : batch.chunks) {
    Charge(model, chunk);
    round_tokens += chunk.num_tokens;
  }
  NoteProgress(round_tokens > 0);
  return batch;
}

StatusOr<bool> RunState::Pull(const std::string& model, size_t max_tokens,
                              llm::Chunk* chunk) {
  auto chunk_or = generation_->NextChunk(model, max_tokens);
  if (!chunk_or.ok()) {
    Quarantine(model, chunk_or.status());
    if (AllFailed()) return AllModelsFailed();
    return false;
  }
  *chunk = std::move(chunk_or).value();
  Charge(model, *chunk);
  NoteProgress(chunk->num_tokens > 0 || chunk->done);
  return true;
}

void RunState::Charge(const std::string& model, const llm::Chunk& chunk) {
  charged_ += chunk.num_tokens;
  if (chunk.hedge != llm::HedgeOutcome::kNone) {
    Emit(EventType::kHedge, model, 0.0, llm::HedgeOutcomeToString(chunk.hedge));
  }
  if (chunk.num_tokens > 0 && callback_) {
    Emit(EventType::kChunk, model, 0.0, chunk.text);
  }
}

StatusOr<std::vector<std::string>> RunState::Texts(
    const std::vector<std::string>& models) const {
  std::vector<std::string> texts;
  texts.reserve(models.size());
  for (const auto& m : models) {
    LLMMS_ASSIGN_OR_RETURN(auto text, generation_->TextOf(m));
    texts.push_back(std::move(text));
  }
  return texts;
}

void RunState::Score(const std::string& model, double reward,
                     RewardFeed* feed) {
  Emit(EventType::kScore, model, reward);
  PublishReward(feed, model, reward, round_, EventTokens(), callback_,
                &result_.trace);
}

StatusOr<std::vector<RoundScore>> RunState::ScoreRound(
    const std::vector<std::string>& models, RewardFeed* feed) {
  LLMMS_ASSIGN_OR_RETURN(const auto responses, Texts(models));
  auto scores = scorer_.ScoreRound(prompt_, responses);
  for (size_t i = 0; i < models.size(); ++i) {
    last_scores_[models[i]] = scores[i];
    Score(models[i], scores[i].combined, feed);
  }
  return scores;
}

const RoundScore* RunState::last_score(const std::string& model) const {
  auto it = last_scores_.find(model);
  return it != last_scores_.end() ? &it->second : nullptr;
}

std::string RunState::PruneWorst(const std::vector<std::string>& models,
                                 double margin) {
  std::string worst;
  double worst_score = std::numeric_limits<double>::infinity();
  double second_worst = std::numeric_limits<double>::infinity();
  for (const auto& m : models) {
    const double s = last_combined(m, 0.0);
    if (s < worst_score) {
      second_worst = worst_score;
      worst_score = s;
      worst = m;
    } else if (s < second_worst) {
      second_worst = s;
    }
  }
  if (worst.empty() || !(second_worst - worst_score > margin)) return "";
  pruned_.insert(worst);
  Emit(EventType::kPrune, worst, worst_score);
  return worst;
}

StatusOr<std::vector<RoundScore>> RunState::FinalScores() const {
  LLMMS_ASSIGN_OR_RETURN(const auto responses, Texts(models_));
  return scorer_.ScoreRound(prompt_, responses);
}

StatusOr<double> RunState::ScorePull(const std::string& model,
                                     const std::vector<std::string>& arms,
                                     RewardFeed* feed) {
  LLMMS_ASSIGN_OR_RETURN(auto response, generation_->TextOf(model));
  std::vector<std::string> others;
  for (const auto& m : arms) {
    if (m == model) continue;
    LLMMS_ASSIGN_OR_RETURN(auto text, generation_->TextOf(m));
    others.push_back(std::move(text));
  }
  const double reward = scorer_.ScoreOne(prompt_, response, others);
  Score(model, reward, feed);
  return reward;
}

void RunState::Emit(EventType type, const std::string& model, double score,
                    const std::string& text) {
  OrchestratorEvent event;
  event.type = type;
  event.model = model;
  event.text = text;
  event.score = score;
  event.round = round_;
  event.total_tokens = EventTokens();
  internal::Emit(event, callback_, &result_.trace);
}

void RunState::EarlyStop(const std::string& model, double score) {
  result_.early_stopped = true;
  Emit(EventType::kEarlyStop, model, score);
}

StatusOr<OrchestrationResult> RunState::Finish(
    const std::string& winner, double final_score,
    const std::vector<RoundScore>& scores) {
  result_.best_model = winner;
  LLMMS_ASSIGN_OR_RETURN(result_.answer, generation_->TextOf(winner));
  result_.total_tokens = generation_->TotalTokens();
  result_.rounds = round_;
  result_.simulated_seconds = generation_->SimulatedWallSeconds();
  for (size_t i = 0; i < models_.size(); ++i) {
    const auto& m = models_[i];
    ModelOutcome outcome;
    LLMMS_ASSIGN_OR_RETURN(outcome.response, generation_->TextOf(m));
    LLMMS_ASSIGN_OR_RETURN(auto stats, generation_->StatsOf(m));
    outcome.tokens = stats.tokens;
    outcome.finished = stats.finished;
    outcome.stop_reason = stats.stop_reason;
    outcome.pruned = pruned(m);
    outcome.failed = failed(m);
    if (outcome.failed) outcome.error = failure(m).message();
    outcome.final_score = scores[i].combined;
    outcome.query_similarity = scores[i].query_similarity;
    outcome.inter_similarity = scores[i].inter_similarity;
    result_.per_model[m] = std::move(outcome);
  }
  result_.answer_tokens = result_.per_model[winner].tokens;
  // Every generated token was charged, so kFinal reports the pool total.
  Emit(EventType::kFinal, winner, final_score, result_.answer);
  return std::move(result_);
}

Bandit::Bandit(RunState* state, std::vector<std::string> models,
               const Options& options)
    : state_(state),
      models_(std::move(models)),
      arms_(models_.size()),
      options_(options) {
  if (options_.feed == nullptr || options_.feed_prior_weight <= 0.0) return;
  for (size_t i = 0; i < models_.size(); ++i) {
    const RewardFeed::Estimate estimate = options_.feed->EstimateFor(models_[i]);
    const double weight = std::min(options_.feed_prior_weight, estimate.weight);
    if (weight <= 0.0) continue;
    arms_[i].prior_weight = weight;
    arms_[i].prior_sum = estimate.mean * weight;
  }
}

const Arm* Bandit::Find(const std::string& model) const {
  for (size_t i = 0; i < models_.size(); ++i) {
    if (models_[i] == model) return &arms_[i];
  }
  return nullptr;
}

double Bandit::Gamma() const {
  if (!options_.decay_gamma) return options_.gamma0;
  const double remaining_fraction =
      1.0 - static_cast<double>(state_->charged()) /
                static_cast<double>(state_->budget());
  return options_.gamma0 * std::max(0.0, remaining_fraction);
}

double Bandit::Bonus(const Arm& arm, double gamma) const {
  return gamma *
         std::sqrt(2.0 *
                   std::log(static_cast<double>(
                       std::max<size_t>(total_pulls_, 1))) /
                   arm.EffectivePulls());
}

size_t Bandit::Select(double gamma) const {
  for (size_t i = 0; i < arms_.size(); ++i) {
    if (!arms_[i].finished && arms_[i].EffectivePulls() <= 0.0) return i;
  }
  size_t chosen = models_.size();
  double best_ucb = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < arms_.size(); ++i) {
    if (arms_[i].finished) continue;
    const double ucb = arms_[i].MeanReward() + Bonus(arms_[i], gamma);
    if (ucb > best_ucb) {
      best_ucb = ucb;
      chosen = i;
    }
  }
  return chosen;
}

Status Bandit::Run(const std::function<bool()>& stop) {
  for (size_t i = 0; i < models_.size(); ++i) {
    LLMMS_ASSIGN_OR_RETURN(auto stats,
                           state_->generation().StatsOf(models_[i]));
    arms_[i].finished = stats.finished;
  }
  while (state_->charged() < state_->budget()) {
    LLMMS_RETURN_NOT_OK(state_->BeginRound());
    const size_t chosen = Select(Gamma());
    if (chosen == models_.size()) break;  // every arm finished
    const std::string& model = models_[chosen];

    // Pull (line 7): a failing pull quarantines the arm and the others
    // play on.
    const size_t ask = std::min(options_.chunk_tokens,
                                state_->budget() - state_->charged());
    llm::Chunk chunk;
    LLMMS_ASSIGN_OR_RETURN(const bool pulled,
                           state_->Pull(model, ask, &chunk));
    Arm& arm = arms_[chosen];
    if (!pulled) {
      arm.finished = true;
      continue;
    }
    if (state_->stalled()) break;

    // Reward (lines 8-10): the arm's accumulated response against the
    // query and the other arms' current responses.
    LLMMS_ASSIGN_OR_RETURN(const double reward,
                           state_->ScorePull(model, models_, options_.feed));
    arm.reward_sum += reward;
    ++arm.pulls;
    ++total_pulls_;
    if (chunk.done) {
      arm.finished = true;
      arm.stop_reason = chunk.stop_reason;
    }
    if (stop && stop()) break;
  }
  return Status::OK();
}

}  // namespace llmms::core::internal
