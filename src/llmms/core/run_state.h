#ifndef LLMMS_CORE_RUN_STATE_H_
#define LLMMS_CORE_RUN_STATE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "llmms/core/orchestrator.h"
#include "llmms/core/reward_feed.h"
#include "llmms/core/scoring.h"
#include "llmms/llm/runtime.h"

namespace llmms::core::internal {

// One query's orchestration, shared by every policy. It owns the pool's
// streams, the quarantine of failed models, the charged-token count, the
// anti-hang guard, the event stream and trace, and the final outcome. A
// policy (OUA, MAB, hybrid, single) keeps only its allocation rule: which
// model gets the next chunk, and when the search ends.
class RunState {
 public:
  // The running total that events report: the tokens this run has charged
  // so far, or the pool's generated total. OUA reports the latter, which
  // already includes the whole round while its chunks are being reported.
  enum class TokenClock { kCharged, kGenerated };

  // `policy` names the orchestrator in errors. Everything passed by
  // reference must outlive the state.
  RunState(std::string policy, std::vector<std::string> models,
           const std::string& prompt, const OrchestratorConfig& config,
           const ResponseScorer& scorer, const EventCallback& callback,
           TokenClock clock = TokenClock::kCharged);

  // Starts every model's stream. Models that refused to start join the run
  // quarantined; the call fails only when none could start.
  Status Start(llm::ModelRuntime* runtime);

  // An expired or cancelled request ends the run with its typed status
  // before more tokens are bought on its behalf.
  Status CheckContext() const;
  void NextRound() { ++round_; }
  // CheckContext, then NextRound.
  Status BeginRound();

  bool failed(const std::string& model) const {
    return failures_.count(model) > 0;
  }
  const Status& failure(const std::string& model) const {
    return failures_.at(model);
  }
  bool AllFailed() const { return failures_.size() == models_.size(); }
  // The typed terminal error for a query where every pool model failed,
  // returned instead of fabricating an answer from a failed model. It keeps
  // `last_error` (by default the most recent failure) for diagnosis.
  Status AllModelsFailed() const { return AllModelsFailed(last_failure_); }
  Status AllModelsFailed(const Status& last_error) const;
  // The final pick: the healthy model of `models` with the highest `value`
  // (the first on ties), and that value. When none scores above -inf, the
  // first healthy model of the pool wins with -inf.
  std::pair<std::string, double> Best(
      const std::vector<std::string>& models,
      const std::function<double(const std::string&)>& value) const;

  // Models neither pruned nor failed, in pool order.
  std::vector<std::string> Survivors() const;

  // One round-robin round (OUA, hybrid screening): the requested chunks are
  // generated concurrently, failed streams are quarantined, and the rest
  // are charged. Returns the round's chunks and errors.
  StatusOr<llm::ParallelGeneration::ChunkBatch> PullRound(
      const std::vector<std::pair<std::string, size_t>>& requests);
  // One chunk from one model (MAB, hybrid allocation) into `chunk`. A
  // failed stream is quarantined and yields false and no chunk; once every
  // model has failed the run ends with AllModelsFailed.
  StatusOr<bool> Pull(const std::string& model, size_t max_tokens,
                      llm::Chunk* chunk);
  // Charges a chunk to the run and emits its kChunk event, preceded by a
  // kHedge event when a hedge race or failover fired while it was in
  // flight (trace detail "primary-won", "backup-won" or "failover").
  void Charge(const std::string& model, const llm::Chunk& chunk);
  // Anti-hang guard: records whether the latest pull or round made
  // progress. PullRound and Pull record it themselves.
  void NoteProgress(bool progressed) {
    stalled_rounds_ = progressed ? 0 : stalled_rounds_ + 1;
  }
  // True once kMaxStalledRounds pulls or rounds in a row made no progress:
  // the pool neither errors nor progresses, and the run closes with what it
  // has.
  bool stalled() const { return stalled_rounds_ >= kMaxStalledRounds; }

  // Scores `models`' current responses as one round, remembers each as the
  // model's last score, emits kScore and publishes each reward to `feed`.
  StatusOr<std::vector<RoundScore>> ScoreRound(
      const std::vector<std::string>& models, RewardFeed* feed);
  // The model's score in the latest round that scored it; null if none did.
  const RoundScore* last_score(const std::string& model) const;
  // last_score's combined score, or `unscored` when no round scored it.
  double last_combined(const std::string& model, double unscored) const {
    const RoundScore* score = last_score(model);
    return score != nullptr ? score->combined : unscored;
  }
  // The round-scoring rule shared by OUA and hybrid screening (Algorithm 1
  // lines 20-23): the lowest-scoring of `models` is pruned when the
  // second-lowest leads it by more than `margin`. Returns the pruned model,
  // or empty.
  std::string PruneWorst(const std::vector<std::string>& models,
                         double margin);
  // Every pool model's current response scored together, for reporting.
  StatusOr<std::vector<RoundScore>> FinalScores() const;
  // The reward of one pull (Algorithm 2 line 9): `model`'s response scored
  // against the query and the other `arms`' responses. Emits kScore and
  // publishes the reward to `feed`.
  StatusOr<double> ScorePull(const std::string& model,
                             const std::vector<std::string>& arms,
                             RewardFeed* feed);

  // Emits kEarlyStop and marks the result early-stopped.
  void EarlyStop(const std::string& model, double score);

  // Assembles the result: `winner`'s response as the answer, each pool
  // model's outcome with `scores` (one per model, in pool order), then
  // emits kFinal with `final_score`.
  StatusOr<OrchestrationResult> Finish(const std::string& winner,
                                       double final_score,
                                       const std::vector<RoundScore>& scores);

  llm::ParallelGeneration& generation() { return *generation_; }
  size_t round() const { return round_; }
  size_t charged() const { return charged_; }
  size_t budget() const { return config_.token_budget; }

 private:
  // Marks `model` failed, keeps `error` as its failure reason, and emits
  // the kFailure event. A failed model is never pulled again or selected.
  void Quarantine(const std::string& model, const Status& error);
  bool pruned(const std::string& model) const {
    return pruned_.count(model) > 0;
  }
  // Emits an event at the current round and token count.
  void Emit(EventType type, const std::string& model, double score,
            const std::string& text = "");
  // The current responses of `models`, in order.
  StatusOr<std::vector<std::string>> Texts(
      const std::vector<std::string>& models) const;
  // Emits kScore and publishes the reward to `feed` (when set).
  void Score(const std::string& model, double reward, RewardFeed* feed);
  size_t EventTokens() const {
    return clock_ == TokenClock::kGenerated ? generation_->TotalTokens()
                                            : charged_;
  }

  std::string policy_;
  std::vector<std::string> models_;
  const std::string& prompt_;
  const OrchestratorConfig& config_;
  const ResponseScorer& scorer_;
  const EventCallback& callback_;
  TokenClock clock_;

  std::unique_ptr<llm::ParallelGeneration> generation_;
  OrchestrationResult result_;
  size_t round_ = 0;
  size_t charged_ = 0;
  size_t stalled_rounds_ = 0;
  std::unordered_map<std::string, Status> failures_;
  Status last_failure_;
  std::unordered_set<std::string> pruned_;
  std::unordered_map<std::string, RoundScore> last_scores_;
};

// One UCB1 arm (Algorithm 2).
struct Arm {
  double reward_sum = 0.0;
  size_t pulls = 0;
  // Feed-prior virtual evidence (Options::feed_prior_weight): folded into
  // the value estimate and the UCB pull count as virtual pulls.
  double prior_sum = 0.0;
  double prior_weight = 0.0;
  bool finished = false;  // finished, failed, or never startable
  llm::StopReason stop_reason = llm::StopReason::kLength;

  double EffectivePulls() const {
    return static_cast<double>(pulls) + prior_weight;
  }
  double MeanReward() const {
    const double effective = EffectivePulls();
    return effective > 0.0 ? (reward_sum + prior_sum) / effective : 0.0;
  }
};

// The UCB1 allocation shared by MAB and hybrid's second phase: one arm per
// model, pulled one chunk at a time by
//
//   UCB_i = mean_reward_i + gamma * sqrt(2 ln(totalPulls) / pulls_i)
//
// with gamma = gamma0 * (1 - charged / budget) when decaying.
class Bandit {
 public:
  struct Options {
    size_t chunk_tokens = 16;  // tokens per pull
    double gamma0 = 0.3;
    bool decay_gamma = true;
    RewardFeed* feed = nullptr;      // receives every pull's reward
    // Each arm starts with the feed's current estimate for its model as
    // min(feed_prior_weight, retained evidence) virtual pulls, so a model
    // the feed has all but forgotten — evicted window, decayed weight —
    // contributes almost nothing, which is what lets a pool re-rank after a
    // competence drift. No prior when the feed is null or this is 0.
    double feed_prior_weight = 0.0;
  };

  // Arms for `models`, each seeded with its feed prior.
  Bandit(RunState* state, std::vector<std::string> models,
         const Options& options);

  // Pulls (Algorithm 2 lines 3-10) until the budget is spent, every arm
  // finished, the pool stalled, or `stop` (optional, asked after each
  // scored pull) returns true. Arms start finished when their stream is.
  Status Run(const std::function<bool()>& stop);

  // The arm of `model`; null when it is not one of the arms.
  const Arm* Find(const std::string& model) const;
  const std::vector<std::string>& models() const { return models_; }
  const std::vector<Arm>& arms() const { return arms_; }
  // The exploration coefficient at the run's current charged count.
  double Gamma() const;
  // The optimistic bonus gamma * sqrt(2 ln(totalPulls) / pulls).
  double Bonus(const Arm& arm, double gamma) const;

 private:
  // UCB1 cold start — the first live arm with no evidence, real or prior —
  // then the live arm with the highest upper bound; models().size() when
  // every arm finished.
  size_t Select(double gamma) const;

  RunState* state_;
  std::vector<std::string> models_;
  std::vector<Arm> arms_;
  Options options_;
  size_t total_pulls_ = 0;
};

}  // namespace llmms::core::internal

#endif  // LLMMS_CORE_RUN_STATE_H_
