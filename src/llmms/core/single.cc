#include "llmms/core/single.h"

#include <algorithm>

#include "llmms/core/run_state.h"

namespace llmms::core {
namespace {

// With a single model there is nobody to fail over to: a mid-stream error
// is the query's outcome, surfaced as a typed Status naming the model and
// the round so callers (and the API error payload) can say *what* died and
// *when* — not just bubble a raw stream error.
Status SingleModelFailure(const std::string& model, const Status& error,
                          size_t round) {
  return Status(error.code(), "single-model orchestration failed: model '" +
                                  model + "' failed in round " +
                                  std::to_string(round) + ": " +
                                  error.message());
}

}  // namespace

StatusOr<OrchestrationResult> SingleModelOrchestrator::Run(
    const std::string& prompt, const EventCallback& callback) {
  if (config_.token_budget == 0) {
    return Status::InvalidArgument("token_budget must be positive");
  }
  const std::string& model = models_[0];
  internal::RunState state(name(), models_, prompt, config_, scorer_,
                           callback);
  // A refused start fails the whole runtime call (its "no model could start
  // generation" error): the pool is this one model.
  LLMMS_RETURN_NOT_OK(state.Start(runtime_));

  for (;;) {
    LLMMS_RETURN_NOT_OK(state.CheckContext());
    LLMMS_ASSIGN_OR_RETURN(auto stats, state.generation().StatsOf(model));
    if (stats.finished || state.charged() >= config_.token_budget) break;
    state.NextRound();
    const size_t ask = std::min(config_.chunk_tokens,
                                config_.token_budget - state.charged());
    auto chunk_or = state.generation().NextChunk(model, ask);
    if (!chunk_or.ok()) {
      // Not a quarantine: the run ends here, so the event goes untraced and
      // carries no token count.
      if (callback) {
        OrchestratorEvent event;
        event.type = EventType::kFailure;
        event.model = model;
        event.text = chunk_or.status().message();
        event.round = state.round();
        callback(event);
      }
      return SingleModelFailure(model, chunk_or.status(), state.round());
    }
    state.Charge(model, *chunk_or);
    state.NoteProgress(chunk_or->num_tokens > 0 || chunk_or->done);
    if (state.stalled() || chunk_or->done) break;
  }

  LLMMS_ASSIGN_OR_RETURN(const auto scores, state.FinalScores());
  return state.Finish(model, scores[0].combined, scores);
}

}  // namespace llmms::core
