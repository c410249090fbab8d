#include "llmms/llm/synthetic_model.h"

#include <algorithm>
#include <cmath>

#include "llmms/common/rng.h"

namespace llmms::llm {
namespace {

// Hedging preambles (verbosity-gated), as word lists to keep token
// accounting exact.
const std::vector<std::vector<std::string>>& HedgePhrases() {
  static const auto* kPhrases = new std::vector<std::vector<std::string>>{
      {"let", "me", "think", "about", "this", "question", "carefully"},
      {"that", "is", "an", "interesting", "question"},
      {"based", "on", "my", "knowledge"},
      {"to", "answer", "this", "properly"},
      {"considering", "the", "available", "information"},
      {"this", "is", "a", "commonly", "asked", "question"},
  };
  return *kPhrases;
}

const std::vector<std::vector<std::string>>& AnswerTemplates() {
  // %A marks where the answer words are spliced in.
  static const auto* kTemplates = new std::vector<std::vector<std::string>>{
      {"%A"},
      {"the", "answer", "is", "%A"},
      {"in", "short", "%A"},
      {"simply", "put", "%A"},
  };
  return *kTemplates;
}

const std::vector<std::string>& FillerWords() {
  static const auto* kWords = new std::vector<std::string>{
      "generally", "overall",  "in",       "practice", "many",
      "people",    "consider", "this",     "topic",    "quite",
      "important", "to",       "understand", "clearly", "indeed",
      "often",     "commonly", "known",    "widely",   "discussed",
      "because",   "it",       "relates",  "closely",  "with",
      "several",   "other",    "ideas",    "and",      "concepts",
  };
  return *kWords;
}

const std::vector<std::string>& UnknownWords() {
  static const auto* kWords = new std::vector<std::string>{
      "i",      "am",    "not",     "entirely", "sure", "about",
      "this",   "one",   "it",      "is",       "hard", "to",
      "say",    "with",  "certainty", "without", "more", "context",
  };
  return *kWords;
}

void AppendPhrase(const std::vector<std::string>& phrase,
                  std::vector<std::string>* out) {
  out->insert(out->end(), phrase.begin(), phrase.end());
}

// The stream over a pre-planned word sequence.
class SyntheticStream final : public GenerationStream {
 public:
  SyntheticStream(std::vector<std::string> words, StopReason natural_end,
                  size_t max_tokens)
      : words_(std::move(words)),
        natural_end_(natural_end),
        max_tokens_(max_tokens) {}

  StatusOr<Chunk> NextChunk(size_t max_tokens) override {
    if (max_tokens == 0) {
      return Status::InvalidArgument("NextChunk requires max_tokens > 0");
    }
    Chunk chunk;
    if (finished_) {
      chunk.done = true;
      chunk.stop_reason = stop_reason_;
      return chunk;
    }
    size_t budget = max_tokens;
    if (max_tokens_ > 0) {
      budget = std::min(budget, max_tokens_ - emitted_);
    }
    const size_t available = words_.size() - position_;
    const size_t n = std::min(budget, available);
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) chunk.text += ' ';
      chunk.text += words_[position_ + i];
    }
    position_ += n;
    emitted_ += n;
    chunk.num_tokens = n;
    if (!chunk.text.empty()) {
      if (!text_.empty()) text_ += ' ';
      text_ += chunk.text;
    }

    if (position_ >= words_.size()) {
      finished_ = true;
      stop_reason_ = natural_end_;
    } else if (max_tokens_ > 0 && emitted_ >= max_tokens_) {
      finished_ = true;
      stop_reason_ = StopReason::kLength;
    }
    chunk.done = finished_;
    chunk.stop_reason = finished_ ? stop_reason_ : StopReason::kLength;
    return chunk;
  }

  const std::string& text() const override { return text_; }
  size_t tokens_generated() const override { return emitted_; }
  bool finished() const override { return finished_; }
  StopReason stop_reason() const override { return stop_reason_; }

 private:
  std::vector<std::string> words_;
  StopReason natural_end_;
  size_t max_tokens_;
  size_t position_ = 0;
  size_t emitted_ = 0;
  bool finished_ = false;
  StopReason stop_reason_ = StopReason::kLength;
  std::string text_;
};

}  // namespace

SyntheticModel::SyntheticModel(ModelProfile profile,
                               std::shared_ptr<const KnowledgeBase> knowledge)
    : profile_(std::move(profile)), knowledge_(std::move(knowledge)) {}

std::shared_ptr<const KnowledgeBase::Resolution> SyntheticModel::Resolve(
    const std::string& prompt) const {
  if (knowledge_ != nullptr) return knowledge_->Resolve(prompt);
  auto unmatched = std::make_shared<KnowledgeBase::Resolution>();
  unmatched->prompt_hash = HashBytes(prompt.data(), prompt.size());
  return unmatched;
}

Rng SyntheticModel::PlanRng(const KnowledgeBase::Resolution& resolution,
                            uint64_t request_seed) const {
  return Rng(profile_.seed ^ resolution.prompt_hash ^
             MixHash64(request_seed + 1));
}

SyntheticModel::StancePreview SyntheticModel::DrawStance(
    const KnowledgeBase::Resolution& resolution, Rng* rng) const {
  // Effective competence: per-domain skill, jitter, and RAG uplift when the
  // prompt carries grounded context overlapping the golden answer beyond
  // what the bare question provides.
  double competence = profile_.CompetenceFor(resolution.item->domain);
  competence += rng->Normal(0.0, 0.05);
  if (resolution.grounded) {
    competence = std::max(competence, profile_.rag_uplift);
  }
  StancePreview stance;
  stance.has_knowledge = true;
  stance.effective_competence = std::clamp(competence, 0.02, 0.98);
  stance.correct = rng->Bernoulli(stance.effective_competence);
  return stance;
}

SyntheticModel::Plan SyntheticModel::BuildPlan(
    const GenerationRequest& request) const {
  const auto resolution = Resolve(request.prompt);
  Rng rng = PlanRng(*resolution, request.seed);

  Plan plan;
  const QaItem* item = resolution->item;
  if (item == nullptr) {
    // The model has no knowledge of this topic: hedge.
    AppendPhrase(UnknownWords(), &plan.words);
    const auto& filler = FillerWords();
    const int extra = static_cast<int>(
        std::lround(profile_.verbosity * rng.Uniform(4.0, 10.0)));
    for (int i = 0; i < extra; ++i) {
      plan.words.push_back(
          filler[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(filler.size()) - 1))]);
    }
    return plan;
  }

  const StancePreview stance = DrawStance(*resolution, &rng);
  const double competence = stance.effective_competence;
  const bool correct_stance = stance.correct;

  // Choose the answer.
  const KnowledgeBase::ResolvedAnswer* answer = &resolution->golden;
  if (correct_stance) {
    if (!item->correct.empty() && rng.Bernoulli(0.4)) {
      answer = &resolution->correct[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(item->correct.size()) - 1))];
    }
  } else if (!item->incorrect.empty()) {
    answer = &resolution->incorrect[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(item->incorrect.size()) - 1))];
  }
  // (A degenerate item with no wrong answers says the golden either way.)

  // Preamble (hedging) scaled by verbosity. Verbose models burn a
  // meaningful number of tokens before their answer appears — the situation
  // §8.4 identifies as adversarial for early pruning.
  const auto& hedges = HedgePhrases();
  int hedge_count = 0;
  if (profile_.verbosity > 0.2) {
    hedge_count = static_cast<int>(
        std::lround(rng.Uniform(0.0, profile_.verbosity * 2.0)));
  }
  for (int i = 0; i < hedge_count && i < 3; ++i) {
    AppendPhrase(hedges[static_cast<size_t>(rng.UniformInt(
                     0, static_cast<int64_t>(hedges.size()) - 1))],
                 &plan.words);
  }

  // Answer sentence.
  const auto& templates = AnswerTemplates();
  const auto& tmpl = templates[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(templates.size()) - 1))];
  for (const auto& word : tmpl) {
    if (word == "%A") {
      AppendPhrase(answer->words, &plan.words);
    } else {
      plan.words.push_back(word);
    }
  }

  // Elaboration: verbosity-scaled sentences mixing topic, answer, filler,
  // and distractor vocabulary. The answer pool is the discriminative part of
  // the answer: repeating it is what creates inter-model agreement among
  // same-stance models (and divergence across stances) at the embedding
  // level.
  const auto& topic_pool = resolution->question_words;
  const auto& answer_pool = answer->pool;
  const auto& distractor_pool = resolution->distractor_pool;
  const auto& filler_pool = FillerWords();

  const int num_sentences = static_cast<int>(
      std::lround(profile_.verbosity * rng.Uniform(2.0, 4.5)));
  for (int s = 0; s < num_sentences; ++s) {
    const int length = static_cast<int>(rng.UniformInt(7, 13));
    for (int w = 0; w < length; ++w) {
      // Pool weights: competent models stay on topic; weak or hallucinating
      // ones drift toward distractor vocabulary.
      // A model committed to a misconception elaborates the misconception:
      // wrong-stance responses draw heavily on the distractor vocabulary,
      // which is what lets the scorers (and Eq. 8.1) separate them.
      double distractor_w =
          (1.0 - competence) * 0.4 + profile_.hallucination_rate +
          (correct_stance ? 0.0 : 0.6);
      if (distractor_pool.empty()) distractor_w = 0.0;
      const double topic_w = topic_pool.empty() ? 0.0 : 0.20 + 0.25 * competence;
      const double answer_w = answer_pool.empty() ? 0.0 : 0.55;
      const double filler_w = 0.15;
      const size_t pool = rng.WeightedIndex(
          {topic_w, answer_w, filler_w, distractor_w});
      const std::vector<std::string>* source = nullptr;
      switch (pool) {
        case 0:
          source = &topic_pool;
          break;
        case 1:
          source = &answer_pool;
          break;
        case 2:
          source = &filler_pool;
          break;
        default:
          source = &distractor_pool;
          break;
      }
      if (source->empty()) source = &filler_pool;
      plan.words.push_back((*source)[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(source->size()) - 1))]);
    }
  }
  return plan;
}

StatusOr<std::unique_ptr<GenerationStream>> SyntheticModel::StartGeneration(
    const GenerationRequest& request) const {
  if (request.prompt.empty()) {
    return Status::InvalidArgument("prompt must not be empty");
  }
  Plan plan = BuildPlan(request);
  return std::unique_ptr<GenerationStream>(std::make_unique<SyntheticStream>(
      std::move(plan.words), plan.natural_end, request.max_tokens));
}

SyntheticModel::StancePreview SyntheticModel::PreviewStance(
    const std::string& prompt, uint64_t request_seed) const {
  const auto resolution = Resolve(prompt);
  if (resolution->item == nullptr) return StancePreview{};
  Rng rng = PlanRng(*resolution, request_seed);
  return DrawStance(*resolution, &rng);
}

}  // namespace llmms::llm
