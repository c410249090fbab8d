#ifndef LLMMS_LLM_KNOWLEDGE_H_
#define LLMMS_LLM_KNOWLEDGE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/embedding/embedder.h"
#include "llmms/vectordb/flat_index.h"

namespace llmms::llm {

// One question with TruthfulQA-style reference answers: a single golden
// (best) answer, additional acceptable answers, and plausible-but-wrong
// answers. This struct is shared between the synthetic model substrate
// (as its "training data") and the evaluation module (as the benchmark).
struct QaItem {
  std::string id;
  std::string domain;  // e.g. "science", "history", ...
  std::string question;
  std::string golden;
  std::vector<std::string> correct;    // includes paraphrases of golden
  std::vector<std::string> incorrect;  // common misconceptions
};

// The world model the synthetic LLMs "were trained on": an embedding index
// over questions that resolves an arbitrary prompt (which may carry RAG
// context and conversation history around the question) to its QaItem.
class KnowledgeBase {
 public:
  // One reference answer of a matched item, tokenised the two ways a
  // synthetic plan uses it.
  struct ResolvedAnswer {
    // Every word, lower-cased with punctuation stripped: the answer
    // sentence as streamed.
    std::vector<std::string> words;
    // The answer's discriminative vocabulary: its content words the
    // question does not contain, or all its content words if none are new.
    std::vector<std::string> pool;
  };

  // Everything a prompt resolves to that does not depend on which model
  // answers it: the matched item and its tokenised vocabulary, built once
  // per prompt and shared by every pool model that starts on it.
  struct Resolution {
    // FNV-1a digest of the prompt (HashBytes); seeds each plan's RNG.
    uint64_t prompt_hash = 0;
    // The best match (see Lookup); nullptr when the prompt matches nothing,
    // in which case every field below is empty.
    const QaItem* item = nullptr;
    // The prompt carries grounding context: at least half of the golden
    // answer's content words that the question lacks appear in it.
    bool grounded = false;
    std::vector<std::string> question_words;   // content words, in order
    std::vector<std::string> distractor_pool;  // incorrect answers' new words
    ResolvedAnswer golden;
    std::vector<ResolvedAnswer> correct;    // parallel to item->correct
    std::vector<ResolvedAnswer> incorrect;  // parallel to item->incorrect
  };

  explicit KnowledgeBase(std::shared_ptr<const embedding::Embedder> embedder);

  // Adding an item may move the others, so it also drops the memoised
  // Resolution; item pointers from Lookup or Resolve are invalid after it.
  Status Add(QaItem item);
  Status AddAll(const std::vector<QaItem>& items);

  // Returns the best-matching item for `prompt`, or nullptr when the base is
  // empty or the best match is weaker than `min_similarity`.
  const QaItem* Lookup(std::string_view prompt,
                       double min_similarity = 0.15) const;

  // Resolves `prompt` (Lookup at the default threshold) and tokenises the
  // matched item. The last result is memoised, keyed by the full prompt: the
  // runtime starts a query's pool models one after another on the same
  // prompt, so all but the first reuse it. Never returns nullptr. Safe to
  // call concurrently; not concurrently with Add.
  std::shared_ptr<const Resolution> Resolve(std::string_view prompt) const;

  const QaItem* FindById(std::string_view id) const;

  size_t size() const { return items_.size(); }
  const std::vector<QaItem>& items() const { return items_; }

 private:
  std::shared_ptr<const embedding::Embedder> embedder_;
  std::vector<QaItem> items_;
  vectordb::FlatIndex index_;

  // One-entry memo of Resolve. It belongs to this base (not to a static or
  // thread_local) because its Resolution points into items_.
  mutable std::mutex memo_mu_;
  mutable std::string memo_prompt_;
  mutable std::shared_ptr<const Resolution> memo_;
};

}  // namespace llmms::llm

#endif  // LLMMS_LLM_KNOWLEDGE_H_
