#include "llmms/llm/knowledge.h"

#include <unordered_set>

#include "llmms/common/rng.h"
#include "llmms/tokenizer/word_tokenizer.h"

namespace llmms::llm {
namespace {

std::vector<std::string> ContentWords(std::string_view text) {
  static const tokenizer::WordTokenizer::Options kOpts{
      .lowercase = true,
      .strip_punctuation = true,
      .remove_articles = true,
      .remove_stopwords = true,
  };
  static const tokenizer::WordTokenizer kTokenizer(kOpts);
  return kTokenizer.Tokenize(text);
}

std::vector<std::string> AllWords(std::string_view text) {
  static const tokenizer::WordTokenizer kTokenizer;
  return kTokenizer.Tokenize(text);
}

// Builds the model-independent part of every plan for `prompt`.
KnowledgeBase::Resolution BuildResolution(std::string_view prompt,
                                          const QaItem* item) {
  KnowledgeBase::Resolution r;
  r.prompt_hash = HashBytes(prompt.data(), prompt.size());
  r.item = item;
  if (item == nullptr) return r;

  r.question_words = ContentWords(item->question);
  const std::unordered_set<std::string> question_set(r.question_words.begin(),
                                                     r.question_words.end());
  // Tokenises one answer; `novel` receives its content words that the
  // question lacks.
  auto resolve_answer = [&](const std::string& text,
                            std::vector<std::string>* novel) {
    KnowledgeBase::ResolvedAnswer answer;
    answer.words = AllWords(text);
    auto content = ContentWords(text);
    novel->clear();
    for (const auto& w : content) {
      if (question_set.count(w) == 0) novel->push_back(w);
    }
    // An answer that only restates the question keeps all its content words.
    answer.pool = novel->empty() ? std::move(content) : *novel;
    return answer;
  };

  // Grounded: the prompt holds at least half of the golden answer's new
  // content words (duplicates counted).
  std::vector<std::string> novel;
  r.golden = resolve_answer(item->golden, &novel);
  if (!novel.empty()) {
    const auto prompt_vec = ContentWords(prompt);
    const std::unordered_set<std::string> prompt_set(prompt_vec.begin(),
                                                     prompt_vec.end());
    size_t found = 0;
    for (const auto& w : novel) found += prompt_set.count(w);
    r.grounded = 2 * found >= novel.size();
  }

  for (const auto& text : item->correct) {
    r.correct.push_back(resolve_answer(text, &novel));
  }
  for (const auto& text : item->incorrect) {
    r.incorrect.push_back(resolve_answer(text, &novel));
    r.distractor_pool.insert(r.distractor_pool.end(), novel.begin(),
                             novel.end());
  }
  return r;
}

}  // namespace

KnowledgeBase::KnowledgeBase(
    std::shared_ptr<const embedding::Embedder> embedder)
    : embedder_(std::move(embedder)),
      index_(embedder_->dimension(), vectordb::DistanceMetric::kCosine) {}

Status KnowledgeBase::Add(QaItem item) {
  if (item.question.empty()) {
    return Status::InvalidArgument("QaItem question must not be empty");
  }
  LLMMS_ASSIGN_OR_RETURN(auto slot, index_.Add(embedder_->Embed(item.question)));
  (void)slot;  // slots are assigned densely, matching items_ order
  items_.push_back(std::move(item));
  std::lock_guard<std::mutex> lock(memo_mu_);
  memo_prompt_.clear();
  memo_.reset();
  return Status::OK();
}

Status KnowledgeBase::AddAll(const std::vector<QaItem>& items) {
  for (const auto& item : items) {
    LLMMS_RETURN_NOT_OK(Add(item));
  }
  return Status::OK();
}

const QaItem* KnowledgeBase::Lookup(std::string_view prompt,
                                    double min_similarity) const {
  if (items_.empty()) return nullptr;
  const auto query = embedder_->Embed(prompt);
  auto hits = index_.Search(query, 1);
  if (!hits.ok() || hits->empty()) return nullptr;
  const double similarity = 1.0 - hits->front().distance;
  if (similarity < min_similarity) return nullptr;
  return &items_[hits->front().slot];
}

std::shared_ptr<const KnowledgeBase::Resolution> KnowledgeBase::Resolve(
    std::string_view prompt) const {
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    if (memo_ != nullptr && memo_prompt_ == prompt) return memo_;
  }
  // Built outside the lock so concurrent misses do not serialise; when two
  // race, the later store wins and both results are correct.
  auto resolution = std::make_shared<const Resolution>(
      BuildResolution(prompt, Lookup(prompt)));
  std::lock_guard<std::mutex> lock(memo_mu_);
  memo_prompt_.assign(prompt);
  memo_ = resolution;
  return resolution;
}

const QaItem* KnowledgeBase::FindById(std::string_view id) const {
  for (const auto& item : items_) {
    if (item.id == id) return &item;
  }
  return nullptr;
}

}  // namespace llmms::llm
