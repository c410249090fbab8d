#include "llmms/llm/knowledge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "llmms/common/rng.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/eval/qa_dataset.h"
#include "llmms/tokenizer/word_tokenizer.h"
#include "testutil.h"

namespace llmms::llm {
namespace {

// Resolve is Lookup plus the matched item's vocabulary, memoised: on every
// prompt shape of the paper-scale dataset it must name Lookup's item, and a
// repeat of the same prompt must come back from the memo.
TEST(KnowledgeResolveTest, MatchesLookupOnPaperDataset) {
  auto embedder = std::make_shared<embedding::HashEmbedder>();
  const auto dataset = eval::GenerateDataset(eval::DatasetOptions{});
  ASSERT_EQ(dataset.size(), 300u);
  KnowledgeBase knowledge(embedder);
  ASSERT_TRUE(knowledge.AddAll(dataset).ok());
  const tokenizer::WordTokenizer all_words;
  const tokenizer::WordTokenizer content_words({.remove_articles = true,
                                                .remove_stopwords = true});

  const auto prompts = testutil::PaperPrompts(dataset);
  size_t matched = 0;
  size_t grounded_rag = 0;
  for (size_t p = 0; p < prompts.size(); ++p) {
    const auto& prompt = prompts[p];
    const auto resolution = knowledge.Resolve(prompt);
    ASSERT_NE(resolution, nullptr);
    EXPECT_EQ(resolution->item, knowledge.Lookup(prompt)) << prompt;
    EXPECT_EQ(resolution->prompt_hash, HashBytes(prompt.data(), prompt.size()));
    EXPECT_EQ(knowledge.Resolve(prompt), resolution) << "memo miss: " << prompt;

    const QaItem* item = resolution->item;
    if (item == nullptr) {
      EXPECT_FALSE(resolution->grounded);
      EXPECT_TRUE(resolution->question_words.empty());
      continue;
    }
    ++matched;
    EXPECT_FALSE(resolution->question_words.empty());
    EXPECT_EQ(resolution->golden.words, all_words.Tokenize(item->golden));
    EXPECT_FALSE(resolution->golden.pool.empty());
    ASSERT_EQ(resolution->correct.size(), item->correct.size());
    ASSERT_EQ(resolution->incorrect.size(), item->incorrect.size());
    for (size_t i = 0; i < item->incorrect.size(); ++i) {
      EXPECT_EQ(resolution->incorrect[i].words,
                all_words.Tokenize(item->incorrect[i]));
    }
    // Grounded, recomputed from scratch: the prompt holds at least half of
    // the golden answer's content words that the question lacks.
    const auto question = content_words.Tokenize(item->question);
    const auto in_prompt = content_words.Tokenize(prompt);
    size_t novel = 0;
    size_t found = 0;
    for (const auto& w : content_words.Tokenize(item->golden)) {
      if (std::find(question.begin(), question.end(), w) != question.end()) {
        continue;
      }
      ++novel;
      if (std::find(in_prompt.begin(), in_prompt.end(), w) != in_prompt.end()) {
        ++found;
      }
    }
    const bool grounded = novel > 0 && 2 * found >= novel;
    EXPECT_EQ(resolution->grounded, grounded) << prompt;
    if (p % 3 == 0) {
      EXPECT_FALSE(resolution->grounded) << "bare question: " << prompt;
    }
    if (p % 3 == 2) grounded_rag += resolution->grounded ? 1 : 0;
  }
  EXPECT_GT(matched, 2 * dataset.size());
  // The RAG shape carries the item's own golden answer as context.
  EXPECT_GT(grounded_rag, dataset.size() / 2);

  // An empty base resolves nothing, and memoises that too.
  KnowledgeBase empty(embedder);
  const auto unknown = empty.Resolve(prompts[0]);
  EXPECT_EQ(unknown->item, nullptr);
  EXPECT_FALSE(unknown->grounded);
  EXPECT_EQ(empty.Resolve(prompts[0]), unknown);
}

// The memo is keyed by the full prompt, but an Add can change what that
// prompt resolves to: a new item whose question is exactly the memoised
// prompt must win on the next Resolve.
TEST(KnowledgeResolveTest, AddInvalidatesMemo) {
  auto world = testutil::MakeWorld();
  KnowledgeBase knowledge(world.embedder);
  ASSERT_TRUE(knowledge.AddAll(world.dataset).ok());

  const std::string prompt =
      world.dataset[0].question + " Asked again, about the harbour ferries.";
  const auto before = knowledge.Resolve(prompt);
  ASSERT_NE(before->item, nullptr);
  EXPECT_EQ(before->item->id, world.dataset[0].id);
  EXPECT_EQ(knowledge.Resolve(prompt), before);

  QaItem item;
  item.id = "ferry";
  item.domain = world.dataset[0].domain;
  item.question = prompt;
  item.golden = "The harbour ferries run every twenty minutes.";
  item.incorrect = {"The harbour ferries stopped running in 1950."};
  ASSERT_TRUE(knowledge.Add(item).ok());

  const auto after = knowledge.Resolve(prompt);
  EXPECT_NE(after, before);
  ASSERT_NE(after->item, nullptr);
  EXPECT_EQ(after->item->id, "ferry");
  EXPECT_EQ(after->item, knowledge.Lookup(prompt));
  ASSERT_EQ(after->incorrect.size(), 1u);
  EXPECT_FALSE(after->distractor_pool.empty());
}

// Concurrent queries share the one-entry memo. Four threads resolving
// alternating prompts keep evicting each other's entry; each must still get
// its own prompt's item, never a neighbour's. The prompts are padded to one
// length, so a key that compared less than the whole prompt would mix them.
TEST(KnowledgeResolveTest, ConcurrentAlternatingPromptsGetTheirOwnItem) {
  auto world = testutil::MakeWorld();
  KnowledgeBase knowledge(world.embedder);
  ASSERT_TRUE(knowledge.AddAll(world.dataset).ok());

  const auto shapes = testutil::PaperPrompts(world.dataset);
  std::vector<std::string> prompts = {shapes[1], shapes[4], shapes[8],
                                      shapes[10]};
  size_t length = 0;
  for (const auto& prompt : prompts) length = std::max(length, prompt.size());
  for (auto& prompt : prompts) prompt.resize(length, ' ');
  std::vector<const QaItem*> expected;
  for (const auto& prompt : prompts) {
    expected.push_back(knowledge.Lookup(prompt));
    ASSERT_NE(expected.back(), nullptr) << prompt;
  }
  ASSERT_NE(expected[0], expected[1]);

  constexpr int kThreads = 4;
  constexpr int kIterations = 400;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const size_t which = static_cast<size_t>(i + t) % prompts.size();
        const auto& prompt = prompts[which];
        const auto resolution = knowledge.Resolve(prompt);
        if (resolution->item != expected[which] ||
            resolution->prompt_hash !=
                HashBytes(prompt.data(), prompt.size())) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace llmms::llm
