#include "llmms/llm/synthetic_model.h"

#include <gtest/gtest.h>

#include "llmms/core/scoring.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/eval/qa_dataset.h"
#include "llmms/rag/prompt_builder.h"
#include "llmms/vectordb/distance.h"
#include "testutil.h"

namespace llmms::llm {
namespace {

class SyntheticModelTest : public ::testing::Test {
 protected:
  void SetUp() override { world_ = testutil::MakeWorld(); }

  std::shared_ptr<SyntheticModel> MakeModel(double competence,
                                            double verbosity = 1.0) {
    ModelProfile profile;
    profile.name = "probe";
    for (const auto& domain : CanonicalDomains()) {
      profile.domain_competence[domain] = competence;
    }
    profile.default_competence = competence;
    profile.verbosity = verbosity;
    profile.seed = 0xBEEF;
    return std::make_shared<SyntheticModel>(profile, world_.knowledge);
  }

  testutil::World world_;
};

TEST_F(SyntheticModelTest, RejectsEmptyPrompt) {
  auto model = MakeModel(0.8);
  GenerationRequest request;
  EXPECT_TRUE(model->StartGeneration(request).status().IsInvalidArgument());
}

TEST_F(SyntheticModelTest, DeterministicForSamePrompt) {
  auto model = MakeModel(0.7);
  GenerationRequest request;
  request.prompt = world_.dataset[0].question;
  auto a = model->Generate(request);
  auto b = model->Generate(request);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->text, b->text);
  EXPECT_EQ(a->num_tokens, b->num_tokens);
}

TEST_F(SyntheticModelTest, RequestSeedVariesOutput) {
  auto model = MakeModel(0.7);
  GenerationRequest a;
  a.prompt = world_.dataset[0].question;
  a.seed = 1;
  GenerationRequest b = a;
  b.seed = 2;
  auto ra = model->Generate(a);
  auto rb = model->Generate(b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_NE(ra->text, rb->text);
}

TEST_F(SyntheticModelTest, StreamingMatchesFullGeneration) {
  auto model = MakeModel(0.7);
  GenerationRequest request;
  request.prompt = world_.dataset[1].question;
  auto full = model->Generate(request);
  ASSERT_TRUE(full.ok());

  auto stream = model->StartGeneration(request);
  ASSERT_TRUE(stream.ok());
  std::string accumulated;
  size_t tokens = 0;
  while (!(*stream)->finished()) {
    auto chunk = (*stream)->NextChunk(3);
    ASSERT_TRUE(chunk.ok());
    if (!chunk->text.empty()) {
      if (!accumulated.empty()) accumulated += ' ';
      accumulated += chunk->text;
    }
    tokens += chunk->num_tokens;
  }
  EXPECT_EQ(accumulated, full->text);
  EXPECT_EQ((*stream)->text(), full->text);
  EXPECT_EQ(tokens, full->num_tokens);
  EXPECT_EQ((*stream)->stop_reason(), StopReason::kStop);
}

TEST_F(SyntheticModelTest, NextChunkZeroIsInvalid) {
  auto model = MakeModel(0.7);
  GenerationRequest request;
  request.prompt = world_.dataset[0].question;
  auto stream = model->StartGeneration(request);
  ASSERT_TRUE(stream.ok());
  EXPECT_TRUE((*stream)->NextChunk(0).status().IsInvalidArgument());
}

TEST_F(SyntheticModelTest, FinishedStreamKeepsReturningDone) {
  auto model = MakeModel(0.7);
  GenerationRequest request;
  request.prompt = world_.dataset[0].question;
  auto stream = model->StartGeneration(request);
  ASSERT_TRUE(stream.ok());
  while (!(*stream)->finished()) {
    ASSERT_TRUE((*stream)->NextChunk(64).ok());
  }
  auto extra = (*stream)->NextChunk(10);
  ASSERT_TRUE(extra.ok());
  EXPECT_TRUE(extra->done);
  EXPECT_EQ(extra->num_tokens, 0u);
  EXPECT_TRUE(extra->text.empty());
}

TEST_F(SyntheticModelTest, MaxTokensTruncatesWithLengthReason) {
  auto model = MakeModel(0.7, /*verbosity=*/2.0);
  GenerationRequest request;
  request.prompt = world_.dataset[0].question;
  request.max_tokens = 5;
  auto result = model->Generate(request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_tokens, 5u);
  EXPECT_EQ(result->stop_reason, StopReason::kLength);
}

TEST_F(SyntheticModelTest, UnknownTopicHedges) {
  auto model = MakeModel(0.9);
  GenerationRequest request;
  request.prompt = "completely unrelated text zzz qqq www blorp";
  auto result = model->Generate(request);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->text.find("sure"), std::string::npos);
}

TEST_F(SyntheticModelTest, CompetentModelsAnswerMoreTruthfully) {
  auto strong = MakeModel(0.95);
  auto weak = MakeModel(0.05);
  int strong_correct = 0;
  int weak_correct = 0;
  int checked = 0;
  for (const auto& item : world_.dataset) {
    const auto sp = strong->PreviewStance(item.question);
    const auto wp = weak->PreviewStance(item.question);
    if (!sp.has_knowledge || !wp.has_knowledge) continue;
    ++checked;
    strong_correct += sp.correct ? 1 : 0;
    weak_correct += wp.correct ? 1 : 0;
  }
  ASSERT_GT(checked, 10);
  EXPECT_GT(strong_correct, weak_correct);
  EXPECT_GT(static_cast<double>(strong_correct) / checked, 0.75);
  EXPECT_LT(static_cast<double>(weak_correct) / checked, 0.35);
}

TEST_F(SyntheticModelTest, CorrectStanceMeansHigherReward) {
  // Responses from a maximally competent model should collect more Eq. 8.1
  // reward than those from an incompetent one, in aggregate.
  auto strong = MakeModel(0.95);
  auto weak = MakeModel(0.05);
  double strong_reward = 0.0;
  double weak_reward = 0.0;
  for (const auto& item : world_.dataset) {
    GenerationRequest request;
    request.prompt = item.question;
    auto s = strong->Generate(request);
    auto w = weak->Generate(request);
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(w.ok());
    strong_reward += core::ComputeReward(*world_.embedder, s->text,
                                         item.golden, item.correct,
                                         item.incorrect);
    weak_reward += core::ComputeReward(*world_.embedder, w->text, item.golden,
                                       item.correct, item.incorrect);
  }
  EXPECT_GT(strong_reward, weak_reward);
}

TEST_F(SyntheticModelTest, RagContextUpliftsCompetence) {
  auto model = MakeModel(0.1);
  const auto& item = world_.dataset[0];
  const std::string bare = item.question;
  const std::string grounded = "Use the following context to answer:\n" +
                               item.golden + "\n\nQuestion: " + item.question;
  const auto bare_preview = model->PreviewStance(bare);
  const auto grounded_preview = model->PreviewStance(grounded);
  ASSERT_TRUE(bare_preview.has_knowledge);
  ASSERT_TRUE(grounded_preview.has_knowledge);
  EXPECT_GT(grounded_preview.effective_competence,
            bare_preview.effective_competence + 0.3);
}

TEST_F(SyntheticModelTest, VerbosityIncreasesLength) {
  auto terse = MakeModel(0.7, /*verbosity=*/0.2);
  auto verbose = MakeModel(0.7, /*verbosity=*/2.5);
  size_t terse_tokens = 0;
  size_t verbose_tokens = 0;
  for (size_t i = 0; i < 10 && i < world_.dataset.size(); ++i) {
    GenerationRequest request;
    request.prompt = world_.dataset[i].question;
    auto t = terse->Generate(request);
    auto v = verbose->Generate(request);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(v.ok());
    terse_tokens += t->num_tokens;
    verbose_tokens += v->num_tokens;
  }
  EXPECT_GT(verbose_tokens, terse_tokens);
}

// KnowledgeBase::Lookup scans a float index (cached norms, reordered sums);
// pin that it resolves every prompt of the paper-scale dataset to the item a
// double-precision Distance() argmin picks — bare, inside conversation
// history, and inside RAG context, the three prompt shapes the engine sends.
TEST(KnowledgeBaseTest, LookupMatchesDistanceReferenceOnPaperDataset) {
  auto embedder = std::make_shared<embedding::HashEmbedder>();
  const auto dataset = eval::GenerateDataset(eval::DatasetOptions{});
  ASSERT_EQ(dataset.size(), 300u);
  KnowledgeBase knowledge(embedder);
  ASSERT_TRUE(knowledge.AddAll(dataset).ok());
  std::vector<vectordb::Vector> rows;
  for (const auto& item : dataset) {
    rows.push_back(embedder->Embed(item.question));
  }

  auto reference = [&](const std::string& prompt) -> const QaItem* {
    const auto query = embedder->Embed(prompt);
    size_t best = 0;
    double best_distance = 2.0;
    for (size_t i = 0; i < rows.size(); ++i) {
      const double d =
          vectordb::Distance(vectordb::DistanceMetric::kCosine, query, rows[i]);
      if (d < best_distance) {
        best_distance = d;
        best = i;
      }
    }
    if (1.0 - best_distance < 0.15) return nullptr;
    return &knowledge.items()[best];
  };

  const rag::PromptBuilder builder;
  const size_t n = dataset.size();
  size_t resolved = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto& item = dataset[i];
    // Three earlier turns of a session, as Session::ContextText renders them.
    std::string history;
    for (size_t back = 3; back >= 1; --back) {
      const auto& earlier = dataset[(i + n - back) % n];
      if (!history.empty()) history += "\n";
      history += "user: " + earlier.question + "\nassistant: " + earlier.golden;
    }
    // Retrieved context: the item's own answer among two others.
    std::vector<rag::RetrievedChunk> context(3);
    context[0].text = dataset[(i + 1) % n].golden;
    context[1].text = item.golden;
    context[2].text = dataset[(i + 7) % n].golden;

    const std::string prompts[] = {
        item.question,
        builder.Build(item.question, {}, history),
        builder.Build(item.question, context, history),
    };
    for (const auto& prompt : prompts) {
      const QaItem* expected = reference(prompt);
      EXPECT_EQ(knowledge.Lookup(prompt), expected)
          << "item " << item.id << " prompt: " << prompt;
      resolved += expected != nullptr ? 1 : 0;
    }
  }
  // The pin is only meaningful if the prompts actually resolve.
  EXPECT_GT(resolved, 2 * n);
}

TEST_F(SyntheticModelTest, StopReasonStringMapping) {
  EXPECT_STREQ(StopReasonToString(StopReason::kStop), "stop");
  EXPECT_STREQ(StopReasonToString(StopReason::kLength), "length");
  EXPECT_STREQ(StopReasonToString(StopReason::kCancelled), "cancelled");
}

}  // namespace
}  // namespace llmms::llm
