#include "llmms/llm/synthetic_model.h"

#include <gtest/gtest.h>

#include "llmms/common/rng.h"
#include "llmms/core/scoring.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/eval/qa_dataset.h"
#include "llmms/tokenizer/word_tokenizer.h"
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

  const auto prompts = testutil::PaperPrompts(dataset);
  size_t resolved = 0;
  for (size_t p = 0; p < prompts.size(); ++p) {
    const QaItem* expected = reference(prompts[p]);
    EXPECT_EQ(knowledge.Lookup(prompts[p]), expected)
        << "item " << dataset[p / 3].id << " prompt: " << prompts[p];
    resolved += expected != nullptr ? 1 : 0;
  }
  // The pin is only meaningful if the prompts actually resolve.
  EXPECT_GT(resolved, 2 * dataset.size());
}

// True if `text` holds the tokenised `answer` as a whole-word run.
bool ContainsAnswer(const std::string& text, const std::string& answer) {
  static const tokenizer::WordTokenizer kTokenizer;
  std::string run;
  for (const auto& w : kTokenizer.Tokenize(answer)) {
    if (!run.empty()) run += ' ';
    run += w;
  }
  if (run.empty()) return false;
  const std::string padded = " " + text + " ";
  return padded.find(" " + run + " ") != std::string::npos;
}

// Pins every plan the default pool builds on the paper-scale dataset: the
// three prompt shapes x the three default profiles x two request seeds, each
// generation streamed in uneven chunks and folded into one digest. The
// digest was recorded before the knowledge base memoised prompt resolution,
// so any change to a plan's words, its RNG draw order or its stop reason
// shows up here. PreviewStance must also name the stance each plan took: a
// correct stance streams the golden or an acceptable answer, a wrong one a
// misconception.
TEST(SyntheticPlanIdentityTest, PaperDatasetPlansArePinned) {
  constexpr uint64_t kExpectedDigest = 0x21c2d2919b02cad5ULL;

  auto embedder = std::make_shared<embedding::HashEmbedder>();
  const auto dataset = eval::GenerateDataset(eval::DatasetOptions{});
  ASSERT_EQ(dataset.size(), 300u);
  auto knowledge = std::make_shared<KnowledgeBase>(embedder);
  ASSERT_TRUE(knowledge->AddAll(dataset).ok());
  std::vector<std::shared_ptr<SyntheticModel>> models;
  for (const auto& profile : DefaultProfiles()) {
    models.push_back(std::make_shared<SyntheticModel>(profile, knowledge));
  }
  const auto prompts = testutil::PaperPrompts(dataset);

  uint64_t digest = 0;
  size_t generations = 0;
  size_t knowing = 0;
  for (size_t p = 0; p < prompts.size(); ++p) {
    for (const uint64_t seed : {uint64_t{0}, uint64_t{7}}) {
      // Round-robin over the pool per prompt, the way the runtime starts
      // one query's models.
      for (const auto& model : models) {
        GenerationRequest request;
        request.prompt = prompts[p];
        request.seed = seed;
        auto stream = model->StartGeneration(request);
        ASSERT_TRUE(stream.ok());
        std::string text;
        size_t chunk_size = 1;
        while (!(*stream)->finished()) {
          auto chunk = (*stream)->NextChunk(chunk_size);
          ASSERT_TRUE(chunk.ok());
          if (!chunk->text.empty()) {
            if (!text.empty()) text += ' ';
            text += chunk->text;
          }
          chunk_size = chunk_size % 5 + 1;
        }
        ASSERT_EQ(text, (*stream)->text());
        const uint64_t tokens = (*stream)->tokens_generated();
        const auto stop = static_cast<uint8_t>((*stream)->stop_reason());
        digest = HashBytes(text.data(), text.size(), digest);
        digest = HashBytes(&tokens, sizeof(tokens), digest);
        digest = HashBytes(&stop, sizeof(stop), digest);
        ++generations;

        const auto preview = model->PreviewStance(prompts[p], seed);
        const QaItem* item = knowledge->Lookup(prompts[p]);
        ASSERT_EQ(preview.has_knowledge, item != nullptr) << prompts[p];
        if (item == nullptr) continue;
        ++knowing;
        bool took_correct = ContainsAnswer(text, item->golden);
        for (const auto& ok : item->correct) {
          took_correct = took_correct || ContainsAnswer(text, ok);
        }
        bool took_wrong = item->incorrect.empty();
        for (const auto& wrong : item->incorrect) {
          took_wrong = took_wrong || ContainsAnswer(text, wrong);
        }
        if (preview.correct) {
          EXPECT_TRUE(took_correct) << model->name() << " seed " << seed
                                    << " prompt: " << prompts[p];
        } else {
          EXPECT_TRUE(took_wrong) << model->name() << " seed " << seed
                                  << " prompt: " << prompts[p];
        }
      }
    }
  }
  EXPECT_EQ(generations, prompts.size() * 2 * models.size());
  EXPECT_GT(knowing, generations / 2);
  EXPECT_EQ(digest, kExpectedDigest)
      << "plan digest 0x" << std::hex << digest;
}

TEST_F(SyntheticModelTest, StopReasonStringMapping) {
  EXPECT_STREQ(StopReasonToString(StopReason::kStop), "stop");
  EXPECT_STREQ(StopReasonToString(StopReason::kLength), "length");
  EXPECT_STREQ(StopReasonToString(StopReason::kCancelled), "cancelled");
}

}  // namespace
}  // namespace llmms::llm
