// google-benchmark microbenchmarks for the orchestration layer itself (§8.4
// "orchestration also introduces overhead"): end-to-end latency of one
// orchestrated query per strategy, scoring-round cost vs. model count, and
// the exact scan under every generation start (the synthetic models'
// knowledge-base lookup) and the whole substrate start of one query, so both
// are tracked on their own.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "llmms/common/rng.h"
#include "llmms/core/mab.h"
#include "llmms/core/oua.h"
#include "llmms/core/scoring.h"
#include "llmms/core/single.h"
#include "llmms/embedding/embedding_cache.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/llm/synthetic_model.h"
#include "llmms/rag/prompt_builder.h"
#include "llmms/vectordb/flat_index.h"

namespace {

using namespace llmms;

eval::World& World() {
  static auto* world = new eval::World(bench::MakeBenchWorld(10));
  return *world;
}

void BM_OuaQuery(benchmark::State& state) {
  auto& world = World();
  core::OuaOrchestrator orchestrator(world.runtime.get(), world.model_names,
                                     world.embedder, {});
  size_t i = 0;
  for (auto _ : state) {
    const auto& item = world.dataset[i++ % world.dataset.size()];
    benchmark::DoNotOptimize(orchestrator.Run(item.question));
  }
}
BENCHMARK(BM_OuaQuery);

// One KnowledgeBase::Lookup in the shape every SyntheticModel start pays:
// the paper-scale 300 questions x 384-d HashEmbedder rows behind an
// embedding cache, prompts cycled so every embed after the first pass is a
// cache hit and the time is the exact scan.
void BM_KnowledgeLookup(benchmark::State& state) {
  static auto* knowledge = [] {
    auto embedder = std::make_shared<embedding::EmbeddingCache>(
        std::make_shared<embedding::HashEmbedder>(), /*capacity=*/4096);
    auto* kb = new llm::KnowledgeBase(embedder);
    if (!kb->AddAll(eval::GenerateDataset(eval::DatasetOptions{})).ok()) {
      std::abort();
    }
    return kb;
  }();
  const auto& items = knowledge->items();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        knowledge->Lookup(items[i++ % items.size()].question));
  }
}
BENCHMARK(BM_KnowledgeLookup);

// The substrate's share of one query: the three default-profile models
// starting on one history-wrapped prompt, one after another on one thread,
// the way ModelRuntime::StartGeneration starts a pool. Same paper-scale
// knowledge base and embedding cache as BM_KnowledgeLookup; prompts cycle
// over the 300 questions, each inside three earlier turns of a session.
void BM_StartGeneration(benchmark::State& state) {
  struct Substrate {
    std::vector<std::shared_ptr<llm::SyntheticModel>> models;
    std::vector<std::string> prompts;
  };
  static auto* substrate = [] {
    auto embedder = std::make_shared<embedding::EmbeddingCache>(
        std::make_shared<embedding::HashEmbedder>(), /*capacity=*/4096);
    auto knowledge = std::make_shared<llm::KnowledgeBase>(embedder);
    const auto dataset = eval::GenerateDataset(eval::DatasetOptions{});
    if (!knowledge->AddAll(dataset).ok()) std::abort();
    auto* s = new Substrate;
    for (const auto& profile : llm::DefaultProfiles()) {
      s->models.push_back(
          std::make_shared<llm::SyntheticModel>(profile, knowledge));
    }
    const rag::PromptBuilder builder;
    const size_t n = dataset.size();
    for (size_t i = 0; i < n; ++i) {
      std::string history;
      for (size_t back = 3; back >= 1; --back) {
        const auto& earlier = dataset[(i + n - back) % n];
        if (!history.empty()) history += "\n";
        history +=
            "user: " + earlier.question + "\nassistant: " + earlier.golden;
      }
      s->prompts.push_back(builder.Build(dataset[i].question, {}, history));
    }
    return s;
  }();
  llm::GenerationRequest request;
  size_t i = 0;
  for (auto _ : state) {
    request.prompt = substrate->prompts[i++ % substrate->prompts.size()];
    for (const auto& model : substrate->models) {
      benchmark::DoNotOptimize(model->StartGeneration(request));
    }
  }
}
BENCHMARK(BM_StartGeneration);

// Raw FlatIndex cosine top-10 over N random 64-d rows.
void BM_FlatSearch(benchmark::State& state) {
  constexpr size_t kDim = 64;
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  auto random_vector = [&rng] {
    vectordb::Vector v(kDim);
    for (auto& x : v) x = static_cast<float>(rng.Normal());
    return v;
  };
  vectordb::FlatIndex index(kDim, vectordb::DistanceMetric::kCosine);
  for (size_t i = 0; i < n; ++i) {
    if (!index.Add(random_vector()).ok()) std::abort();
  }
  std::vector<vectordb::Vector> queries;
  for (int q = 0; q < 64; ++q) queries.push_back(random_vector());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(queries[i++ % queries.size()], 10));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FlatSearch)->Arg(1000)->Arg(100000);

void BM_MabQuery(benchmark::State& state) {
  auto& world = World();
  core::MabOrchestrator orchestrator(world.runtime.get(), world.model_names,
                                     world.embedder, {});
  size_t i = 0;
  for (auto _ : state) {
    const auto& item = world.dataset[i++ % world.dataset.size()];
    benchmark::DoNotOptimize(orchestrator.Run(item.question));
  }
}
BENCHMARK(BM_MabQuery);

void BM_SingleQuery(benchmark::State& state) {
  auto& world = World();
  core::SingleModelOrchestrator orchestrator(
      world.runtime.get(), world.model_names[0], world.embedder, {});
  size_t i = 0;
  for (auto _ : state) {
    const auto& item = world.dataset[i++ % world.dataset.size()];
    benchmark::DoNotOptimize(orchestrator.Run(item.question));
  }
}
BENCHMARK(BM_SingleQuery);

void BM_ScoreRound(benchmark::State& state) {
  auto& world = World();
  const size_t num_models = static_cast<size_t>(state.range(0));
  core::ResponseScorer scorer(world.embedder, core::ScoringWeights{});
  std::vector<std::string> responses;
  for (size_t i = 0; i < num_models; ++i) {
    responses.push_back(
        "the mineral turns crimson when heated according to model " +
        std::to_string(i));
  }
  const std::string query = "what color does the mineral turn when heated";
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.ScoreRound(query, responses));
  }
}
BENCHMARK(BM_ScoreRound)->Arg(2)->Arg(3)->Arg(6)->Arg(12);

}  // namespace

BENCHMARK_MAIN();
