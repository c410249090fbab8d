// Ablation: the hybrid strategy the thesis's analysis proposes (§8.4) —
// OUA-style screening followed by UCB1 allocation among the survivors —
// compared against its two parents on quality and token cost.

#include <iostream>

#include "bench_common.h"
#include "llmms/common/string_util.h"
#include "llmms/core/hybrid.h"
#include "llmms/core/mab.h"
#include "llmms/core/oua.h"
#include "llmms/eval/metrics.h"

namespace {

using namespace llmms;

eval::StrategyAggregate Evaluate(eval::World* world,
                                 core::Orchestrator* orchestrator,
                                 const std::string& label) {
  std::vector<eval::QuestionMetrics> metrics;
  for (const auto& item : world->dataset) {
    auto result = orchestrator->Run(item.question);
    if (!result.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
    auto m = eval::ScoreResponse(*world->embedder, item, result->answer);
    m.total_tokens = result->total_tokens;
    m.answer_tokens = result->answer_tokens;
    metrics.push_back(m);
  }
  return eval::Aggregate(label, metrics);
}

}  // namespace

int main() {
  using namespace llmms;
  const size_t qpd = std::min<size_t>(bench::QuestionsPerDomain(), 20);
  auto world = bench::MakeBenchWorld(qpd);
  std::cout << "Hybrid ablation (" << world.dataset.size()
            << " questions): OUA screening + UCB allocation vs. parents\n\n";

  core::OuaOrchestrator oua(world.runtime.get(), world.model_names,
                            world.embedder, {});
  core::MabOrchestrator mab(world.runtime.get(), world.model_names,
                            world.embedder, {});
  core::HybridOrchestrator hybrid(world.runtime.get(), world.model_names,
                                  world.embedder, {});

  std::vector<eval::StrategyAggregate> rows;
  rows.push_back(Evaluate(&world, &oua, "llm-ms-oua"));
  rows.push_back(Evaluate(&world, &mab, "llm-ms-mab"));
  rows.push_back(Evaluate(&world, &hybrid, "llm-ms-hybrid"));

  std::cout << "strategy        reward   f1      accuracy  tokens   "
               "rew/1k_atok\n";
  std::cout << std::string(66, '-') << "\n";
  for (const auto& row : rows) {
    std::cout << row.strategy << (row.strategy.size() < 12 ? "     " : "  ")
              << FormatDouble(row.mean_reward, 4) << "  "
              << FormatDouble(row.mean_f1, 4) << "  "
              << FormatDouble(row.accuracy, 3) << "     "
              << FormatDouble(row.mean_total_tokens, 1) << "    "
              << FormatDouble(row.mean_reward_per_answer_token * 1000.0, 3)
              << "\n";
  }
  std::cout << "\n(Hybrid aims at MAB-like quality at OUA-like token cost, "
               "§8.4's suggested trade-off.)\n";
  return 0;
}
