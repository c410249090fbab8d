#ifndef LLMMS_BENCH_BENCH_COMMON_H_
#define LLMMS_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "llmms/eval/harness.h"
#include "llmms/eval/world.h"

namespace llmms::bench {

// Questions per domain: 50 by default (300 questions, the paper-scale run);
// override with LLMMS_BENCH_QPD for quick runs.
inline size_t QuestionsPerDomain() {
  const char* env = std::getenv("LLMMS_BENCH_QPD");
  if (env != nullptr) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 50;
}

// The evaluation platform used by every figure/ablation bench: the three
// paper models over a TruthfulQA-style benchmark of `questions_per_domain`
// questions per domain.
inline eval::World MakeBenchWorld(size_t questions_per_domain) {
  eval::DatasetOptions options;
  options.questions_per_domain = questions_per_domain;
  auto world = eval::BuildWorld(options);
  if (!world.ok()) std::abort();
  return std::move(world).value();
}

// Runs the five execution modes of §8.1 and returns the report.
inline eval::EvaluationReport RunPaperEvaluation(
    eval::World* world, eval::HarnessConfig config = {}) {
  eval::EvaluationHarness harness(world->runtime.get(), world->embedder,
                                  world->model_names, config);
  auto report = harness.Run(world->dataset);
  if (!report.ok()) {
    std::fprintf(stderr, "evaluation failed: %s\n",
                 report.status().ToString().c_str());
    std::abort();
  }
  return std::move(report).value();
}

inline std::vector<eval::StrategyAggregate> Aggregates(
    const eval::EvaluationReport& report) {
  std::vector<eval::StrategyAggregate> rows;
  rows.reserve(report.runs.size());
  for (const auto& run : report.runs) rows.push_back(run.aggregate);
  return rows;
}

}  // namespace llmms::bench

#endif  // LLMMS_BENCH_BENCH_COMMON_H_
