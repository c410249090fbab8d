#ifndef LLMMS_TESTS_TESTUTIL_H_
#define LLMMS_TESTS_TESTUTIL_H_

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "llmms/eval/world.h"
#include "llmms/llm/synthetic_model.h"
#include "llmms/rag/prompt_builder.h"

namespace llmms::testutil {

// A fully wired miniature platform: the three default models registered and
// loaded over a generated benchmark. Shared by the orchestrator, engine, and
// eval tests.
using World = eval::World;

inline World MakeWorld(size_t questions_per_domain = 4,
                       uint64_t seed = 0x7A9E11ULL) {
  eval::DatasetOptions options;
  options.questions_per_domain = questions_per_domain;
  options.seed = seed;
  auto world = eval::BuildWorld(options);
  if (!world.ok()) std::abort();
  return std::move(world).value();
}

// The three prompt shapes the engine sends, for every item of `dataset`:
// the bare question, the question inside conversation history, and the
// question inside RAG context plus history. Entry 3*i+k belongs to item i.
inline std::vector<std::string> PaperPrompts(
    const std::vector<llm::QaItem>& dataset) {
  const rag::PromptBuilder builder;
  const size_t n = dataset.size();
  std::vector<std::string> prompts;
  prompts.reserve(3 * n);
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

    prompts.push_back(item.question);
    prompts.push_back(builder.Build(item.question, {}, history));
    prompts.push_back(builder.Build(item.question, context, history));
  }
  return prompts;
}

}  // namespace llmms::testutil

#endif  // LLMMS_TESTS_TESTUTIL_H_
