// Behavioural identity oracle for the four orchestration policies: one
// digest folded over everything a run observably produces (result, per-model
// outcomes, trace, and every streamed event) across budgets, configuration
// variants, injected model faults, a warmed reward feed, and cancelled
// contexts. The constant pins the policies' behaviour byte for byte; any
// change to a policy's allocation, accounting, event order, or failure
// handling moves it.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "llmms/common/deadline.h"
#include "llmms/common/rng.h"
#include "llmms/core/hybrid.h"
#include "llmms/core/mab.h"
#include "llmms/core/oua.h"
#include "llmms/core/reward_feed.h"
#include "llmms/core/single.h"
#include "llmms/llm/fault_injection.h"
#include "testutil.h"

namespace llmms::core {
namespace {

// Scores are printed to 6 decimals (as frontier_row.golden does) so the
// digest does not depend on the last bits of a compiler's floating point.
std::string Fixed(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

void AppendEvent(const OrchestratorEvent& event, std::string* out) {
  *out += "E ";
  *out += EventTypeToString(event.type);
  *out += "|" + event.model + "|" + event.text + "|" + Fixed(event.score) +
          "|" + std::to_string(event.round) + "|" +
          std::to_string(event.total_tokens) + "\n";
}

void AppendResult(const StatusOr<OrchestrationResult>& result,
                  std::string* out) {
  if (!result.ok()) {
    *out += "S " + std::to_string(static_cast<int>(result.status().code())) +
            "|" + result.status().message() + "\n";
    return;
  }
  const OrchestrationResult& r = *result;
  *out += "R " + r.best_model + "|" + r.answer + "|" +
          std::to_string(r.total_tokens) + "|" +
          std::to_string(r.answer_tokens) + "|" + std::to_string(r.rounds) +
          "|" + (r.early_stopped ? "early" : "full") + "|" +
          Fixed(r.simulated_seconds) + "\n";
  for (const auto& [model, o] : r.per_model) {
    *out += "M " + model + "|" + o.response + "|" + std::to_string(o.tokens) +
            "|" + Fixed(o.final_score) + "|" + Fixed(o.query_similarity) +
            "|" + Fixed(o.inter_similarity) + "|" + (o.pruned ? "P" : "-") +
            (o.finished ? "F" : "-") + (o.failed ? "X" : "-") + "|" +
            o.error + "|" +
            std::to_string(static_cast<int>(o.stop_reason)) + "\n";
  }
  for (const auto& t : r.trace) {
    *out += "T " + std::to_string(t.round) + "|" + t.model + "|" + t.action +
            "|" + t.detail + "|" + Fixed(t.score) + "\n";
  }
}

// The fault families the oracle sweeps. Every faulty model sits behind a
// seeded FaultyModel without a ResilientModel, so every fault reaches the
// orchestrator.
enum class Faults {
  kNone,
  // The first model sometimes refuses to start, the second dies mid-stream,
  // the third errors and stalls now and then.
  kChaos,
  // Every model dies mid-stream, so whole pools fail part-way through.
  kDying,
  // Every model mostly stalls, so the anti-hang guard trips.
  kStalling,
};

testutil::World MakePool(Faults mode) {
  testutil::World world = testutil::MakeWorld(2);
  if (mode == Faults::kNone) return world;
  world.registry = std::make_shared<llm::ModelRegistry>();
  const auto profiles = llm::DefaultProfiles();
  for (size_t i = 0; i < profiles.size(); ++i) {
    llm::FaultConfig faults;
    faults.seed += i;
    if (mode == Faults::kChaos) {
      if (i == 0) faults.refuse_start_prob = 0.4;
      if (i == 1) faults.fail_after_tokens = 40;
      if (i == 2) {
        faults.chunk_error_prob = 0.04;
        faults.stall_prob = 0.1;
      }
    } else if (mode == Faults::kDying) {
      faults.fail_after_tokens = 16 + 8 * i;
    } else {
      faults.stall_prob = 0.95;
    }
    auto status = world.registry->Register(std::make_shared<llm::FaultyModel>(
        std::make_shared<llm::SyntheticModel>(profiles[i], world.knowledge),
        faults));
    if (!status.ok()) std::abort();
  }
  world.runtime = std::make_unique<llm::ModelRuntime>(
      world.registry, world.hardware, /*num_threads=*/4);
  for (const auto& name : world.model_names) {
    if (!world.runtime->LoadModel(name).ok()) std::abort();
  }
  return world;
}

using Factory = std::function<std::unique_ptr<Orchestrator>(
    const testutil::World&, size_t budget,
    const std::shared_ptr<RequestContext>& context, RewardFeed* feed)>;

struct Policy {
  std::string label;
  std::vector<size_t> budgets;
  Factory make;
};

std::vector<Policy> Policies() {
  const std::vector<size_t> all = {64, 96, 384, 2048};
  // Hybrid phase 1 spends up to screening_rounds * chunk_tokens * pool
  // size (3 * 8 * 3 = 72) before phase 2 starts. Below that its screening
  // rounds are clamped to the budget left (orchestrator_property_test's
  // Hybrid_b32_c8 covers it); from 72 up the clamp never binds.
  const std::vector<size_t> hybrid = {96, 384, 2048};
  std::vector<Policy> policies;
  for (size_t m = 0; m < 3; ++m) {
    policies.push_back(
        {"single" + std::to_string(m), all,
         [m](const testutil::World& w, size_t budget,
             const std::shared_ptr<RequestContext>& context, RewardFeed*) {
           SingleModelOrchestrator::Config config;
           config.token_budget = budget;
           config.context = context;
           return std::make_unique<SingleModelOrchestrator>(
               w.runtime.get(), w.model_names[m], w.embedder, config);
         }});
  }
  policies.push_back(
      {"oua", all,
       [](const testutil::World& w, size_t budget,
          const std::shared_ptr<RequestContext>& context, RewardFeed* feed) {
         OuaOrchestrator::Config config;
         config.token_budget = budget;
         config.context = context;
         config.reward_feed = feed;
         return std::make_unique<OuaOrchestrator>(
             w.runtime.get(), w.model_names, w.embedder, config);
       }});
  policies.push_back(
      {"oua-margins", all,
       [](const testutil::World& w, size_t budget,
          const std::shared_ptr<RequestContext>& context, RewardFeed* feed) {
         OuaOrchestrator::Config config;
         config.token_budget = budget;
         config.context = context;
         config.reward_feed = feed;
         config.early_stop_margin = 0.01;
         config.prune_margin = -1.0;
         config.chunk_tokens = 12;
         return std::make_unique<OuaOrchestrator>(
             w.runtime.get(), w.model_names, w.embedder, config);
       }});
  policies.push_back(
      {"mab", all,
       [](const testutil::World& w, size_t budget,
          const std::shared_ptr<RequestContext>& context, RewardFeed* feed) {
         MabOrchestrator::Config config;
         config.token_budget = budget;
         config.context = context;
         config.reward_feed = feed;
         return std::make_unique<MabOrchestrator>(
             w.runtime.get(), w.model_names, w.embedder, config);
       }});
  policies.push_back(
      {"mab-prior", all,
       [](const testutil::World& w, size_t budget,
          const std::shared_ptr<RequestContext>& context, RewardFeed* feed) {
         MabOrchestrator::Config config;
         config.token_budget = budget;
         config.context = context;
         config.reward_feed = feed;
         config.feed_prior_weight = 3.0;
         config.decay_gamma = false;
         return std::make_unique<MabOrchestrator>(
             w.runtime.get(), w.model_names, w.embedder, config);
       }});
  policies.push_back(
      {"hybrid", hybrid,
       [](const testutil::World& w, size_t budget,
          const std::shared_ptr<RequestContext>& context, RewardFeed* feed) {
         HybridOrchestrator::Config config;
         config.token_budget = budget;
         config.context = context;
         config.reward_feed = feed;
         return std::make_unique<HybridOrchestrator>(
             w.runtime.get(), w.model_names, w.embedder, config);
       }});
  policies.push_back(
      {"hybrid-prune-prior", hybrid,
       [](const testutil::World& w, size_t budget,
          const std::shared_ptr<RequestContext>& context, RewardFeed* feed) {
         HybridOrchestrator::Config config;
         config.token_budget = budget;
         config.context = context;
         config.reward_feed = feed;
         config.prune_margin = -1.0;
         config.min_survivors = 1;
         config.feed_prior_weight = 3.0;
         return std::make_unique<HybridOrchestrator>(
             w.runtime.get(), w.model_names, w.embedder, config);
       }});
  return policies;
}

std::string Transcript() {
  std::string out;
  for (const Faults faults :
       {Faults::kNone, Faults::kChaos, Faults::kDying, Faults::kStalling}) {
    const testutil::World world = MakePool(faults);
    std::vector<std::string> prompts;
    for (size_t i = 0; i < 5 && i < world.dataset.size(); ++i) {
      prompts.push_back(world.dataset[i].question);
    }
    prompts.push_back("how many moons orbit the planet neptune");
    for (const Policy& policy : Policies()) {
      for (const size_t budget : policy.budgets) {
        // One feed per (policy, budget), warmed by its own earlier queries,
        // so the feed prior sees real evidence from the second query on.
        RewardFeed feed;
        for (const auto& prompt : prompts) {
          out += "Q " + std::to_string(static_cast<int>(faults)) + "|" +
                 policy.label + "|" + std::to_string(budget) + "|" + prompt +
                 "\n";
          auto orchestrator = policy.make(world, budget, nullptr, &feed);
          auto result = orchestrator->Run(
              prompt, [&out](const OrchestratorEvent& e) {
                AppendEvent(e, &out);
              });
          AppendResult(result, &out);
        }
        // A request that is already cancelled, and one cancelled from its
        // own event stream at the third score.
        auto cancelled = std::make_shared<RequestContext>();
        cancelled->Cancel("client went away");
        auto orchestrator = policy.make(world, budget, cancelled, &feed);
        AppendResult(orchestrator->Run(prompts[0], [&out](
                         const OrchestratorEvent& e) { AppendEvent(e, &out); }),
                     &out);
        auto midway = std::make_shared<RequestContext>();
        size_t scores = 0;
        orchestrator = policy.make(world, budget, midway, &feed);
        AppendResult(
            orchestrator->Run(prompts[1],
                              [&](const OrchestratorEvent& e) {
                                AppendEvent(e, &out);
                                if (e.type == EventType::kScore &&
                                    ++scores == 3) {
                                  midway->Cancel("deadline budget spent");
                                }
                              }),
            &out);
      }
    }
  }
  return out;
}

TEST(OrchestratorIdentityTest, EveryPolicyIsPinned) {
  constexpr uint64_t kExpectedDigest = 0xe1c7262b9a7cab10ULL;
  const std::string transcript = Transcript();
  const uint64_t digest = HashBytes(transcript.data(), transcript.size());
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(digest));
  EXPECT_EQ(digest, kExpectedDigest)
      << "digest " << hex << " over " << transcript.size() << " bytes";
}

}  // namespace
}  // namespace llmms::core
