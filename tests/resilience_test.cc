#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "llmms/core/hybrid.h"
#include "llmms/core/mab.h"
#include "llmms/core/oua.h"
#include "llmms/core/single.h"
#include "llmms/llm/fault_injection.h"
#include "llmms/llm/resilient_model.h"
#include "llmms/llm/synthetic_model.h"
#include "testutil.h"

namespace llmms {
namespace {

using core::EventType;
using core::OrchestratorEvent;

// A 5-model chaos world: the three default profiles plus two renamed
// clones, the first `num_faulty` wrapped in FaultyModel, and every model
// wrapped in ResilientModel — the full decorator stack the resilience layer
// is specified against.
struct ChaosWorld : eval::World {
  std::vector<std::string> faulty_names;
  std::string prompt;
};

ChaosWorld MakeChaosWorld(size_t num_faulty, const llm::FaultConfig& faults,
                          llm::ResilienceConfig resilience =
                              llm::ResilienceConfig()) {
  auto profiles = llm::DefaultProfiles();
  auto clone1 = profiles[0];
  clone1.name = "phi3:mini";
  clone1.seed ^= 0x1111;
  auto clone2 = profiles[1];
  clone2.name = "gemma2:9b";
  clone2.seed ^= 0x2222;
  profiles.push_back(clone1);
  profiles.push_back(clone2);

  std::vector<std::string> faulty_names;
  eval::DatasetOptions options;
  options.questions_per_domain = 4;
  auto world = eval::BuildWorld(
      options, profiles,
      [&](const llm::ModelProfile& profile, size_t i,
          const std::shared_ptr<llm::KnowledgeBase>& knowledge) {
        std::shared_ptr<llm::LanguageModel> model =
            std::make_shared<llm::SyntheticModel>(profile, knowledge);
        if (i < num_faulty) {
          llm::FaultConfig fault_config = faults;
          fault_config.seed += i;
          model = std::make_shared<llm::FaultyModel>(model, fault_config);
          faulty_names.push_back(profile.name);
        }
        resilience.seed += i;  // cumulative across the pool
        return std::make_shared<llm::ResilientModel>(model, resilience);
      });
  if (!world.ok()) std::abort();
  ChaosWorld chaos{std::move(world).value(), std::move(faulty_names), {}};
  chaos.prompt = chaos.dataset[0].question;
  return chaos;
}

bool IsFaulty(const ChaosWorld& world, const std::string& model) {
  for (const auto& name : world.faulty_names) {
    if (name == model) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// FaultyModel

TEST(FaultyModelTest, SameSeedReplaysIdenticalFaultSequence) {
  auto base = testutil::MakeWorld();
  llm::FaultConfig config;
  config.chunk_error_prob = 0.4;
  config.stall_prob = 0.2;
  config.latency_spike_prob = 0.3;
  config.latency_spike_seconds = 1.5;

  auto run = [&](uint64_t seed) {
    llm::FaultConfig seeded = config;
    seeded.seed = seed;
    auto inner = base.registry->Get("llama3:8b");
    EXPECT_TRUE(inner.ok());
    llm::FaultyModel faulty(*inner, seeded);
    llm::GenerationRequest request;
    request.prompt = base.dataset[0].question;
    auto stream = faulty.StartGeneration(request);
    EXPECT_TRUE(stream.ok());
    std::vector<std::string> outcomes;
    for (size_t i = 0; i < 20; ++i) {
      auto chunk = (*stream)->NextChunk(4);
      if (!chunk.ok()) {
        outcomes.push_back("error:" + chunk.status().message());
      } else {
        outcomes.push_back("ok:" + std::to_string(chunk->num_tokens) + ":" +
                           std::to_string(chunk->extra_seconds));
        if (chunk->done) break;
      }
    }
    return outcomes;
  };

  const auto first = run(0xC0FFEE);
  const auto second = run(0xC0FFEE);
  const auto other = run(0xBEEF);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, other);  // different seed, different fault schedule
}

TEST(FaultyModelTest, DiesPermanentlyAfterConfiguredTokens) {
  auto base = testutil::MakeWorld();
  llm::FaultConfig config;
  config.fail_after_tokens = 6;
  auto inner = base.registry->Get("mistral:7b");
  ASSERT_TRUE(inner.ok());
  llm::FaultyModel faulty(*inner, config);
  llm::GenerationRequest request;
  request.prompt = base.dataset[1].question;
  auto stream = faulty.StartGeneration(request);
  ASSERT_TRUE(stream.ok());

  auto first = (*stream)->NextChunk(8);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->num_tokens, 0u);
  auto second = (*stream)->NextChunk(8);
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsInternal());
  // The death is sticky: every further call fails too.
  EXPECT_FALSE((*stream)->NextChunk(8).ok());
}

TEST(FaultyModelTest, TruncatesStreamAtConfiguredLength) {
  auto base = testutil::MakeWorld();
  llm::FaultConfig config;
  config.truncate_after_tokens = 4;
  auto inner = base.registry->Get("qwen2:7b");
  ASSERT_TRUE(inner.ok());
  llm::FaultyModel faulty(*inner, config);
  llm::GenerationRequest request;
  request.prompt = base.dataset[2].question;
  auto stream = faulty.StartGeneration(request);
  ASSERT_TRUE(stream.ok());
  size_t total = 0;
  bool done = false;
  for (size_t i = 0; i < 10 && !done; ++i) {
    auto chunk = (*stream)->NextChunk(4);
    ASSERT_TRUE(chunk.ok());
    total += chunk->num_tokens;
    done = chunk->done;
    if (done) {
      EXPECT_EQ(chunk->stop_reason, llm::StopReason::kLength);
    }
  }
  EXPECT_TRUE(done);
  EXPECT_LE(total, 8u);  // 4 tokens + at most one in-flight chunk
  EXPECT_EQ(faulty.counters().truncations_injected, 1u);
}

// ---------------------------------------------------------------------------
// CircuitBreaker

TEST(CircuitBreakerTest, OpensAfterThresholdAndRecoversViaHalfOpen) {
  llm::CircuitBreaker breaker(/*failure_threshold=*/3, /*open_calls=*/2);
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kClosed);

  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kOpen);

  // While open the breaker fails fast; after `open_calls` rejections it
  // transitions to half-open and admits exactly one probe.
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());  // second probe rejected
  EXPECT_EQ(breaker.fast_rejections(), 3u);

  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  EXPECT_TRUE(breaker.AllowRequest());
}

TEST(CircuitBreakerTest, FailedProbeReopensImmediately) {
  llm::CircuitBreaker breaker(/*failure_threshold=*/1, /*open_calls=*/1);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();  // the probe failed
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.total_failures(), 2u);
}

TEST(CircuitBreakerTest, StateNamesAreStable) {
  EXPECT_STREQ(llm::CircuitStateToString(llm::CircuitBreaker::State::kClosed),
               "closed");
  EXPECT_STREQ(llm::CircuitStateToString(llm::CircuitBreaker::State::kOpen),
               "open");
  EXPECT_STREQ(
      llm::CircuitStateToString(llm::CircuitBreaker::State::kHalfOpen),
      "half-open");
}

// ---------------------------------------------------------------------------
// Backoff

TEST(BackoffTest, SameSeedSameSchedule) {
  llm::ResilienceConfig config;
  Rng a(42), b(42), c(43);
  std::vector<double> first, second, other;
  for (size_t attempt = 0; attempt < 6; ++attempt) {
    first.push_back(llm::JitteredBackoffSeconds(config, attempt, &a));
    second.push_back(llm::JitteredBackoffSeconds(config, attempt, &b));
    other.push_back(llm::JitteredBackoffSeconds(config, attempt, &c));
  }
  EXPECT_EQ(first, second);
  EXPECT_NE(first, other);
}

TEST(BackoffTest, GrowsExponentiallyAndSaturates) {
  llm::ResilienceConfig config;
  config.backoff_jitter = 0.0;  // isolate the deterministic base schedule
  Rng rng(1);
  EXPECT_DOUBLE_EQ(llm::JitteredBackoffSeconds(config, 0, &rng), 0.05);
  EXPECT_DOUBLE_EQ(llm::JitteredBackoffSeconds(config, 1, &rng), 0.10);
  EXPECT_DOUBLE_EQ(llm::JitteredBackoffSeconds(config, 2, &rng), 0.20);
  // Attempt 10 would be 51.2s unbounded; the cap holds it at the max.
  EXPECT_DOUBLE_EQ(llm::JitteredBackoffSeconds(config, 10, &rng),
                   config.backoff_max_seconds);
  // Jitter stays within the configured band.
  config.backoff_jitter = 0.1;
  for (size_t i = 0; i < 32; ++i) {
    const double v = llm::JitteredBackoffSeconds(config, 0, &rng);
    EXPECT_GE(v, 0.05 * 0.9);
    EXPECT_LE(v, 0.05 * 1.1);
  }
}

// ---------------------------------------------------------------------------
// ResilientModel

TEST(ResilientModelTest, AbsorbsTransientChunkErrors) {
  auto base = testutil::MakeWorld();
  llm::FaultConfig faults;
  faults.chunk_error_prob = 0.25;
  auto inner = base.registry->Get("llama3:8b");
  ASSERT_TRUE(inner.ok());
  auto faulty = std::make_shared<llm::FaultyModel>(*inner, faults);
  llm::ResilienceConfig resilience;
  // Generous retry budget: with p=0.25 per call, exhausting five attempts
  // on any chunk is a ~0.1% event per call, and the seeds are fixed.
  resilience.max_chunk_retries = 4;
  llm::ResilientModel resilient(faulty, resilience);

  llm::GenerationRequest request;
  request.prompt = base.dataset[0].question;
  auto stream = resilient.StartGeneration(request);
  ASSERT_TRUE(stream.ok());
  size_t total = 0;
  double extra = 0.0;
  for (size_t i = 0; i < 200; ++i) {
    auto chunk = (*stream)->NextChunk(8);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    total += chunk->num_tokens;
    extra += chunk->extra_seconds;
    if (chunk->done) break;
  }
  EXPECT_GT(total, 0u);
  EXPECT_TRUE((*stream)->finished());
  const auto health = resilient.health();
  EXPECT_EQ(health.circuit, llm::CircuitBreaker::State::kClosed);
  EXPECT_GT(health.chunk_retries, 0u);       // faults were hit and retried
  EXPECT_GT(health.backoff_seconds, 0.0);    // and charged in simulated time
  EXPECT_GT(extra, 0.0);                     // ... onto the stream's chunks
  EXPECT_GT(faulty->counters().chunk_errors_injected, 0u);
}

TEST(ResilientModelTest, PermanentFailureTripsBreakerAndFailsFast) {
  auto base = testutil::MakeWorld();
  llm::FaultConfig faults;
  faults.refuse_start_prob = 1.0;
  auto inner = base.registry->Get("mistral:7b");
  ASSERT_TRUE(inner.ok());
  auto faulty = std::make_shared<llm::FaultyModel>(*inner, faults);
  llm::ResilienceConfig resilience;
  resilience.breaker_failure_threshold = 2;
  resilience.breaker_open_calls = 3;
  llm::ResilientModel resilient(faulty, resilience);

  llm::GenerationRequest request;
  request.prompt = base.dataset[0].question;
  // Every start exhausts its retries and records one breaker failure.
  auto first = resilient.StartGeneration(request);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsInternal());
  EXPECT_NE(first.status().message().find("failed to start"),
            std::string::npos);
  ASSERT_FALSE(resilient.StartGeneration(request).ok());
  EXPECT_EQ(resilient.health().circuit, llm::CircuitBreaker::State::kOpen);

  // With the circuit open, calls fail fast without touching the backend.
  const auto starts_before = faulty->counters().starts_attempted;
  auto rejected = resilient.StartGeneration(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted());
  EXPECT_EQ(faulty->counters().starts_attempted, starts_before);
  EXPECT_GT(resilient.health().fast_rejections, 0u);
}

TEST(ResilientModelTest, RepeatedMidStreamDeathsOpenTheCircuit) {
  // A backend that accepts every stream but dies on the first chunk must
  // still trip the breaker: the successful StartGeneration is not evidence
  // of health and must not reset the consecutive-failure count.
  auto base = testutil::MakeWorld();
  llm::FaultConfig faults;
  faults.chunk_error_prob = 1.0;  // every chunk attempt fails
  auto inner = base.registry->Get("llama3:8b");
  ASSERT_TRUE(inner.ok());
  auto faulty = std::make_shared<llm::FaultyModel>(*inner, faults);
  llm::ResilienceConfig resilience;
  resilience.breaker_failure_threshold = 3;
  llm::ResilientModel resilient(faulty, resilience);

  llm::GenerationRequest request;
  request.prompt = base.dataset[0].question;
  for (size_t i = 0; i < 3; ++i) {
    auto stream = resilient.StartGeneration(request);
    ASSERT_TRUE(stream.ok()) << i;
    EXPECT_FALSE((*stream)->NextChunk(8).ok()) << i;
  }
  EXPECT_EQ(resilient.health().circuit, llm::CircuitBreaker::State::kOpen);
  auto rejected = resilient.StartGeneration(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted());
}

TEST(ResilientModelTest, DetectsStalledBackend) {
  auto base = testutil::MakeWorld();
  llm::FaultConfig faults;
  faults.stall_prob = 1.0;  // the backend never makes progress
  auto inner = base.registry->Get("qwen2:7b");
  ASSERT_TRUE(inner.ok());
  auto faulty = std::make_shared<llm::FaultyModel>(*inner, faults);
  llm::ResilienceConfig resilience;
  resilience.max_stalled_chunks = 4;
  llm::ResilientModel resilient(faulty, resilience);

  llm::GenerationRequest request;
  request.prompt = base.dataset[0].question;
  auto stream = resilient.StartGeneration(request);
  ASSERT_TRUE(stream.ok());
  Status failure = Status::OK();
  for (size_t i = 0; i < 16; ++i) {
    auto chunk = (*stream)->NextChunk(8);
    if (!chunk.ok()) {
      failure = chunk.status();
      break;
    }
  }
  EXPECT_TRUE(failure.IsDeadlineExceeded()) << failure.ToString();
  EXPECT_NE(failure.message().find("stalled"), std::string::npos);
  EXPECT_GT(resilient.health().stalls_detected, 0u);
}

// ---------------------------------------------------------------------------
// Chaos: orchestrators under partial failure

core::ScoringWeights DefaultWeights() { return core::ScoringWeights(); }

TEST(ChaosTest, OuaSurvivesTwoMidStreamDeaths) {
  llm::FaultConfig faults;
  faults.fail_after_tokens = 6;  // dies early in round 2
  auto world = MakeChaosWorld(/*num_faulty=*/2, faults);

  core::OuaOrchestrator::Config config;
  config.weights = DefaultWeights();
  config.token_budget = 400;
  config.chunk_tokens = 8;
  core::OuaOrchestrator orchestrator(world.runtime.get(), world.model_names,
                                     world.embedder, config);

  size_t failure_events = 0;
  std::vector<std::string> failed_models;
  auto result = orchestrator.Run(
      world.prompt, [&](const OrchestratorEvent& event) {
        if (event.type == EventType::kFailure) {
          ++failure_events;
          failed_models.push_back(event.model);
        }
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The answer comes from a healthy model, within budget.
  EXPECT_FALSE(result->answer.empty());
  EXPECT_FALSE(IsFaulty(world, result->best_model));
  EXPECT_LE(result->total_tokens,
            config.token_budget + world.model_names.size() *
                                      config.chunk_tokens);

  // Both faulty models were quarantined: kFailure events, failed outcomes,
  // and failure entries in the trace.
  EXPECT_EQ(failure_events, 2u);
  for (const auto& name : world.faulty_names) {
    const auto& outcome = result->per_model.at(name);
    EXPECT_TRUE(outcome.failed) << name;
    EXPECT_FALSE(outcome.error.empty()) << name;
  }
  size_t failure_trace_entries = 0;
  for (const auto& entry : result->trace) {
    if (entry.action == "failure") ++failure_trace_entries;
  }
  EXPECT_EQ(failure_trace_entries, 2u);

  // Healthy models were never marked failed.
  for (const auto& name : world.model_names) {
    if (!IsFaulty(world, name)) {
      EXPECT_FALSE(result->per_model.at(name).failed) << name;
    }
  }
}

TEST(ChaosTest, MabSurvivesTwoFaultyArms) {
  llm::FaultConfig faults;
  faults.fail_after_tokens = 1;  // first pull succeeds, every later one dies
  auto world = MakeChaosWorld(/*num_faulty=*/2, faults);

  core::MabOrchestrator::Config config;
  config.weights = DefaultWeights();
  config.token_budget = 400;
  config.chunk_tokens = 16;
  core::MabOrchestrator orchestrator(world.runtime.get(), world.model_names,
                                     world.embedder, config);

  auto result = orchestrator.Run(world.prompt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->answer.empty());
  EXPECT_FALSE(IsFaulty(world, result->best_model));
  EXPECT_FALSE(result->per_model.at(result->best_model).failed);
  EXPECT_LE(result->total_tokens,
            config.token_budget + world.model_names.size() *
                                      config.chunk_tokens);
}

TEST(ChaosTest, HybridSurvivesTwoMidStreamDeaths) {
  llm::FaultConfig faults;
  faults.fail_after_tokens = 6;  // dies during phase-1 screening
  auto world = MakeChaosWorld(/*num_faulty=*/2, faults);

  core::HybridOrchestrator::Config config;
  config.weights = DefaultWeights();
  config.token_budget = 400;
  core::HybridOrchestrator orchestrator(world.runtime.get(),
                                        world.model_names, world.embedder,
                                        config);

  size_t failure_events = 0;
  auto result = orchestrator.Run(
      world.prompt, [&](const OrchestratorEvent& event) {
        if (event.type == EventType::kFailure) ++failure_events;
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->answer.empty());
  EXPECT_FALSE(IsFaulty(world, result->best_model));
  EXPECT_EQ(failure_events, 2u);
  for (const auto& name : world.faulty_names) {
    EXPECT_TRUE(result->per_model.at(name).failed) << name;
  }
  EXPECT_LE(result->total_tokens,
            config.token_budget + world.model_names.size() * 16);
}

TEST(ChaosTest, AllModelsDeadReturnsTypedErrorNotAHang) {
  llm::FaultConfig faults;
  faults.fail_after_tokens = 1;
  auto world = MakeChaosWorld(/*num_faulty=*/5, faults);

  core::OuaOrchestrator::Config oua_config;
  oua_config.weights = DefaultWeights();
  oua_config.token_budget = 400;
  core::OuaOrchestrator oua(world.runtime.get(), world.model_names,
                            world.embedder, oua_config);
  auto oua_result = oua.Run(world.prompt);
  ASSERT_FALSE(oua_result.ok());
  EXPECT_NE(oua_result.status().message().find("all 5 models failed"),
            std::string::npos)
      << oua_result.status().ToString();

  core::MabOrchestrator::Config mab_config;
  mab_config.weights = DefaultWeights();
  mab_config.token_budget = 400;
  core::MabOrchestrator mab(world.runtime.get(), world.model_names,
                            world.embedder, mab_config);
  auto mab_result = mab.Run(world.prompt);
  ASSERT_FALSE(mab_result.ok());
  EXPECT_NE(mab_result.status().message().find("all 5 models failed"),
            std::string::npos)
      << mab_result.status().ToString();

  core::HybridOrchestrator::Config hybrid_config;
  hybrid_config.weights = DefaultWeights();
  hybrid_config.token_budget = 400;
  core::HybridOrchestrator hybrid(world.runtime.get(), world.model_names,
                                  world.embedder, hybrid_config);
  auto hybrid_result = hybrid.Run(world.prompt);
  ASSERT_FALSE(hybrid_result.ok());
  EXPECT_NE(hybrid_result.status().message().find("all 5 models failed"),
            std::string::npos)
      << hybrid_result.status().ToString();
}

TEST(ChaosTest, AllStartsRefusedReturnsTypedError) {
  llm::FaultConfig faults;
  faults.refuse_start_prob = 1.0;
  auto world = MakeChaosWorld(/*num_faulty=*/5, faults);

  core::OuaOrchestrator::Config config;
  config.weights = DefaultWeights();
  core::OuaOrchestrator orchestrator(world.runtime.get(), world.model_names,
                                     world.embedder, config);
  auto result = orchestrator.Run(world.prompt);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("no model could start"),
            std::string::npos)
      << result.status().ToString();
}

TEST(ChaosTest, SingleModelFailureIsTypedAndNamesTheRound) {
  llm::FaultConfig faults;
  faults.fail_after_tokens = 6;
  auto world = MakeChaosWorld(/*num_faulty=*/1, faults);

  core::SingleModelOrchestrator::Config config;
  config.weights = DefaultWeights();
  config.chunk_tokens = 8;
  core::SingleModelOrchestrator orchestrator(
      world.runtime.get(), world.faulty_names[0], world.embedder, config);

  size_t failure_events = 0;
  auto result = orchestrator.Run(
      world.prompt, [&](const OrchestratorEvent& event) {
        if (event.type == EventType::kFailure) ++failure_events;
      });
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().message();
  EXPECT_NE(message.find("single-model orchestration failed"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("model '" + world.faulty_names[0] + "'"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("round"), std::string::npos) << message;
  EXPECT_EQ(failure_events, 1u);
}

TEST(ChaosTest, SingleModelRefusedStartSurfacesRuntimeError) {
  // The pool is one model, so a refused start fails the runtime call itself
  // before any round: the error is the runtime's, not a per-round one.
  llm::FaultConfig faults;
  faults.refuse_start_prob = 1.0;
  auto world = MakeChaosWorld(/*num_faulty=*/1, faults);

  core::SingleModelOrchestrator::Config config;
  config.weights = DefaultWeights();
  core::SingleModelOrchestrator orchestrator(
      world.runtime.get(), world.faulty_names[0], world.embedder, config);
  auto result = orchestrator.Run(world.prompt);
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().message();
  EXPECT_NE(message.find("no model could start"), std::string::npos)
      << message;
  EXPECT_EQ(message.find("failed in round"), std::string::npos) << message;
}

TEST(ChaosTest, RetriesChargeSimulatedTimeNotWallClock) {
  llm::FaultConfig faults;
  faults.chunk_error_prob = 0.3;
  faults.latency_spike_prob = 0.2;
  faults.latency_spike_seconds = 2.0;
  auto world = MakeChaosWorld(/*num_faulty=*/2, faults);

  core::OuaOrchestrator::Config config;
  config.weights = DefaultWeights();
  config.token_budget = 300;
  core::OuaOrchestrator orchestrator(world.runtime.get(), world.model_names,
                                     world.embedder, config);
  auto result = orchestrator.Run(world.prompt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Transient faults are absorbed; injected latency and backoff show up in
  // the simulated wall clock.
  EXPECT_GT(result->simulated_seconds, 0.0);
  for (const auto& name : world.faulty_names) {
    auto model = world.registry->Get(name);
    ASSERT_TRUE(model.ok());
    auto resilient = std::dynamic_pointer_cast<llm::ResilientModel>(*model);
    ASSERT_NE(resilient, nullptr);
    EXPECT_EQ(resilient->health().circuit,
              llm::CircuitBreaker::State::kClosed)
        << name;
  }
}

}  // namespace
}  // namespace llmms
