#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Outside-in tracing: decorators over the library's public seams
// (llm::LanguageModel / GenerationStream and embedding::Embedder) that time
// each call into a layer and keep the spans in memory. Tracing is switched
// on and off between passes, when no request is in flight; while it is off
// the decorators only forward.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "llmms/common/deadline.h"
#include "llmms/embedding/embedder.h"
#include "llmms/llm/model.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kModelStart,   // LanguageModel::StartGeneration (substrate: plan + lookup)
  kModelChunk,   // GenerationStream::NextChunk (substrate: synthesis)
  kKbEmbed,      // embeds by the knowledge base (substrate)
  kEngineEmbed,  // embeds by the engine: scoring, RAG ingest and retrieval
  kInnerEmbed,   // embeds that missed the cache and reached HashEmbedder
};

struct Span {
  SpanKind kind = SpanKind::kModelStart;
  uint32_t thread = 0;        // small per-thread id, see ThreadTag()
  const void* ctx = nullptr;  // the request's RequestContext (model spans)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t amount = 0;  // tokens (chunks) or text bytes (embeds)
  std::string prompt;   // kModelStart only, when prompts are kept
};

// Nanoseconds on the steady clock since process start of the benchmark.
int64_t NowNs();

// A small stable id for the calling thread.
uint32_t ThreadTag();

class Tracer {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  // Whether model-start spans copy the prompt (needed to join spans to
  // requests when the HTTP server, not the benchmark, owns the context).
  // Set before any request runs.
  void set_keep_prompts(bool keep) { keep_prompts_ = keep; }
  bool keep_prompts() const { return keep_prompts_; }

  void Record(Span span);
  // Keeps a request context alive until the spans are consumed, so that
  // its address identifies one request for the whole trace.
  void Retain(std::shared_ptr<llmms::RequestContext> ctx);

  // Hands over the spans recorded so far.
  std::vector<Span> Take();
  // Drops retained contexts; call after the spans that name them are used.
  void ReleaseContexts();

 private:
  std::atomic<bool> enabled_{false};
  bool keep_prompts_ = false;
  std::mutex mu_;  // guards spans_ and retained_
  std::vector<Span> spans_;
  std::vector<std::shared_ptr<llmms::RequestContext>> retained_;
};

class TracedModel final : public llmms::llm::LanguageModel {
 public:
  TracedModel(std::shared_ptr<llmms::llm::LanguageModel> inner,
              Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  const std::string& name() const override { return inner_->name(); }
  uint64_t memory_mb() const override { return inner_->memory_mb(); }
  double tokens_per_second() const override {
    return inner_->tokens_per_second();
  }
  size_t context_window() const override { return inner_->context_window(); }
  llmms::StatusOr<std::unique_ptr<llmms::llm::GenerationStream>>
  StartGeneration(const llmms::llm::GenerationRequest& request) const override;

 private:
  std::shared_ptr<llmms::llm::LanguageModel> inner_;
  Tracer* tracer_;
};

class TracedEmbedder final : public llmms::embedding::Embedder {
 public:
  TracedEmbedder(std::shared_ptr<const llmms::embedding::Embedder> inner,
                 Tracer* tracer, SpanKind kind)
      : inner_(std::move(inner)), tracer_(tracer), kind_(kind) {}

  llmms::embedding::Vector Embed(std::string_view text) const override;
  size_t dimension() const override { return inner_->dimension(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const llmms::embedding::Embedder> inner_;
  Tracer* tracer_;
  SpanKind kind_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
