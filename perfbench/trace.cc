#include "trace.h"

namespace perfbench {
namespace {

using llmms::StatusOr;
using llmms::llm::Chunk;
using llmms::llm::GenerationRequest;
using llmms::llm::GenerationStream;
using llmms::llm::StopReason;

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

class TracedStream final : public GenerationStream {
 public:
  TracedStream(std::unique_ptr<GenerationStream> inner, Tracer* tracer,
               const void* ctx)
      : inner_(std::move(inner)), tracer_(tracer), ctx_(ctx) {}

  StatusOr<Chunk> NextChunk(size_t max_tokens) override {
    if (!tracer_->enabled()) return inner_->NextChunk(max_tokens);
    Span span;
    span.kind = SpanKind::kModelChunk;
    span.thread = ThreadTag();
    span.ctx = ctx_;
    span.start_ns = NowNs();
    auto chunk = inner_->NextChunk(max_tokens);
    span.end_ns = NowNs();
    if (chunk.ok()) span.amount = chunk->num_tokens;
    tracer_->Record(std::move(span));
    return chunk;
  }
  const std::string& text() const override { return inner_->text(); }
  size_t tokens_generated() const override {
    return inner_->tokens_generated();
  }
  bool finished() const override { return inner_->finished(); }
  StopReason stop_reason() const override { return inner_->stop_reason(); }

 private:
  std::unique_ptr<GenerationStream> inner_;
  Tracer* tracer_;
  const void* ctx_;
};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tag = next.fetch_add(1);
  return tag;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void Tracer::Retain(std::shared_ptr<llmms::RequestContext> ctx) {
  if (ctx == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  retained_.push_back(std::move(ctx));
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

void Tracer::ReleaseContexts() {
  std::vector<std::shared_ptr<llmms::RequestContext>> released;
  {
    std::lock_guard<std::mutex> lock(mu_);
    released.swap(retained_);
  }
}

StatusOr<std::unique_ptr<GenerationStream>> TracedModel::StartGeneration(
    const GenerationRequest& request) const {
  if (!tracer_->enabled()) return inner_->StartGeneration(request);
  Span span;
  span.kind = SpanKind::kModelStart;
  span.thread = ThreadTag();
  span.ctx = request.context.get();
  if (tracer_->keep_prompts()) span.prompt = request.prompt;
  span.start_ns = NowNs();
  auto stream = inner_->StartGeneration(request);
  span.end_ns = NowNs();
  tracer_->Retain(request.context);
  tracer_->Record(std::move(span));
  if (!stream.ok()) return stream;
  return std::unique_ptr<GenerationStream>(std::make_unique<TracedStream>(
      std::move(stream).value(), tracer_, request.context.get()));
}

llmms::embedding::Vector TracedEmbedder::Embed(std::string_view text) const {
  if (!tracer_->enabled()) return inner_->Embed(text);
  Span span;
  span.kind = kind_;
  span.thread = ThreadTag();
  span.amount = text.size();
  span.start_ns = NowNs();
  auto vector = inner_->Embed(text);
  span.end_ns = NowNs();
  tracer_->Record(std::move(span));
  return vector;
}

}  // namespace perfbench
