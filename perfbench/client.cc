#include "client.h"

#include "llmms/app/sse.h"
#include "llmms/vectordb/database.h"

namespace perfbench {
namespace {

using llmms::Json;

constexpr double kHttpTimeoutSeconds = 30.0;

const char* Endpoint(OpKind kind) {
  switch (kind) {
    case OpKind::kQuery:
      return "/api/query";
    case OpKind::kUpload:
      return "/api/upload";
    case OpKind::kEndSession:
      return "/api/session/end";
  }
  return "";
}

void FillFromResponse(const Op& op, const Json& response, OpRecord* rec) {
  rec->ok = response["ok"].AsBool();
  if (!rec->ok) {
    rec->error = response["error"]["message"].AsString();
    if (rec->error.empty()) rec->error = response["message"].AsString();
    return;
  }
  if (op.kind == OpKind::kQuery) {
    rec->answer = response["answer"].AsString();
    rec->tokens = static_cast<size_t>(response["total_tokens"].AsInt());
    rec->rounds = static_cast<size_t>(response["rounds"].AsInt());
    rec->retrieved = static_cast<size_t>(response["retrieved_chunks"].AsInt());
  } else if (op.kind == OpKind::kUpload) {
    rec->chunks = static_cast<size_t>(response["chunks"].AsInt());
  }
}

// The vector collection size of a session about to end, if it has one;
// read only while tracing (it is a per-layer count, not part of any timed
// request).
void RecordCollectionSize(World* world, const Op& op, OpRecord* rec) {
  if (op.kind != OpKind::kEndSession || !world->tracer.enabled()) return;
  auto collection = world->db->GetCollection("session-" + op.session);
  if (collection.ok()) {
    rec->records = static_cast<int64_t>((*collection)->size());
  }
}

class InProcessClient final : public Client {
 public:
  explicit InProcessClient(World* world) : world_(world) {}

  void Execute(const Op& op, OpRecord* rec) override {
    RecordCollectionSize(world_, op, rec);
    rec->thread = ThreadTag();
    llmms::app::StreamCallback callback;
    if (op.kind == OpKind::kQuery) {
      rec->ctx = llmms::RequestContext::Unbounded();
      callback = [rec](const Json& event) {
        const std::string& type = event["type"].AsString();
        if (type == "chunk") {
          if (rec->first_chunk_ns < 0) rec->first_chunk_ns = NowNs();
        } else if (type == "prune") {
          ++rec->prunes;
        }
      };
    }
    rec->issue_ns = NowNs();
    const Json response =
        world_->service->Handle(Endpoint(op.kind), op.body, callback, rec->ctx);
    rec->done_ns = NowNs();
    FillFromResponse(op, response, rec);
  }

 private:
  World* world_;
};

class HttpClient final : public Client {
 public:
  explicit HttpClient(World* world)
      : world_(world), port_(world->server->port()) {}

  void Execute(const Op& op, OpRecord* rec) override {
    RecordCollectionSize(world_, op, rec);
    rec->issue_ns = NowNs();
    if (op.kind == OpKind::kQuery) {
      Query(op, rec);
    } else {
      auto response =
          llmms::app::HttpFetch("127.0.0.1", port_, "POST", Endpoint(op.kind),
                                op.wire_body, "application/json",
                                kHttpTimeoutSeconds);
      rec->done_ns = NowNs();
      if (!response.ok()) {
        rec->error = response.status().ToString();
        return;
      }
      auto parsed = Json::Parse(response->body);
      if (!parsed.ok()) {
        rec->error = "unparseable response: " + parsed.status().ToString();
        return;
      }
      FillFromResponse(op, *parsed, rec);
    }
  }

 private:
  void Query(const Op& op, OpRecord* rec) {
    auto stream = llmms::app::HttpClientStream::Open(
        "127.0.0.1", port_, "POST", "/api/query?stream=1", op.wire_body,
        "application/json", kHttpTimeoutSeconds,
        /*accept_event_stream=*/true);
    if (!stream.ok()) {
      rec->done_ns = NowNs();
      rec->error = stream.status().ToString();
      return;
    }
    if ((*stream)->head().status != 200) {
      rec->done_ns = NowNs();
      rec->error = "HTTP status " + std::to_string((*stream)->head().status);
      return;
    }
    llmms::app::SseDecoder decoder;
    std::string result;
    while (!(*stream)->exhausted()) {
      auto bytes = (*stream)->Read();
      if (!bytes.ok()) {
        rec->done_ns = NowNs();
        rec->error = bytes.status().ToString();
        return;
      }
      for (auto& event : decoder.Feed(*bytes)) {
        if (event.event == "result") {
          result = std::move(event.data);
        } else if (event.data.find("\"type\":\"chunk\"") != std::string::npos) {
          if (rec->first_chunk_ns < 0) rec->first_chunk_ns = NowNs();
        } else if (event.data.find("\"type\":\"prune\"") != std::string::npos) {
          ++rec->prunes;
        }
      }
    }
    rec->done_ns = NowNs();
    auto parsed = Json::Parse(result);
    if (!parsed.ok()) {
      rec->error = "no result frame: " + parsed.status().ToString();
      return;
    }
    FillFromResponse(op, *parsed, rec);
  }

  World* world_;
  int port_;
};

}  // namespace

std::unique_ptr<Client> MakeInProcessClient(World* world) {
  return std::make_unique<InProcessClient>(world);
}

std::unique_ptr<Client> MakeHttpClient(World* world) {
  return std::make_unique<HttpClient>(world);
}

void RunSessions(const Workload& workload,
                 const std::vector<SessionOps>& sessions, Client* client,
                 std::vector<OpRecord>* records) {
  for (const auto& session : sessions) {
    for (size_t idx : session) {
      client->Execute(workload.ops[idx], &(*records)[idx]);
    }
  }
}

}  // namespace perfbench
