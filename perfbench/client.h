#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

// Closed-loop clients: each runs one request at a time and waits for the
// full response before sending the next.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "llmms/common/deadline.h"
#include "workload.h"
#include "world.h"

namespace perfbench {

// What the benchmark saw of one request.
struct OpRecord {
  int64_t issue_ns = 0;
  int64_t first_chunk_ns = -1;  // first `chunk` event (queries)
  int64_t done_ns = 0;
  bool ok = false;
  std::string error;
  std::string answer;
  size_t tokens = 0;
  size_t rounds = 0;
  size_t prunes = 0;
  size_t retrieved = 0;
  size_t chunks = 0;     // uploads: chunks ingested
  int64_t records = -1;  // session ends: collection size before the end
  uint32_t thread = 0;   // thread that ran the request in-process; 0 = HTTP
  // In-process queries: the context handed to the service. Held until the
  // pass is analysed so its address names one request.
  std::shared_ptr<llmms::RequestContext> ctx;
};

class Client {
 public:
  virtual ~Client() = default;
  virtual void Execute(const Op& op, OpRecord* record) = 0;
};

// ApiService::Handle with a StreamCallback, on the calling thread.
std::unique_ptr<Client> MakeInProcessClient(World* world);
// One connection per request to the world's HttpServer; queries use
// `?stream=1` and are timed to the first SSE chunk frame and to the end of
// the stream.
std::unique_ptr<Client> MakeHttpClient(World* world);

// Runs `sessions` in order on the calling thread, the benchmark's one
// closed-loop client, and fills records[op index].
void RunSessions(const Workload& workload,
                 const std::vector<SessionOps>& sessions, Client* client,
                 std::vector<OpRecord>* records);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
