// The end-to-end benchmark: one workload per process.
//
//   llmms_perfbench --workload ask|rag|serve --seed N --seconds S --trace 0|1
//
// Builds the world several times (set-up), replays the seeded request
// sequence pass after pass for S seconds, checks every answer, and prints a
// `{"run": ...}` line with the run conditions and determinism values, then
// the result line. `--trace 0` reports the end-to-end metrics; `--trace 1`
// alternates untraced and traced passes and reports the per-layer metrics.
// A failed check is named on stderr and the exit code is 1.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "calibration.h"
#include "client.h"
#include "layers.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/eval/metrics.h"
#include "llmms/eval/qa_dataset.h"
#include "stats.h"
#include "workload.h"
#include "world.h"

namespace perfbench {
namespace {

using llmms::Json;

// Times are taken over passes (see Side); a run makes at least this many
// passes of each kind even when S is short.
constexpr size_t kMinPasses = 3;
// The quantile over replays that stands for a request's latency and for a
// pass's CPU time: one client replays the same work every pass, and the
// fastest tenth are the replays the host did not slow down (see README
// "Why the fast decile").
constexpr double kFastQuantile = 0.1;
// Host-speed calibrations after each pass (see calibration.h).
constexpr size_t kCalibrationsPerPass = 3;
constexpr double kNsPerMs = 1e6;
// The HTTP gauge sampler shares the one CPU with the system under test.
constexpr auto kGaugeInterval = std::chrono::milliseconds(1);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  // where a traced run writes its last pass's spans
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

struct Pass {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double cpu_s = 0;
  std::vector<OpRecord> records;  // by op index
};

// Samples of one kind of pass (untraced or traced). Latencies are kept per
// op, one sample per replay, so that percentiles and throughput can be taken
// over each request's fast-decile latency: the sequence is replayed pass
// after pass, and the fast decile over replays filters host slowdowns out of
// a request's latency while keeping which requests are slow. Raw samples
// feed the traced run's tails and `raw_throughput_qps`.
struct Side {
  // By op: latency of every request kind, and query / upload views of it.
  std::vector<std::vector<double>> op_ms, latency_ms, ttft_ms, upload_ms;
  std::vector<double> raw_latency_ms, raw_ttft_ms, raw_upload_ms;
  std::vector<double> raw_qps, cpu_ms_per_query;  // one per pass
  size_t ok = 0;
  size_t attempted = 0;

  // Adds one run of `sessions`; returns the queries that completed.
  size_t Add(const Workload& w, const std::vector<SessionOps>& sessions,
             const std::vector<OpRecord>& records) {
    size_t done = 0;
    for (const auto& session : sessions) {
      for (size_t idx : session) {
        const OpRecord& r = records[idx];
        const double ms = static_cast<double>(r.done_ns - r.issue_ns) / kNsPerMs;
        if (r.ok) op_ms[idx].push_back(ms);
        if (w.ops[idx].kind == OpKind::kUpload && r.ok) {
          upload_ms[idx].push_back(ms);
          raw_upload_ms.push_back(ms);
        }
        if (w.ops[idx].kind != OpKind::kQuery) continue;
        ++attempted;
        if (!r.ok) continue;
        ++ok;
        ++done;
        const int64_t chunk = r.first_chunk_ns >= 0 ? r.first_chunk_ns : r.done_ns;
        const double ttft = static_cast<double>(chunk - r.issue_ns) / kNsPerMs;
        latency_ms[idx].push_back(ms);
        ttft_ms[idx].push_back(ttft);
        raw_latency_ms.push_back(ms);
        raw_ttft_ms.push_back(ttft);
      }
    }
    return done;
  }
};

double Fast(const std::vector<double>& samples) {
  return Percentile(samples, kFastQuantile);
}

// The fast decile of each op's samples, for the ops that have any.
std::vector<double> PerOpFast(const std::vector<std::vector<double>>& by_op) {
  std::vector<double> out;
  for (const auto& samples : by_op) {
    if (!samples.empty()) out.push_back(Fast(samples));
  }
  return out;
}

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    if (failures_ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++failures_;
  }
  bool passed() const { return failures_ == 0; }

 private:
  size_t failures_ = 0;
};

// Digest of what a pass answered, in sequence order: text and counts.
uint64_t AnswersDigest(const Workload& w, const std::vector<OpRecord>& records) {
  uint64_t h = kFnvOffset;
  for (const auto& session : w.sessions) {
    for (size_t idx : session) {
      const OpRecord& r = records[idx];
      Fnv1a(&h, r.answer.data(), r.answer.size());
      const uint64_t counts[] = {r.tokens, r.rounds, r.retrieved, r.chunks,
                                 r.ok ? 1u : 0u};
      Fnv1a(&h, counts, sizeof(counts));
    }
  }
  return h;
}

// Restricts the process to the highest-numbered CPU it may run on. Called
// before any thread starts, so every thread inherits the restriction.
bool PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  return false;
}

// CPUs the process may run on.
int64_t AllowedCpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  return CPU_COUNT(&allowed);
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

class Bench {
 public:
  Bench(Args args, Workload workload)
      : args_(std::move(args)), w_(std::move(workload)) {}

  int Run();

 private:
  std::unique_ptr<Client> MakeClient() {
    return w_.http ? MakeHttpClient(world_.get())
                   : MakeInProcessClient(world_.get());
  }
  // Replaces the world with a freshly built one and runs the warm-up;
  // records the time as one set-up.
  bool Setup();
  // Checks that the world ends clean: no session collection left, and on
  // `serve` every accepted connection completed and none was shed.
  void CheckWorld();
  // `timed` passes replay the sequence; the others run upload probe slices.
  Pass RunPass(bool traced, const std::vector<SessionOps>& sessions,
               bool timed);
  void CheckRecords(const std::vector<SessionOps>& sessions,
                    const std::vector<OpRecord>& records, const char* phase);
  bool WriteSpans(const std::string& path) const;

  // Answer quality of one pass, identical for every pass and every run
  // with the same seed.
  struct Quality {
    double mean_reward = 0;
    double reward_per_token = 0;
    double tokens_per_query = 0;
    double rounds_per_query = 0;
  };
  Quality Score(const std::vector<OpRecord>& records) const;
  Json Conditions(size_t passes) const;

  Args args_;
  Workload w_;
  std::unique_ptr<World> world_;
  std::unique_ptr<Client> client_;
  std::vector<double> setup_s_;
  std::vector<double> calibration_ms_;
  Checks checks_;
  LayerTotals layers_;
  // The last traced pass, written out by WriteSpans.
  std::vector<Span> last_spans_;
  std::vector<OpRecord> last_records_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

bool Bench::Setup() {
  if (world_ != nullptr) CheckWorld();
  client_.reset();
  world_.reset();
  const int64_t t0 = NowNs();
  auto world = BuildWorld(args_.trace, w_.http);
  if (!world.ok()) {
    std::fprintf(stderr, "world build failed: %s\n",
                 world.status().ToString().c_str());
    return false;
  }
  world_ = std::move(world).value();
  client_ = MakeClient();
  std::vector<OpRecord> records(w_.ops.size());
  RunSessions(w_, w_.warmup, client_.get(), &records);
  setup_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  CheckRecords(w_.warmup, records, "warm-up");
  return true;
}

void Bench::CheckWorld() {
  for (const auto& name : world_->db->ListCollections()) {
    checks_.Expect(name.rfind("session-", 0) != 0,
                   "vector database still holds " + name);
  }
  if (world_->server != nullptr) {
    const auto& stats = world_->server->stats();
    checks_.Expect(stats.completed.load() == stats.accepted.load(),
                   "server completed " + std::to_string(stats.completed.load()) +
                       " of " + std::to_string(stats.accepted.load()) +
                       " accepted connections");
    checks_.Expect(stats.shed.load() == 0, "server shed connections");
  }
}

Pass Bench::RunPass(bool traced, const std::vector<SessionOps>& sessions,
                    bool timed) {
  Pass pass;
  pass.records.resize(w_.ops.size());
  // Every pass starts from an empty embedding cache, as the first one did:
  // replaying a sequence must not turn into a warm cache that distinct
  // questions would never see.
  world_->cache->Clear();
  world_->tracer.set_enabled(traced);

  // The HTTP gauges are sampled only in traced timed passes.
  std::atomic<bool> stop{false};
  std::vector<double> queued;
  std::vector<double> in_flight;
  std::thread sampler;
  size_t accepted0 = 0;
  size_t shed0 = 0;
  const bool sample = traced && timed && world_->server != nullptr;
  if (sample) {
    const llmms::app::HttpServerStats* stats = &world_->server->stats();
    accepted0 = stats->accepted.load();
    shed0 = stats->shed.load();
    sampler = std::thread([&stop, &queued, &in_flight, stats]() {
      while (!stop.load()) {
        queued.push_back(static_cast<double>(stats->queued.load()));
        in_flight.push_back(static_cast<double>(stats->in_flight.load()));
        std::this_thread::sleep_for(kGaugeInterval);
      }
    });
  }

  const double cpu0 = ProcessCpuSeconds();
  pass.start_ns = NowNs();
  RunSessions(w_, sessions, client_.get(), &pass.records);
  pass.end_ns = NowNs();
  pass.cpu_s = ProcessCpuSeconds() - cpu0;

  if (sampler.joinable()) {
    stop.store(true);
    sampler.join();
  }
  world_->tracer.set_enabled(false);
  if (traced) {
    std::vector<Span> spans = world_->tracer.Take();
    AccumulateLayers(w_, sessions, pass.records, spans, w_.http, &layers_);
    if (timed) {
      last_spans_ = std::move(spans);
      last_records_ = pass.records;
    }
    world_->tracer.ReleaseContexts();
    if (sample) {
      const auto& stats = world_->server->stats();
      layers_.queued_samples.insert(layers_.queued_samples.end(),
                                    queued.begin(), queued.end());
      layers_.in_flight_samples.insert(layers_.in_flight_samples.end(),
                                       in_flight.begin(), in_flight.end());
      layers_.http_accepted +=
          static_cast<double>(stats.accepted.load() - accepted0);
      layers_.http_shed += static_cast<double>(stats.shed.load() - shed0);
      layers_.http_seconds +=
          static_cast<double>(pass.end_ns - pass.start_ns) / 1e9;
    }
  }
  for (auto& r : pass.records) r.ctx.reset();
  return pass;
}

void Bench::CheckRecords(const std::vector<SessionOps>& sessions,
                         const std::vector<OpRecord>& records,
                         const char* phase) {
  for (const auto& session : sessions) {
    for (size_t idx : session) {
      const Op& op = w_.ops[idx];
      const OpRecord& r = records[idx];
      const std::string where = std::string(phase) + " session " + op.session;
      ++attempted_;
      if (!r.ok) ++failed_;
      checks_.Expect(r.ok, where + ": request failed: " + r.error);
      if (op.kind == OpKind::kQuery && r.ok) {
        checks_.Expect(!r.answer.empty(), where + ": empty answer");
        if (w_.name == "rag") {
          checks_.Expect(r.retrieved > 0,
                         where + ": rag query retrieved no chunks");
        }
      }
    }
  }
}

// Tab-separated: one `span` line per span of the last traced pass (kind,
// thread, request context as a small id, start and end in ns on the
// benchmark's clock, tokens or bytes), then one `request` line per request
// of that pass (op index, kind, session, context id or -, issued, first
// chunk, done).
bool Bench::WriteSpans(const std::string& path) const {
  static const char* const kKinds[] = {"model_start", "model_chunk", "kb_embed",
                                       "engine_embed", "inner_embed"};
  static const char* const kOps[] = {"query", "upload", "end_session"};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::map<const void*, size_t> ids;
  auto id = [&ids](const void* ctx) {
    return ids.emplace(ctx, ids.size() + 1).first->second;
  };
  for (const Span& s : last_spans_) {
    std::fprintf(f, "span\t%s\t%u\t%zu\t%" PRId64 "\t%" PRId64 "\t%" PRIu64 "\n",
                 kKinds[static_cast<int>(s.kind)], s.thread,
                 s.ctx != nullptr ? id(s.ctx) : 0, s.start_ns, s.end_ns,
                 s.amount);
  }
  for (const auto& session : w_.sessions) {
    for (size_t idx : session) {
      const OpRecord& r = last_records_[idx];
      const std::string ctx =
          r.ctx != nullptr ? std::to_string(id(r.ctx.get())) : "-";
      std::fprintf(f, "request\t%zu\t%s\t%s\t%s\t%" PRId64 "\t%" PRId64 "\t%" PRId64 "\n",
                   idx, kOps[static_cast<int>(w_.ops[idx].kind)],
                   w_.ops[idx].session.c_str(), ctx.c_str(), r.issue_ns,
                   r.first_chunk_ns, r.done_ns);
    }
  }
  return std::fclose(f) == 0;
}

int Bench::Run() {
  // Timed phase: whole passes of the sequence until S seconds are used; in
  // a traced run passes alternate untraced / traced. Each pass runs on a
  // freshly built and warmed-up world, so set-up is measured once per pass,
  // spread over the run like every other sample. On workloads with an
  // upload probe, a slice of it follows each pass, so probe uploads sample
  // the whole run too. Each pass is reduced to its samples right away; only
  // the first pass's records are kept, for scoring.
  Side side[2];
  for (Side& s : side) {
    s.op_ms.resize(w_.ops.size());
    s.latency_ms.resize(w_.ops.size());
    s.ttft_ms.resize(w_.ops.size());
    s.upload_ms.resize(w_.ops.size());
  }
  std::vector<OpRecord> first;
  uint64_t digest = 0;
  size_t passes = 0;
  size_t next_probe = 0;
  const int64_t budget_ns = static_cast<int64_t>(args_.seconds * 1e9);
  const size_t min_passes = args_.trace ? 2 * kMinPasses : kMinPasses;
  const int64_t phase_start = NowNs();
  int64_t last_round_ns = 0;  // set-up + pass + probe slice
  double peak_rss_mb = 0;
  while (passes < min_passes ||
         NowNs() - phase_start + last_round_ns <= budget_ns) {
    const int64_t round_start = NowNs();
    if (!Setup()) return 1;
    const bool traced = args_.trace && passes % 2 == 1;
    Pass pass = RunPass(traced, w_.sessions, /*timed=*/true);
    CheckRecords(w_.sessions, pass.records, "pass");
    Side& s = side[traced ? 1 : 0];
    const size_t done = s.Add(w_, w_.sessions, pass.records);
    s.raw_qps.push_back(static_cast<double>(done) * 1e9 /
                        static_cast<double>(pass.end_ns - pass.start_ns));
    s.cpu_ms_per_query.push_back(pass.cpu_s * 1e3 /
                                 static_cast<double>(std::max<size_t>(done, 1)));

    // Every pass must answer exactly as the first did.
    const uint64_t d = AnswersDigest(w_, pass.records);
    if (passes == 0) {
      digest = d;
      first = std::move(pass.records);
    } else {
      checks_.Expect(d == digest, "determinism: pass " + std::to_string(passes) +
                                      (traced ? " (traced)" : "") +
                                      " answered differently from pass 0");
    }
    ++passes;

    if (!w_.probe.empty()) {
      std::vector<SessionOps> slice;
      for (size_t k = 0; k < kProbeSessionsPerPass; ++k) {
        slice.push_back(w_.probe[next_probe++ % w_.probe.size()]);
      }
      Pass probe = RunPass(traced, slice, /*timed=*/false);
      CheckRecords(slice, probe.records, "probe");
      s.Add(w_, slice, probe.records);
    }
    for (size_t k = 0; k < kCalibrationsPerPass; ++k) {
      calibration_ms_.push_back(CalibrationMs());
    }
    last_round_ns = NowNs() - round_start;
    // Peak RSS of one world through its set-up and pass: later rebuilds add
    // allocator retention that grows with their number, not footprint.
    if (passes == 1) peak_rss_mb = PeakRssMb();
  }
  CheckWorld();

  const Quality quality = Score(first);
  const Side& u = side[0];
  const std::vector<double> latency = PerOpFast(u.latency_ms);
  const std::vector<double> ttft = PerOpFast(u.ttft_ms);
  const std::vector<double> uploads = PerOpFast(u.upload_ms);
  // Closed-loop throughput at each request's fast-decile latency: a pass's
  // queries over the time its client takes to run every request of the
  // pass (queries, uploads, session ends) at that request's fast decile.
  double pass_ms = 0;
  for (const auto& session : w_.sessions) {
    for (size_t idx : session) {
      if (!u.op_ms[idx].empty()) pass_ms += Fast(u.op_ms[idx]);
    }
  }
  const double throughput =
      static_cast<double>(w_.queries_per_pass) / (pass_ms / 1e3);

  Json metrics = Json::MakeObject();
  Json raw = Json::MakeObject();  // the measured times, before scaling
  auto add = [&](const std::string& name, double value, const char* unit) {
    checks_.Expect(std::isfinite(value), "metric " + name + " is not finite");
    Json metric = Json::MakeObject();
    metric.Set("value", std::isfinite(value) ? Json(value) : Json());
    metric.Set("unit", unit);
    metrics.Set(name, std::move(metric));
  };
  if (!args_.trace) {
    checks_.Expect(PercentileSupported(latency.size(), 0.9),
                   "too few queries for latency_p90_ms");
    checks_.Expect(PercentileSupported(uploads.size(), 0.5),
                   "too few uploads for upload_p50_ms");
    // Times are scaled to a host on which the calibration takes
    // kNominalCalibrationMs, each by the calibration's estimate taken the
    // way the time itself is (fast decile, or median for set-up); the
    // measured values go into the run line.
    const double slow_fast =
        Percentile(calibration_ms_, kFastQuantile) / kNominalCalibrationMs;
    const double slow_median = Median(calibration_ms_) / kNominalCalibrationMs;
    auto add_scaled = [&](const char* name, double measured, double slowness,
                          const char* unit) {
      raw.Set(name, measured);
      add(name, measured / slowness, unit);
    };
    add_scaled("setup_s", Median(setup_s_), slow_median, "s");
    add_scaled("throughput_qps", throughput, 1 / slow_fast, "1/s");
    add_scaled("latency_p50_ms", Percentile(latency, 0.5), slow_fast, "ms");
    add_scaled("latency_p90_ms", Percentile(latency, 0.9), slow_fast, "ms");
    add_scaled("ttft_p50_ms", Percentile(ttft, 0.5), slow_fast, "ms");
    add_scaled("cpu_ms_per_query", Fast(u.cpu_ms_per_query), slow_fast, "ms");
    add_scaled("upload_p50_ms", Percentile(uploads, 0.5), slow_fast, "ms");
    add("success_rate",
        static_cast<double>(u.ok) /
            static_cast<double>(std::max<size_t>(u.attempted, 1)),
        "ratio");
    add("mean_reward", quality.mean_reward, "reward");
    add("reward_per_token", quality.reward_per_token, "reward/token");
    add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    const Side& t = side[1];
    for (const auto& [name, value] : LayerMetrics(layers_)) {
      add(name, value.first, value.second.c_str());
    }
    add("trace.overhead_ratio",
        Percentile(PerOpFast(t.latency_ms), 0.5) / Percentile(latency, 0.5),
        "ratio");
    add("trace.overhead_ratio_cpu",
        Fast(t.cpu_ms_per_query) / Fast(u.cpu_ms_per_query), "ratio");
    checks_.Expect(layers_.unjoined_queries == 0,
                   std::to_string(layers_.unjoined_queries) +
                       " traced queries could not be joined to model spans");
    if (!args_.spans_path.empty()) {
      checks_.Expect(WriteSpans(args_.spans_path),
                     "could not write spans to " + args_.spans_path);
    }
  }

  // The run line: conditions, sample counts, determinism values and, for a
  // traced run, the tails that are too unsteady to gate on.
  Json run = Json::MakeObject();
  run.Set("workload", w_.name);
  run.Set("seed", static_cast<size_t>(args_.seed));
  run.Set("trace", args_.trace ? 1 : 0);
  run.Set("fingerprint", Hex(w_.fingerprint));
  run.Set("conditions", Conditions(passes));
  Json samples = Json::MakeObject();
  samples.Set("queries", latency.size());
  samples.Set("latency_p90_beyond", SamplesBeyond(latency.size(), 0.9));
  samples.Set("query_replays", u.raw_latency_ms.size());
  samples.Set("uploads", uploads.size());
  samples.Set("upload_replays", u.raw_upload_ms.size());
  samples.Set("raw_throughput_qps", Median(u.raw_qps));
  run.Set("samples", std::move(samples));
  Json host = Json::MakeObject();
  host.Set("calibrations", calibration_ms_.size());
  host.Set("calibration_ms_fast", Percentile(calibration_ms_, kFastQuantile));
  host.Set("calibration_ms_median", Median(calibration_ms_));
  host.Set("nominal_calibration_ms", kNominalCalibrationMs);
  host.Set("measured", std::move(raw));
  run.Set("host", std::move(host));
  Json determinism = Json::MakeObject();
  determinism.Set("mean_reward", quality.mean_reward);
  determinism.Set("reward_per_token", quality.reward_per_token);
  determinism.Set("core.tokens_per_query", quality.tokens_per_query);
  determinism.Set("core.rounds_per_query", quality.rounds_per_query);
  determinism.Set("answers", Hex(digest));
  run.Set("determinism", std::move(determinism));
  Json setups = Json::MakeArray();
  for (double s : setup_s_) setups.Append(s);
  run.Set("setup_s", std::move(setups));
  if (args_.trace) {
    auto tail = [](const std::vector<double>& v, double p) {
      return PercentileSupported(v.size(), p) ? Json(Percentile(v, p)) : Json();
    };
    Json tails = Json::MakeObject();
    tails.Set("latency_p99_ms", tail(u.raw_latency_ms, 0.99));
    tails.Set("ttft_p99_ms", tail(u.raw_ttft_ms, 0.99));
    tails.Set("upload_p99_ms", tail(u.raw_upload_ms, 0.99));
    tails.Set("latency_samples", u.raw_latency_ms.size());
    tails.Set("upload_samples", u.raw_upload_ms.size());
    run.Set("tails", std::move(tails));
  }
  Json run_line = Json::MakeObject();
  run_line.Set("run", std::move(run));
  std::printf("%s\n", run_line.Dump().c_str());

  Json result = Json::MakeObject();
  result.Set("correct", checks_.passed());
  result.Set("attempted", attempted_);
  result.Set("failed", failed_);
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);

  client_.reset();
  world_.reset();
  return checks_.passed() ? 0 : 1;
}

Bench::Quality Bench::Score(const std::vector<OpRecord>& records) const {
  // Eq. 8.1, scored outside the timed phase with a separate embedder so it
  // touches neither the cache nor the trace.
  llmms::embedding::HashEmbedder scorer;
  double reward = 0;
  double tokens = 0;
  double rounds = 0;
  for (const auto& session : w_.sessions) {
    for (size_t idx : session) {
      const Op& op = w_.ops[idx];
      if (op.kind != OpKind::kQuery) continue;
      const OpRecord& r = records[idx];
      if (r.ok) {
        reward += llmms::eval::ScoreResponse(scorer, world_->dataset[op.item],
                                             r.answer)
                      .reward;
      }
      tokens += static_cast<double>(r.tokens);
      rounds += static_cast<double>(r.rounds);
    }
  }
  const double queries =
      static_cast<double>(std::max<size_t>(w_.queries_per_pass, 1));
  Quality q;
  q.mean_reward = reward / queries;
  q.reward_per_token = tokens > 0 ? reward / tokens : 0.0;
  q.tokens_per_query = tokens / queries;
  q.rounds_per_query = rounds / queries;
  return q;
}

Json Bench::Conditions(size_t passes) const {
  size_t warmup_requests = 0;
  for (const auto& s : w_.warmup) warmup_requests += s.size();
  size_t probe_requests = 0;
  for (const auto& s : w_.probe) probe_requests += s.size();
  double upload_bytes = 0;
  size_t upload_count = 0;
  for (const auto& op : w_.ops) {
    if (op.kind != OpKind::kUpload) continue;
    upload_bytes += static_cast<double>(op.body["text"].AsString().size());
    ++upload_count;
  }
  Json c = Json::MakeObject();
  c.Set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  c.Set("cpus", AllowedCpus());
  c.Set("pool_threads", kPoolThreads);
  c.Set("http_workers", w_.http ? 1 : 0);
  c.Set("clients", 1);
  c.Set("queries_per_pass", w_.queries_per_pass);
  c.Set("uploads_per_pass", w_.uploads_per_pass);
  c.Set("bytes_per_upload",
        upload_bytes / static_cast<double>(std::max<size_t>(upload_count, 1)));
  c.Set("warmup_requests", warmup_requests);
  c.Set("probe_requests", probe_requests);
  c.Set("passes", passes);
  c.Set("setups", setup_s_.size());
  c.Set("seconds", args_.seconds);
  c.Set("build_type", PERFBENCH_BUILD_TYPE);
  c.Set("compiler", PERFBENCH_COMPILER);
  return c;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload ask|rag|serve --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n",
                 argv[0]);
    return 2;
  }
  llmms::eval::DatasetOptions dataset_options;
  dataset_options.questions_per_domain = perfbench::kQuestionsPerDomain;
  const auto dataset = llmms::eval::GenerateDataset(dataset_options);
  perfbench::Workload workload;
  if (!perfbench::MakeWorkload(args.workload, args.seed, dataset, &workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Every workload runs on one CPU (see README "Why one CPU").
  if (!perfbench::PinToOneCpu()) {
    std::perror("sched_setaffinity");
    return 2;
  }
  return perfbench::Bench(std::move(args), std::move(workload)).Run();
}
