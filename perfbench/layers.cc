#include "layers.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <unordered_map>
#include <utility>

#include "stats.h"

namespace perfbench {
namespace {

constexpr double kNsPerMs = 1e6;

struct Group {
  std::vector<Interval> starts;
  std::vector<Interval> chunks;
  int64_t first_start = std::numeric_limits<int64_t>::max();
  int64_t last_end = 0;
  // The thread that started generation, which runs the request.
  uint32_t thread = 0;
  const std::string* prompt = nullptr;
};

Interval Of(const Span& s) { return Interval{s.start_ns, s.end_ns}; }

// The spans of `sorted` (ordered by start) that lie inside [from, to].
std::vector<Interval> Within(const std::vector<const Span*>& sorted,
                             int64_t from, int64_t to) {
  std::vector<Interval> out;
  auto it = std::lower_bound(
      sorted.begin(), sorted.end(), from,
      [](const Span* s, int64_t t) { return s->start_ns < t; });
  for (; it != sorted.end() && (*it)->start_ns < to; ++it) {
    if ((*it)->end_ns <= to) out.push_back(Of(**it));
  }
  return out;
}

double Sum(const std::vector<Interval>& v) {
  double total = 0;
  for (const auto& i : v) total += static_cast<double>(i.end - i.start);
  return total;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double P50(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Percentile(v, 0.5);
}

}  // namespace

void AccumulateLayers(const Workload& workload,
                      const std::vector<SessionOps>& sessions,
                      const std::vector<OpRecord>& records,
                      const std::vector<Span>& spans, bool http,
                      LayerTotals* t) {
  std::unordered_map<const void*, Group> groups;
  std::unordered_map<uint32_t, std::vector<const Span*>> engine_by_thread;
  std::vector<const Span*> engine_all;
  for (const Span& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    switch (s.kind) {
      case SpanKind::kModelStart: {
        Group& g = groups[s.ctx];
        g.starts.push_back(Of(s));
        if (s.start_ns < g.first_start) {
          g.first_start = s.start_ns;
          g.thread = s.thread;
          g.prompt = &s.prompt;
        }
        g.last_end = std::max(g.last_end, s.end_ns);
        t->start_ns += dur;
        ++t->starts;
        break;
      }
      case SpanKind::kModelChunk: {
        Group& g = groups[s.ctx];
        g.chunks.push_back(Of(s));
        g.last_end = std::max(g.last_end, s.end_ns);
        t->chunk_ns += dur;
        ++t->chunk_calls;
        break;
      }
      case SpanKind::kKbEmbed:
        t->kb_embed_ns += dur;
        ++t->kb_embeds;
        break;
      case SpanKind::kEngineEmbed:
        engine_by_thread[s.thread].push_back(&s);
        engine_all.push_back(&s);
        ++t->engine_embeds;
        break;
      case SpanKind::kInnerEmbed:
        t->inner_ns += dur;
        t->inner_bytes += static_cast<double>(s.amount);
        ++t->inner_embeds;
        break;
    }
  }
  auto by_start = [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  };
  for (auto& [thread, list] : engine_by_thread) {
    std::sort(list.begin(), list.end(), by_start);
  }
  std::sort(engine_all.begin(), engine_all.end(), by_start);

  std::vector<size_t> queries;
  std::vector<size_t> uploads;
  std::vector<size_t> ends;
  for (const auto& session : sessions) {
    for (size_t idx : session) {
      switch (workload.ops[idx].kind) {
        case OpKind::kQuery:
          queries.push_back(idx);
          break;
        case OpKind::kUpload:
          uploads.push_back(idx);
          break;
        case OpKind::kEndSession:
          ends.push_back(idx);
          break;
      }
    }
  }

  // Join generation groups to queries. In-process the benchmark made each
  // query's context itself. Over HTTP the server makes it, so a group
  // belongs to the query that was in flight when its first model started
  // and whose question is in the prompt (the earliest such, if two are).
  std::unordered_map<size_t, Group*> bound;
  if (!http) {
    std::unordered_map<const void*, size_t> by_ctx;
    for (size_t idx : queries) by_ctx[records[idx].ctx.get()] = idx;
    for (auto& [ctx, g] : groups) {
      auto it = by_ctx.find(ctx);
      if (it != by_ctx.end()) bound[it->second] = &g;
    }
  } else {
    std::vector<Group*> ordered;
    for (auto& [ctx, g] : groups) {
      if (!g.starts.empty()) ordered.push_back(&g);
    }
    std::sort(ordered.begin(), ordered.end(), [](const Group* a, const Group* b) {
      return a->first_start < b->first_start;
    });
    for (Group* g : ordered) {
      size_t best = SIZE_MAX;
      for (size_t idx : queries) {
        const OpRecord& r = records[idx];
        if (bound.count(idx) > 0 || r.issue_ns > g->first_start ||
            r.done_ns < g->first_start) {
          continue;
        }
        if (g->prompt == nullptr ||
            g->prompt->find(workload.ops[idx].query) == std::string::npos) {
          continue;
        }
        if (best == SIZE_MAX || r.issue_ns < records[best].issue_ns) best = idx;
      }
      if (best != SIZE_MAX) bound[best] = g;
    }
  }

  // Engine embeds of each query. In-process the one client's thread runs
  // its queries one at a time. Over HTTP a worker thread runs one request
  // after another, and the client's window of one can overlap the next, so
  // an embed belongs to the query whose generation started last on its
  // thread before the embed did.
  std::unordered_map<size_t, std::vector<Interval>> query_embeds;
  if (!http) {
    for (size_t idx : queries) {
      const OpRecord& r = records[idx];
      auto it = engine_by_thread.find(r.thread);
      if (it != engine_by_thread.end()) {
        query_embeds[idx] = Within(it->second, r.issue_ns, r.done_ns);
      }
    }
  } else {
    std::unordered_map<uint32_t, std::vector<std::pair<int64_t, size_t>>> runs;
    for (const auto& [idx, g] : bound) {
      runs[g->thread].push_back({g->first_start, idx});
    }
    for (auto& [thread, list] : runs) std::sort(list.begin(), list.end());
    for (const Span* e : engine_all) {
      auto it = runs.find(e->thread);
      if (it == runs.end()) continue;
      const auto& list = it->second;
      auto next = std::upper_bound(
          list.begin(), list.end(), std::make_pair(e->start_ns, SIZE_MAX));
      if (next == list.begin()) continue;
      const size_t idx = std::prev(next)->second;
      if (e->end_ns <= records[idx].done_ns) query_embeds[idx].push_back(Of(*e));
    }
  }

  for (size_t idx : queries) {
    const OpRecord& r = records[idx];
    ++t->queries;
    t->request_ns += static_cast<double>(r.done_ns - r.issue_ns);
    t->rounds += r.rounds;
    t->tokens += r.tokens;
    t->prunes += r.prunes;
    t->retrieved += r.retrieved;
    auto it = bound.find(idx);
    if (it == bound.end()) {
      ++t->unjoined_queries;
      continue;
    }
    const Group& g = *it->second;
    std::vector<Interval> model = g.starts;
    model.insert(model.end(), g.chunks.begin(), g.chunks.end());
    t->substrate_union_ns += static_cast<double>(UnionLength(model));
    t->chunk_sum_ns += Sum(g.chunks);
    t->chunk_union_ns += static_cast<double>(UnionLength(g.chunks));

    const std::vector<Interval>& embeds = query_embeds[idx];
    t->engine_query_embed_ns += Sum(embeds);
    t->engine_query_embeds += embeds.size();

    const Interval gen{g.first_start, g.last_end};
    std::vector<Interval> children = model;
    for (const auto& e : embeds) {
      if (e.start >= gen.start && e.end <= gen.end) children.push_back(e);
    }
    t->core_self_ns += static_cast<double>(SelfTime(gen, children));
    t->pregen_ms.push_back(static_cast<double>(gen.start - r.issue_ns) / kNsPerMs);
    t->gen_ms.push_back(static_cast<double>(gen.end - gen.start) / kNsPerMs);
    t->postgen_ms.push_back(static_cast<double>(r.done_ns - gen.end) / kNsPerMs);
  }

  for (size_t idx : uploads) {
    const OpRecord& r = records[idx];
    std::vector<Interval> embeds;
    if (r.thread == 0) {
      embeds = Within(engine_all, r.issue_ns, r.done_ns);
    } else if (auto it = engine_by_thread.find(r.thread);
               it != engine_by_thread.end()) {
      embeds = Within(it->second, r.issue_ns, r.done_ns);
    }
    const double embed_ms = Sum(embeds) / kNsPerMs;
    t->upload_embed_ms.push_back(embed_ms);
    t->upload_index_ms.push_back(
        static_cast<double>(r.done_ns - r.issue_ns) / kNsPerMs - embed_ms);
    t->chunks_per_upload.push_back(static_cast<double>(r.chunks));
  }
  for (size_t idx : ends) {
    if (records[idx].records >= 0) {
      t->records_per_session.push_back(
          static_cast<double>(records[idx].records));
    }
  }
}

std::map<std::string, std::pair<double, std::string>> LayerMetrics(
    const LayerTotals& t) {
  const double q = static_cast<double>(std::max<size_t>(t.queries, 1));
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  std::map<std::string, std::pair<double, std::string>> m;
  m["llm.substrate.start_ms_per_query"] = {t.start_ns / kNsPerMs / q, "ms"};
  m["llm.substrate.kb_embed_ms_per_query"] = {t.kb_embed_ns / kNsPerMs / q,
                                              "ms"};
  m["llm.substrate.chunk_ms_per_query"] = {t.chunk_ns / kNsPerMs / q, "ms"};
  m["llm.substrate.starts_per_query"] = {static_cast<double>(t.starts) / q,
                                         "count"};
  m["llm.substrate.share"] = {ratio(t.substrate_union_ns, t.request_ns),
                              "ratio"};
  m["llm.runtime.parallel_speedup"] = {ratio(t.chunk_sum_ns, t.chunk_union_ns),
                                       "ratio"};
  m["llm.runtime.chunks_per_query"] = {static_cast<double>(t.chunk_calls) / q,
                                       "count"};
  m["core.self_ms_per_query"] = {t.core_self_ns / kNsPerMs / q, "ms"};
  m["core.rounds_per_query"] = {static_cast<double>(t.rounds) / q, "count"};
  m["core.tokens_per_query"] = {static_cast<double>(t.tokens) / q, "tokens"};
  m["core.prunes_per_query"] = {static_cast<double>(t.prunes) / q, "count"};
  m["embedding.query_ms_per_query"] = {
      t.engine_query_embed_ns / kNsPerMs / q, "ms"};
  m["embedding.calls_per_query"] = {
      static_cast<double>(t.kb_embeds + t.engine_query_embeds) / q, "count"};
  m["embedding.cache_hit_ratio"] = {
      1.0 - ratio(static_cast<double>(t.inner_embeds),
                  static_cast<double>(t.kb_embeds + t.engine_embeds)),
      "ratio"};
  m["embedding.mb_per_s"] = {ratio(t.inner_bytes / 1e6, t.inner_ns / 1e9),
                             "MB/s"};
  m["rag.upload_embed_ms_p50"] = {P50(t.upload_embed_ms), "ms"};
  m["vectordb.upload_index_ms_p50"] = {P50(t.upload_index_ms), "ms"};
  m["rag.chunks_per_upload"] = {Mean(t.chunks_per_upload), "count"};
  m["vectordb.records_per_session"] = {Mean(t.records_per_session), "count"};
  m["phase.pregen_ms_p50"] = {P50(t.pregen_ms), "ms"};
  m["rag.retrieved_chunks_per_query"] = {static_cast<double>(t.retrieved) / q,
                                         "count"};
  m["phase.gen_ms_p50"] = {P50(t.gen_ms), "ms"};
  m["phase.postgen_ms_p50"] = {P50(t.postgen_ms), "ms"};
  m["app.http.queue_wait_ms"] = {
      LittleWaitSeconds(t.queued_samples, t.http_accepted, t.http_seconds) *
          1e3,
      "ms"};
  m["app.http.in_flight_mean"] = {Mean(t.in_flight_samples), "count"};
  m["app.http.shed_ratio"] = {ratio(t.http_shed, t.http_accepted), "ratio"};
  return m;
}

}  // namespace perfbench
