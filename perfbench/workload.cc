#include "workload.h"

#include <algorithm>
#include <array>

#include "llmms/common/rng.h"

namespace perfbench {
namespace {

using llmms::Json;
using llmms::llm::QaItem;

// Paragraphs per uploaded document (about 4 KB): the targets' paragraphs
// among other questions', so that retrieval has to find the relevant chunks
// among unrelated ones.
constexpr size_t kParagraphsPerDoc = 26;
constexpr uint64_t kWarmupSeed = 0x5eed;

// Hashes `s` and a separator, so ("ab","c") and ("a","bc") differ.
void Fnv(uint64_t* h, const std::string& s) {
  Fnv1a(h, s.data(), s.size());
  const unsigned char separator = 0xff;
  Fnv1a(h, &separator, 1);
}

// Seeded Fisher-Yates.
template <typename T>
void Shuffle(std::vector<T>* v, llmms::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    const auto j = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

std::vector<size_t> Permutation(size_t n, llmms::Rng* rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  Shuffle(&order, rng);
  return order;
}

constexpr std::array<const char*, 3> kAlgorithms = {"oua", "mab", "hybrid"};

// Mostly OUA (the service default), plus MAB and hybrid: exactly 70/15/15
// per pass in seeded order, so that the mix, which sets the latency tail,
// is the same for every seed.
std::vector<const char*> AlgorithmMix(size_t n, llmms::Rng* rng) {
  const size_t mab = n * 15 / 100;
  const size_t hybrid = n * 15 / 100;
  std::vector<const char*> mix(n, kAlgorithms[0]);
  std::fill(mix.begin(), mix.begin() + static_cast<ptrdiff_t>(mab),
            kAlgorithms[1]);
  std::fill(mix.begin() + static_cast<ptrdiff_t>(mab),
            mix.begin() + static_cast<ptrdiff_t>(mab + hybrid), kAlgorithms[2]);
  Shuffle(&mix, rng);
  return mix;
}

// "<prefix><n>", built by appending (GCC 12 warns falsely on "s" + string).
std::string Id(const char* prefix, size_t n) {
  std::string id = prefix;
  id += std::to_string(n);
  return id;
}

std::string Paragraph(const QaItem& item) {
  std::string text = item.question + " " + item.golden + ".";
  for (const auto& answer : item.correct) text += " " + answer + ".";
  return text;
}

class Builder {
 public:
  explicit Builder(Workload* w) : w_(w) {}

  size_t Add(OpKind kind, const std::string& session, Json body,
             size_t item = 0, std::string query = "") {
    Op op;
    op.kind = kind;
    op.session = session;
    body.Set("session", session);
    op.wire_body = body.Dump();
    op.body = std::move(body);
    op.item = item;
    op.query = std::move(query);
    w_->ops.push_back(std::move(op));
    return w_->ops.size() - 1;
  }

  size_t Query(const std::string& session, const std::vector<QaItem>& dataset,
               size_t item, const char* algorithm, bool rag) {
    Json body = Json::MakeObject();
    body.Set("query", dataset[item].question);
    body.Set("algorithm", algorithm);
    body.Set("budget", kQueryBudget);
    body.Set("use_history", !rag);
    body.Set("use_rag", rag);
    return Add(OpKind::kQuery, session, std::move(body), item,
               dataset[item].question);
  }

  // A multi-KB document: the paragraphs of `targets` among distractors
  // drawn from the rest of the dataset, in seeded order.
  size_t Upload(const std::string& session, const std::string& doc_id,
                const std::vector<QaItem>& dataset,
                const std::vector<size_t>& targets, llmms::Rng* rng) {
    std::vector<size_t> items = targets;
    while (items.size() < kParagraphsPerDoc) {
      const auto pick = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(dataset.size()) - 1));
      if (std::find(items.begin(), items.end(), pick) == items.end()) {
        items.push_back(pick);
      }
    }
    Shuffle(&items, rng);
    std::string text;
    for (size_t idx : items) {
      if (!text.empty()) text += "\n\n";
      text += Paragraph(dataset[idx]);
    }
    Json body = Json::MakeObject();
    body.Set("document_id", doc_id);
    body.Set("text", std::move(text));
    return Add(OpKind::kUpload, session, std::move(body));
  }

  size_t End(const std::string& session) {
    return Add(OpKind::kEndSession, session, Json::MakeObject());
  }

 private:
  Workload* w_;
};

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed,
                  const std::vector<QaItem>& dataset, Workload* out) {
  const bool rag = name == "rag";
  if (name != "ask" && name != "rag" && name != "serve") return false;
  Workload& w = *out;
  w = Workload();
  w.name = name;
  w.http = name == "serve";

  llmms::Rng rng(seed);
  Builder b(&w);
  const std::vector<size_t> order = Permutation(dataset.size(), &rng);
  const std::vector<const char*> algorithms = AlgorithmMix(order.size(), &rng);

  // One session of `items` asked with `algos`: on rag its documents first
  // (question i is answered in document i % kDocsPerRagSession), then its
  // questions, then the end.
  auto make_session = [&](const std::string& id,
                          const std::vector<size_t>& items,
                          const std::vector<const char*>& algos,
                          llmms::Rng* doc_rng) {
    SessionOps ops;
    if (rag) {
      for (size_t d = 0; d < kDocsPerRagSession; ++d) {
        std::vector<size_t> targets;
        for (size_t t = d; t < items.size(); t += kDocsPerRagSession) {
          targets.push_back(items[t]);
        }
        ops.push_back(b.Upload(id, Id("doc", d), dataset, targets, doc_rng));
      }
    }
    for (size_t t = 0; t < items.size(); ++t) {
      ops.push_back(b.Query(id, dataset, items[t], algos[t], rag));
    }
    ops.push_back(b.End(id));
    return ops;
  };

  for (size_t first = 0; first + kTurnsPerSession <= order.size();
       first += kTurnsPerSession) {
    const auto from = static_cast<ptrdiff_t>(first);
    const auto to = static_cast<ptrdiff_t>(first + kTurnsPerSession);
    w.sessions.push_back(make_session(
        Id("s", first / kTurnsPerSession),
        std::vector<size_t>(order.begin() + from, order.begin() + to),
        std::vector<const char*>(algorithms.begin() + from,
                                 algorithms.begin() + to),
        &rng));
  }
  // Warm-up: one session per algorithm over fixed questions and documents,
  // so that set-up does not depend on the seed. (Every pass starts from an
  // empty embedding cache, so the warm-up gives no pass a head start.)
  llmms::Rng warmup_rng(kWarmupSeed);
  for (size_t k = 0; k < kAlgorithms.size(); ++k) {
    std::vector<size_t> items;
    for (size_t t = 0; t < kTurnsPerSession; ++t) {
      items.push_back(k * kTurnsPerSession + t);
    }
    w.warmup.push_back(make_session(
        Id("w", k), items,
        std::vector<const char*>(kTurnsPerSession, kAlgorithms[k]),
        &warmup_rng));
  }
  if (!rag) {
    for (size_t k = 0; k < kProbeSessions; ++k) {
      const std::string id = Id("p", k);
      SessionOps ops;
      for (size_t d = 0; d < kDocsPerRagSession; ++d) {
        const size_t first = (k * kDocsPerRagSession + d) % order.size();
        ops.push_back(b.Upload(id, Id("doc", d), dataset,
                               {order[first]}, &rng));
      }
      ops.push_back(b.End(id));
      w.probe.push_back(std::move(ops));
    }
  }

  w.fingerprint = kFnvOffset;
  for (const auto& op : w.ops) {
    Fnv(&w.fingerprint, op.session);
    Fnv(&w.fingerprint, op.wire_body);
  }
  for (const auto& session : w.sessions) {
    for (size_t idx : session) {
      if (w.ops[idx].kind == OpKind::kQuery) ++w.queries_per_pass;
      if (w.ops[idx].kind == OpKind::kUpload) ++w.uploads_per_pass;
    }
  }
  return true;
}

}  // namespace perfbench
