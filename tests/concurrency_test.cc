// Concurrency: the platform serves several sessions at once (§3.4 parallel
// inference; §7.1 production hosting). These tests hammer the thread-safe
// surfaces from many threads; run under TSan for full effect.

#include <atomic>
#include <gtest/gtest.h>
#include <thread>

#include "llmms/app/service.h"
#include "llmms/common/rng.h"
#include "llmms/common/thread_pool.h"
#include "llmms/embedding/embedding_cache.h"
#include "llmms/llm/batch_scheduler.h"
#include "llmms/vectordb/sharded_collection.h"
#include "testutil.h"

namespace llmms {
namespace {

TEST(ConcurrencyTest, ParallelAsksAcrossSessions) {
  auto world = testutil::MakeWorld(4);
  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto sessions = std::make_shared<session::SessionStore>();
  core::SearchEngine engine(world.runtime.get(), world.embedder, db, sessions);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      core::SearchEngine::QueryOptions options;
      options.algorithm =
          t % 2 == 0 ? core::Algorithm::kOua : core::Algorithm::kMab;
      for (int i = 0; i < 5; ++i) {
        const auto& item = world.dataset[(t * 5 + i) % world.dataset.size()];
        auto result =
            engine.Ask("session-" + std::to_string(t), item.question, options);
        if (!result.ok() || result->orchestration.answer.empty()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(sessions->size(), 8u);
}

TEST(ConcurrencyTest, ParallelCollectionUpsertsAndQueries) {
  vectordb::Collection::Options opts;
  opts.dimension = 8;
  opts.index_kind = vectordb::IndexKind::kHnsw;
  vectordb::Collection collection("c", opts);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 100; ++i) {
        vectordb::VectorRecord record;
        record.id = "t" + std::to_string(t) + "-" + std::to_string(i);
        record.vector.resize(8);
        for (auto& x : record.vector) x = static_cast<float>(rng.Normal());
        if (!collection.Upsert(std::move(record)).ok()) ++failures;
        if (i % 10 == 0) {
          vectordb::Vector query(8, 0.5f);
          if (!collection.Query(query, 3).ok()) ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(collection.size(), 600u);
}

TEST(ConcurrencyTest, ParallelRegistryMutations) {
  auto world = testutil::MakeWorld(2);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 200; ++i) {
        if (world.registry->List().size() > 10) ++failures;
        (void)world.registry->Contains("llama3:8b");
        auto model = world.registry->Get("mistral:7b");
        if (!model.ok()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, EmbeddingCacheUnderContention) {
  auto inner = std::make_shared<embedding::HashEmbedder>();
  embedding::EmbeddingCache cache(inner, 32);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 300; ++i) {
        const std::string text =
            "text " + std::to_string((t * 7 + i) % 50);
        const auto cached = cache.Embed(text);
        if (cached != inner->Embed(text)) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.size(), 32u);
}

TEST(ConcurrencyTest, ParallelSessionStoreAccess) {
  session::SessionStore store;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 100; ++i) {
        auto session =
            store.GetOrCreate(std::string("s").append(std::to_string(i % 10)));
        if (!session.ok()) {
          ++failures;
          continue;
        }
        (*session)->Append(session::Role::kUser,
                           "msg " + std::to_string(t * 100 + i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.size(), 10u);
}

TEST(ConcurrencyTest, ApiServiceParallelRequests) {
  auto world = testutil::MakeWorld(3);
  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto sessions = std::make_shared<session::SessionStore>();
  core::SearchEngine engine(world.runtime.get(), world.embedder, db, sessions);
  app::ApiService service(&engine);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 3; ++i) {
        Json request = Json::MakeObject();
        request.Set("session", "api-" + std::to_string(t));
        request.Set("query",
                    world.dataset[(t + i) % world.dataset.size()].question);
        auto response = service.Handle("/api/query", request);
        if (!response["ok"].AsBool()) ++failures;
        auto health = service.Handle("/api/health", Json::MakeObject());
        if (!health["ok"].AsBool()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// N threads drive whole queries through ONE shared continuous-batching
// scheduler (DESIGN.md §13): every stream of every query competes for the
// same replica slots. All queries must complete, and the scheduler must
// come back to rest with no leaked admissions.
TEST(ConcurrencyTest, SharedSchedulerAcrossConcurrentQueries) {
  auto world = testutil::MakeWorld(4);
  llm::SchedulerConfig config;
  config.replicas_per_model = 2;
  world.runtime->EnableScheduler(config);
  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto sessions = std::make_shared<session::SessionStore>();
  core::SearchEngine engine(world.runtime.get(), world.embedder, db, sessions);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      core::SearchEngine::QueryOptions options;
      options.algorithm =
          t % 2 == 0 ? core::Algorithm::kOua : core::Algorithm::kMab;
      options.token_budget = 256;
      for (int i = 0; i < 3; ++i) {
        const auto& item = world.dataset[(t * 3 + i) % world.dataset.size()];
        auto result = engine.Ask("batched-" + std::to_string(t),
                                 item.question, options);
        if (!result.ok() || result->orchestration.answer.empty()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const auto stats = world.runtime->scheduler()->stats();
  EXPECT_EQ(stats.runnable, 0u);
  EXPECT_EQ(stats.waiting, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.finished_total, stats.admitted_total);
  EXPECT_GT(stats.dispatches, 0u);
  EXPECT_GT(stats.total_service_tokens, 0u);
}

// Raw Admit/ExecuteChunk/Finish hammer: many threads, two replica classes,
// short random streams, some finished early and some abandoned — the
// retire-while-queued and preemption paths all race here. Gauges must
// return to zero.
TEST(ConcurrencyTest, SchedulerAdmitExecuteFinishHammer) {
  llm::SchedulerConfig config;
  config.replicas_per_model = 2;
  llm::BatchScheduler scheduler(config);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(0xBA7C4ull + t);
      for (int i = 0; i < 40; ++i) {
        llm::BatchScheduler::AdmitOptions options;
        options.model = (t + i) % 2 == 0 ? "alpha" : "beta";
        options.weight = 0.5 + static_cast<double>(rng.NextUint64() % 4);
        options.hedge = rng.NextUint64() % 8 == 0;
        options.tokens_per_second = 8.0;
        const auto id = scheduler.Admit(options);
        const size_t chunks = 1 + rng.NextUint64() % 3;
        for (size_t c = 0; c < chunks; ++c) {
          auto chunk = scheduler.ExecuteChunk(
              id, 8, [&](size_t) -> StatusOr<llm::Chunk> {
                llm::Chunk out;
                out.num_tokens = 8;
                out.done = c + 1 == chunks && rng.NextUint64() % 2 == 0;
                return out;
              });
          if (!chunk.ok()) {
            ++failures;
            break;
          }
          if (chunk->done) break;
        }
        // Abandoned or completed either way: Finish must be idempotent.
        scheduler.Finish(id);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.runnable, 0u);
  EXPECT_EQ(stats.waiting, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.admitted_total, 8u * 40u);
  EXPECT_EQ(stats.finished_total, stats.admitted_total);
}

// Sharded vector search under one writer and many readers (DESIGN.md §15):
// each shard's shared/exclusive lock must give readers torn-free snapshots
// while the writer upserts, replaces, and deletes across all shards — and
// a record published before a reader's acquire must be visible to it
// (monotonic visibility). Quantization is on with a small train threshold
// so the quantizer trains mid-flight, racing the readers' query path.
TEST(ConcurrencyTest, ShardedCollectionReadersWithSingleWriter) {
  vectordb::ShardedCollection::Options opts;
  opts.collection.dimension = 8;
  opts.collection.index_kind = vectordb::IndexKind::kFlat;
  opts.collection.quantization.enabled = true;
  opts.collection.quantization.train_size = 64;
  opts.num_shards = 4;
  ThreadPool pool(2);
  opts.pool = &pool;
  vectordb::ShardedCollection collection("stress", opts);

  constexpr int kWrites = 600;
  constexpr int kDeleteLag = 64;
  std::atomic<int> published{0};
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};

  std::thread writer([&]() {
    for (int i = 1; i <= kWrites; ++i) {
      // A uniform vector: readers detect torn reads as mixed components.
      const float v = static_cast<float>(i % 97) + 1.0f;
      vectordb::VectorRecord record;
      record.id = "seq-" + std::to_string(i);
      record.vector = vectordb::Vector(8, v);
      if (!collection.Upsert(std::move(record)).ok()) ++failures;
      // The continuously replaced hot record exercises upsert-replace.
      vectordb::VectorRecord hot;
      hot.id = "hot";
      hot.vector = vectordb::Vector(8, v);
      if (!collection.Upsert(std::move(hot)).ok()) ++failures;
      published.store(i, std::memory_order_release);
      if (i > kDeleteLag) {
        const std::string victim = "seq-" + std::to_string(i - kDeleteLag);
        if (!collection.Delete(victim).ok()) ++failures;
      }
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t]() {
      Rng rng(static_cast<uint64_t>(t) + 100);
      while (!done.load(std::memory_order_acquire)) {
        // Monotonic visibility: a record published before our acquire must
        // be found — unless the writer has since lapped it with a delete
        // (it only deletes ids at least kDeleteLag behind the publish
        // cursor, so a miss with the cursor still close by is a real bug).
        const int p = published.load(std::memory_order_acquire);
        if (p > 0) {
          const std::string id = "seq-" + std::to_string(p);
          if (!collection.Contains(id) &&
              published.load(std::memory_order_acquire) - p < kDeleteLag) {
            ++failures;
          }
        }
        // Torn-read detector: every component of a uniform record must
        // match; a mixture means a reader saw a half-applied upsert.
        auto hot = collection.Get("hot");
        if (hot.ok()) {
          for (float x : hot->vector) {
            if (x != hot->vector[0]) ++failures;
          }
        }
        vectordb::Vector query(8);
        for (auto& x : query) x = static_cast<float>(rng.Normal());
        auto hits = collection.Query(query, 5);
        if (!hits.ok()) {
          ++failures;
        } else {
          for (size_t i = 1; i < hits->size(); ++i) {
            // The merged order stays a total order even mid-mutation.
            if ((*hits)[i - 1].score < (*hits)[i].score) ++failures;
          }
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  // hot + the last kDeleteLag seq records survive.
  EXPECT_EQ(collection.size(), static_cast<size_t>(kDeleteLag) + 1);
  EXPECT_TRUE(collection.Contains("seq-" + std::to_string(kWrites)));
  EXPECT_FALSE(collection.Contains("seq-1"));
}

}  // namespace
}  // namespace llmms
