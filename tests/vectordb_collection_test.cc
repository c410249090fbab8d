#include <cmath>
#include <cstdio>
#include <gtest/gtest.h>

#include "llmms/vectordb/collection.h"
#include "llmms/vectordb/database.h"

namespace llmms::vectordb {
namespace {

Collection::Options SmallOptions(IndexKind kind = IndexKind::kFlat) {
  Collection::Options opts;
  opts.dimension = 4;
  opts.metric = DistanceMetric::kCosine;
  opts.index_kind = kind;
  return opts;
}

VectorRecord MakeRecord(const std::string& id, Vector v,
                        Metadata metadata = {}) {
  VectorRecord r;
  r.id = id;
  r.vector = std::move(v);
  r.metadata = std::move(metadata);
  r.document = "doc-" + id;
  return r;
}

TEST(CollectionTest, UpsertGetDelete) {
  Collection c("test", SmallOptions());
  ASSERT_TRUE(c.Upsert(MakeRecord("a", {1, 0, 0, 0})).ok());
  EXPECT_EQ(c.size(), 1u);
  EXPECT_TRUE(c.Contains("a"));
  auto rec = c.Get("a");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->document, "doc-a");
  ASSERT_TRUE(c.Delete("a").ok());
  EXPECT_EQ(c.size(), 0u);
  EXPECT_TRUE(c.Get("a").status().IsNotFound());
  EXPECT_TRUE(c.Delete("a").IsNotFound());
}

TEST(CollectionTest, UpsertReplacesExisting) {
  Collection c("test", SmallOptions());
  ASSERT_TRUE(c.Upsert(MakeRecord("a", {1, 0, 0, 0})).ok());
  ASSERT_TRUE(c.Upsert(MakeRecord("a", {0, 1, 0, 0})).ok());
  EXPECT_EQ(c.size(), 1u);
  auto hits = c.Query({0, 1, 0, 0}, 1);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].id, "a");
  EXPECT_NEAR((*hits)[0].score, 1.0, 1e-5);
}

TEST(CollectionTest, RejectsBadInput) {
  Collection c("test", SmallOptions());
  EXPECT_TRUE(c.Upsert(MakeRecord("", {1, 0, 0, 0})).IsInvalidArgument());
  EXPECT_TRUE(c.Upsert(MakeRecord("a", {1, 0})).IsInvalidArgument());
}

TEST(CollectionTest, QueryOrdersBySimilarity) {
  Collection c("test", SmallOptions());
  ASSERT_TRUE(c.Upsert(MakeRecord("x", {1, 0, 0, 0})).ok());
  ASSERT_TRUE(c.Upsert(MakeRecord("y", {0.7f, 0.7f, 0, 0})).ok());
  ASSERT_TRUE(c.Upsert(MakeRecord("z", {0, 0, 1, 0})).ok());
  auto hits = c.Query({1, 0, 0, 0}, 2);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 2u);
  EXPECT_EQ((*hits)[0].id, "x");
  EXPECT_EQ((*hits)[1].id, "y");
  EXPECT_GT((*hits)[0].score, (*hits)[1].score);
}

TEST(CollectionTest, MetadataFilterRestrictsResults) {
  Collection c("test", SmallOptions());
  ASSERT_TRUE(
      c.Upsert(MakeRecord("a1", {1, 0, 0, 0}, {{"doc", "a"}})).ok());
  ASSERT_TRUE(
      c.Upsert(MakeRecord("a2", {0.9f, 0.1f, 0, 0}, {{"doc", "a"}})).ok());
  ASSERT_TRUE(
      c.Upsert(MakeRecord("b1", {0.99f, 0.05f, 0, 0}, {{"doc", "b"}})).ok());
  auto hits = c.Query({1, 0, 0, 0}, 10, {{"doc", "a"}});
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 2u);
  for (const auto& hit : *hits) {
    EXPECT_EQ(hit.metadata.at("doc"), "a");
  }
}

TEST(CollectionTest, FilterWithNoMatchesReturnsEmpty) {
  Collection c("test", SmallOptions());
  ASSERT_TRUE(c.Upsert(MakeRecord("a", {1, 0, 0, 0}, {{"k", "v"}})).ok());
  auto hits = c.Query({1, 0, 0, 0}, 5, {{"k", "other"}});
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST(CollectionTest, QueryZeroKOrEmptyCollection) {
  Collection c("test", SmallOptions());
  auto hits = c.Query({1, 0, 0, 0}, 5);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
  ASSERT_TRUE(c.Upsert(MakeRecord("a", {1, 0, 0, 0})).ok());
  hits = c.Query({1, 0, 0, 0}, 0);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST(CollectionTest, HnswBackedCollectionWorks) {
  Collection c("test", SmallOptions(IndexKind::kHnsw));
  for (int i = 0; i < 50; ++i) {
    const float angle = static_cast<float>(i) * 0.1f;
    const std::string id = std::string("v").append(std::to_string(i));
    ASSERT_TRUE(
        c.Upsert(MakeRecord(id, {std::cos(angle), std::sin(angle), 0, 0}))
            .ok());
  }
  auto hits = c.Query({1, 0, 0, 0}, 3);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 3u);
  EXPECT_EQ((*hits)[0].id, "v0");
}

TEST(CollectionTest, IdsListsLiveRecords) {
  Collection c("test", SmallOptions());
  ASSERT_TRUE(c.Upsert(MakeRecord("a", {1, 0, 0, 0})).ok());
  ASSERT_TRUE(c.Upsert(MakeRecord("b", {0, 1, 0, 0})).ok());
  ASSERT_TRUE(c.Delete("a").ok());
  const auto ids = c.Ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], "b");
}

// Each live vector is stored by its record and by the index; the gauge
// counts both copies, plus one int8 code per dimension once quantized.
TEST(CollectionTest, VectorBytesCountsRecordAndIndexCopies) {
  for (const auto kind : {IndexKind::kFlat, IndexKind::kHnsw}) {
    Collection c("test", SmallOptions(kind));
    const size_t per_copy = 4 * sizeof(float);
    EXPECT_EQ(c.approx_vector_bytes(), 0u);
    ASSERT_TRUE(c.Upsert(MakeRecord("a", {1, 0, 0, 0})).ok());
    ASSERT_TRUE(c.Upsert(MakeRecord("b", {0, 1, 0, 0})).ok());
    ASSERT_TRUE(c.Upsert(MakeRecord("c", {0, 0, 1, 0})).ok());
    EXPECT_EQ(c.approx_vector_bytes(), 3 * 2 * per_copy);
    ASSERT_TRUE(c.Upsert(MakeRecord("a", {0, 0, 0, 1})).ok());
    EXPECT_EQ(c.approx_vector_bytes(), 3 * 2 * per_copy);
    ASSERT_TRUE(c.Delete("b").ok());
    EXPECT_EQ(c.approx_vector_bytes(), 2 * 2 * per_copy);
  }

  Collection::Options opts = SmallOptions();
  opts.quantization.enabled = true;
  opts.quantization.train_size = 4;
  Collection q("quantized", opts);
  for (int i = 0; i < 4; ++i) {
    const float x = static_cast<float>(i);
    ASSERT_TRUE(
        q.Upsert(MakeRecord(std::string("r").append(std::to_string(i)),
                            {x, 1, -x, 0.5f}))
            .ok());
  }
  ASSERT_TRUE(q.quantized());
  EXPECT_EQ(q.approx_vector_bytes(), 4 * 2 * 4 * sizeof(float) + 4 * 4);
}

TEST(VectorDatabaseTest, CreateGetDropCollections) {
  VectorDatabase db;
  ASSERT_TRUE(db.CreateCollection("one", SmallOptions()).ok());
  EXPECT_TRUE(db.CreateCollection("one", SmallOptions())
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(db.CreateCollection("", SmallOptions())
                  .status()
                  .IsInvalidArgument());
  ASSERT_TRUE(db.GetCollection("one").ok());
  EXPECT_TRUE(db.GetCollection("two").status().IsNotFound());
  EXPECT_EQ(db.collection_count(), 1u);
  ASSERT_TRUE(db.DropCollection("one").ok());
  EXPECT_TRUE(db.DropCollection("one").IsNotFound());
}

TEST(VectorDatabaseTest, GetOrCreateChecksCompatibility) {
  VectorDatabase db;
  ASSERT_TRUE(db.GetOrCreateCollection("c", SmallOptions()).ok());
  ASSERT_TRUE(db.GetOrCreateCollection("c", SmallOptions()).ok());
  EXPECT_EQ(db.collection_count(), 1u);
  auto other = SmallOptions();
  other.dimension = 8;
  EXPECT_TRUE(db.GetOrCreateCollection("c", other)
                  .status()
                  .IsFailedPrecondition());
}

TEST(VectorDatabaseTest, SaveLoadRoundTrip) {
  VectorDatabase db;
  auto collection = db.CreateCollection("docs", SmallOptions(IndexKind::kHnsw));
  ASSERT_TRUE(collection.ok());
  ASSERT_TRUE((*collection)
                  ->Upsert(MakeRecord("a", {1, 0, 0, 0}, {{"k", "v"}}))
                  .ok());
  ASSERT_TRUE((*collection)->Upsert(MakeRecord("b", {0, 1, 0, 0})).ok());
  auto second = db.CreateCollection("other", SmallOptions());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE((*second)->Upsert(MakeRecord("x", {0, 0, 1, 0})).ok());

  const std::string path = ::testing::TempDir() + "/vdb_roundtrip.bin";
  ASSERT_TRUE(db.Save(path).ok());

  auto loaded = VectorDatabase::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->collection_count(), 2u);
  auto docs = (*loaded)->GetCollection("docs");
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ((*docs)->size(), 2u);
  auto rec = (*docs)->Get("a");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->metadata.at("k"), "v");
  EXPECT_EQ(rec->document, "doc-a");
  auto hits = (*docs)->Query({1, 0, 0, 0}, 1);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].id, "a");
  std::remove(path.c_str());
}

TEST(VectorDatabaseTest, LoadRejectsCorruptFiles) {
  const std::string path = ::testing::TempDir() + "/vdb_bad.bin";
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("garbage data here", f);
    fclose(f);
  }
  EXPECT_FALSE(VectorDatabase::Load(path).ok());
  EXPECT_FALSE(VectorDatabase::Load("/nonexistent/db.bin").ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace llmms::vectordb
