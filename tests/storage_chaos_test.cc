// Crash-at-every-syscall recovery harness for the storage plane
// (DESIGN.md §14). For each durable component — the WAL append path,
// DurableCollection compaction, VectorDatabase snapshots, and the
// StateStore — the sweep counts the I/O ops of a baseline run, then reruns
// the workload once per op index with FaultyFileSystem armed to kill the
// world exactly there, reopens through a clean filesystem (a process
// restart after a power cut), and asserts the recovery contract:
//
//   acked ⊆ recovered ⊆ attempted-prefix, record-atomically.
//
// Every write acknowledged under SyncPolicy::kEveryRecord survives; what
// was in flight is either fully present or fully absent (never torn into
// the visible state); and recovery never invents or resurrects records.
// Plus: seeded random-fault soaks, failpoint unit tests, and regression
// tests for the compaction-swap and stale-.compact bugs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "llmms/common/fs.h"
#include "llmms/llm/model_card.h"
#include "llmms/llm/state_store.h"
#include "llmms/vectordb/database.h"
#include "llmms/vectordb/durable_collection.h"
#include "llmms/vectordb/wal.h"

namespace llmms {
namespace {

using vectordb::Collection;
using vectordb::DurableCollection;
using vectordb::VectorDatabase;
using vectordb::VectorRecord;
using vectordb::WriteAheadLog;

Collection::Options Dim3Options() {
  Collection::Options opts;
  opts.dimension = 3;
  opts.index_kind = vectordb::IndexKind::kFlat;
  return opts;
}

VectorRecord MakeRecord(const std::string& id, float x) {
  VectorRecord record;
  record.id = id;
  record.vector = {x, 2.0f * x, 1.0f - x};
  record.metadata["origin"] = "chaos";
  record.document = "doc " + id;
  return record;
}

WriteAheadLog::Options EveryRecord() {
  WriteAheadLog::Options opts;
  opts.sync_policy = WriteAheadLog::SyncPolicy::kEveryRecord;
  return opts;
}

// A fresh scratch directory per sweep iteration, so crash debris from one
// run can never leak into the next.
std::string FreshDir(const std::string& tag) {
  static int counter = 0;
  const std::string dir =
      ::testing::TempDir() + "/storage_chaos_" + tag + "_" +
      std::to_string(counter++);
  std::string cmd = "rm -rf '" + dir + "' && mkdir -p '" + dir + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

// ---------------------------------------------------------------------------
// FaultyFileSystem unit tests: each failpoint fires, is typed, and is
// deterministic for a fixed seed.
// ---------------------------------------------------------------------------

TEST(FaultyFileSystemTest, EnospcFailpointFiresWithTypedError) {
  RealFileSystem real;
  FsFaultConfig config;
  config.enospc_prob = 1.0;
  FaultyFileSystem faulty(&real, config);
  const std::string path = FreshDir("enospc") + "/f";
  auto file = faulty.OpenAppend(path);
  ASSERT_TRUE(file.ok());
  Status status = (*file)->Append("hello");
  ASSERT_TRUE(status.IsIOError());
  EXPECT_NE(status.message().find("ENOSPC"), std::string::npos);
  EXPECT_GE(faulty.op_counts().injected_faults, 1u);
}

TEST(FaultyFileSystemTest, ShortWriteLandsAPrefixThenFails) {
  RealFileSystem real;
  FsFaultConfig config;
  config.short_write_prob = 1.0;
  FaultyFileSystem faulty(&real, config);
  const std::string path = FreshDir("short") + "/f";
  auto file = faulty.OpenAppend(path);
  ASSERT_TRUE(file.ok());
  const std::string data(64, 'x');
  ASSERT_TRUE((*file)->Append(data).IsIOError());
  ASSERT_TRUE((*file)->Close().ok());
  auto on_disk = real.ReadFile(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_LT(on_disk->size(), data.size());  // a strict prefix landed
  EXPECT_EQ(*on_disk, data.substr(0, on_disk->size()));
}

TEST(FaultyFileSystemTest, SyncFailureIsTyped) {
  RealFileSystem real;
  FsFaultConfig config;
  config.sync_error_prob = 1.0;
  FaultyFileSystem faulty(&real, config);
  const std::string path = FreshDir("sync") + "/f";
  auto file = faulty.OpenAppend(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("data").ok());
  EXPECT_TRUE((*file)->Sync().IsIOError());
}

TEST(FaultyFileSystemTest, LostRenameLeavesTargetUntouched) {
  RealFileSystem real;
  FsFaultConfig config;
  config.rename_error_prob = 1.0;
  FaultyFileSystem faulty(&real, config);
  const std::string dir = FreshDir("rename");
  ASSERT_TRUE(AtomicWriteFile(&real, dir + "/from", "new").ok());
  ASSERT_TRUE(AtomicWriteFile(&real, dir + "/to", "old").ok());
  EXPECT_TRUE(faulty.Rename(dir + "/from", dir + "/to").IsIOError());
  auto to = real.ReadFile(dir + "/to");
  ASSERT_TRUE(to.ok());
  EXPECT_EQ(*to, "old");
  EXPECT_TRUE(real.Exists(dir + "/from"));
}

TEST(FaultyFileSystemTest, ReadCorruptionFlipsExactlyOneBit) {
  RealFileSystem real;
  FsFaultConfig config;
  config.read_corrupt_prob = 1.0;
  FaultyFileSystem faulty(&real, config);
  const std::string dir = FreshDir("corrupt");
  const std::string data(128, 'a');
  ASSERT_TRUE(AtomicWriteFile(&real, dir + "/f", data).ok());
  auto read = faulty.ReadFile(dir + "/f");
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), data.size());
  size_t differing_bits = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    unsigned char diff = static_cast<unsigned char>((*read)[i] ^ data[i]);
    while (diff != 0) {
      differing_bits += diff & 1u;
      diff >>= 1u;
    }
  }
  EXPECT_EQ(differing_bits, 1u);
  EXPECT_EQ(faulty.op_counts().read_corruptions, 1u);
}

TEST(FaultyFileSystemTest, SameSeedSameFaults) {
  for (int round = 0; round < 2; ++round) {
    std::vector<bool> outcomes[2];
    for (int run = 0; run < 2; ++run) {
      RealFileSystem real;
      FsFaultConfig config;
      config.seed = 0xABCD;
      config.write_error_prob = 0.3;
      FaultyFileSystem faulty(&real, config);
      const std::string path = FreshDir("det") + "/f";
      auto file = faulty.OpenAppend(path);
      ASSERT_TRUE(file.ok());
      for (int i = 0; i < 32; ++i) {
        outcomes[run].push_back((*file)->Append("x").ok());
      }
    }
    EXPECT_EQ(outcomes[0], outcomes[1]);
  }
}

TEST(FaultyFileSystemTest, CrashPointHaltsTheWorld) {
  RealFileSystem real;
  FaultyFileSystem faulty(&real, {});
  faulty.ArmCrashPoint(2);
  const std::string dir = FreshDir("halt");
  auto f1 = faulty.OpenAppend(dir + "/a");  // op 0
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE((*f1)->Append("x").ok());  // op 1
  EXPECT_TRUE((*f1)->Append("y").IsIOError());  // op 2: the crash
  EXPECT_TRUE(faulty.crashed());
  EXPECT_TRUE(faulty.OpenAppend(dir + "/b").status().IsIOError());
  EXPECT_TRUE(faulty.ReadFile(dir + "/a").status().IsIOError());
}

TEST(FaultyFileSystemTest, CrashDropsUnsyncedSuffixAndUndoesRenames) {
  const std::string dir = FreshDir("undo");
  RealFileSystem real;
  ASSERT_TRUE(AtomicWriteFile(&real, dir + "/live", "old-contents").ok());

  FaultyFileSystem faulty(&real, {});
  faulty.ArmCrashPoint(1'000'000);  // arm tracking; crash far away
  {
    auto tmp = faulty.OpenTrunc(dir + "/live.tmp");
    ASSERT_TRUE(tmp.ok());
    ASSERT_TRUE((*tmp)->Append("new-contents").ok());
    ASSERT_TRUE((*tmp)->Sync().ok());
    ASSERT_TRUE((*tmp)->Close().ok());
  }
  ASSERT_TRUE(faulty.Rename(dir + "/live.tmp", dir + "/live").ok());
  // No SyncDir: the rename is not durable. Also leave unsynced bytes on a
  // second file.
  {
    auto scratch = faulty.OpenAppend(dir + "/scratch");
    ASSERT_TRUE(scratch.ok());
    ASSERT_TRUE((*scratch)->Append(std::string(100, 'z')).ok());
  }
  faulty.ArmCrashPoint(0);  // next op crashes
  EXPECT_TRUE(faulty.List(dir).status().IsIOError());

  // The un-dir-synced rename was undone and the clobbered contents restored.
  auto live = real.ReadFile(dir + "/live");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, "old-contents");
  // The scratch file's creation was never made durable with SyncDir, so the
  // crash either removed it outright or left a prefix of the unsynced bytes.
  auto scratch = real.ReadFile(dir + "/scratch");
  if (scratch.ok()) {
    EXPECT_LE(scratch->size(), 100u);
  } else {
    EXPECT_TRUE(scratch.status().IsNotFound());
  }
}

TEST(FsHelpersTest, DirnameOf) {
  EXPECT_EQ(DirnameOf("/a/b/c"), "/a/b");
  EXPECT_EQ(DirnameOf("/a"), "/");
  EXPECT_EQ(DirnameOf("rel/x"), "rel");
  EXPECT_EQ(DirnameOf("bare"), ".");
}

TEST(FsHelpersTest, AtomicWriteFileReplacesAndCleansTemp) {
  RealFileSystem real;
  const std::string dir = FreshDir("awf");
  ASSERT_TRUE(AtomicWriteFile(&real, dir + "/f", "v1").ok());
  ASSERT_TRUE(AtomicWriteFile(&real, dir + "/f", "v2").ok());
  auto contents = real.ReadFile(dir + "/f");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "v2");
  EXPECT_FALSE(real.Exists(dir + "/f.tmp"));
}

// ---------------------------------------------------------------------------
// The crash-point sweep harness.
// ---------------------------------------------------------------------------

// Runs `workload` against a FaultyFileSystem armed to crash at op `k`
// (k < 0 means never: the baseline). Returns the total op count.
template <typename Workload>
int64_t RunWithCrashAt(RealFileSystem* real, int64_t k, Workload&& workload) {
  FaultyFileSystem faulty(real, {});
  if (k >= 0) faulty.ArmCrashPoint(k);
  workload(&faulty);
  return faulty.op_count();
}

// --- WAL append sweep ------------------------------------------------------

struct MutationOp {
  bool is_delete = false;
  std::string id;
  float value = 0.0f;
};

// Applies `ops[0..count)` to a plain map: the expected logical state after a
// prefix of the mutation stream.
std::map<std::string, float> ExpectedState(const std::vector<MutationOp>& ops,
                                           size_t count) {
  std::map<std::string, float> state;
  for (size_t i = 0; i < count; ++i) {
    if (ops[i].is_delete) {
      state.erase(ops[i].id);
    } else {
      state[ops[i].id] = ops[i].value;
    }
  }
  return state;
}

std::map<std::string, float> CollectionState(DurableCollection* dc) {
  std::map<std::string, float> state;
  for (const auto& id : dc->collection()->Ids()) {
    auto record = dc->Get(id);
    EXPECT_TRUE(record.ok());
    state[id] = record->vector[0];
  }
  return state;
}

// The headline invariant: after a crash at ANY op index and a reopen through
// a clean filesystem, the recovered state equals the state after some prefix
// of the attempted mutations, and that prefix covers at least every
// acknowledged one. Returns the recovered prefix length.
void CheckPrefixInvariant(const std::vector<MutationOp>& ops,
                          size_t acked_count,
                          const std::map<std::string, float>& recovered,
                          const std::string& context) {
  for (size_t j = acked_count; j <= ops.size(); ++j) {
    if (recovered == ExpectedState(ops, j)) return;  // a valid prefix ≥ acked
  }
  // Not a valid prefix at or past the acked count: either an acked write was
  // lost, an unacked one came back torn, or garbage appeared.
  FAIL() << context << ": recovered state is not a prefix >= " << acked_count
         << " acked mutations (recovered " << recovered.size() << " records)";
}

TEST(StorageChaosTest, WalAppendSurvivesCrashAtEveryIoOp) {
  const std::vector<MutationOp> ops = {
      {false, "a", 0.1f}, {false, "b", 0.2f}, {false, "c", 0.3f},
      {true, "b", 0.0f},  {false, "a", 0.9f}, {false, "d", 0.4f},
  };
  RealFileSystem real;

  // Runs the mutation stream against `fs`, stopping at the first failure
  // the way a real writer would; counts acknowledged mutations into *acked.
  auto workload = [&](FileSystem* fs, const std::string& wal, size_t* acked) {
    *acked = 0;
    auto dc = DurableCollection::Open("c", Dim3Options(), wal, nullptr, fs,
                                      EveryRecord());
    if (!dc.ok()) return;
    for (const auto& op : ops) {
      const Status status =
          op.is_delete ? (*dc)->Delete(op.id)
                       : (*dc)->Upsert(MakeRecord(op.id, op.value));
      if (!status.ok()) return;
      ++*acked;
    }
  };

  // Baseline: count the ops of a full run.
  const std::string base_dir = FreshDir("walsweep_base");
  size_t acked = 0;
  const int64_t total = RunWithCrashAt(&real, -1, [&](FileSystem* fs) {
    workload(fs, base_dir + "/c.wal", &acked);
  });
  ASSERT_EQ(acked, ops.size());
  ASSERT_GT(total, 5);

  // Kill the world at every op index; every run gets a fresh directory.
  for (int64_t k = 0; k < total; ++k) {
    const std::string dir = FreshDir("walsweep");
    const std::string wal = dir + "/c.wal";
    size_t acked_at_crash = 0;
    RunWithCrashAt(&real, k, [&](FileSystem* fs) {
      workload(fs, wal, &acked_at_crash);
    });

    // Reopen through a clean filesystem, exactly like a process restart.
    DurableCollection::OpenStats stats;
    auto reopened =
        DurableCollection::Open("c", Dim3Options(), wal, &stats, &real,
                                EveryRecord());
    ASSERT_TRUE(reopened.ok()) << "crash at op " << k << ": "
                               << reopened.status().ToString();
    CheckPrefixInvariant(ops, acked_at_crash, CollectionState(reopened->get()),
                         "crash at op " + std::to_string(k));
    // Recovery is sticky: a second reopen finds a clean log.
    DurableCollection::OpenStats again;
    auto twice = DurableCollection::Open("c", Dim3Options(), wal, &again,
                                         &real, EveryRecord());
    ASSERT_TRUE(twice.ok());
    EXPECT_FALSE(again.recovered_torn_tail) << "crash at op " << k;
    EXPECT_EQ(CollectionState(twice->get()),
              CollectionState(reopened->get()));
  }
}

// --- Compaction sweep ------------------------------------------------------

TEST(StorageChaosTest, CompactionSurvivesCrashAtEveryIoOp) {
  RealFileSystem real;
  const std::map<std::string, float> expected = {
      {"a", 0.9f}, {"b", 0.2f}, {"c", 0.3f}};

  auto seed = [&](const std::string& wal) {
    auto dc = DurableCollection::Open("c", Dim3Options(), wal, nullptr, &real,
                                      EveryRecord());
    ASSERT_TRUE(dc.ok());
    ASSERT_TRUE((*dc)->Upsert(MakeRecord("a", 0.1f)).ok());
    ASSERT_TRUE((*dc)->Upsert(MakeRecord("b", 0.2f)).ok());
    ASSERT_TRUE((*dc)->Upsert(MakeRecord("c", 0.3f)).ok());
    ASSERT_TRUE((*dc)->Upsert(MakeRecord("d", 0.4f)).ok());
    ASSERT_TRUE((*dc)->Upsert(MakeRecord("a", 0.9f)).ok());
    ASSERT_TRUE((*dc)->Delete("d").ok());
  };

  // Baseline op count of open+compact.
  const std::string base = FreshDir("compact_base") + "/c.wal";
  seed(base);
  const int64_t total = RunWithCrashAt(&real, -1, [&](FileSystem* fs) {
    auto dc = DurableCollection::Open("c", Dim3Options(), base, nullptr, fs,
                                      EveryRecord());
    ASSERT_TRUE(dc.ok());
    ASSERT_TRUE((*dc)->Compact().ok());
  });
  ASSERT_GT(total, 5);

  for (int64_t k = 0; k < total; ++k) {
    const std::string wal = FreshDir("compact") + "/c.wal";
    seed(wal);
    RunWithCrashAt(&real, k, [&](FileSystem* fs) {
      auto dc = DurableCollection::Open("c", Dim3Options(), wal, nullptr, fs,
                                        EveryRecord());
      if (!dc.ok()) return;
      (void)(*dc)->Compact();  // may fail: the world is dying
    });

    // Compaction must never change logical content, crash or no crash.
    auto reopened = DurableCollection::Open("c", Dim3Options(), wal, nullptr,
                                            &real, EveryRecord());
    ASSERT_TRUE(reopened.ok()) << "crash at op " << k << ": "
                               << reopened.status().ToString();
    EXPECT_EQ(CollectionState(reopened->get()), expected)
        << "crash at op " << k;
  }
}

// --- Snapshot (VectorDatabase::Save) sweep ---------------------------------

TEST(StorageChaosTest, SnapshotSaveIsOldOrNewAtEveryCrashPoint) {
  RealFileSystem real;

  // The "new" database the workload saves.
  VectorDatabase next;
  {
    auto collection = next.CreateCollection("fresh", Dim3Options());
    ASSERT_TRUE(collection.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*collection)
                      ->Upsert(MakeRecord("n" + std::to_string(i),
                                          0.1f * static_cast<float>(i)))
                      .ok());
    }
  }

  auto seed_old = [&](const std::string& path) {
    VectorDatabase old_db;
    auto collection = old_db.CreateCollection("old_marker", Dim3Options());
    ASSERT_TRUE(collection.ok());
    ASSERT_TRUE((*collection)->Upsert(MakeRecord("o", 0.5f)).ok());
    ASSERT_TRUE(old_db.Save(&real, path).ok());
  };

  const std::string base = FreshDir("snap_base") + "/db.bin";
  seed_old(base);
  const int64_t total = RunWithCrashAt(&real, -1, [&](FileSystem* fs) {
    ASSERT_TRUE(next.Save(fs, base).ok());
  });
  ASSERT_GT(total, 2);

  for (int64_t k = 0; k < total; ++k) {
    const std::string path = FreshDir("snap") + "/db.bin";
    seed_old(path);
    bool acked = false;
    RunWithCrashAt(&real, k, [&](FileSystem* fs) {
      acked = next.Save(fs, path).ok();
    });

    auto loaded = VectorDatabase::Load(&real, path);
    ASSERT_TRUE(loaded.ok()) << "crash at op " << k << ": "
                             << loaded.status().ToString();
    const bool is_new = (*loaded)->GetCollection("fresh").ok();
    const bool is_old = (*loaded)->GetCollection("old_marker").ok();
    EXPECT_TRUE(is_new != is_old) << "crash at op " << k;
    if (acked) {
      EXPECT_TRUE(is_new) << "acked save lost at op " << k;
    }
    if (is_new) {
      auto fresh = (*loaded)->GetCollection("fresh");
      EXPECT_EQ((*fresh)->size(), 3u) << "torn snapshot at op " << k;
    }
  }
}

// --- Sharded manifest sweep (DESIGN.md §15) --------------------------------

// Crash at every I/O op during a multi-shard mutation stream plus a full
// Checkpoint (per-shard compacted next-generation logs, directory sync,
// atomic manifest swap, old-generation removal). Reopening through a clean
// filesystem must always find a consistent shard set — the old manifest or
// the new one, state a prefix ≥ the acked mutations — and the orphan sweep
// must leave no shard file on disk that the live manifest does not name.
TEST(StorageChaosTest, ShardedManifestCheckpointSurvivesCrashAtEveryIoOp) {
  using vectordb::ShardedDurableCollection;
  RealFileSystem real;

  ShardedDurableCollection::Options opts;
  opts.collection = Dim3Options();
  opts.num_shards = 3;
  opts.wal = EveryRecord();

  const std::vector<MutationOp> seed_ops = {
      {false, "a", 0.1f}, {false, "b", 0.2f}, {false, "c", 0.3f},
      {false, "d", 0.4f}, {true, "d", 0.0f},
  };
  const std::vector<MutationOp> crash_ops = {
      {false, "x1", 0.6f}, {false, "x2", 0.7f},  // pre-checkpoint
      {false, "y1", 0.8f},                       // post-checkpoint
  };
  std::vector<MutationOp> all_ops = seed_ops;
  all_ops.insert(all_ops.end(), crash_ops.begin(), crash_ops.end());

  auto seed = [&](const std::string& dir) {
    auto db = ShardedDurableCollection::Open("c", dir, opts, nullptr, &real);
    ASSERT_TRUE(db.ok());
    for (const auto& op : seed_ops) {
      const Status status = op.is_delete
                                ? (*db)->Delete(op.id)
                                : (*db)->Upsert(MakeRecord(op.id, op.value));
      ASSERT_TRUE(status.ok());
    }
  };

  // Open, mutate, checkpoint mid-stream, mutate again; stop at the first
  // failure the way a real writer would. Counts acked mutations.
  auto workload = [&](FileSystem* fs, const std::string& dir, size_t* acked) {
    *acked = 0;
    auto db = ShardedDurableCollection::Open("c", dir, opts, nullptr, fs);
    if (!db.ok()) return;
    for (size_t i = 0; i < crash_ops.size(); ++i) {
      if (i == 2 && !(*db)->Checkpoint().ok()) return;
      const Status status =
          crash_ops[i].is_delete
              ? (*db)->Delete(crash_ops[i].id)
              : (*db)->Upsert(MakeRecord(crash_ops[i].id, crash_ops[i].value));
      if (!status.ok()) return;
      ++*acked;
    }
  };

  auto sharded_state = [](ShardedDurableCollection* db) {
    std::map<std::string, float> state;
    for (const auto& id : db->Ids()) {
      auto record = db->Get(id);
      EXPECT_TRUE(record.ok());
      state[id] = record->vector[0];
    }
    return state;
  };

  const std::string base_dir = FreshDir("manifest_base");
  seed(base_dir);
  size_t acked = 0;
  const int64_t total = RunWithCrashAt(&real, -1, [&](FileSystem* fs) {
    workload(fs, base_dir, &acked);
  });
  ASSERT_EQ(acked, crash_ops.size());
  ASSERT_GT(total, 10);

  for (int64_t k = 0; k < total; ++k) {
    const std::string dir = FreshDir("manifest");
    seed(dir);
    size_t acked_at_crash = 0;
    RunWithCrashAt(&real, k, [&](FileSystem* fs) {
      workload(fs, dir, &acked_at_crash);
    });

    // Reopen through a clean filesystem: a process restart after the cut.
    ShardedDurableCollection::OpenStats stats;
    auto reopened =
        ShardedDurableCollection::Open("c", dir, opts, &stats, &real);
    ASSERT_TRUE(reopened.ok()) << "crash at op " << k << ": "
                               << reopened.status().ToString();
    EXPECT_EQ(stats.num_shards, 3u) << "crash at op " << k;
    CheckPrefixInvariant(all_ops, seed_ops.size() + acked_at_crash,
                         sharded_state(reopened->get()),
                         "crash at op " + std::to_string(k));

    // No orphan shard files left live: everything named shard-* must
    // belong to the generation the recovered manifest committed.
    const std::string live_tag =
        ".g" + std::to_string((*reopened)->generation()) + ".wal";
    auto entries = real.List(dir);
    ASSERT_TRUE(entries.ok());
    size_t shard_files = 0;
    for (const auto& entry : *entries) {
      if (entry.rfind("shard-", 0) != 0) continue;
      ++shard_files;
      EXPECT_NE(entry.find(live_tag), std::string::npos)
          << "crash at op " << k << ": stale shard file " << entry;
    }
    EXPECT_EQ(shard_files, 3u) << "crash at op " << k;

    // Recovery is sticky: a second reopen sweeps nothing and agrees.
    ShardedDurableCollection::OpenStats again;
    auto twice = ShardedDurableCollection::Open("c", dir, opts, &again, &real);
    ASSERT_TRUE(twice.ok()) << "crash at op " << k;
    EXPECT_EQ(again.orphan_files_removed, 0u) << "crash at op " << k;
    EXPECT_EQ(again.torn_tails, 0u) << "crash at op " << k;
    EXPECT_EQ(sharded_state(twice->get()), sharded_state(reopened->get()))
        << "crash at op " << k;
  }
}

// --- StateStore sweep (incl. the tmp-write/rename crash-point matrix) ------

TEST(StorageChaosTest, StateStoreSaveKeepsOldStateReadableAtEveryCrashPoint) {
  RealFileSystem real;

  // Seed a state file holding a breaker for "alpha" via the public JSON
  // serialization.
  auto seed_state = [&](const std::string& path) {
    llm::CircuitBreaker::Snapshot snapshot;
    snapshot.state = llm::CircuitBreaker::State::kOpen;
    snapshot.total_failures = 7;
    Json breakers = Json::MakeObject();
    breakers.Set("alpha", llm::StateStore::BreakerToJson(snapshot));
    Json doc = Json::MakeObject();
    doc.Set("breakers", std::move(breakers));
    doc.Set("sketches", Json::MakeObject());
    ASSERT_TRUE(AtomicWriteFile(&real, path, doc.Dump(2)).ok());
  };

  const std::string base = FreshDir("state_base") + "/state.json";
  seed_state(base);
  const int64_t total = RunWithCrashAt(&real, -1, [&](FileSystem* fs) {
    llm::StateStore store(base, fs);
    ASSERT_TRUE(store.Load().ok());
    ASSERT_TRUE(store.SaveNow().ok());
  });
  ASSERT_GT(total, 3);

  for (int64_t k = 0; k < total; ++k) {
    const std::string path = FreshDir("state") + "/state.json";
    seed_state(path);
    RunWithCrashAt(&real, k, [&](FileSystem* fs) {
      llm::StateStore store(path, fs);
      if (!store.Load().ok()) return;
      (void)store.SaveNow();  // may fail: the world is dying
    });

    // The matrix invariant: at EVERY crash point — including between the
    // temp write and the rename — the state file parses cleanly and still
    // holds alpha's breaker (the store loaded it, so old and new contents
    // both carry it; a torn file would cold-start instead).
    llm::StateStore recovered(path, &real);
    ASSERT_TRUE(recovered.Load().ok()) << "crash at op " << k;
    EXPECT_TRUE(recovered.load_warning().empty())
        << "crash at op " << k << ": " << recovered.load_warning();
    EXPECT_TRUE(recovered.HasBreaker("alpha")) << "crash at op " << k;
  }
}

TEST(StorageChaosTest, StateStoreCrashBetweenTmpWriteAndRename) {
  // The specific matrix entry: the temp file is fully written and fsynced,
  // the rename never happens. The old state must be untouched and the stray
  // tmp must not shadow it.
  RealFileSystem real;
  const std::string dir = FreshDir("state_tmp");
  const std::string path = dir + "/state.json";
  ASSERT_TRUE(AtomicWriteFile(&real, path,
                              R"({"breakers":{},"sketches":{}})").ok());
  const std::string old_contents = *real.ReadFile(path);

  // SaveNow's op stream is OpenTrunc, Append, Sync, Rename, SyncDir; Load
  // costs one read before it. Crash on the Rename.
  FaultyFileSystem faulty(&real, {});
  llm::StateStore store(path, &faulty);
  ASSERT_TRUE(store.Load().ok());
  faulty.ArmCrashPoint(faulty.op_count() + 3);
  EXPECT_FALSE(store.SaveNow().ok());
  EXPECT_TRUE(faulty.crashed());

  auto after = real.ReadFile(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, old_contents);
  llm::StateStore recovered(path, &real);
  ASSERT_TRUE(recovered.Load().ok());
  EXPECT_TRUE(recovered.load_warning().empty());
}

// --- Model-card store ------------------------------------------------------

TEST(StorageChaosTest, ModelCardSaveIsOldOrNewAtEveryCrashPoint) {
  RealFileSystem real;
  auto profiles = llm::DefaultProfiles();
  ASSERT_GE(profiles.size(), 2u);
  llm::ModelProfile old_profile = profiles[0];
  llm::ModelProfile new_profile = profiles[1];
  new_profile.name = old_profile.name;  // same card, new contents

  const std::string base = FreshDir("card_base") + "/card.json";
  ASSERT_TRUE(llm::SaveModelCard(old_profile, base, &real).ok());
  const int64_t total = RunWithCrashAt(&real, -1, [&](FileSystem* fs) {
    ASSERT_TRUE(llm::SaveModelCard(new_profile, base, fs).ok());
  });

  for (int64_t k = 0; k < total; ++k) {
    const std::string path = FreshDir("card") + "/card.json";
    ASSERT_TRUE(llm::SaveModelCard(old_profile, path, &real).ok());
    RunWithCrashAt(&real, k, [&](FileSystem* fs) {
      (void)llm::SaveModelCard(new_profile, path, fs);
    });
    auto loaded = llm::LoadModelCard(path, &real);
    ASSERT_TRUE(loaded.ok()) << "crash at op " << k << ": "
                             << loaded.status().ToString();
    EXPECT_TRUE(loaded->family == old_profile.family ||
                loaded->family == new_profile.family)
        << "crash at op " << k;
  }
}

// ---------------------------------------------------------------------------
// Seeded random-fault soak: under probabilistic disk faults (no crash), an
// acked mutation must never be lost and the store must never serve garbage.
// ---------------------------------------------------------------------------

TEST(StorageChaosTest, RandomFaultSoakNeverLosesAckedWrites) {
  RealFileSystem real;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const std::string wal = FreshDir("soak") + "/c.wal";
    FsFaultConfig config;
    config.seed = seed;
    config.write_error_prob = 0.03;
    config.short_write_prob = 0.03;
    config.enospc_prob = 0.03;
    config.sync_error_prob = 0.03;
    FaultyFileSystem faulty(&real, config);

    std::vector<MutationOp> attempted;
    size_t acked = 0;
    {
      auto dc = DurableCollection::Open("c", Dim3Options(), wal, nullptr,
                                        &faulty, EveryRecord());
      if (!dc.ok()) continue;  // open itself hit a fault: nothing to check
      Rng rng(seed * 77);
      std::vector<std::string> live;  // delete targets must be live ids
      for (int i = 0; i < 40; ++i) {
        MutationOp op;
        op.is_delete = rng.Bernoulli(0.25) && !live.empty();
        if (op.is_delete) {
          const size_t pick = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
          op.id = live[pick];
        } else {
          op.id = std::string("r").append(std::to_string(i));
          op.value = static_cast<float>(i) * 0.01f;
        }
        attempted.push_back(op);
        const Status status =
            op.is_delete ? (*dc)->Delete(op.id)
                         : (*dc)->Upsert(MakeRecord(op.id, op.value));
        if (!status.ok()) break;  // poisoned WAL: a real writer stops too
        ++acked;
        if (op.is_delete) {
          live.erase(std::find(live.begin(), live.end(), op.id));
        } else {
          live.push_back(op.id);
        }
      }
    }

    auto reopened = DurableCollection::Open("c", Dim3Options(), wal, nullptr,
                                            &real, EveryRecord());
    ASSERT_TRUE(reopened.ok()) << "seed " << seed;
    CheckPrefixInvariant(attempted, acked, CollectionState(reopened->get()),
                         "soak seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Regression tests for the satellite bugs.
// ---------------------------------------------------------------------------

// DurableCollection::Compact() used to null wal_ before the swap; a failed
// rename then left the collection with a null journal and the next mutation
// dereferenced it. Now a pre-swap failure keeps the old journal fully live.
TEST(StorageChaosTest, FailedCompactionRenameKeepsJournalUsable) {
  RealFileSystem real;
  const std::string wal = FreshDir("compact_rename") + "/c.wal";
  FsFaultConfig config;
  config.rename_error_prob = 1.0;
  FaultyFileSystem faulty(&real, config);

  auto dc = DurableCollection::Open("c", Dim3Options(), wal, nullptr, &faulty,
                                    EveryRecord());
  ASSERT_TRUE(dc.ok());
  ASSERT_TRUE((*dc)->Upsert(MakeRecord("a", 0.1f)).ok());
  ASSERT_TRUE((*dc)->Compact().IsIOError());
  // The old journal is still live: mutations keep working (no null deref,
  // no FailedPrecondition) and survive a reopen.
  ASSERT_TRUE((*dc)->Upsert(MakeRecord("b", 0.2f)).ok());
  ASSERT_TRUE((*dc)->Delete("a").ok());

  auto reopened = DurableCollection::Open("c", Dim3Options(), wal, nullptr,
                                          &real, EveryRecord());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->size(), 1u);
  EXPECT_TRUE((*reopened)->Get("b").ok());
}

// DurableCollection::Open() used to append the torn-tail rewrite to a stale
// `.compact` leftover, resurrecting records deleted since that crash.
TEST(StorageChaosTest, TornTailRecoveryIgnoresStaleCompactLeftover) {
  RealFileSystem real;
  const std::string dir = FreshDir("zombie");
  const std::string wal = dir + "/c.wal";

  // A stale .compact from a "previous crash" holds a record that was long
  // since deleted.
  {
    auto stale = WriteAheadLog::Open(&real, wal + ".compact", EveryRecord());
    ASSERT_TRUE(stale.ok());
    ASSERT_TRUE((*stale)->AppendUpsert(MakeRecord("zombie", 0.66f)).ok());
  }
  // The live log: two records, then a crash tears the tail.
  {
    auto dc = DurableCollection::Open("c", Dim3Options(), wal, nullptr, &real,
                                      EveryRecord());
    ASSERT_TRUE(dc.ok());
    ASSERT_TRUE((*dc)->Upsert(MakeRecord("a", 0.1f)).ok());
    ASSERT_TRUE((*dc)->Upsert(MakeRecord("b", 0.2f)).ok());
  }
  auto size = real.FileSize(wal);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(real.Truncate(wal, *size - 3).ok());

  DurableCollection::OpenStats stats;
  auto recovered = DurableCollection::Open("c", Dim3Options(), wal, &stats,
                                           &real, EveryRecord());
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(stats.recovered_torn_tail);
  EXPECT_TRUE((*recovered)->Get("zombie").status().IsNotFound())
      << "stale .compact leftover resurrected a deleted record";
  EXPECT_TRUE((*recovered)->Get("a").ok());
  EXPECT_EQ((*recovered)->size(), 1u);  // "b" was the torn record
}

// ---------------------------------------------------------------------------
// Sequence numbers: a lost middle record (an intact log with a gap) is
// detected as a sequence break, not silently replayed past.
// ---------------------------------------------------------------------------

TEST(StorageChaosTest, LostMiddleRecordIsDetectedAsSequenceBreak) {
  RealFileSystem real;
  const std::string dir = FreshDir("seqbreak");
  const std::string wal = dir + "/c.wal";
  {
    auto log = WriteAheadLog::Open(&real, wal, EveryRecord());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AppendUpsert(MakeRecord("r1", 0.1f)).ok());
    ASSERT_TRUE((*log)->AppendUpsert(MakeRecord("r2", 0.2f)).ok());
    ASSERT_TRUE((*log)->AppendUpsert(MakeRecord("r3", 0.3f)).ok());
    EXPECT_EQ((*log)->last_sequence(), 3u);
  }
  // Excise the middle frame: [u32 len][u32 crc][u64 seq][payload].
  auto contents = real.ReadFile(wal);
  ASSERT_TRUE(contents.ok());
  auto frame_size = [&](size_t pos) {
    uint32_t len = 0;
    memcpy(&len, contents->data() + pos, 4);
    return 16 + static_cast<size_t>(len);
  };
  const size_t first = frame_size(0);
  const size_t second = frame_size(first);
  std::string gapped = contents->substr(0, first) +
                       contents->substr(first + second);
  {
    auto out = real.OpenTrunc(wal);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE((*out)->Append(gapped).ok());
  }

  Collection collection("gap", Dim3Options());
  auto stats = WriteAheadLog::Replay(&real, wal, &collection);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->sequence_break);
  EXPECT_EQ(stats->upserts, 1u);  // nothing past the gap is trusted
  EXPECT_EQ(collection.size(), 1u);

  // DurableCollection::Open repairs the log like a torn tail; the repaired
  // log replays cleanly.
  DurableCollection::OpenStats open_stats;
  auto repaired = DurableCollection::Open("gap", Dim3Options(), wal,
                                          &open_stats, &real, EveryRecord());
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(open_stats.sequence_break);
  DurableCollection::OpenStats clean;
  auto again = DurableCollection::Open("gap", Dim3Options(), wal, &clean,
                                       &real, EveryRecord());
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(clean.sequence_break);
  EXPECT_FALSE(clean.recovered_torn_tail);
}

// Reopened logs continue the sequence run (no restart at 1, which a replay
// would flag as a break).
TEST(StorageChaosTest, ReopenContinuesSequenceRun) {
  RealFileSystem real;
  const std::string wal = FreshDir("seqrun") + "/c.wal";
  {
    auto log = WriteAheadLog::Open(&real, wal, EveryRecord());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AppendUpsert(MakeRecord("r1", 0.1f)).ok());
  }
  {
    auto log = WriteAheadLog::Open(&real, wal, EveryRecord());
    ASSERT_TRUE(log.ok());
    EXPECT_EQ((*log)->last_sequence(), 1u);
    ASSERT_TRUE((*log)->AppendUpsert(MakeRecord("r2", 0.2f)).ok());
    EXPECT_EQ((*log)->last_sequence(), 2u);
  }
  Collection collection("run", Dim3Options());
  auto stats = WriteAheadLog::Replay(&real, wal, &collection);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->sequence_break);
  EXPECT_EQ(stats->upserts, 2u);
  EXPECT_EQ(stats->last_sequence, 2u);
}

// A WAL poisons itself after an append failure instead of burying garbage
// mid-log: later appends fail with FailedPrecondition, and everything acked
// before the failure still replays.
TEST(StorageChaosTest, WalPoisonsItselfAfterAppendFailure) {
  RealFileSystem real;
  const std::string wal = FreshDir("poison") + "/c.wal";
  FsFaultConfig config;
  config.write_error_prob = 1.0;
  FaultyFileSystem faulty(&real, config);

  std::unique_ptr<WriteAheadLog> log;
  {
    // Build two good records through the real fs first.
    auto good = WriteAheadLog::Open(&real, wal, EveryRecord());
    ASSERT_TRUE(good.ok());
    ASSERT_TRUE((*good)->AppendUpsert(MakeRecord("r1", 0.1f)).ok());
    ASSERT_TRUE((*good)->AppendUpsert(MakeRecord("r2", 0.2f)).ok());
  }
  auto flaky = WriteAheadLog::Open(&faulty, wal, EveryRecord());
  ASSERT_TRUE(flaky.ok());
  EXPECT_TRUE((*flaky)->AppendUpsert(MakeRecord("r3", 0.3f)).IsIOError());
  EXPECT_TRUE((*flaky)
                  ->AppendUpsert(MakeRecord("r4", 0.4f))
                  .IsFailedPrecondition());  // poisoned, not retried into
  EXPECT_TRUE((*flaky)->Sync().IsFailedPrecondition());

  Collection collection("p", Dim3Options());
  auto stats = WriteAheadLog::Replay(&real, wal, &collection);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->upserts, 2u);
  EXPECT_FALSE(stats->sequence_break);
}

// LLMMS_IO_CHAOS wires a FaultyFileSystem under FileSystem::Default(); the
// plumbing (env parse + decorator) is what this exercises — the env var is
// read once at first use, so the default here is the real filesystem and
// the decorator is constructed directly.
TEST(StorageChaosTest, DefaultFileSystemIsUsableAndCountsOps) {
  FileSystem* fs = FileSystem::Default();
  ASSERT_NE(fs, nullptr);
  EXPECT_EQ(fs, FileSystem::Default());  // a process-wide singleton
  const std::string path = FreshDir("default") + "/f";
  const auto before = fs->op_counts();
  ASSERT_TRUE(AtomicWriteFile(fs, path, "x").ok());
  const auto after = fs->op_counts();
  EXPECT_GT(after.opens, before.opens);
  EXPECT_GT(after.syncs, before.syncs);
  EXPECT_GT(after.renames, before.renames);
}

}  // namespace
}  // namespace llmms
