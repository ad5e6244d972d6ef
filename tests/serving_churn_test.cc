// Concurrent churn coverage for the sharded serving engine: reader
// threads race a writer doing inserts (and the background maintenance
// thread doing compactions) and must always observe a coherent
// pre-or-post-publish snapshot — never a torn state. Also pins the
// "no insert pays a retrain" contract: with async compaction the
// inline-compaction counter stays zero and the largest overlay any
// insert copied stays far below the base size an inline rebuild would
// touch. This binary runs under the ThreadSanitizer CI leg.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "data/generators.h"
#include "data/keyset.h"
#include "workload/query_driver.h"
#include "workload/search_backend.h"
#include "workload/workload.h"

namespace lispoison {
namespace {

KeySet TestKeys(std::int64_t n, std::uint64_t seed = 211) {
  Rng rng(seed);
  auto ks = GenerateUniform(n, KeyDomain{0, 100 * n}, &rng);
  EXPECT_TRUE(ks.ok());
  return *ks;
}

/// Deterministic fresh keys in a shuffled keyspace order, so shards
/// take interleaved insert load (an ascending order would hammer shard
/// 0's overlay while the 1-core maintenance thread lags behind).
std::vector<Key> FreshKeys(const KeySet& ks, std::int64_t want) {
  std::vector<std::int64_t> gap_ranks;
  for (std::int64_t i = 0; i + 1 < ks.size(); ++i) {
    if (ks.at(i + 1) - ks.at(i) > 1) gap_ranks.push_back(i);
  }
  Rng rng(4242);  // Fisher-Yates with the repo Rng: fully deterministic.
  for (std::int64_t i = static_cast<std::int64_t>(gap_ranks.size()) - 1;
       i > 0; --i) {
    std::swap(gap_ranks[static_cast<std::size_t>(i)],
              gap_ranks[static_cast<std::size_t>(rng.UniformInt(0, i))]);
  }
  std::vector<Key> fresh;
  for (const std::int64_t i : gap_ranks) {
    if (static_cast<std::int64_t>(fresh.size()) >= want) break;
    fresh.push_back(ks.at(i) + 1);
  }
  return fresh;
}

TEST(ServingChurnTest, ReadersNeverObserveTornStateUnderChurn) {
  const std::int64_t n = 20000;
  const KeySet ks = TestKeys(n);
  BackendOptions opts;
  opts.rmi.target_model_size = 500;
  opts.num_shards = 4;
  opts.compact_threshold = 256;  // Async: background maintenance thread.
  auto backend = CreateBackend(BackendKind::kRmi, ks, opts);
  ASSERT_TRUE(backend.ok()) << backend.status().message();

  const std::vector<Key> fresh = FreshKeys(ks, 4000);
  ASSERT_GE(static_cast<std::int64_t>(fresh.size()), 3000);

  constexpr int kReaders = 2;
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> reads_done{0};
  std::atomic<int> readers_live{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        // Base keys are present in every snapshot ever published —
        // before, during, and after any compaction — so a miss here
        // means a reader saw a torn or reclaimed state.
        const Key base_key = ks.at(rng.UniformInt(0, ks.size() - 1));
        if (!(*backend)->Lookup(base_key).found) {
          torn.store(true);
          return;
        }
        // Cross-shard scans must stay stitched together as well; every
        // published snapshot holds at least the base keys of its range.
        const std::int64_t a = rng.UniformInt(0, ks.size() - 201);
        const auto scan = (*backend)->Scan(ks.at(a), ks.at(a + 200));
        if (scan.range_count < 201) {
          torn.store(true);
          return;
        }
        reads_done.fetch_add(1, std::memory_order_relaxed);
        if (first) {
          first = false;
          readers_live.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }

  // Writer: every fresh key lands while the readers run; each insert is
  // an overlay copy + pointer publish, with compactions retraining the
  // shard substrates off-thread underneath the readers. It starts only
  // once every reader has completed a read, so the reads_done check
  // below cannot depend on whether the scheduler ran the readers before
  // the writer finished.
  while (readers_live.load(std::memory_order_acquire) < kReaders &&
         !torn.load()) {
    std::this_thread::yield();
  }
  for (const Key k : fresh) {
    ASSERT_TRUE((*backend)->Insert(k).ok());
  }
  (*backend)->WaitForMaintenance();
  stop.store(true);
  for (auto& r : readers) r.join();

  EXPECT_FALSE(torn.load()) << "a reader observed a torn snapshot";
  EXPECT_GT(reads_done.load(), 0);

  // Quiesced state: everything inserted is visible, nothing was lost
  // across the compaction publishes.
  for (const Key k : fresh) {
    EXPECT_TRUE((*backend)->Lookup(k).found);
  }
  EXPECT_EQ((*backend)->base_size() + (*backend)->overlay_size(),
            n + static_cast<std::int64_t>(fresh.size()));
  // Compactions ran, and every one of them ran on the maintenance
  // thread: no insert ever paid a rebuild inline.
  EXPECT_GE((*backend)->compactions(), 1);
  EXPECT_EQ((*backend)->inline_compactions(), 0);
  // Per-insert work bound (the publish-size high-water mark): the
  // largest overlay an insert copied must sit near the compaction
  // threshold, far below the per-shard base an inline retrain touches.
  EXPECT_GT((*backend)->max_publish_overlay(), 0);
  EXPECT_LT((*backend)->max_publish_overlay() * 4,
            (*backend)->base_size() / (*backend)->num_shards());
}

TEST(ServingChurnTest, TelemetryHotReadPathStaysLockFreeUnderChurn) {
  // The telemetry-hot arm of the churn test: metrics, tracing, AND a
  // background sampler all run while readers race the writer and the
  // maintenance thread. The load-bearing assertion is implicit — the
  // read path's WriterMutex tripwire aborts the process if any lookup
  // or scan ever takes a shard lock, so telemetry on that path must be
  // mutex-free or this test dies, not fails. The explicit assertions
  // pin that the instruments actually moved and the sampler rows stayed
  // contiguous while everything churned. TSan leg covers the memory
  // model of the relaxed slabs + trace seqlocks under real serving load.
  const std::int64_t n = 20000;
  const KeySet ks = TestKeys(n, /*seed=*/31);
  BackendOptions opts;
  opts.rmi.target_model_size = 500;
  opts.num_shards = 4;
  opts.compact_threshold = 256;
  auto backend = CreateBackend(BackendKind::kRmi, ks, opts);
  ASSERT_TRUE(backend.ok()) << backend.status().message();

  const std::vector<Key> fresh = FreshKeys(ks, 3000);
  ASSERT_GE(static_cast<std::int64_t>(fresh.size()), 2000);

  TelemetryRegistry& registry = TelemetryRegistry::Global();
  TelemetryCounter* lookups = registry.GetCounter("serving.lookups");
  TelemetryCounter* compactions = registry.GetCounter("serving.compactions");
  const std::int64_t lookups_before = lookups->Value();
  const std::int64_t compactions_before = compactions->Value();

  TraceSession::Global().Start(/*events_per_thread=*/1024);
  TelemetrySampler sampler;
  sampler.Start(/*interval_ms=*/5);

  constexpr int kReaders = 2;
  std::atomic<bool> stop{false};
  std::atomic<int> readers_live{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(3000 + static_cast<std::uint64_t>(t));
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        const Key base_key = ks.at(rng.UniformInt(0, ks.size() - 1));
        if (!(*backend)->Lookup(base_key).found) {
          torn.store(true);
          return;
        }
        const std::int64_t a = rng.UniformInt(0, ks.size() - 101);
        if ((*backend)->Scan(ks.at(a), ks.at(a + 100)).range_count < 101) {
          torn.store(true);
          return;
        }
        if (first) {
          first = false;
          readers_live.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }
  // As above: the writer starts only once every reader has read, so the
  // lookup counter has moved whatever the scheduler does.
  while (readers_live.load(std::memory_order_acquire) < kReaders &&
         !torn.load()) {
    std::this_thread::yield();
  }
  for (const Key k : fresh) {
    ASSERT_TRUE((*backend)->Insert(k).ok());
  }
  (*backend)->WaitForMaintenance();
  stop.store(true);
  for (auto& r : readers) r.join();
  sampler.Stop();
  TraceSession::Global().Stop();

  EXPECT_FALSE(torn.load()) << "a reader observed a torn snapshot";
  EXPECT_EQ((*backend)->inline_compactions(), 0);

  // The instruments moved with the serving engine, exactly.
  EXPECT_GT(lookups->Value() - lookups_before, 0);
  EXPECT_EQ(compactions->Value() - compactions_before,
            (*backend)->compactions());

  // Sampler rows stayed contiguous under concurrent recording, and
  // their lookup deltas telescope to the counter's movement.
  const std::vector<TelemetryIntervalRow> rows = sampler.Rows();
  ASSERT_GE(rows.size(), 1u);
  std::int64_t lookup_delta_sum = 0;
  std::int64_t prev_end = rows.front().t_start_ns;
  for (const TelemetryIntervalRow& row : rows) {
    EXPECT_EQ(row.t_start_ns, prev_end);
    prev_end = row.t_end_ns;
    for (const auto& c : row.counter_deltas) {
      EXPECT_GE(c.value, 0) << c.name;
      if (c.name == "serving.lookups") lookup_delta_sum += c.value;
    }
  }
  EXPECT_EQ(lookup_delta_sum, lookups->Value() - lookups_before);

  // Compaction spans from the maintenance thread made it into the ring.
  EXPECT_GT(TraceSession::Global().recorded(), 0);
}

TEST(ServingChurnTest, AsyncCompactionKeepsInsertsRebuildFree) {
  // Same insert-heavy stream through the driver against a sync and an
  // async backend: identical membership outcomes, but only the sync
  // run charges retrains to inserting threads.
  const KeySet ks = TestKeys(30000, /*seed=*/67);
  auto ops = GenerateOperations(InsertHeavyWorkload(101), ks, 12000);
  ASSERT_TRUE(ops.ok());

  BackendOptions sync_opts;
  sync_opts.rmi.target_model_size = 500;
  sync_opts.num_shards = 2;
  sync_opts.compact_threshold = 256;
  sync_opts.sync_compaction = true;
  BackendOptions async_opts = sync_opts;
  async_opts.sync_compaction = false;

  auto sync_backend = CreateBackend(BackendKind::kRmi, ks, sync_opts);
  auto async_backend = CreateBackend(BackendKind::kRmi, ks, async_opts);
  ASSERT_TRUE(sync_backend.ok());
  ASSERT_TRUE(async_backend.ok());

  DriverOptions dopts;
  dopts.num_threads = 2;
  dopts.measure_latency = false;
  auto rs = RunWorkload(sync_backend->get(), *ops, dopts);
  auto ra = RunWorkload(async_backend->get(), *ops, dopts);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(ra.ok());
  (*async_backend)->WaitForMaintenance();

  // Membership outcomes match: the stream's insert keys are fresh and
  // unique, so every insert commits in both modes.
  EXPECT_EQ(ra->inserts, rs->inserts);
  EXPECT_EQ(ra->insert_failures, 0);
  EXPECT_EQ(rs->insert_failures, 0);
  EXPECT_EQ((*async_backend)->base_size() + (*async_backend)->overlay_size(),
            (*sync_backend)->base_size() + (*sync_backend)->overlay_size());

  // Both modes compacted under this insert pressure…
  EXPECT_GE((*sync_backend)->compactions(), 2);
  EXPECT_GE((*async_backend)->compactions(), 1);
  // …but the sync run charged them to inserting threads while the
  // async run charged none.
  EXPECT_EQ((*sync_backend)->inline_compactions(),
            (*sync_backend)->compactions());
  EXPECT_EQ((*async_backend)->inline_compactions(), 0);
}

TEST(ServingChurnTest, SingleShardStillCompactsOffThread) {
  // Satellite invariant: even num_shards=1 routes compaction through
  // the maintenance thread by default; sync_compaction is an explicit
  // escape hatch, not the single-shard default.
  const KeySet ks = TestKeys(8000, /*seed=*/5);
  BackendOptions opts;
  opts.rmi.target_model_size = 500;
  opts.num_shards = 1;
  opts.compact_threshold = 128;
  auto backend = CreateBackend(BackendKind::kRmi, ks, opts);
  ASSERT_TRUE(backend.ok());
  const std::vector<Key> fresh = FreshKeys(ks, 600);
  ASSERT_GE(static_cast<std::int64_t>(fresh.size()), 400);
  for (const Key k : fresh) {
    ASSERT_TRUE((*backend)->Insert(k).ok());
  }
  (*backend)->WaitForMaintenance();
  EXPECT_GE((*backend)->compactions(), 1);
  EXPECT_EQ((*backend)->inline_compactions(), 0);
  EXPECT_LT((*backend)->overlay_size(), 128);
  for (const Key k : fresh) {
    EXPECT_TRUE((*backend)->Lookup(k).found);
  }
}

}  // namespace
}  // namespace lispoison
