// Adversarial differential harness for the pruned argmax engine
// (LossLandscape::ArgmaxOptions): across hundreds of seeded randomized
// landscapes — uniform, log-normal, and zipf-gap key layouts, n up to
// 10^4, with interleaved InsertKey rounds — the pruned scan must return
// a *bit-identical* Candidate (key and long-double loss) to the
// exhaustive reference scan, at every thread count in {1, 2, 7}. The
// harness also pins the no-per-round-allocation property of the
// engine-owned argmax scratch via the realloc counter, and that a
// pooled scan does about the serial scan's work, the same for every
// pool size.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "attack/loss_landscape.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "data/keyset.h"

namespace lispoison {
namespace {

constexpr int kCasesPerLayout = 70;  // x3 layouts = 210 differential cases.
constexpr int kRoundsPerCase = 5;    // Interleaved InsertKey commits.

enum class Layout { kUniform, kLogNormal, kZipfGap };

/// Zipf-gap layout: successive gaps drawn log-uniform over ~4 decades,
/// so the landscape mixes a few huge gaps with many near-unit ones —
/// the chunk layout least like the uniform case and the hardest mix for
/// a bound that must separate near-equal losses.
Result<KeySet> GenerateZipfGap(std::int64_t n, Rng* rng) {
  std::vector<Key> keys;
  keys.reserve(static_cast<std::size_t>(n));
  Key cursor = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double mag = rng->NextDouble() * 4.0;  // gap in [1, 10^4)
    cursor += 1 + static_cast<Key>(std::pow(10.0, mag));
    keys.push_back(cursor);
  }
  return KeySet::Create(std::move(keys), KeyDomain{0, cursor + 1000});
}

Result<KeySet> MakeKeyset(Layout layout, std::int64_t n, Rng* rng) {
  // Sparse domain (~20 unoccupied keys per key) so gap counts track n
  // and the n = 10^4 cases cross the parallel-chunk threshold.
  const KeyDomain domain{0, 20 * n};
  switch (layout) {
    case Layout::kUniform:
      return GenerateUniform(n, domain, rng);
    case Layout::kLogNormal:
      return GenerateLogNormal(n, domain, rng);
    case Layout::kZipfGap:
      return GenerateZipfGap(n, rng);
  }
  return Status::Internal("unreachable");
}

/// One FindOptimal comparison: the exhaustive serial scan is the ground
/// truth; the pruned scan must bit-match it serially and on every pool.
/// Fills *out with the winner and returns false when the range is
/// exhausted (both scans must agree on that too).
bool ExpectPrunedMatchesExhaustive(
    const LossLandscape& ll, bool interior_only,
    const std::unordered_set<Key>* excluded,
    const std::vector<ThreadPool*>& pools,
    LossLandscape::Candidate* out) {
  LossLandscape::ArgmaxOptions exhaustive;
  exhaustive.prune = false;
  LossLandscape::ArgmaxOptions pruned;
  pruned.prune = true;

  const auto want =
      ll.FindOptimal(interior_only, excluded, nullptr, exhaustive);
  const auto got_serial =
      ll.FindOptimal(interior_only, excluded, nullptr, pruned);
  EXPECT_EQ(want.ok(), got_serial.ok());
  if (want.ok() && got_serial.ok()) {
    EXPECT_EQ(want->key, got_serial->key);
    EXPECT_EQ(want->loss, got_serial->loss);
  }
  for (ThreadPool* pool : pools) {
    const auto got = ll.FindOptimal(interior_only, excluded, pool, pruned);
    EXPECT_EQ(want.ok(), got.ok()) << pool->num_threads() << " threads";
    if (want.ok() && got.ok()) {
      EXPECT_EQ(want->key, got->key) << pool->num_threads() << " threads";
      EXPECT_EQ(want->loss, got->loss) << pool->num_threads() << " threads";
    }
  }
  if (!want.ok()) return false;
  *out = *want;
  return true;
}

TEST(ArgmaxPruningTest, DifferentialAcrossLayoutsSizesAndThreadCounts) {
  // Pools for thread counts {2, 7}; count 1 is the serial scan. One pool
  // per count reused across all cases.
  ThreadPool pool2(2);
  ThreadPool pool7(7);
  const std::vector<ThreadPool*> pools = {&pool2, &pool7};

  // n schedule: mostly small-to-mid landscapes (cheap exhaustive
  // oracle), with every 7th case at n = 10^4 so the chunked parallel
  // pruned path (> 2048 gaps) is exercised at both pool sizes.
  const std::int64_t kSizes[] = {50, 200, 777, 3000, 10000};

  int checked = 0;
  for (const Layout layout :
       {Layout::kUniform, Layout::kLogNormal, Layout::kZipfGap}) {
    for (int c = 0; c < kCasesPerLayout; ++c) {
      const std::int64_t n =
          (c % 7 == 0) ? 10000 : kSizes[static_cast<std::size_t>(c) % 4];
      Rng rng(0xA11CE + static_cast<std::uint64_t>(layout) * 1000 +
              static_cast<std::uint64_t>(c));
      auto ks = MakeKeyset(layout, n, &rng);
      ASSERT_TRUE(ks.ok()) << ks.status().message();
      auto ll = LossLandscape::Create(*ks);
      ASSERT_TRUE(ll.ok()) << ll.status().message();

      const bool interior = (c % 2 == 0);
      for (int round = 0; round < kRoundsPerCase; ++round) {
        LossLandscape::Candidate best;
        if (!ExpectPrunedMatchesExhaustive(*ll, interior, nullptr, pools,
                                           &best)) {
          break;  // Range exhausted — both scans agreed.
        }
        // Every 8th case also exercises the excluded-key path: without
        // its optimum the pruned scan must find the runner-up exactly.
        if (c % 8 == 0) {
          const std::unordered_set<Key> excluded = {best.key};
          LossLandscape::Candidate runner_up;
          ExpectPrunedMatchesExhaustive(*ll, interior, &excluded, pools,
                                        &runner_up);
        }
        // Interleave: commit the optimum and keep scanning the grown
        // landscape (the greedy attack's own access pattern).
        ASSERT_TRUE(ll->InsertKey(best.key).ok());
        ++checked;
      }
    }
  }
  // 3 layouts x 70 cases x 5 rounds, minus the rare exhausted ranges.
  EXPECT_GE(checked, 200 * kRoundsPerCase / 2);
}

TEST(ArgmaxPruningTest, DifferentialAtHugeKeyMagnitudes) {
  // Keys near +/-2^55: shifted candidates exceed 2^53, so every
  // int64/int128->double conversion in the bound pre-pass actually
  // rounds — the lossiest regime the admissibility margins must cover
  // (the tiny-domain cases above convert exactly). n stays small so the
  // exact 128-bit aggregates (n^2 * span^2 ~ 2^122) cannot overflow.
  ThreadPool pool2(2);
  ThreadPool pool7(7);
  const std::vector<ThreadPool*> pools = {&pool2, &pool7};
  const Key kHalfSpan = static_cast<Key>(1) << 55;

  int checked = 0;
  for (int c = 0; c < 24; ++c) {
    const std::int64_t n = 40 + (c % 3) * 12;
    Rng rng(0xB16B00 + static_cast<std::uint64_t>(c));
    auto ks = GenerateUniform(n, KeyDomain{-kHalfSpan, kHalfSpan}, &rng);
    ASSERT_TRUE(ks.ok()) << ks.status().message();
    auto ll = LossLandscape::Create(*ks);
    ASSERT_TRUE(ll.ok()) << ll.status().message();
    const bool interior = (c % 2 == 0);
    for (int round = 0; round < kRoundsPerCase; ++round) {
      LossLandscape::Candidate best;
      if (!ExpectPrunedMatchesExhaustive(*ll, interior, nullptr, pools,
                                         &best)) {
        break;
      }
      ASSERT_TRUE(ll->InsertKey(best.key).ok());
      ++checked;
    }
  }
  EXPECT_GE(checked, 24 * kRoundsPerCase / 2);
}

TEST(ArgmaxPruningTest, ScratchDoesNotGrowPerRound) {
  // ROADMAP item: the argmax must not pay an O(G) allocation per round.
  // The scratch buffers grow geometrically, so across 180 further
  // rounds (gap count grows by ~1 per insert) the realloc counter may
  // move only by a handful of doubling events — not once per round.
  Rng rng(0xBEEF);
  auto ks = GenerateUniform(2000, KeyDomain{0, 40000}, &rng);
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());

  LossLandscape::ArgmaxOptions pruned;
  pruned.prune = true;
  auto run_rounds = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      auto best = ll->FindOptimal(true, nullptr, nullptr, pruned);
      ASSERT_TRUE(best.ok());
      ASSERT_TRUE(ll->InsertKey(best->key).ok());
    }
  };
  run_rounds(20);
  const std::int64_t warm = ll->argmax_scratch_reallocs();
  EXPECT_GT(warm, 0);  // The buffers were actually used.
  run_rounds(180);
  // 5 scratch buffers, each allowed a few geometric growth events; a
  // per-round allocation would add 5 * 180.
  EXPECT_LE(ll->argmax_scratch_reallocs() - warm, 15)
      << "argmax scratch reallocated per round";
}

TEST(ArgmaxPruningTest, StatsCountersAreCoherent) {
  Rng rng(0xD00D);
  auto ks = GenerateUniform(5000, KeyDomain{0, 100000}, &rng);
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());

  // cache off: the PR 3 per-round full pre-pass, whose counter identity
  // with the exhaustive scan is pinned below. The cached path has its
  // own coherence test (CacheCountersAreCoherent).
  LossLandscape::ArgmaxOptions pruned;
  pruned.prune = true;
  pruned.cache = false;
  LossLandscape::ArgmaxStats with_prune;
  auto a = ll->FindOptimal(true, nullptr, nullptr, pruned, &with_prune);
  ASSERT_TRUE(a.ok());

  LossLandscape::ArgmaxOptions exhaustive;
  exhaustive.prune = false;
  LossLandscape::ArgmaxStats without;
  auto b = ll->FindOptimal(true, nullptr, nullptr, exhaustive, &without);
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(a->key, b->key);
  EXPECT_EQ(a->loss, b->loss);
  EXPECT_EQ(with_prune.rounds, 1);
  EXPECT_EQ(without.rounds, 1);
  EXPECT_EQ(with_prune.fallback_rounds, 0);
  EXPECT_EQ(without.bound_evals, 0);
  EXPECT_EQ(without.pruned_gaps, 0);
  // The pre-pass scores every candidate the exhaustive scan evaluates...
  EXPECT_EQ(with_prune.bound_evals, without.exact_evals);
  // ...and the acceptance-level win: far fewer exact evaluations. The
  // 3x bar is the ISSUE's floor; this landscape prunes >100x.
  EXPECT_LE(with_prune.exact_evals * 3, without.exact_evals);
  // Every gap is either pruned or had at least one exact evaluation.
  EXPECT_GT(with_prune.pruned_gaps, 0);
  // The uncached pre-pass never touches the cache counters.
  EXPECT_EQ(with_prune.cached_bounds, 0);
  EXPECT_EQ(with_prune.invalidated_gaps, 0);
}

TEST(ArgmaxPruningTest, WideDomainsFallBackToExhaustive) {
  // Admissibility envelope: with n1 keys of shifted magnitude <= S the
  // exact aggregates reach n1^2 S^2 / n1^3 S, so for n1 * S >= 2^63
  // neither bound pre-pass is provably admissible and both pruned
  // paths must fall back to the exhaustive scan (fallback_rounds) —
  // the regime where PR 3's looser span-only guard would still have
  // pruned against potentially overflowed aggregates. n stays tiny so
  // the exhaustive arithmetic itself is safe (n1^2 S^2 < 2^127).
  const Key kHuge = static_cast<Key>(1) << 60;
  auto ks = KeySet::Create({-kHuge, -kHuge / 3, kHuge / 5, kHuge},
                           KeyDomain{-kHuge, kHuge});
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());

  for (const bool cache : {false, true}) {
    LossLandscape::ArgmaxOptions pruned;
    pruned.prune = true;
    pruned.cache = cache;
    LossLandscape::ArgmaxStats stats;
    auto got = ll->FindOptimal(true, nullptr, nullptr, pruned, &stats);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(stats.fallback_rounds, 1) << "cache=" << cache;
    EXPECT_EQ(stats.bound_evals, 0) << "cache=" << cache;

    LossLandscape::ArgmaxOptions exhaustive;
    exhaustive.prune = false;
    auto want = ll->FindOptimal(true, nullptr, nullptr, exhaustive);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(want->key, got->key);
    EXPECT_EQ(want->loss, got->loss);
  }
}

TEST(ArgmaxPruningTest, CacheCountersAreCoherentAndAmortized) {
  // The tiered incremental scan's accounting contract: every round,
  // each gap in the scanned range is either dispositioned by its tier's
  // box bound (cached_bounds) or re-scored individually
  // (invalidated_gaps), and the total bound work stays a fraction of
  // the uncached O(G)-per-round pre-pass.
  Rng rng(0xCAC4E);
  auto ks = GenerateUniform(4000, KeyDomain{0, 80000}, &rng);
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());

  LossLandscape::ArgmaxOptions cached;
  cached.prune = true;
  cached.cache = true;
  LossLandscape::ArgmaxOptions uncached = cached;
  uncached.cache = false;

  auto gaps_in_range = [&]() {
    std::int64_t gaps = 0;
    ll->ForEachGap(true, [&gaps](Key, Key, Rank, Int128) { ++gaps; });
    return gaps;
  };

  LossLandscape::ArgmaxStats total;
  LossLandscape::ArgmaxStats uncached_total;
  std::int64_t prev_cached = 0;
  std::int64_t prev_invalid = 0;
  const int kRounds = 48;
  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t in_range = gaps_in_range();
    auto a = ll->FindOptimal(true, nullptr, nullptr, cached, &total);
    ASSERT_TRUE(a.ok());
    // Coherence: every in-range gap was either tier-dispositioned or
    // re-scored.
    EXPECT_EQ((total.cached_bounds - prev_cached) +
                  (total.invalidated_gaps - prev_invalid),
              in_range)
        << "round " << round;
    // Most gaps must be handled at tier granularity.
    EXPECT_GT(total.cached_bounds - prev_cached,
              total.invalidated_gaps - prev_invalid)
        << "round " << round;
    prev_cached = total.cached_bounds;
    prev_invalid = total.invalidated_gaps;

    // The uncached sibling must agree bit-for-bit and re-score per round.
    auto b = ll->FindOptimal(true, nullptr, nullptr, uncached,
                             &uncached_total);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->key, b->key);
    EXPECT_EQ(a->loss, b->loss);

    ASSERT_TRUE(ll->InsertKey(a->key).ok());
  }
  EXPECT_EQ(total.fallback_rounds, 0);
  // Amortization: the tiered scan scores one box per tier (~sqrt(G))
  // plus the few surviving tiers per gap, so its total bound work must
  // be far below the uncached per-round pre-pass. 4x is a loose floor —
  // the sparse acceptance configs measure >= 10x per round.
  EXPECT_LT(total.bound_evals * 4, uncached_total.bound_evals);
}

TEST(ArgmaxPruningTest, PooledScansPruneAgainstOneGlobalSeed) {
  // The pooled argmax seeds once over the whole range and every chunk
  // prunes against that floor, so a pool does about the serial scan's
  // work, the same for every pool size. 4*10^5 keys give >= 100 chunks
  // of 2048 candidates on both the insertion (cached) and removal
  // (tiered) paths. On log-normal keys at most one chunk can beat the
  // seed in these rounds, so the pool sweeps serially; on uniform keys
  // the chunks fan out on both paths.
  ThreadPool pool2(2);
  ThreadPool pool7(7);
  const LossLandscape::ArgmaxOptions pruned;  // prune + cache: the default.
  auto expect_same_stats = [](const LossLandscape::ArgmaxStats& a,
                              const LossLandscape::ArgmaxStats& b) {
    EXPECT_EQ(a.exact_evals, b.exact_evals);
    EXPECT_EQ(a.bound_evals, b.bound_evals);
    EXPECT_EQ(a.pruned_gaps, b.pruned_gaps);
    EXPECT_EQ(a.cached_bounds, b.cached_bounds);
    EXPECT_EQ(a.invalidated_gaps, b.invalidated_gaps);
  };
  const std::int64_t n = 400000;
  for (const Layout layout : {Layout::kLogNormal, Layout::kUniform}) {
    SCOPED_TRACE(layout == Layout::kLogNormal ? "log-normal" : "uniform");
    Rng rng(0x5EED);
    const KeyDomain domain{0, 100 * n};
    auto ks = layout == Layout::kLogNormal ? GenerateLogNormal(n, domain, &rng)
                                           : GenerateUniform(n, domain, &rng);
    ASSERT_TRUE(ks.ok());
    auto ll = LossLandscape::Create(*ks);
    ASSERT_TRUE(ll.ok());
    // Log-normal keys cluster: about one gap per two keys.
    ASSERT_GE(ll->gap_count(), 100 * 2048);

    LossLandscape::ArgmaxStats ins1, ins2, ins7, rem1, rem2, rem7;
    for (int round = 0; round < 8; ++round) {
      auto a1 = ll->FindOptimal(true, nullptr, nullptr, pruned, &ins1);
      auto a2 = ll->FindOptimal(true, nullptr, &pool2, pruned, &ins2);
      auto a7 = ll->FindOptimal(true, nullptr, &pool7, pruned, &ins7);
      ASSERT_TRUE(a1.ok() && a2.ok() && a7.ok());
      EXPECT_EQ(a1->key, a2->key);
      EXPECT_EQ(a1->loss, a2->loss);
      EXPECT_EQ(a1->key, a7->key);
      EXPECT_EQ(a1->loss, a7->loss);

      auto r1 = ll->FindOptimalRemoval(nullptr, nullptr, pruned, &rem1);
      auto r2 = ll->FindOptimalRemoval(nullptr, &pool2, pruned, &rem2);
      auto r7 = ll->FindOptimalRemoval(nullptr, &pool7, pruned, &rem7);
      ASSERT_TRUE(r1.ok() && r2.ok() && r7.ok());
      EXPECT_EQ(r1->key, r2->key);
      EXPECT_EQ(r1->loss, r2->loss);
      EXPECT_EQ(r1->key, r7->key);
      EXPECT_EQ(r1->loss, r7->loss);

      // Alternate the greedy attacks' own commits.
      if (round % 2 == 0) {
        ASSERT_TRUE(ll->InsertKey(a1->key).ok());
      } else {
        ASSERT_TRUE(ll->RemoveKey(r1->key).ok());
      }
    }
    // Counters depend on the chunk layout only, never on the pool size.
    expect_same_stats(ins2, ins7);
    expect_same_stats(rem2, rem7);
    // And the pool does about the serial scan's exact work.
    EXPECT_LE(ins2.exact_evals, 2 * ins1.exact_evals);
    EXPECT_LE(rem2.exact_evals, 2 * rem1.exact_evals);
  }
}

}  // namespace
}  // namespace lispoison
