// Copyright (c) lispoison authors. Licensed under the MIT license.
//
// The "loss as a sequence" view of Section IV: for a fixed legitimate
// keyset K, the minimized regression loss after inserting one poisoning
// key kp is a function L(kp) over the unoccupied keys of the domain.
// LossLandscape precomputes exact prefix aggregates over K so L(kp) can
// be evaluated in O(1) for any candidate — the engine behind both the
// optimal single-point attack (gap-endpoint enumeration, Theorem 2) and
// the full-domain sweeps of Fig. 3.
//
// Unlike the original rebuild-per-round engine, this landscape is
// *incrementally updatable*: InsertKey commits a poisoning key in
// O(log n) aggregate work (plus an O(p) sorted-overlay insert, p =
// number of inserted keys), after which every query reflects the
// enlarged keyset exactly — bit-identical to a fresh landscape built on
// the combined keys. The greedy multi-point attacks exploit this to
// skip the per-round KeySet/landscape reconstruction entirely.
//
// Invariants of the incremental representation:
//  - base_keys_ (the Create-time keys) never change; their prefix sums
//    are a static array.
//  - inserted keys live in a sorted overlay plus a Fenwick tree indexed
//    by *base slot* (the base-key gap an inserted key falls into), so
//    prefix key-sums at any candidate stay O(log n).
//  - gaps_ is the maximal-unoccupied-interval decomposition of the
//    domain, stored as a *tiered* (two-level) layout (TieredGaps): an
//    insertion splits exactly the gap containing it with an O(sqrt(G))
//    splice, and each gap record carries the exact count/prefix-sum of
//    the current keys below it (tier-relative, with lazy per-tier
//    deltas), so candidate scans read exact ranks in O(1) per gap.
//  - all aggregate arithmetic is exact 128-bit; shifting keys by the
//    smallest Create-time key keeps magnitudes safe, and the final
//    Theorem 1 ratio is shift-invariant bit-for-bit because the
//    variance/covariance numerators are shift-invariant in exact
//    integer arithmetic.
//
// The per-round argmax over gap endpoints additionally supports a
// branch-and-bound pruned scan (ArgmaxOptions): every gap is scored
// against an admissible double-precision upper bound on the exact loss,
// survivors are re-checked exactly, and the scan exits once every
// remaining bound is below the running best. The bound provably
// dominates the exact evaluation (directed-rounding error margins), so
// the selected candidate stays bit-identical to the exhaustive scan.
//
// With ArgmaxOptions::cache (the default) the pre-pass is *tiered and
// incremental*: instead of re-scoring all O(G) gaps every round, the
// scan first scores one admissible range bound per ~sqrt(G)-gap tier,
// computed in O(1) from the tier's key range and its first gap's exact
// (count, prefix-sum) record — state the tiered gap structure maintains
// incrementally across InsertKey splices. The range bound exploits two
// structural facts: along the candidate axis the covariance numerator
// is piecewise linear with non-decreasing slopes (n1*c1 - sumY grows as
// candidates pass keys) and upward jumps at key crossings, so it lies
// above its left-endpoint tangent; and VarX is a gap-independent convex
// parabola, so its range maximum sits at an endpoint. Only tiers whose
// range bound reaches the running best are re-scored per gap, dropping
// per-round bound work from O(G) to O(sqrt(G) + survivors).
// (Design notes from measurement: bounds persisted across rounds with
// forward-drift margins are useless here — the loss is a near
// cancellation of VarY and Cov^2/VarX, so any per-round drift allowance
// inflates the bound by more than the whole gap-to-gap loss spread —
// and plain interval arithmetic over a tier's input box decorrelates
// Cov from VarX badly enough to never skip a tier; the tangent form is
// what makes a tier-granular bound tight.) Whenever a bound context is
// not provably admissible the round transparently falls back — tiered
// scan to the per-round full pre-pass, and that to the exhaustive scan
// — so results are bit-identical in every mode.

#ifndef LISPOISON_ATTACK_LOSS_LANDSCAPE_H_
#define LISPOISON_ATTACK_LOSS_LANDSCAPE_H_

#include <unordered_set>
#include <utility>
#include <vector>

#include "attack/gap_tiers.h"
#include "attack/removal_soa.h"
#include "common/fenwick.h"
#include "common/status.h"
#include "common/types.h"
#include "data/keyset.h"

namespace lispoison {

class ThreadPool;

/// \brief Exact O(1) evaluator of the post-insertion minimized loss
/// L(kp) = min_{w,b} MSE(K ∪ {kp}) for any candidate poisoning key,
/// with O(log n) incremental commits via InsertKey.
///
/// The compound effect of CDF poisoning (every legitimate key above kp
/// has its rank shifted by one) is folded into the aggregates: with
/// c = |{k in K : k < kp}| keys below the candidate,
///
///   sum(X)   = sum(K) + kp
///   sum(X^2) = sum(K^2) + kp^2
///   sum(XY)  = sum_i k_i * r_i + SuffixKeySum(c) + kp * (c + 1)
///   sum(Y), sum(Y^2) depend only on n (ranks are a permutation of
///   1..n+1).
class LossLandscape {
 public:
  /// \brief Builds the landscape over \p keyset. Requires >= 1 key.
  static Result<LossLandscape> Create(const KeySet& keyset);

  /// \brief Parallel build: with \p pool non-null and running >1
  /// worker, the base-key prefix/aggregate pass and the gap-record
  /// emission fan out in fixed index chunks (a two-pass exclusive scan
  /// stitches the per-chunk partials). All aggregate arithmetic is
  /// exact integer and therefore associative, so the resulting
  /// landscape is bit-identical to the serial build for every thread
  /// count — asserted by landscape_parallel_create_test. pool ==
  /// nullptr (or an inline pool) runs the serial path unchanged.
  static Result<LossLandscape> Create(const KeySet& keyset,
                                      ThreadPool* pool);

  /// \brief The loss of the unpoisoned regression on the *current* keys
  /// (base keys plus everything committed through InsertKey).
  long double BaseLoss() const { return base_loss_; }

  /// \brief Current number of keys n (base + inserted).
  std::int64_t size() const { return n_; }

  /// \brief The key domain of the underlying keyset.
  const KeyDomain& domain() const { return domain_; }

  /// \brief Smallest / largest current key.
  Key min_key() const { return min_key_; }
  Key max_key() const { return max_key_; }

  /// \brief Second-smallest / second-largest current key. Requires
  /// size() >= 2. Used by the RMI exchange simulation, which evaluates
  /// the landscape with one boundary key hypothetically removed.
  Key SecondMinKey() const;
  Key SecondMaxKey() const;

  /// \brief Commits poisoning key \p kp into the landscape: all
  /// aggregates, the gap decomposition, and BaseLoss() now describe the
  /// enlarged keyset, exactly as if the landscape had been rebuilt.
  /// Re-inserting a previously removed key cancels its removal overlay
  /// entry instead of growing the inserted overlay.
  ///
  /// Fails with OutOfRange outside the domain and InvalidArgument when
  /// kp is occupied. Cost O(log n) aggregate work + O(p) overlay insert
  /// + O(sqrt(G)) tiered gap splice (see splice_moves()).
  Status InsertKey(Key kp);

  /// \brief The exact dual of InsertKey: removes the *current* key
  /// \p kp (base or inserted), after which every aggregate, the gap
  /// decomposition (adjacent gaps merge; see TieredGaps::MergeAt), the
  /// min/max bookkeeping and BaseLoss() describe the shrunken keyset
  /// bit-identically to a fresh landscape built without kp. Removed
  /// base keys live in a tombstone overlay (sorted vector + Fenwick
  /// sums by base index) threaded through PrefixAt, so the Create-time
  /// key array stays immutable.
  ///
  /// Fails with OutOfRange outside the domain, InvalidArgument when kp
  /// is not currently stored, and FailedPrecondition when fewer than
  /// two keys would remain (the regression needs two points). Cost
  /// O(log n) aggregate work + O(p + r) overlay work + O(sqrt(G))
  /// tiered gap merge (see splice_moves()).
  Status RemoveKey(Key kp);

  /// \brief RemoveKey(from) followed by InsertKey(to) — the §V
  /// modification (relocation) primitive. to == from is a no-op
  /// round-trip. On a failed re-insertion the removal is rolled back
  /// and the error returned, leaving the landscape untouched.
  Status ReplaceKey(Key from, Key to);

  /// \brief L(kp): minimized MSE of the regression trained on the
  /// current keys plus kp.
  ///
  /// Fails with InvalidArgument when kp is occupied (the paper's ⊥ case)
  /// and OutOfRange when kp lies outside the domain.
  Result<long double> LossAt(Key kp) const;

  /// \brief Candidate keys per Theorem 2: the first and last unoccupied
  /// key of every maximal gap. With \p interior_only (the paper's
  /// default) only gaps strictly between min and max of the current keys
  /// are considered, excluding out-of-range/outlier insertions that
  /// simple defenses would catch.
  std::vector<Key> GapEndpoints(bool interior_only) const;

  /// \brief Evaluates L at every unoccupied key (optionally interior
  /// only), in increasing key order — the Fig. 3 sweep and the
  /// brute-force oracle. Cost O(m + n).
  std::vector<std::pair<Key, long double>> Sweep(bool interior_only) const;

  /// \brief The best single poisoning key and its loss.
  struct Candidate {
    Key key = 0;
    long double loss = 0;
  };

  /// \brief Knobs for the pruned argmax (see FindOptimal).
  struct ArgmaxOptions {
    /// Run the branch-and-bound pruned scan: every gap is scored against
    /// an admissible per-gap upper bound on the Theorem 1 loss, only the
    /// survivors are re-checked exactly. The selected Candidate is
    /// bit-identical to the exhaustive scan (the bound provably
    /// dominates the exact loss; ties re-check every contender and break
    /// toward the smaller key, the first-maximum-in-key-order rule of
    /// the serial scan).
    bool prune = true;

    /// Tiered incremental pre-pass: score one admissible range bound
    /// per tier (a covariance left-tangent over the tier's key range,
    /// O(1) from the incrementally maintained tier state) and re-score
    /// gaps individually only inside tiers whose range bound reaches
    /// the running best — O(sqrt(G) + survivors) bound work per round
    /// instead of O(G). Bit-identical results either way; off restores
    /// the per-round full pre-pass of PR 3. Only meaningful with
    /// prune.
    bool cache = true;

    /// Gaps exactly re-checked up front (in decreasing bound order) to
    /// seed the running best before the branch-and-bound sweep. Used by
    /// the uncached pre-pass only; the tiered scan seeds from the
    /// per-tier bound maxima instead.
    std::int64_t top_k = 16;
  };

  /// \brief Evaluation-count counters accumulated across FindOptimal
  /// calls. Counter values depend on the scan layout (serial vs
  /// chunked), never on the pool size; the returned Candidate is the
  /// same for every layout. Coherence
  /// invariant of the tiered (cache) scan, asserted by the stateful
  /// property harness: per round, cached_bounds + invalidated_gaps
  /// equals the number of gaps in the scanned range.
  struct ArgmaxStats {
    std::int64_t rounds = 0;          ///< FindOptimal calls.
    std::int64_t exact_evals = 0;     ///< Exact Theorem 1 evaluations.
    std::int64_t bound_evals = 0;     ///< Double-precision bound scores
                                      ///< (per-gap and per-tier).
    std::int64_t pruned_gaps = 0;     ///< Gaps never evaluated exactly.
    std::int64_t cached_bounds = 0;   ///< Gaps dispositioned by their
                                      ///< tier's range bound alone (no
                                      ///< per-gap re-scoring).
    std::int64_t invalidated_gaps = 0;///< Gaps re-scored individually
                                      ///< (their tier survived the
                                      ///< range filter this round).
    std::int64_t fallback_rounds = 0; ///< Pruning requested but the bound
                                      ///< context was not admissible.
    void Add(const ArgmaxStats& o) {
      rounds += o.rounds;
      exact_evals += o.exact_evals;
      bound_evals += o.bound_evals;
      pruned_gaps += o.pruned_gaps;
      cached_bounds += o.cached_bounds;
      invalidated_gaps += o.invalidated_gaps;
      fallback_rounds += o.fallback_rounds;
    }
  };

  /// \brief Maximizes L over the gap endpoints (the optimal single-point
  /// attack). Fails with ResourceExhausted when no unoccupied candidate
  /// exists. With \p excluded non-null, keys in that set are skipped
  /// (the RMI attack's globally occupied poisons).
  ///
  /// With \p pool non-null and running >1 worker, the gap scan fans out
  /// in fixed chunks of gap ranges. The tiered scan seeds once over the
  /// whole range and every chunk prunes against that seed (when at most
  /// one chunk has a tier bound reaching the seed, it sweeps serially
  /// instead); the chunk winners reduce in chunk order under the serial
  /// scan's first-maximum-in-key-order rule, so the selected candidate
  /// is bit-identical for every thread count (greedy_differential_test)
  /// and the work counters are the same for every pool size.
  ///
  /// With \p argmax.prune (the default) each scan runs the pruned
  /// pipeline, and with \p argmax.cache runs it *tiered*: one range
  /// bound per tier (a covariance left-tangent over the tier's key
  /// range), seeding the running best inside the tier with the highest
  /// range bound, then a key-ordered sweep that skips whole tiers whose
  /// range bound is below the best, re-scores only the surviving tiers
  /// per gap, and exits once the suffix maximum over the remaining tier
  /// bounds is below the best. Tier range bounds ignore \p excluded
  /// (an excluded endpoint only makes them admissible over-estimates;
  /// the per-gap phase skips excluded endpoints exactly). Whenever a bound context is not provably admissible the
  /// call falls back — tiered scan to per-round pre-pass, pre-pass to
  /// exhaustive — so the result is bit-identical in every mode
  /// (argmax_pruning_test, the stateful property harness). \p stats,
  /// when non-null, is accumulated into, never reset.
  ///
  /// Scratch note: the gap-range/bound buffers are engine-owned and
  /// reused across rounds (no O(G) allocation per call), and the cached
  /// scan writes bound repairs into the tier structure, which makes
  /// concurrent FindOptimal calls on the *same* landscape racy; every
  /// attack drives one landscape from one thread at a time and fans out
  /// only via \p pool.
  Result<Candidate> FindOptimal(bool interior_only,
                                const std::unordered_set<Key>* excluded,
                                ThreadPool* pool,
                                const ArgmaxOptions& argmax,
                                ArgmaxStats* stats = nullptr) const;

  /// \brief Overload with the default ArgmaxOptions (pruning and cache
  /// on). Kept separate because a nested-class default argument cannot
  /// be spelled inside the enclosing class.
  Result<Candidate> FindOptimal(bool interior_only,
                                const std::unordered_set<Key>* excluded =
                                    nullptr,
                                ThreadPool* pool = nullptr) const;

  /// \brief The removal-side argmax: the stored key whose deletion
  /// maximizes the retrained loss (the greedy step of the §V deletion
  /// and modification attacks). With \p allowed non-null only keys in
  /// that set are candidates (the adversary's deletable records).
  ///
  /// Runs over a lazily built, incrementally maintained *block-local*
  /// structure-of-arrays view of the current keys (~sqrt(n)-key blocks
  /// of sorted keys + block-local int64 suffix key-sums, with
  /// tier-relative rank/suffix directory scalars — RemovalSoa) — no
  /// per-round landscape reconstruction, and O(sqrt(n)) maintenance
  /// per commit instead of the flat layout's O(n) suffix pass. With
  /// \p argmax.prune each candidate is scored by an admissible
  /// double-precision bound (the removal dual of the insertion bound,
  /// same component-magnitude margins) and only survivors are
  /// evaluated exactly; with \p argmax.cache (the default) the scan is
  /// additionally *tiered*: one admissible chord bound per storage
  /// block (the covariance is concave piecewise-linear along the
  /// stored keys, so the chord through a block's exact endpoint
  /// records minorizes it), and only blocks whose bound reaches the
  /// running best are re-scored per key through the batched
  /// auto-vectorizable SoA kernel — O(sqrt(n) + survivors) bound work
  /// per round instead of O(n). The commit structure and the bound
  /// tier structure are the same blocks, so the next round's chords
  /// see every commit exactly. With \p argmax.prune off every
  /// candidate is evaluated exactly. Results are bit-identical to an index-ordered
  /// exhaustive scan (ties break toward the smaller key) for every
  /// prune/cache/thread setting; whenever the bound arithmetic is not
  /// provably admissible (wide domains) the round transparently falls
  /// back to the exact Int128 scan. Counter contract of the tiered
  /// scan: cached_bounds + invalidated_gaps == candidates in the scan.
  ///
  /// Fails with FailedPrecondition when fewer than three keys are
  /// stored and ResourceExhausted when \p allowed rules every key out.
  /// Shares the engine-owned argmax scratch: one landscape, one thread
  /// at a time (fan out only via \p pool).
  Result<Candidate> FindOptimalRemoval(
      const std::unordered_set<Key>* allowed, ThreadPool* pool,
      const ArgmaxOptions& argmax, ArgmaxStats* stats = nullptr) const;

  /// \brief Times any argmax scratch buffer grew its capacity. Stays
  /// O(log G) across an attack (geometric growth), which the
  /// differential harness asserts to pin the no-per-round-allocation
  /// property.
  std::int64_t argmax_scratch_reallocs() const { return scratch_reallocs_; }

  /// \name Removal-SoA maintenance telemetry: cumulative slots touched
  /// by InsertKey/RemoveKey commits into the block-local candidate
  /// structure, the commit count, and the current block geometry. Per
  /// commit the touched-slot delta is O(sqrt(n)) by construction —
  /// the n=10M bench gate asserts the measured growth from n=100k.
  /// All zero until a removal argmax materializes the SoA.
  /// @{
  std::int64_t removal_commit_touched_slots() const {
    return rem_soa_.touched_slots();
  }
  std::int64_t removal_commits() const { return rem_soa_.commits(); }
  std::int64_t removal_block_count() const {
    return static_cast<std::int64_t>(rem_soa_.block_count());
  }
  std::int64_t removal_block_cap() const { return rem_soa_.block_cap(); }
  /// @}

  /// \brief Test-only scratch canary: fills every engine-owned argmax
  /// scratch buffer with poison values (NaN for bound slots, a large
  /// sentinel for indices/counts) and — under AddressSanitizer —
  /// poisons the buffers' memory so any read or write that escapes the
  /// [0, needed) prefix the next scan's PrepareScratch/EnsureScratchSize
  /// unpoisons aborts the process. Pins the scratch contract the
  /// grow-only resize(capacity) pattern relies on ("stale entries
  /// beyond the prepared prefix are never read").
  void PoisonArgmaxScratchForTesting() const;

  /// \brief Gap records / tier-directory entries moved by InsertKey
  /// splices, cumulative — O(sqrt(G)) per insert by construction
  /// (tiered layout), which the stateful property harness asserts.
  std::int64_t splice_moves() const { return gaps_.splice_moves(); }

  /// \brief Max gaps per tier before a tier splits (the splice-work
  /// scale the property harness bounds against).
  std::int64_t gap_tier_cap() const { return gaps_.tier_cap(); }

  /// \brief Current number of maximal gaps over the whole domain.
  std::int64_t gap_count() const { return gaps_.size(); }

  /// \brief Exact prefix statistics over the current keys strictly
  /// below \p kp. prefix_sum is over shifted keys (k - shift()).
  struct PrefixStats {
    Rank count_less = 0;
    Int128 prefix_sum = 0;
  };
  PrefixStats PrefixAt(Key kp) const;

  /// \brief The shift subtracted from every key inside the aggregates.
  Key shift() const { return shift_; }

  /// \brief Detached copy of the exact aggregates, supporting O(1)
  /// what-if edits and loss evaluation without touching the landscape.
  /// The RMI CHANGELOSS simulation runs entirely on these snapshots.
  struct Aggregates {
    std::int64_t n = 0;
    Key shift = 0;
    Int128 sum_k = 0;   // sum of shifted keys
    Int128 sum_k2 = 0;  // sum of shifted keys squared
    Int128 sum_kr = 0;  // sum of shifted_key * rank

    /// \brief Theorem 1 loss of the current n keys.
    long double Loss() const;

    /// \brief Loss after hypothetically inserting \p kp with
    /// \p count_less keys below it; \p suffix_sum is the shifted key-sum
    /// of the keys above kp. Does not modify the snapshot.
    long double LossAfterInsert(Key kp, Rank count_less,
                                Int128 suffix_sum) const;

    /// \brief Commits an insertion into the snapshot.
    void Insert(Key kp, Rank count_less, Int128 suffix_sum);
    /// \brief Removes a present key; \p suffix_sum_above excludes kp.
    void Remove(Key kp, Rank count_less, Int128 suffix_sum_above);

    /// \name O(1) edge edits used by the exchange simulation.
    /// @{
    void InsertBelowAll(Key k) { Insert(k, 0, sum_k); }
    void InsertAboveAll(Key k) { Insert(k, n, 0); }
    void RemoveSmallest(Key k) {
      Remove(k, 0, sum_k - (static_cast<Int128>(k) - shift));
    }
    void RemoveLargest(Key k) { Remove(k, n - 1, 0); }
    /// @}
  };
  Aggregates aggregates() const;

  /// \brief Visits every maximal gap intersected with [lo_bound,
  /// hi_bound] in increasing key order as f(gap_lo, gap_hi, count_less,
  /// prefix_sum), where count_less / prefix_sum describe the current
  /// keys strictly below gap_lo (identical for every candidate inside
  /// the gap, since gaps contain no keys). O(1) per visited gap.
  template <typename F>
  void ForEachGapInRange(Key lo_bound, Key hi_bound, F&& f) const {
    gaps_.ForEachInRange(lo_bound, hi_bound, std::forward<F>(f));
  }

  /// \brief ForEachGapInRange over the standard candidate range: the
  /// interior (min, max) of the current keys, or the whole domain.
  template <typename F>
  void ForEachGap(bool interior_only, F&& f) const {
    const Key lo = interior_only ? min_key_ + 1 : domain_.lo;
    const Key hi = interior_only ? max_key_ - 1 : domain_.hi;
    ForEachGapInRange(lo, hi, std::forward<F>(f));
  }

 private:
  long double LossWithInsertion(Key kp, Rank count_less,
                                Int128 suffix_sum) const;
  void RecomputeCurrentLoss();

  /// True when the pruned bound arithmetic (and the int64 suffix-sum
  /// SoA) is provably admissible for the current n and domain span.
  bool PruneDomainOk() const;

  /// Exact minimized loss of the current keys with the stored key
  /// \p key (1-based rank \p rank, int64 shifted suffix key-sum \p sa)
  /// deleted. The (rank, sa) pair comes from a removal-SoA block's
  /// tier-relative reconstruction — exact, so the loss is bit-identical
  /// to the flat layout's.
  long double LossWithoutKey(Key key, std::int64_t rank,
                             std::int64_t sa) const;

  /// Builds / refreshes the block-local removal-candidate SoA.
  void EnsureRemovalSoa() const;

  /// One materialized candidate gap range: everything the per-candidate
  /// loss evaluation needs, captured in key order.
  struct GapRange {
    Key lo = 0;
    Key hi = 0;
    Rank count_less = 0;
    Int128 suffix_sum = 0;
  };

  /// Per-round double-precision bound context (the uncached pre-pass);
  /// defined in the .cc.
  struct BoundCtx;

  /// Removal-side bound context (the dual of BoundCtx over the n-1
  /// surviving keys); defined in the .cc.
  struct RemovalBoundCtx;

  /// Removal-scan worker over the SoA storage blocks [bfirst, bend):
  /// batched per-key bound pass into the global candidate-indexed
  /// scratch (bound_ctx non-null), max-bound exact seed, key-ordered
  /// pruned sweep with suffix-max early exit — or the plain exhaustive
  /// block walk when bound_ctx is null. Folds the winner into
  /// *best/*have via the first-maximum-in-key-order rule.
  void ScanRemovalBlocks(std::size_t bfirst, std::size_t bend,
                         const RemovalBoundCtx* bound_ctx,
                         const std::unordered_set<Key>* allowed,
                         Candidate* best, bool* have,
                         ArgmaxStats* stats) const;

  /// Exact removal loss of key \p j of \p blk, folded into *best/*have.
  void EvalRemovalKey(const RemovalSoa::Block& blk, std::size_t j,
                      Candidate* best, bool* have, ArgmaxStats* stats) const;

  /// Per-key removal bounds of one storage block into \p out (-inf for
  /// keys outside \p allowed).
  void RemovalKeyBounds(const RemovalSoa::Block& blk,
                        const RemovalBoundCtx& ctx,
                        const std::unordered_set<Key>* allowed, double* out,
                        ArgmaxStats* stats) const;

  /// Prologue of the tiered removal scan (ArgmaxOptions::cache), over
  /// every SoA storage block: one admissible chord bound per block
  /// (along the stored keys the covariance is concave piecewise-linear,
  /// so the chord through a block's exact endpoint records minorizes
  /// it) into argmax_tier_bounds_, with global suffix max/count; then
  /// the seed — the highest-chord block's per-key bounds staged into
  /// \p seed_bounds (block_cap wide) and its best key exact-evaluated
  /// into *best/*have. Returns the seed block (block_count() if none).
  std::size_t SeedRemovalBlocks(const RemovalBoundCtx& ctx,
                                const std::unordered_set<Key>* allowed,
                                double* seed_bounds, Candidate* best,
                                bool* have, ArgmaxStats* stats) const;

  /// Tiered removal sweep over blocks [bfirst, bend) after
  /// SeedRemovalBlocks: blocks whose chord bound is below the running
  /// best are skipped whole, survivors are re-scored per key into
  /// \p scratch (this chunk's block_cap slice; the seed block reuses
  /// \p seed_bounds) — O(sqrt(n) + survivors) bound work per round
  /// instead of O(n). Counter contract mirrors the insertion tier
  /// cache: cached_bounds + invalidated_gaps == candidates swept.
  void ScanRemovalBlocksTiered(std::size_t bfirst, std::size_t bend,
                               const RemovalBoundCtx& ctx,
                               const std::unordered_set<Key>* allowed,
                               std::size_t seed_b, const double* seed_bounds,
                               double* scratch, Candidate* best, bool* have,
                               ArgmaxStats* stats) const;

  /// Scans argmax_ranges_[first, end) for the best candidate using the
  /// exhaustive loop (bound_ctx == nullptr) or the uncached pruned
  /// pipeline, and folds the winner into *best/*have via the
  /// first-maximum-in-key-order tie rule. Accumulates counters into
  /// *stats.
  void ScanGapRanges(std::size_t first, std::size_t end, std::int64_t top_k,
                     const BoundCtx* bound_ctx,
                     const std::unordered_set<Key>* excluded,
                     Candidate* best, bool* have, ArgmaxStats* stats) const;

  /// Seed of the tiered scan over tier-list positions [0, num_listed)
  /// (indices into argmax_tier_list_, whose per-tier range bounds and
  /// suffix arrays FindOptimal filled): stages the per-gap bounds of the
  /// tier with the highest range bound into \p seed_bounds (tier_cap
  /// wide; \p soa is a 4*tier_cap staging slice) and exact-evaluates its
  /// best gap into *best/*have. Returns the tier's position (num_listed
  /// if none) and the evaluated gap in *seed_gap.
  std::size_t SeedTiersCached(std::size_t num_listed, Key lo_bound,
                              Key hi_bound, const BoundCtx& ctx,
                              const std::unordered_set<Key>* excluded,
                              double* seed_bounds, double* soa,
                              const TieredGaps::GapRec** seed_gap,
                              Candidate* best, bool* have,
                              ArgmaxStats* stats) const;

  /// Tiered-scan sweep over tier-list positions [first, end) after
  /// SeedTiersCached, from the running best in *best/*have. Tiers whose
  /// range bound is below the best are skipped whole; survivors are
  /// re-scored per gap into \p scratch (this chunk's tier_cap slice,
  /// staged through its 4*tier_cap \p soa slice), except the seed tier,
  /// which reuses \p seed_bounds and skips the already evaluated
  /// \p seed_gap.
  void ScanTiersCached(std::size_t first, std::size_t end, Key lo_bound,
                       Key hi_bound, const BoundCtx& ctx,
                       const std::unordered_set<Key>* excluded,
                       std::size_t seed_pos,
                       const TieredGaps::GapRec* seed_gap,
                       const double* seed_bounds, double* scratch,
                       double* soa, Candidate* best, bool* have,
                       ArgmaxStats* stats) const;

  /// Per-gap bounds of the in-range gaps of tier \p t into \p out: the
  /// batched kernel for large fully in-range tiers with no exclusions,
  /// the scalar per-gap path otherwise (-inf for fully excluded gaps).
  void StageTierBounds(const TieredGaps::Tier& t, Key lo_bound, Key hi_bound,
                       const BoundCtx& ctx,
                       const std::unordered_set<Key>* excluded, double* soa,
                       double* out, ArgmaxStats* stats) const;

  /// Exact insertion losses of gap \p g's non-excluded endpoints, folded
  /// into *best/*have.
  void EvalTierGap(const TieredGaps::GapRec& g, const TieredGaps::Tier& t,
                   const std::unordered_set<Key>* excluded, Candidate* best,
                   bool* have, ArgmaxStats* stats) const;

  /// Batched per-gap bound scores of one *fully in-range* tier with no
  /// exclusions: a scalar staging pass extracts the gap endpoints into
  /// the SoA slice \p soa, then an auto-vectorizable pure-double kernel
  /// writes max(bound(lo), bound(hi)) per gap into \p out. Counts the
  /// same bound_evals the scalar path would.
  void BatchTierBounds(const TieredGaps::Tier& t, const BoundCtx& ctx,
                       double* soa, double* out, ArgmaxStats* stats) const;

  /// In-range gap count of tier \p t for the tiered scan ([lo_bound,
  /// hi_bound] never clips a gap partially — see FindOptimal).
  static std::int64_t TierInRangeCount(const TieredGaps::Tier& t,
                                       Key lo_bound, Key hi_bound);

  /// Clears \p buf, growing its capacity geometrically (and bumping
  /// scratch_reallocs_) only when \p needed exceeds it.
  template <typename T>
  std::vector<T>& PrepareScratch(std::vector<T>* buf,
                                 std::size_t needed) const;

  std::vector<Key> base_keys_;       // Create-time keys, sorted, static.
  std::vector<Int128> base_prefix_;  // base_prefix_[i] = sum first i shifted.
  std::vector<Key> inserted_;        // Keys committed via InsertKey, sorted.
  FenwickTree<Int128> inserted_slot_sum_;  // Shifted inserted-key sums per
                                           // base slot (see PrefixAt).
  std::vector<Key> removed_;         // Removed base keys, sorted tombstones.
  FenwickTree<Int128> removed_idx_sum_;  // Their shifted sums by base index
                                         // (lazily allocated on first
                                         // base-key removal).
  TieredGaps gaps_;                  // Tiered maximal unoccupied runs
                                     // with per-tier aggregate boxes.
  KeyDomain domain_;
  Key shift_ = 0;                    // base_keys_[0]; sums use k - shift_.
  Key min_key_ = 0;
  Key max_key_ = 0;
  std::int64_t n_ = 0;               // Current key count (base + inserted).
  Int128 sum_k_ = 0;
  Int128 sum_k2_ = 0;
  Int128 sum_kr_ = 0;
  long double base_loss_ = 0;

  // Engine-owned argmax scratch, reused across rounds (see FindOptimal's
  // scratch note). Mutable: FindOptimal is logically const.
  mutable std::vector<GapRange> argmax_ranges_;
  mutable std::vector<double> argmax_bounds_;
  mutable std::vector<double> argmax_suffix_max_;
  mutable std::vector<std::int64_t> argmax_suffix_cnt_;
  mutable std::vector<std::size_t> argmax_order_;
  // Tiered-scan scratch (sized by tier count, ~sqrt(G)).
  mutable std::vector<std::size_t> argmax_tier_list_;
  mutable std::vector<double> argmax_tier_bounds_;
  mutable std::vector<double> argmax_tier_suffix_max_;
  mutable std::vector<std::int64_t> argmax_tier_suffix_cnt_;
  mutable std::vector<std::pair<std::size_t, std::size_t>>
      argmax_chunk_tiers_;
  mutable std::vector<double> argmax_soa_;  // SoA staging of the batched
                                            // per-gap bound kernel.
  mutable std::int64_t scratch_reallocs_ = 0;

  // Removal-candidate SoA: the current keys in sorted ~sqrt(n) blocks
  // with block-local int64 suffix key-sums and tier-relative
  // count_before/sum_after directory scalars (valid under the same
  // magnitude guard as the pruned bound arithmetic). Built lazily by
  // FindOptimalRemoval, then maintained incrementally by
  // InsertKey/RemoveKey in O(sqrt(n)) touched slots per commit; pure
  // insertion attacks never pay for it.
  mutable RemovalSoa rem_soa_;
};

}  // namespace lispoison

#endif  // LISPOISON_ATTACK_LOSS_LANDSCAPE_H_
