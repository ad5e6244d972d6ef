// Independent output checks for the benchmark program.
//
// Every check recomputes what it verifies from the inputs alone: the
// least-squares losses come from exact integer sums (128-bit sums, 256-bit
// products), the round-1 argmaxes from an exhaustive scan, and the serving
// checks from sorted-vector and std::set oracles. None of them calls the
// attack engine (src/attack) whose output it judges.
#ifndef LISPOISON_PERFBENCH_CHECKS_H_
#define LISPOISON_PERFBENCH_CHECKS_H_

#include <set>
#include <string>
#include <vector>

#include "attack/deletion_attack.h"
#include "attack/greedy_poisoner.h"
#include "attack/rmi_poisoner.h"
#include "common/types.h"
#include "workload/search_backend.h"

namespace perfbench {

using lispoison::Key;

/// Outcome of one check: ok, or the first discrepancy found.
struct Check {
  bool ok = true;
  std::string what;
  static Check Fail(std::string why) { return Check{false, std::move(why)}; }
};

/// Minimized least-squares MSE of rank on key over \p sorted (distinct,
/// ascending), from exact integer sums.
long double ExactMse(const std::vector<Key>& sorted);

/// Algorithm 1 (insertion) against keyset \p keys (sorted): p distinct
/// fresh keys strictly inside (min K, max K); base and poisoned losses
/// equal ExactMse of K and K ∪ P; the round-1 key equals the exhaustive
/// argmax over every interior gap endpoint (ties toward the smaller key).
Check CheckGreedyInsertion(const std::vector<Key>& keys, std::int64_t p,
                           const lispoison::GreedyPoisonResult& r);

/// Greedy deletion against \p keys: d distinct stored keys; base and
/// attacked losses equal ExactMse of K and K ∖ D; the round-1 removal
/// equals the exhaustive argmax over every stored key.
Check CheckGreedyDeletion(const std::vector<Key>& keys, std::int64_t d,
                          const lispoison::DeletionAttackResult& r);

/// Algorithm 2: floor(phi n) distinct fresh keys, at most
/// ceil(alpha phi n / N) per model, and retrained_rmi_loss equal to the
/// RMI loss of an Rmi trained on K ∪ P through src/index.
Check CheckPoisonRmi(const std::vector<Key>& keys,
                     const lispoison::RmiAttackOptions& opts,
                     const lispoison::RmiAttackResult& r);

/// Algorithm 2: every poison key lies strictly inside its model's span,
/// the smallest and largest of the model's final legitimate keys. The
/// final partition is rebuilt from the per-model poison counts: a model
/// starts with its equal share of K and floor(phi n) / N poisons
/// (remainder to the first models, capped at the per-model limit), and a
/// boundary exchange trades one poison for one legitimate key, so
/// legitimate + poison keys stay constant per model and the legitimate
/// keys stay contiguous runs of K. Sets \p outside to the number of poison
/// keys outside their model's span.
Check CheckRmiSpans(const std::vector<Key>& keys,
                    const lispoison::RmiAttackOptions& opts,
                    const lispoison::RmiAttackResult& r, std::int64_t* outside);

/// The backend's membership of every key in \p probe and its Scan count
/// over each [lo, hi] of \p ranges equal those of the \p oracle set.
Check CheckAgainstOracle(const lispoison::SearchBackend& backend,
                         const std::set<Key>& oracle,
                         const std::vector<Key>& probe,
                         const std::vector<std::pair<Key, Key>>& ranges);

/// One named self-test: a check fed a deliberately corrupted output.
struct SelfTest {
  std::string name;
  bool detected = false;  ///< The check rejected the corrupted output.
};

/// Runs every check on small inputs twice: once on the real output (must
/// pass) and once per corruption (must fail). Returns one entry per
/// corruption; a real output that fails is reported as undetected too,
/// since then the check cannot tell good from bad.
std::vector<SelfTest> RunSelfTests();

}  // namespace perfbench

#endif  // LISPOISON_PERFBENCH_CHECKS_H_
