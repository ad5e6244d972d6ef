#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>

#include "data/generators.h"
#include "index/rmi.h"

namespace perfbench {
namespace {

using lispoison::Int128;
using U128 = unsigned __int128;

// Exact product of two 128-bit unsigned values as a 256-bit (hi, lo) pair.
struct U256 {
  U128 hi = 0;
  U128 lo = 0;
};

U256 Mul(U128 a, U128 b) {
  const U128 mask = ~std::uint64_t{0};
  const U128 a0 = a & mask, a1 = a >> 64, b0 = b & mask, b1 = b >> 64;
  const U128 p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0, p11 = a1 * b1;
  const U128 mid = (p00 >> 64) + (p01 & mask) + (p10 & mask);
  U256 r;
  r.lo = (mid << 64) | (p00 & mask);
  r.hi = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
  return r;
}

U256 Sub(U256 a, U256 b) {  // Requires a >= b.
  U256 r;
  r.lo = a.lo - b.lo;
  r.hi = a.hi - b.hi - (a.lo < b.lo ? 1 : 0);
  return r;
}

long double ToLd(U256 x) {
  return std::ldexp(static_cast<long double>(x.hi), 128) +
         static_cast<long double>(x.lo);
}

U128 Abs(Int128 v) { return v < 0 ? static_cast<U128>(-v) : static_cast<U128>(v); }

// Sums of shifted key x, x^2 and x * rank (ranks 0..n-1) over n keys.
struct Sums {
  std::int64_t n = 0;
  Int128 x = 0, xx = 0, xy = 0;
};

// MSE = (A B - C^2) / (n^2 B) with A = n Syy - Sy^2, B = n Sxx - Sx^2,
// C = n Sxy - Sx Sy: the numerator is formed exactly in 256 bits, so the
// only roundings are the final conversion and division.
long double MseOf(const Sums& s) {
  if (s.n < 2) return 0;
  const Int128 n = s.n;
  const Int128 sy = n * (n - 1) / 2;
  const Int128 syy = (n - 1) * n * (2 * n - 1) / 6;
  const Int128 a = n * syy - sy * sy;
  const Int128 b = n * s.xx - s.x * s.x;
  const Int128 c = n * s.xy - s.x * sy;
  if (b <= 0) return 0;
  const U256 num = Sub(Mul(static_cast<U128>(a), static_cast<U128>(b)),
                       Mul(Abs(c), Abs(c)));
  const long double nn = static_cast<long double>(s.n);
  return ToLd(num) / (nn * nn * static_cast<long double>(b));
}

Sums SumsOf(const std::vector<Key>& sorted, Key shift) {
  Sums s;
  s.n = static_cast<std::int64_t>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const Int128 x = static_cast<Int128>(sorted[i]) - shift;
    s.x += x;
    s.xx += x * x;
    s.xy += x * static_cast<Int128>(i);
  }
  return s;
}

bool Close(long double got, long double want, long double rel) {
  return std::fabs(got - want) <= rel * std::max<long double>(std::fabs(want), 1e-30L);
}

std::string Num(long double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17Lg", v);
  return buf;
}

// Library losses are long double quotients of exact sums; 1e-9 relative
// leaves room for their rounding and for none of the corruptions.
constexpr long double kLossTol = 1e-9L;
// Two candidates whose exact losses agree this closely are a tie below
// the library's long double resolution, so either choice is correct.
constexpr long double kTieTol = 1e-12L;

std::vector<Key> SortedUnion(const std::vector<Key>& a, std::vector<Key> b) {
  std::sort(b.begin(), b.end());
  std::vector<Key> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

bool AllDistinct(std::vector<Key> v) {
  std::sort(v.begin(), v.end());
  return std::adjacent_find(v.begin(), v.end()) == v.end();
}

bool Stored(const std::vector<Key>& sorted, Key k) {
  return std::binary_search(sorted.begin(), sorted.end(), k);
}

}  // namespace

long double ExactMse(const std::vector<Key>& sorted) {
  if (sorted.empty()) return 0;
  return MseOf(SumsOf(sorted, sorted.front()));
}

Check CheckGreedyInsertion(const std::vector<Key>& keys, std::int64_t p,
                           const lispoison::GreedyPoisonResult& r) {
  const auto& poison = r.poison_keys;
  if (static_cast<std::int64_t>(poison.size()) != p) {
    return Check::Fail("insert.count: " + std::to_string(poison.size()) +
                       " keys, wanted " + std::to_string(p));
  }
  if (!AllDistinct(poison)) return Check::Fail("insert.distinct");
  for (Key k : poison) {
    if (Stored(keys, k)) return Check::Fail("insert.fresh: " + std::to_string(k));
    if (k <= keys.front() || k >= keys.back()) {
      return Check::Fail("insert.range: " + std::to_string(k));
    }
  }
  const long double base = ExactMse(keys);
  if (!Close(r.base_loss, base, kLossTol)) {
    return Check::Fail("insert.base_loss: " + Num(r.base_loss) + " vs " + Num(base));
  }
  const long double poisoned = ExactMse(SortedUnion(keys, poison));
  if (!Close(r.poisoned_loss, poisoned, kLossTol)) {
    return Check::Fail("insert.poisoned_loss: " + Num(r.poisoned_loss) +
                       " vs " + Num(poisoned));
  }

  // Round 1, exhaustively: every first and last free key of every gap
  // strictly between min K and max K, in key order; inserting c with m
  // keys below shifts the m..n-1 ranks up by one.
  const Key shift = keys.front();
  const Sums s = SumsOf(keys, shift);
  Key best_key = 0;
  long double best = -1;
  long double chosen = -1;
  Int128 prefix = 0;
  auto consider = [&](Key c, std::int64_t m) {
    const Int128 cs = static_cast<Int128>(c) - shift;
    Sums t;
    t.n = s.n + 1;
    t.x = s.x + cs;
    t.xx = s.xx + cs * cs;
    t.xy = s.xy + (s.x - prefix) + cs * m;
    const long double loss = MseOf(t);
    if (loss > best) {
      best = loss;
      best_key = c;
    }
    if (c == poison[0]) chosen = loss;
  };
  for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
    prefix += static_cast<Int128>(keys[i]) - shift;
    const std::int64_t m = static_cast<std::int64_t>(i) + 1;
    const Key lo = keys[i] + 1, hi = keys[i + 1] - 1;
    if (lo > hi) continue;
    consider(lo, m);
    if (hi != lo) consider(hi, m);
  }
  if (chosen < 0) {
    return Check::Fail("insert.round1: " + std::to_string(poison[0]) +
                       " is not a gap endpoint");
  }
  if (poison[0] != best_key && !Close(chosen, best, kTieTol)) {
    return Check::Fail("insert.round1: chose " + std::to_string(poison[0]) +
                       " (loss " + Num(chosen) + "), exhaustive scan gives " +
                       std::to_string(best_key) + " (loss " + Num(best) + ")");
  }
  if (!Close(r.loss_trajectory.front(), chosen, kLossTol)) {
    return Check::Fail("insert.round1_loss: " + Num(r.loss_trajectory.front()) +
                       " vs " + Num(chosen));
  }
  return {};
}

Check CheckGreedyDeletion(const std::vector<Key>& keys, std::int64_t d,
                          const lispoison::DeletionAttackResult& r) {
  const auto& removed = r.removed_keys;
  if (static_cast<std::int64_t>(removed.size()) != d) {
    return Check::Fail("delete.count: " + std::to_string(removed.size()) +
                       " keys, wanted " + std::to_string(d));
  }
  if (!AllDistinct(removed)) return Check::Fail("delete.distinct");
  for (Key k : removed) {
    if (!Stored(keys, k)) return Check::Fail("delete.stored: " + std::to_string(k));
  }
  const long double base = ExactMse(keys);
  if (!Close(r.base_loss, base, kLossTol)) {
    return Check::Fail("delete.base_loss: " + Num(r.base_loss) + " vs " + Num(base));
  }
  std::vector<Key> gone = removed;
  std::sort(gone.begin(), gone.end());
  std::vector<Key> kept;
  kept.reserve(keys.size());
  std::set_difference(keys.begin(), keys.end(), gone.begin(), gone.end(),
                      std::back_inserter(kept));
  const long double attacked = ExactMse(kept);
  if (!Close(r.attacked_loss, attacked, kLossTol)) {
    return Check::Fail("delete.attacked_loss: " + Num(r.attacked_loss) +
                       " vs " + Num(attacked));
  }

  // Round 1, exhaustively: removing key j drops the ranks above it by one.
  const Key shift = keys.front();
  const Sums s = SumsOf(keys, shift);
  Key best_key = 0;
  long double best = -1;
  long double chosen = -1;
  Int128 prefix = 0;  // Shifted keys at ranks 0..j.
  for (std::size_t j = 0; j < keys.size(); ++j) {
    const Int128 xj = static_cast<Int128>(keys[j]) - shift;
    prefix += xj;
    Sums t;
    t.n = s.n - 1;
    t.x = s.x - xj;
    t.xx = s.xx - xj * xj;
    t.xy = s.xy - xj * static_cast<Int128>(j) - (s.x - prefix);
    const long double loss = MseOf(t);
    if (loss > best) {
      best = loss;
      best_key = keys[j];
    }
    if (keys[j] == removed[0]) chosen = loss;
  }
  if (removed[0] != best_key && !Close(chosen, best, kTieTol)) {
    return Check::Fail("delete.round1: chose " + std::to_string(removed[0]) +
                       " (loss " + Num(chosen) + "), exhaustive scan gives " +
                       std::to_string(best_key) + " (loss " + Num(best) + ")");
  }
  return {};
}

Check CheckPoisonRmi(const std::vector<Key>& keys,
                     const lispoison::RmiAttackOptions& opts,
                     const lispoison::RmiAttackResult& r) {
  const std::int64_t n = static_cast<std::int64_t>(keys.size());
  const std::int64_t models = static_cast<std::int64_t>(r.per_model_poison.size());
  const std::int64_t want_models = (n + opts.model_size - 1) / opts.model_size;
  if (models != want_models) {
    return Check::Fail("rmi.models: " + std::to_string(models) + ", wanted " +
                       std::to_string(want_models));
  }
  const std::int64_t budget = static_cast<std::int64_t>(
      std::floor(opts.poison_fraction * static_cast<double>(n)));
  const std::int64_t cap = static_cast<std::int64_t>(
      std::ceil(opts.alpha * opts.poison_fraction * static_cast<double>(n) /
                static_cast<double>(models)));
  const std::vector<Key> all = r.AllPoisonKeys();
  if (static_cast<std::int64_t>(all.size()) != budget) {
    return Check::Fail("rmi.count: " + std::to_string(all.size()) +
                       " keys, wanted " + std::to_string(budget));
  }
  if (!AllDistinct(all)) return Check::Fail("rmi.distinct");
  for (std::int64_t i = 0; i < models; ++i) {
    const auto& mine = r.per_model_poison[static_cast<std::size_t>(i)];
    if (static_cast<std::int64_t>(mine.size()) > cap) {
      return Check::Fail("rmi.cap: model " + std::to_string(i) + " holds " +
                         std::to_string(mine.size()) + " > " + std::to_string(cap));
    }
    for (Key k : mine) {
      if (Stored(keys, k)) return Check::Fail("rmi.fresh: " + std::to_string(k));
    }
  }
  auto poisoned = lispoison::KeySet::CreateWithTightDomain(SortedUnion(keys, all));
  if (!poisoned.ok()) return Check::Fail("rmi.retrain: " + poisoned.status().ToString());
  lispoison::RmiOptions ro;
  ro.num_models = models;
  auto rmi = lispoison::Rmi::Train(*poisoned, ro);
  if (!rmi.ok()) return Check::Fail("rmi.retrain: " + rmi.status().ToString());
  const long double want = rmi->RmiLoss();
  if (!Close(r.retrained_rmi_loss, want, kLossTol)) {
    return Check::Fail("rmi.retrained_loss: " + Num(r.retrained_rmi_loss) +
                       " vs " + Num(want));
  }
  return {};
}

Check CheckRmiSpans(const std::vector<Key>& keys,
                    const lispoison::RmiAttackOptions& opts,
                    const lispoison::RmiAttackResult& r, std::int64_t* outside) {
  *outside = 0;
  const std::int64_t n = static_cast<std::int64_t>(keys.size());
  const std::int64_t models = static_cast<std::int64_t>(r.per_model_poison.size());
  if (models == 0) return Check::Fail("rmi.span: no models");
  const std::int64_t budget = static_cast<std::int64_t>(
      std::floor(opts.poison_fraction * static_cast<double>(n)));
  const std::int64_t cap = static_cast<std::int64_t>(
      std::ceil(opts.alpha * opts.poison_fraction * static_cast<double>(n) /
                static_cast<double>(models)));
  std::string first_bad;
  std::int64_t first = 0;  // Rank in K of the model's first legitimate key.
  for (std::int64_t i = 0; i < models; ++i) {
    const auto& mine = r.per_model_poison[static_cast<std::size_t>(i)];
    const std::int64_t share = n / models + (i < n % models ? 1 : 0);
    const std::int64_t start_poison =
        std::min(budget / models + (i < budget % models ? 1 : 0), cap);
    const std::int64_t legit = share + start_poison - static_cast<std::int64_t>(mine.size());
    if (legit < 1 || first + legit > n) {
      return Check::Fail("rmi.span: model " + std::to_string(i) + " would hold " +
                         std::to_string(legit) + " legitimate keys from rank " +
                         std::to_string(first));
    }
    const Key lo = keys[static_cast<std::size_t>(first)];
    const Key hi = keys[static_cast<std::size_t>(first + legit - 1)];
    for (Key k : mine) {
      if (k > lo && k < hi) continue;
      if (*outside == 0) {
        first_bad = "model " + std::to_string(i) + " key " + std::to_string(k) +
                    " outside (" + std::to_string(lo) + ", " + std::to_string(hi) + ")";
      }
      *outside += 1;
    }
    first += legit;
  }
  if (first != n) {
    return Check::Fail("rmi.span: final partitions cover " + std::to_string(first) +
                       " of " + std::to_string(n) + " keys");
  }
  if (*outside > 0) {
    return Check::Fail("rmi.span: " + std::to_string(*outside) + " keys outside their model's span, first " +
                       first_bad);
  }
  return {};
}

Check CheckAgainstOracle(const lispoison::SearchBackend& backend,
                         const std::set<Key>& oracle,
                         const std::vector<Key>& probe,
                         const std::vector<std::pair<Key, Key>>& ranges) {
  for (Key k : probe) {
    const bool want = oracle.count(k) > 0;
    if (backend.Lookup(k).found != want) {
      return Check::Fail("oracle.member: key " + std::to_string(k) +
                         (want ? " missing" : " present"));
    }
  }
  const std::vector<Key> sorted(oracle.begin(), oracle.end());
  for (const auto& [lo, hi] : ranges) {
    const std::int64_t want = std::upper_bound(sorted.begin(), sorted.end(), hi) -
                              std::lower_bound(sorted.begin(), sorted.end(), lo);
    const std::int64_t got = backend.Scan(lo, hi).range_count;
    if (got != want) {
      return Check::Fail("oracle.scan: [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "] " + std::to_string(got) +
                         " vs " + std::to_string(want));
    }
  }
  return {};
}

std::vector<SelfTest> RunSelfTests() {
  std::vector<SelfTest> tests;
  // A corruption is detected when the real output passes, and the
  // corrupted one fails with the tag of the sub-check it targets.
  auto expect = [&](const std::string& name, const Check& real,
                    const Check& corrupted) {
    const std::string tag = name.substr(0, name.find('/'));
    tests.push_back({name, real.ok && !corrupted.ok &&
                               corrupted.what.rfind(tag, 0) == 0});
  };
  lispoison::Rng rng(0x5e1f7e57);
  const std::int64_t n = 3000;
  auto ks = lispoison::GenerateLogNormal(n, lispoison::KeyDomain{0, 100 * n}, &rng);
  if (!ks.ok()) return {{"selftest.keyset", false}};
  const std::vector<Key>& keys = ks->keys();
  auto free_key = [&](Key from, const std::vector<Key>& also = {}) {
    while (Stored(keys, from) ||
           std::find(also.begin(), also.end(), from) != also.end()) {
      ++from;
    }
    return from;
  };

  const std::int64_t p = 8;
  auto ins = lispoison::GreedyPoisonCdf(*ks, p);
  if (!ins.ok()) return {{"selftest.insert", false}};
  const Check ins_ok = CheckGreedyInsertion(keys, p, *ins);
  {
    auto c = *ins;
    c.poison_keys[1] = c.poison_keys[0];
    expect("insert.distinct/duplicate key", ins_ok, CheckGreedyInsertion(keys, p, c));
    c = *ins;
    c.poison_keys[0] = keys[keys.size() / 2];
    expect("insert.fresh/stored key", ins_ok, CheckGreedyInsertion(keys, p, c));
    c = *ins;
    c.poison_keys[0] = free_key(keys.back() + 1);
    expect("insert.range/key above max", ins_ok, CheckGreedyInsertion(keys, p, c));
    c = *ins;
    c.base_loss *= 1.000001L;
    expect("insert.base_loss/scaled", ins_ok, CheckGreedyInsertion(keys, p, c));
    c = *ins;
    c.poisoned_loss *= 1.000001L;
    expect("insert.poisoned_loss/scaled", ins_ok, CheckGreedyInsertion(keys, p, c));
    c = *ins;
    std::swap(c.poison_keys[0], c.poison_keys[1]);
    expect("insert.round1/second choice first", ins_ok, CheckGreedyInsertion(keys, p, c));
  }

  const std::int64_t d = 8;
  auto del = lispoison::GreedyDeleteCdf(*ks, d);
  if (!del.ok()) return {{"selftest.delete", false}};
  const Check del_ok = CheckGreedyDeletion(keys, d, *del);
  {
    auto c = *del;
    c.removed_keys[1] = c.removed_keys[0];
    expect("delete.distinct/duplicate key", del_ok, CheckGreedyDeletion(keys, d, c));
    c = *del;
    c.removed_keys[0] = free_key(keys[1]);
    expect("delete.stored/absent key", del_ok, CheckGreedyDeletion(keys, d, c));
    c = *del;
    c.attacked_loss *= 1.000001L;
    expect("delete.attacked_loss/scaled", del_ok, CheckGreedyDeletion(keys, d, c));
    c = *del;
    std::swap(c.removed_keys[0], c.removed_keys[1]);
    expect("delete.round1/second choice first", del_ok, CheckGreedyDeletion(keys, d, c));
  }

  lispoison::RmiAttackOptions ro;
  ro.poison_fraction = 0.05;
  ro.model_size = 100;
  ro.num_threads = 1;
  auto rmi = lispoison::PoisonRmi(*ks, ro);
  if (!rmi.ok()) return {{"selftest.rmi", false}};
  const Check rmi_ok = CheckPoisonRmi(keys, ro, *rmi);
  {
    auto c = *rmi;
    std::size_t fullest = 0;
    for (std::size_t i = 0; i < c.per_model_poison.size(); ++i) {
      if (c.per_model_poison[i].size() > c.per_model_poison[fullest].size()) fullest = i;
    }
    c.per_model_poison[fullest].pop_back();
    expect("rmi.count/key dropped", rmi_ok, CheckPoisonRmi(keys, ro, c));
    c = *rmi;
    c.per_model_poison[fullest].back() = keys[10];
    expect("rmi.fresh/stored key", rmi_ok, CheckPoisonRmi(keys, ro, c));
    c = *rmi;
    for (std::size_t i = 1; i < c.per_model_poison.size() && c.per_model_poison[0].size() < 64; ++i) {
      auto& from = c.per_model_poison[i];
      c.per_model_poison[0].insert(c.per_model_poison[0].end(), from.begin(), from.end());
      from.clear();
    }
    expect("rmi.cap/keys piled on model 0", rmi_ok, CheckPoisonRmi(keys, ro, c));
    c = *rmi;
    c.retrained_rmi_loss *= 1.001L;
    expect("rmi.retrained_loss/scaled", rmi_ok, CheckPoisonRmi(keys, ro, c));
  }
  // Spans, on uniform keys: there PoisonRmi keeps every key in its span.
  {
    auto uks = lispoison::GenerateUniform(n, lispoison::KeyDomain{0, 100 * n}, &rng);
    if (!uks.ok()) return {{"selftest.uniform_keyset", false}};
    const std::vector<Key>& ukeys = uks->keys();
    auto urmi = lispoison::PoisonRmi(*uks, ro);
    if (!urmi.ok()) return {{"selftest.uniform_rmi", false}};
    std::int64_t outside = 0;
    const Check span_ok = CheckRmiSpans(ukeys, ro, *urmi, &outside);
    auto c = *urmi;
    std::size_t early = 0;  // A model whose span ends well before the last keys.
    while (c.per_model_poison[early].empty()) ++early;
    Key moved = ukeys[ukeys.size() - 10] + 1;
    const std::vector<Key> all = urmi->AllPoisonKeys();
    while (Stored(ukeys, moved) || std::find(all.begin(), all.end(), moved) != all.end()) ++moved;
    c.per_model_poison[early].back() = moved;
    expect("rmi.span/key moved to the last model", span_ok, CheckRmiSpans(ukeys, ro, c, &outside));
  }

  lispoison::BackendOptions bo;
  bo.num_shards = 4;
  bo.compact_threshold = 64;
  auto backend = lispoison::CreateBackend(lispoison::BackendKind::kRmi, *ks, bo);
  if (!backend.ok()) return {{"selftest.backend", false}};
  lispoison::SearchBackend& be = **backend;
  std::set<Key> oracle(keys.begin(), keys.end());
  std::vector<Key> absent;
  for (std::size_t i = 0; absent.size() < 200 && i < keys.size(); i += 7) {
    const Key k = free_key(keys[i] + 1);
    if (oracle.count(k) == 0 && std::find(absent.begin(), absent.end(), k) == absent.end()) {
      absent.push_back(k);
    }
  }
  if (absent.size() < 150) return {{"selftest.absent_keys", false}};
  for (std::size_t i = 0; i < 100; ++i) {
    if (be.Insert(absent[i]).ok()) oracle.insert(absent[i]);
    if (be.Remove(keys[i * 11]).ok()) oracle.erase(keys[i * 11]);
  }
  be.WaitForMaintenance();
  std::vector<Key> probe(oracle.begin(), oracle.end());
  probe.insert(probe.end(), absent.begin(), absent.end());
  std::vector<std::pair<Key, Key>> ranges;
  for (std::size_t i = 0; i + 500 < keys.size(); i += 97) ranges.push_back({keys[i], keys[i + 500] + 3});
  const Check oracle_ok = CheckAgainstOracle(be, oracle, probe, ranges);
  {
    std::set<Key> bad = oracle;
    bad.erase(std::next(bad.begin(), static_cast<long>(bad.size() / 2)));
    expect("oracle.member/key missing from oracle", oracle_ok, CheckAgainstOracle(be, bad, probe, ranges));
    bad = oracle;
    bad.insert(absent.back());
    expect("oracle.member/extra key in oracle", oracle_ok, CheckAgainstOracle(be, bad, probe, ranges));
    bad = oracle;
    bad.insert(absent.back());
    expect("oracle.scan/extra key, not probed", oracle_ok, CheckAgainstOracle(be, bad, {}, ranges));
  }
  return tests;
}

}  // namespace perfbench
