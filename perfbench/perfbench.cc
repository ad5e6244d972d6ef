// One run of the lispoison benchmark: set-up, then three phases in one
// process — the offline attacks (attack), lock-free reads of a poisoned
// sharded RMI (serve_read), and write churn through async compaction
// beside reads (serve_churn) — with every output checked by checks.cc.
// The last line of standard output is the run's JSON result. See
// README.md for the workloads, sizes and metrics.
//
//   perfbench --workload lognormal|normal --seed N --seconds S --trace 0|1
//             [--spans-out FILE] [--attack-threads N]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "attack/deletion_attack.h"
#include "attack/greedy_poisoner.h"
#include "attack/loss_landscape.h"
#include "attack/rmi_poisoner.h"
#include "checks.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "index/learned_index.h"
#include "trace.h"
#include "workload/search_backend.h"

namespace perfbench {
namespace {

using namespace lispoison;

// ---- Sizes (README.md, "Phases, inputs and threads", gives the reasons). ----
// Turns per round, each one call of each attack. One call's time varies
// by up to 1.6x with identical work on the shared box, so every attack
// figure is the median over many calls of a fraction of a second each.
constexpr int kAttackCalls = 4;
constexpr std::int64_t kCdfKeys = 1000000;   // Algorithm 1 / deletion keyset.
constexpr std::int64_t kInsertBudget = 50;   // p of GreedyPoisonCdf.
constexpr std::int64_t kDeleteBudget = 25;   // d of GreedyDeleteCdf.
constexpr std::int64_t kRmiKeys = 100000;    // Algorithm 2 keyset.
constexpr double kRmiFraction = 0.005;       // phi of PoisonRmi.
constexpr std::int64_t kServeKeys = 500000;  // serve_read keyset (and its poison P).
constexpr std::int64_t kModelSize = 1000;
constexpr std::int64_t kChurnKeys = 100000;  // serve_churn keyset (fits L2).
constexpr int kShards = 4;
constexpr std::int64_t kCompactThreshold = 1024;  // Per shard.
constexpr std::int64_t kWriterWindow = 8192;      // Live writer-owned keys.
constexpr int kBatch = 16;                        // Keys per LookupBatch.
constexpr std::size_t kStreamLen = 1 << 20;       // Keys per client stream.
constexpr int kSetupReps = 5;
constexpr int kChurnReaders = 2;
// Length of one serving segment; one read and one churn segment follow
// every turn of the three attack calls. Each serving figure is the median over segments of
// that segment's figure, so a burst of interference from outside the
// process moves a few segments, not the run.
constexpr std::int64_t kSegmentNs = 500000000;
// The span probe: PoisonRmi on a fixed log-normal keyset, the same for
// every seed and workload, whose output is checked for keys outside their
// model's span. rmi_poisoner.cc leaves kProbeOutOfSpan of its keys outside
// (see CHANGES.md); the probe counts as a failed operation of a known
// fault while no more than that many are, and as a plain failure beyond.
constexpr std::int64_t kProbeKeys = 200000;
constexpr std::uint64_t kProbeSeed = 0x5a4e;
constexpr std::int64_t kProbeOutOfSpan = 5;
// Traced runs record one serving span per this many operations.
constexpr std::int64_t kSpanSample = 64;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
  // Pool size of the CDF attacks (a fixed size from 2 up to nproc), and
  // of the traced run's pooled PoisonRmi calls.
  int attack_threads = 2;
};

// Operations attempted and failed. A run is whole rounds of the same
// operations (the round loop of Main), so a fault that fails the same operation
// every round fails the same share of operations in every run.
struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t known = 0;  // Failures of the span probe's known fault.
  void Op(bool ok, const std::string& what) {
    attempted += 1;
    if (!ok) {
      failed += 1;
      std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
  }
  void KnownFault(const std::string& what) {
    attempted += 1;
    failed += 1;
    known += 1;
    std::fprintf(stderr, "KNOWN FAULT: %s\n", what.c_str());
  }
  // No failure but those of the known fault.
  bool correct() const { return failed == known; }
};

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// q-quantile of nanosecond samples, in microseconds.
double QuantileUs(std::vector<std::uint32_t>* v, double q) {
  if (v->empty()) return 0;
  const std::size_t k = std::min(v->size() - 1, static_cast<std::size_t>(q * static_cast<double>(v->size())));
  std::nth_element(v->begin(), v->begin() + static_cast<long>(k), v->end());
  return static_cast<double>((*v)[k]) * 1e-3;
}

int Cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(*r);
}

// n distinct keys over [0, 100 n] drawn from `shape`.
KeySet Generate(const std::string& shape, std::int64_t n, Rng* rng) {
  Span span("data.generate");
  const KeyDomain domain{0, 100 * n};
  Result<KeySet> keys = shape == "uniform"  ? GenerateUniform(n, domain, rng)
                        : shape == "normal" ? GenerateNormal(n, domain, rng)
                                            : GenerateLogNormal(n, domain, rng);
  return Must(std::move(keys), "generate keys");
}

// PoisonRmi runs on one worker wherever it is timed or checked: on a pool
// it is no faster, and it wakes the pool for three small simulations per
// exchange, so its wall time follows how soon the hypervisor runs an idle
// vCPU again (README.md, "Why PoisonRmi is timed on one worker"). The
// traced run times it on the pool as well (rmi_attack.pooled_s).
RmiAttackOptions RmiOptionsUsed(int threads = 1) {
  RmiAttackOptions ro;
  ro.poison_fraction = kRmiFraction;
  ro.model_size = kModelSize;
  ro.num_threads = threads;
  return ro;
}

std::vector<Key> Stream(const std::vector<Key>& from, Rng* rng) {
  std::vector<Key> s(kStreamLen);
  const std::int64_t hi = static_cast<std::int64_t>(from.size()) - 1;
  for (Key& k : s) k = from[static_cast<std::size_t>(rng->UniformInt(0, hi))];
  return s;
}

// Everything the phases read, made from the seed alone.
struct State {
  KeySet srv;                  // Clean keys K of serve_read.
  RmiAttackResult srv_attack;  // PoisonRmi(K): the served poison P.
  std::vector<Key> served;     // K ∪ P, sorted.
  std::unique_ptr<SearchBackend> read_backend;
  std::vector<std::vector<Key>> read_streams;  // One per read client.

  // serve_churn: base keys are even; fresh key j is 2 * base[perm[j % n]]
  // + 1, so no fresh key is ever a base key and key j recurs only after
  // n inserts, long after the writer removed it again.
  std::vector<Key> churn_base;
  std::vector<Key> writer_base;  // Base keys the writer removes, in order.
  std::vector<Key> reader_keys;  // Base keys the writer never touches.
  std::vector<std::int32_t> fresh_perm;
  std::unique_ptr<SearchBackend> churn_backend;
  std::vector<std::vector<Key>> churn_streams;  // One per churn reader.

  Key Fresh(std::int64_t j) const {
    const std::size_t i = static_cast<std::size_t>(j % static_cast<std::int64_t>(fresh_perm.size()));
    return churn_base[static_cast<std::size_t>(fresh_perm[i])] + 1;
  }
  // The key the writer removes in its j-th pair: the base keys first, then
  // its own inserts, oldest first, so it keeps kWriterWindow keys live.
  Key Owned(std::int64_t j) const {
    return j < kWriterWindow ? writer_base[static_cast<std::size_t>(j)] : Fresh(j - kWriterWindow);
  }
};

KeySet ServeKeys(const Options& opt) {
  Rng rng = Rng(opt.seed).Fork(2);
  return Generate(opt.workload, kServeKeys, &rng);
}

// The keys of one attack call, drawn from (seed, stream, round, turn):
// every call attacks fresh keys, so that an attack figure, the median over
// calls, is taken over many keysets of the seed and not over one.
KeySet RoundKeys(const Options& opt, std::uint64_t stream, int round, std::int64_t n, int turn) {
  Rng rng = Rng(opt.seed).Fork(stream).Fork(static_cast<std::uint64_t>(round)).Fork(static_cast<std::uint64_t>(turn));
  return Generate(opt.workload, n, &rng);
}

// Generates every input and builds both backends; the served poison P
// (PoisonRmi on the serving keys, made once, outside the timed set-up)
// is given.
std::unique_ptr<State> Setup(const Options& opt, int read_clients, const RmiAttackResult& served_poison) {
  Span span("setup");
  auto st = std::make_unique<State>();
  Rng root(opt.seed);
  Rng churn_rng = root.Fork(3);
  st->srv = ServeKeys(opt);
  st->srv_attack = served_poison;
  std::vector<Key> poison = st->srv_attack.AllPoisonKeys();
  std::sort(poison.begin(), poison.end());
  st->served.reserve(st->srv.keys().size() + poison.size());
  std::merge(st->srv.keys().begin(), st->srv.keys().end(), poison.begin(), poison.end(),
             std::back_inserter(st->served));
  BackendOptions bo;
  bo.num_shards = kShards;
  {
    Span build("backend.build");
    st->read_backend = Must(
        CreateBackend(BackendKind::kRmi, Must(KeySet::Create(st->served, st->srv.domain()), "served keys"), bo),
        "read backend");
  }
  Rng stream_rng = root.Fork(4);
  for (int t = 0; t < read_clients; ++t) st->read_streams.push_back(Stream(st->served, &stream_rng));

  // The churn keyset is uniform in every workload: a clean index whose
  // cost is the write path, not the shape of its CDF.
  const KeySet churn = Generate("uniform", kChurnKeys, &churn_rng);
  for (Key k : churn.keys()) st->churn_base.push_back(2 * k);
  std::vector<std::int32_t> order(st->churn_base.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::int32_t>(i);
  st->fresh_perm = order;
  churn_rng.Shuffle(&order);
  churn_rng.Shuffle(&st->fresh_perm);
  for (std::size_t i = 0; i < order.size(); ++i) {
    (i < kWriterWindow ? st->writer_base : st->reader_keys).push_back(st->churn_base[static_cast<std::size_t>(order[i])]);
  }
  BackendOptions co;
  co.num_shards = kShards;
  co.compact_threshold = kCompactThreshold;
  {
    Span build("backend.build");
    st->churn_backend = Must(
        CreateBackend(BackendKind::kRmi,
                      Must(KeySet::Create(st->churn_base, KeyDomain{0, 2 * churn.domain().hi + 1}), "churn keys"),
                      co),
        "churn backend");
  }
  Rng churn_stream_rng = root.Fork(5);
  for (int t = 0; t < kChurnReaders; ++t) st->churn_streams.push_back(Stream(st->reader_keys, &churn_stream_rng));
  return st;
}

// ---- attack ----

// The traced run's own landscape loops: Create, then FindOptimal +
// InsertKey (or FindOptimalRemoval + RemoveKey) per round on a pool of
// the workload's size, exactly as the greedy attacks drive the engine.
// Fails when a loop selects other keys than the attack returned.
Check TraceLandscape(const KeySet& cdf, const Options& opt, const GreedyPoisonResult& ins,
                     const DeletionAttackResult& del, Metrics* layer) {
  ThreadPool pool(opt.attack_threads);
  const LossLandscape::ArgmaxOptions knobs = AttackOptions{}.ArgmaxKnobs();
  LossLandscape::ArgmaxStats stats, rstats;
  std::vector<Key> inserted, removed;
  std::int64_t splices = 0, touched = 0;
  {
    LossLandscape land = [&] {
      Span s("landscape.create");
      return Must(LossLandscape::Create(cdf, &pool), "landscape");
    }();
    for (std::int64_t i = 0; i < kInsertBudget; ++i) {
      Result<LossLandscape::Candidate> best = [&] {
        Span s("landscape.find_optimal");
        return land.FindOptimal(true, nullptr, &pool, knobs, &stats);
      }();
      if (!best.ok()) break;
      Span s("landscape.insert_key");
      if (!land.InsertKey(best->key).ok()) break;
      inserted.push_back(best->key);
    }
    splices = land.splice_moves();
  }
  {
    LossLandscape land = [&] {
      Span s("landscape.create");
      return Must(LossLandscape::Create(cdf, &pool), "landscape");
    }();
    for (std::int64_t i = 0; i < kDeleteBudget; ++i) {
      Result<LossLandscape::Candidate> best = [&] {
        Span s("landscape.find_optimal_removal");
        return land.FindOptimalRemoval(nullptr, &pool, knobs, &rstats);
      }();
      if (!best.ok()) break;
      Span s("landscape.remove_key");
      if (!land.RemoveKey(best->key).ok()) break;
      removed.push_back(best->key);
    }
    touched = land.removal_commit_touched_slots();
  }
  (*layer)["landscape.create_s"] = {Totals("landscape.create").wall_s, "s"};
  (*layer)["landscape.argmax_s"] = {Totals("landscape.find_optimal").wall_s, "s"};
  (*layer)["landscape.insert_s"] = {Totals("landscape.insert_key").wall_s, "s"};
  (*layer)["landscape.bound_evals"] = {static_cast<double>(stats.bound_evals), "count"};
  (*layer)["landscape.exact_evals"] = {static_cast<double>(stats.exact_evals), "count"};
  (*layer)["landscape.pruned_gaps"] = {static_cast<double>(stats.pruned_gaps), "count"};
  (*layer)["landscape.splice_moves"] = {static_cast<double>(splices), "count"};
  (*layer)["landscape.removal_argmax_s"] = {Totals("landscape.find_optimal_removal").wall_s, "s"};
  (*layer)["landscape.remove_s"] = {Totals("landscape.remove_key").wall_s, "s"};
  (*layer)["landscape.removal_bound_evals"] = {static_cast<double>(rstats.bound_evals), "count"};
  (*layer)["landscape.removal_exact_evals"] = {static_cast<double>(rstats.exact_evals), "count"};
  (*layer)["landscape.removal_touched_slots"] = {static_cast<double>(touched), "count"};
  if (inserted != ins.poison_keys) return Check::Fail("traced insertion loop diverged from GreedyPoisonCdf");
  if (removed != del.removed_keys) return Check::Fail("traced removal loop diverged from GreedyDeleteCdf");
  return {};
}

// The attack phase: each round runs kAttackCalls turns of the three
// attacks, each call on fresh keys (the CDF attacks on a pool of
// opt.attack_threads workers), times each call, and checks its output.
struct Attack {
  std::vector<double> insert_s, delete_s, rmi_s;
  std::vector<double> rmi_pooled_s;  // Traced runs only.
  // Work of the timed PoisonRmi calls, summed over calls.
  std::int64_t rmi_exchanges = 0, rmi_bound_evals = 0, rmi_exact_evals = 0;

  // Runs the calls, the three attacks in turn, with `between` after each
  // turn, and records one operation per call in the ledger. Every
  // PoisonRmi operation also carries the check of the served poison, made
  // once before set-up.
  template <typename F>
  void Calls(const Options& opt, int round, const Check& served_check, Ledger* ledger, Metrics* layer,
             F&& between) {
    Span span("attack.round");
    AttackOptions ao;
    ao.num_threads = opt.attack_threads;
    const RmiAttackOptions ro = RmiOptionsUsed();
    for (int turn = 0; turn < kAttackCalls; ++turn) {
      const KeySet cdf = RoundKeys(opt, 1, round, kCdfKeys, turn);
      const KeySet rmi_keys = RoundKeys(opt, 9, round, kRmiKeys, turn);
      const std::int64_t t0 = WallNs();
      Result<GreedyPoisonResult> ins = [&] {
        Span s("attack.greedy_poison_cdf", true);
        return GreedyPoisonCdf(cdf, kInsertBudget, ao);
      }();
      const std::int64_t t1 = WallNs();
      Result<DeletionAttackResult> del = [&] {
        Span s("attack.greedy_delete_cdf", true);
        return GreedyDeleteCdf(cdf, kDeleteBudget, {}, ao);
      }();
      const std::int64_t t2 = WallNs();
      Result<RmiAttackResult> rmi = [&] {
        Span s("attack.poison_rmi", true);
        return PoisonRmi(rmi_keys, ro);
      }();
      const std::int64_t t3 = WallNs();
      insert_s.push_back(Seconds(t1 - t0));
      delete_s.push_back(Seconds(t2 - t1));
      rmi_s.push_back(Seconds(t3 - t2));
      between();
      Check traced;
      if (round == 0 && turn == 0 && TracingOn() && ins.ok() && del.ok()) {
        traced = TraceLandscape(cdf, opt, *ins, *del, layer);
      }
      Check c = ins.ok() ? CheckGreedyInsertion(cdf.keys(), kInsertBudget, *ins)
                         : Check::Fail("GreedyPoisonCdf: " + ins.status().ToString());
      ledger->Op(c.ok && traced.ok, c.ok ? traced.what : c.what);
      c = del.ok() ? CheckGreedyDeletion(cdf.keys(), kDeleteBudget, *del)
                   : Check::Fail("GreedyDeleteCdf: " + del.status().ToString());
      ledger->Op(c.ok && traced.ok, c.ok ? traced.what : c.what);
      if (rmi.ok()) {
        rmi_exchanges += rmi->exchanges_applied;
        rmi_bound_evals += rmi->argmax_stats.bound_evals;
        rmi_exact_evals += rmi->argmax_stats.exact_evals;
      }
      c = rmi.ok() ? CheckPoisonRmi(rmi_keys.keys(), ro, *rmi) : Check::Fail("PoisonRmi: " + rmi.status().ToString());
      if (c.ok) c = served_check.ok ? Check{} : Check::Fail("served poison: " + served_check.what);
      if (c.ok && turn == 0 && TracingOn()) c = TracePooledRmi(rmi_keys, opt, *rmi);
      ledger->Op(c.ok, c.what);
    }
  }

  // The traced run's pooled PoisonRmi: the same call on a pool of
  // opt.attack_threads workers, timed, which must return exactly what the
  // call on one worker returned.
  Check TracePooledRmi(const KeySet& keys, const Options& opt, const RmiAttackResult& serial) {
    const std::int64_t t0 = WallNs();
    const Result<RmiAttackResult> pooled = [&] {
      Span s("attack.poison_rmi_pooled", true);
      return PoisonRmi(keys, RmiOptionsUsed(opt.attack_threads));
    }();
    rmi_pooled_s.push_back(Seconds(WallNs() - t0));
    if (!pooled.ok()) return Check::Fail("pooled PoisonRmi: " + pooled.status().ToString());
    if (pooled->per_model_poison != serial.per_model_poison) {
      return Check::Fail("pooled PoisonRmi placed other keys than on one worker");
    }
    return {};
  }

  // The span probe: one operation, a known fault while PoisonRmi leaves
  // no more than kProbeOutOfSpan keys of the fixed keyset outside their
  // model's span.
  static void Probe(const KeySet& probe_keys, Ledger* ledger) {
    const RmiAttackOptions ro = RmiOptionsUsed();
    const Result<RmiAttackResult> r = PoisonRmi(probe_keys, ro);
    if (!r.ok()) {
      ledger->Op(false, "PoisonRmi (span probe): " + r.status().ToString());
      return;
    }
    const Check c = CheckPoisonRmi(probe_keys.keys(), ro, *r);
    if (!c.ok) {
      ledger->Op(false, "span probe: " + c.what);
      return;
    }
    std::int64_t outside = 0;
    const Check spans = CheckRmiSpans(probe_keys.keys(), ro, *r, &outside);
    if (spans.ok || outside > kProbeOutOfSpan) {
      ledger->Op(spans.ok, "span probe: " + spans.what);
    } else {
      ledger->KnownFault("span probe: " + spans.what);
    }
  }

  void Report(Metrics* e2e, Metrics* layer) const {
    (*e2e)["cdf_insert_s"] = {Median(insert_s), "s"};
    (*e2e)["cdf_delete_s"] = {Median(delete_s), "s"};
    (*e2e)["rmi_attack_s"] = {Median(rmi_s), "s"};
    const double calls = static_cast<double>(insert_s.size());  // Of each attack.
    (*layer)["cdf_insert.cpu_s"] = {Totals("attack.greedy_poison_cdf").cpu_s / calls, "s"};
    (*layer)["cdf_delete.cpu_s"] = {Totals("attack.greedy_delete_cdf").cpu_s / calls, "s"};
    if (!rmi_pooled_s.empty()) {
      // The pool's figures: wall and process CPU time of the pooled call.
      (*layer)["rmi_attack.pooled_s"] = {Median(rmi_pooled_s), "s"};
      (*layer)["rmi_attack.cpu_s"] = {
          Totals("attack.poison_rmi_pooled").cpu_s / static_cast<double>(rmi_pooled_s.size()), "s"};
    }
    // Mean work of one timed PoisonRmi call.
    (*layer)["rmi.exchanges"] = {static_cast<double>(rmi_exchanges) / calls, "count"};
    (*layer)["rmi.bound_evals"] = {static_cast<double>(rmi_bound_evals) / calls, "count"};
    (*layer)["rmi.exact_evals"] = {static_cast<double>(rmi_exact_evals) / calls, "count"};
  }
};

// ---- serving ----

// One serving segment of kSegmentNs between go and stop. Threads read
// end_ns only after seeing go.
struct Segment {
  std::int64_t end_ns = 0;
  std::atomic<bool> go{false}, stop{false};

  void Await() const {
    while (!go.load(std::memory_order_acquire)) {
    }
  }
  // Starts the threads, lets them run the segment, stops them and joins.
  void Run(std::vector<std::thread>* threads) {
    end_ns = WallNs() + kSegmentNs;
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::nanoseconds(end_ns - WallNs()));
    stop.store(true);
    for (std::thread& th : *threads) th.join();
  }
};

// Latencies (ns) of one thread's operations that ended inside the
// segment; operations that end after it still count but are not timed.
struct Latencies {
  std::vector<std::uint32_t> ns;
  void Add(const Segment& seg, std::int64_t t0, std::int64_t t1) {
    if (t1 <= seg.end_ns) ns.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(t1 - t0, UINT32_MAX)));
  }
};

// Per-segment rate (operations times `per_op` items, per second), p50 and
// p99 latency (us); a figure of the run is the median over its segments.
struct Series {
  std::vector<double> rate, p50_us, p99_us;

  void Append(const std::vector<const Latencies*>& parts, double per_op) {
    std::vector<std::uint32_t> ns;
    for (const Latencies* p : parts) ns.insert(ns.end(), p->ns.begin(), p->ns.end());
    rate.push_back(static_cast<double>(ns.size()) * per_op / Seconds(kSegmentNs));
    p50_us.push_back(QuantileUs(&ns, 0.50));
    p99_us.push_back(QuantileUs(&ns, 0.99));
  }
};

// One LookupBatch client: cycles its stream until the segment stops,
// timing each call.
struct Client {
  Latencies batches;
  std::int64_t keys = 0, missing = 0, work = 0;

  void Run(const SearchBackend& backend, const std::vector<Key>& stream, std::size_t* pos, const Segment& seg,
           std::int64_t span_parent) {
    BackendOpResult out[kBatch];
    seg.Await();
    for (std::int64_t i = 0; !seg.stop.load(std::memory_order_relaxed); ++i) {
      const std::int64_t t0 = WallNs();
      backend.LookupBatch(stream.data() + *pos, kBatch, out);
      const std::int64_t t1 = WallNs();
      batches.Add(seg, t0, t1);
      for (const BackendOpResult& r : out) {
        missing += r.found ? 0 : 1;
        work += r.work;
      }
      if (TracingOn() && i % kSpanSample == 0) RecordSpan("backend.lookup_batch", t0, t1, span_parent);
      keys += kBatch;
      *pos += kBatch;
      if (*pos + kBatch > stream.size()) *pos = 0;
    }
  }
};

// Runs one client per stream (continuing at `pos`) beside `also` for one
// segment, and appends their latencies to `series`. Returns the number of
// keys looked up and not found.
std::int64_t RunClients(const SearchBackend& backend, const std::vector<std::vector<Key>>& streams,
                        std::vector<std::size_t>* pos, Segment* seg, std::int64_t span_parent,
                        std::vector<std::thread> also, Series* series, std::int64_t* keys, std::int64_t* work) {
  std::vector<Client> clients(streams.size());
  std::vector<std::thread> threads = std::move(also);
  for (std::size_t t = 0; t < clients.size(); ++t) {
    threads.emplace_back([&, t] { clients[t].Run(backend, streams[t], &(*pos)[t], *seg, span_parent); });
  }
  seg->Run(&threads);
  std::vector<const Latencies*> parts;
  std::int64_t missing = 0;
  for (const Client& c : clients) {
    *keys += c.keys;
    missing += c.missing;
    *work += c.work;
    parts.push_back(&c.batches);
  }
  series->Append(parts, kBatch);
  return missing;
}

// The two serving phases, run as segments interleaved with the attack
// calls; each segment is one operation: all its reads found (and, in
// churn, all its writes OK). Their figures are medians over segments.
struct Serving {
  Series read, churn_read, writes, inserts, removes;
  std::vector<std::size_t> read_pos, churn_pos;  // Where each client's stream resumes.
  std::int64_t read_keys = 0, read_work = 0, churn_keys = 0, churn_work = 0;
  std::int64_t pairs = 0;  // Writer pairs so far: the next pair's index.

  void ReadSegment(const State& st, Ledger* ledger) {
    Span span("phase.serve_read");
    Segment seg;
    read_pos.resize(st.read_streams.size());
    const std::int64_t missing =
        RunClients(*st.read_backend, st.read_streams, &read_pos, &seg, span.id(), {}, &read, &read_keys, &read_work);
    ledger->Op(missing == 0, "serve_read: " + std::to_string(missing) + " stored keys not found");
  }

  void ChurnSegment(const State& st, Ledger* ledger) {
    Span span("phase.serve_churn");
    const std::int64_t parent = span.id();
    SearchBackend& backend = *st.churn_backend;
    Segment seg;
    Latencies ins, rem;
    std::int64_t failures = 0, j = pairs;
    std::vector<std::thread> writer;
    writer.emplace_back([&] {
      seg.Await();
      for (; !seg.stop.load(std::memory_order_relaxed); ++j) {
        const std::int64_t t0 = WallNs();
        const bool inserted = backend.Insert(st.Fresh(j)).ok();
        const std::int64_t t1 = WallNs();
        const bool removed = backend.Remove(st.Owned(j)).ok();
        const std::int64_t t2 = WallNs();
        ins.Add(seg, t0, t1);
        rem.Add(seg, t1, t2);
        failures += (inserted ? 0 : 1) + (removed ? 0 : 1);
        if (TracingOn() && j % kSpanSample == 0) {
          RecordSpan("backend.insert", t0, t1, parent);
          RecordSpan("backend.remove", t1, t2, parent);
        }
      }
      // Time for maintenance to publish what the last writes queued.
      Span s("backend.wait_for_maintenance", false, parent);
      backend.WaitForMaintenance();
    });
    churn_pos.resize(st.churn_streams.size());
    const std::int64_t missing = RunClients(backend, st.churn_streams, &churn_pos, &seg, parent, std::move(writer),
                                            &churn_read, &churn_keys, &churn_work);
    ledger->Op(failures == 0 && missing == 0, "serve_churn: " + std::to_string(failures) + " writes failed, " +
                                                  std::to_string(missing) + " reader keys not found");
    pairs = j;
    writes.Append({&ins, &rem}, 1);
    inserts.Append({&ins}, 1);
    removes.Append({&rem}, 1);
  }

  void Report(Metrics* e2e, Metrics* layer) const {
    (*e2e)["read_keys_per_s"] = {Median(read.rate), "1/s"};
    (*e2e)["read_batch_p50_us"] = {Median(read.p50_us), "us"};
    (*e2e)["read_batch_p99_us"] = {Median(read.p99_us), "us"};
    (*e2e)["churn_read_keys_per_s"] = {Median(churn_read.rate), "1/s"};
    (*e2e)["churn_read_batch_p50_us"] = {Median(churn_read.p50_us), "us"};
    (*e2e)["churn_read_batch_p99_us"] = {Median(churn_read.p99_us), "us"};
    (*e2e)["write_ops_per_s"] = {Median(writes.rate), "1/s"};
    (*e2e)["write_p50_us"] = {Median(writes.p50_us), "us"};
    // The writes' p99 is no end-to-end figure: between runs of the same
    // code it spread 27-53% while other guests loaded the host (README.md,
    // "Steadiness"). Its parts stay per-layer figures.
    (*layer)["backend.read_work_per_key"] = {static_cast<double>(read_work) / static_cast<double>(read_keys), "count"};
    (*layer)["backend.insert_p50_us"] = {Median(inserts.p50_us), "us"};
    (*layer)["backend.insert_p99_us"] = {Median(inserts.p99_us), "us"};
    (*layer)["backend.remove_p50_us"] = {Median(removes.p50_us), "us"};
    (*layer)["backend.remove_p99_us"] = {Median(removes.p99_us), "us"};
    (*layer)["backend.drain_s"] = {Totals("backend.wait_for_maintenance").wall_s, "s"};
  }
};

// Single-threaded per-key cost of one stored-key stream through a clean
// index, a poisoned index, and the serving backend. Returns the number of
// stored keys not found.
std::int64_t TraceReadLayers(const State& st, const Options& opt, Metrics* layer) {
  Rng rng = Rng(opt.seed).Fork(8);
  const std::vector<Key> stream = Stream(st.srv.keys(), &rng);
  const double n = static_cast<double>(stream.size());
  const LearnedIndex clean = Must(LearnedIndex::Build(st.srv, RmiOptions{}), "clean index");
  const KeySet served = Must(KeySet::Create(st.served, st.srv.domain()), "served keys");
  const LearnedIndex poisoned = [&] {
    Span s("index.build");
    return Must(LearnedIndex::Build(served, RmiOptions{}), "poisoned index");
  }();
  std::int64_t missing = 0;
  for (int which = 0; which < 2; ++which) {
    const LearnedIndex& index = which == 0 ? clean : poisoned;
    const char* name = which == 0 ? "index.lookup.clean" : "index.lookup.poisoned";
    std::int64_t probes = 0;
    {
      Span s(name);
      for (Key k : stream) {
        const LookupResult r = index.Lookup(k);
        probes += r.probes;
        missing += r.found ? 0 : 1;
      }
    }
    (*layer)[which == 0 ? "index.lookup_ns.clean" : "index.lookup_ns.poisoned"] = {Totals(name).wall_s * 1e9 / n, "ns"};
    (*layer)[which == 0 ? "index.mean_probes.clean" : "index.mean_probes.poisoned"] = {
        static_cast<double>(probes) / n, "count"};
  }
  (*layer)["index.build_s"] = {Totals("index.build").wall_s, "s"};
  {
    Span s("backend.lookup.single_thread");
    BackendOpResult out[kBatch];
    for (std::size_t i = 0; i + kBatch <= stream.size(); i += kBatch) {
      st.read_backend->LookupBatch(stream.data() + i, kBatch, out);
      for (const BackendOpResult& r : out) missing += r.found ? 0 : 1;
    }
  }
  (*layer)["backend.lookup_ns"] = {Totals("backend.lookup.single_thread").wall_s * 1e9 / n, "ns"};
  return missing;
}

// serve_read: every poison key is served and a seeded sample of absent
// keys is not (every read of the segments was of a stored key and was
// checked there).
Check CheckRead(const State& st, const Options& opt) {
  Rng rng = Rng(opt.seed).Fork(6);
  const std::vector<Key> poison = st.srv_attack.AllPoisonKeys();
  std::vector<Key> probe = poison;
  while (probe.size() < poison.size() + 10000) {
    const Key k = rng.UniformInt(st.srv.domain().lo, st.srv.domain().hi);
    if (!std::binary_search(st.served.begin(), st.served.end(), k)) probe.push_back(k);
  }
  // Only probed keys are looked up, so the poison keys are oracle enough.
  return CheckAgainstOracle(*st.read_backend, std::set<Key>(poison.begin(), poison.end()), probe, {});
}

// serve_churn, after `pairs` writer pairs and WaitForMaintenance: the
// stored keys are the base keys less the writer's first min(pairs, W)
// removes of base keys, plus its last min(pairs, W) inserts (W =
// kWriterWindow; every earlier insert was removed again). Compares the
// membership of every key the writer ever touched plus a sample of reader
// keys, and seeded range counts, with that std::set.
Check CheckChurn(const State& st, const Options& opt, int round, std::int64_t pairs) {
  const SearchBackend& backend = *st.churn_backend;
  if (backend.compactions() < 1) return Check::Fail("no compaction ran during churn");
  std::set<Key> oracle(st.churn_base.begin(), st.churn_base.end());
  for (std::int64_t j = 0; j < std::min(pairs, kWriterWindow); ++j) oracle.erase(st.writer_base[static_cast<std::size_t>(j)]);
  for (std::int64_t j = std::max<std::int64_t>(0, pairs - kWriterWindow); j < pairs; ++j) oracle.insert(st.Fresh(j));
  std::vector<Key> probe(st.writer_base);
  const std::int64_t fresh = std::min(pairs, static_cast<std::int64_t>(st.fresh_perm.size()));
  for (std::int64_t j = 0; j < fresh; ++j) probe.push_back(st.Fresh(j));
  Rng rng = Rng(opt.seed).Fork(7).Fork(static_cast<std::uint64_t>(round));
  for (int i = 0; i < 10000; ++i) {
    probe.push_back(st.reader_keys[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(st.reader_keys.size()) - 1))]);
  }
  std::vector<std::pair<Key, Key>> ranges;
  const Key hi = st.churn_base.back() + 1;
  for (int i = 0; i < 256; ++i) {
    const Key a = rng.UniformInt(0, hi), b = rng.UniformInt(0, hi);
    ranges.push_back({std::min(a, b), std::max(a, b)});
  }
  return CheckAgainstOracle(backend, oracle, probe, ranges);
}

// ---- main ----

bool ParseArgs(int argc, char** argv, Options* opt) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      if (value != "lognormal" && value != "normal") return false;
      opt->workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      have[2] = *end == '\0' && opt->seconds > 0 && opt->seconds <= 3600;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      opt->trace = value == "1";
      have[3] = true;
    } else if (flag == "--spans-out") {
      opt->spans_out = value;
    } else if (flag == "--attack-threads") {
      opt->attack_threads = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || opt->attack_threads < 1 || opt->attack_threads > 64) return false;
    } else {
      return false;
    }
  }
  return have[0] && have[1] && have[2] && have[3];
}

void PrintResult(const Ledger& ledger, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              ledger.correct() ? "true" : "false", static_cast<long long>(ledger.attempted),
              static_cast<long long>(ledger.failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(), m.value, m.unit);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintTable(const char* title, const Metrics& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const auto& [name, m] : metrics) std::fprintf(stderr, "  %-32s %16.6g %s\n", name.c_str(), m.value, m.unit);
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload lognormal|normal --seed N --seconds S --trace 0|1 "
                 "[--spans-out FILE] [--attack-threads N]\n");
    return 2;
  }
  if (opt.trace) EnableTracing();
  // One vCPU is left to everything else on the box (the idle main thread,
  // the kernel, other processes): with every vCPU running a client, any
  // other runnable task preempts a client and read p99 follows the box.
  const int read_clients = std::max(1, Cpus() - 1);
  std::fprintf(stderr, "perfbench: workload=%s seed=%llu seconds=%g trace=%d read clients=%d attack threads=%d\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
               read_clients, opt.attack_threads);

  // A check that cannot tell a corrupted output from the real one judges
  // nothing: the run stops.
  for (const SelfTest& t : RunSelfTests()) {
    if (!t.detected) Die("self-test not detected: " + t.name);
  }

  Ledger ledger;
  Metrics e2e, layer;
  Rng probe_rng(kProbeSeed);
  const KeySet probe_keys = Must(GenerateLogNormal(kProbeKeys, KeyDomain{0, 100 * kProbeKeys}, &probe_rng), "probe keys");
  // The served poison P, made once: PoisonRmi on the serving keys. Its
  // span figure is reported, not checked: how many keys end outside their
  // model's span depends on the seed (see kProbeOutOfSpan).
  Check served_check;
  const RmiAttackResult served_poison = [&] {
    Span s("served_poison.poison_rmi");
    const KeySet keys = ServeKeys(opt);
    const RmiAttackOptions ro = RmiOptionsUsed();
    RmiAttackResult p = Must(PoisonRmi(keys, ro), "PoisonRmi (served poison)");
    served_check = CheckPoisonRmi(keys.keys(), ro, p);
    std::int64_t outside = 0;
    CheckRmiSpans(keys.keys(), ro, p, &outside);
    layer["rmi.out_of_span_keys"] = {static_cast<double>(outside), "count"};
    return p;
  }();
  std::unique_ptr<State> st;
  std::vector<double> setup_s;
  const double generate_before_s = Totals("data.generate").wall_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.reset();
    const std::int64_t t0 = WallNs();
    st = Setup(opt, read_clients, served_poison);
    setup_s.push_back(Seconds(WallNs() - t0));
  }
  e2e["setup_s"] = {Median(setup_s), "s"};
  layer["data.generate_s"] = {(Totals("data.generate").wall_s - generate_before_s) / kSetupReps, "s"};
  layer["backend.build_s"] = {Totals("backend.build").wall_s / kSetupReps, "s"};

  // Rounds while another one fits into --seconds (at least one). Each turn
  // of the three attack calls is followed by a read and a churn segment, so
  // that a slow spell of the machine spreads over every phase's samples
  // instead of landing on one phase. A round is always the same
  // 5 * kAttackCalls + 2 operations: three attack calls and two serving
  // segments per turn, the span probe, and the check of both backends'
  // state.
  Attack attack;
  Serving serving;
  const std::int64_t start = WallNs();
  std::int64_t last_round_ns = 0;
  int rounds = 0;
  for (; rounds == 0 || Seconds(WallNs() - start + last_round_ns) <= opt.seconds; ++rounds) {
    const std::int64_t round_start = WallNs();
    attack.Calls(opt, rounds, served_check, &ledger, &layer, [&] {
      serving.ReadSegment(*st, &ledger);
      serving.ChurnSegment(*st, &ledger);
    });
    Attack::Probe(probe_keys, &ledger);
    Check state = CheckRead(*st, opt);
    if (state.ok) state = CheckChurn(*st, opt, rounds, serving.pairs);
    if (rounds == 0 && opt.trace) {
      const std::int64_t missing = TraceReadLayers(*st, opt, &layer);
      if (state.ok && missing > 0) state = Check::Fail("traced lookups: " + std::to_string(missing) + " stored keys not found");
    }
    ledger.Op(state.ok, state.what);
    last_round_ns = WallNs() - round_start;
    std::fprintf(stderr, "round %d: %.1f s; calls (cdf_insert cdf_delete rmi_attack, s):", rounds,
                 Seconds(last_round_ns));
    for (std::size_t i = attack.rmi_s.size() - kAttackCalls; i < attack.rmi_s.size(); ++i) {
      std::fprintf(stderr, " (%.3f %.3f %.3f)", attack.insert_s[i], attack.delete_s[i], attack.rmi_s[i]);
    }
    std::fprintf(stderr, "\n");
  }
  std::fprintf(stderr, "%d rounds in %.1f s; %lld write pairs, %lld compactions\n", rounds,
               Seconds(WallNs() - start), static_cast<long long>(serving.pairs),
               static_cast<long long>(st->churn_backend->compactions()));
  attack.Report(&e2e, &layer);
  serving.Report(&e2e, &layer);
  layer["backend.max_publish_overlay"] = {static_cast<double>(st->churn_backend->max_publish_overlay()), "count"};
  layer["backend.compactions"] = {static_cast<double>(st->churn_backend->compactions()), "count"};
  st.reset();

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  e2e["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"};

  if (opt.trace) {
    PrintTable("end-to-end (traced run; compare with an untraced run for the tracing overhead):", e2e);
    PrintTable("per-layer:", layer);
    if (!opt.spans_out.empty() && !WriteSpans(opt.spans_out)) Die("could not write spans to " + opt.spans_out);
  } else {
    PrintTable("end-to-end:", e2e);
  }
  std::fprintf(stderr, "operations: attempted %lld, failed %lld (known fault %lld)\n",
               static_cast<long long>(ledger.attempted), static_cast<long long>(ledger.failed),
               static_cast<long long>(ledger.known));
  PrintResult(ledger, opt.trace ? layer : e2e);
  return ledger.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
