// polydab_perfbench: the repository benchmark (see perfbench/README.md).
//
// Generates one workload from a seed, as a suite of independent instances,
// drives the public streaming sim::RunSimulation overload over each of
// them on the default engine (threads = 0) for a fixed wall-clock budget,
// checks the outputs, and prints every metric by name with its unit. The
// last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage:
//   polydab_perfbench --workload portfolio_dual|live_churn
//                     --seed N --seconds S --trace 0|1 --workdir DIR
//
// A repetition is one pass over every instance of the suite. --trace 0
// reports the end-to-end metrics from untraced repetitions; --trace 1
// reports the per-layer metrics from traced repetitions interleaved with
// untraced ones. Every layer is timed from outside the library: a
// TickSource wrapper stamps each row pull, a ServiceHooks wrapper times
// the service callback, and a TraceObserver stamps the recompute and
// checkpoint events as the engine emits them.
//
// Exit status: 0 when every correctness and determinism check passed,
// 1 when one failed (the JSON line then says "correct": false), 2 on bad
// arguments or a run that could not complete.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/query.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "recovery/checkpoint.h"
#include "recovery/recovery.h"
#include "recovery/wal.h"
#include "sim/simulation.h"
#include "svc/query_service.h"
#include "workload/churn_gen.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"
#include "workload/tick_source.h"
#include "workload/trace.h"

namespace polydab::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kPortfolioDual, kLiveChurn };

struct Spec {
  Kind kind;
  const char* name;
  int items;
  int ticks;            // simulated ticks; the source yields ticks + 1 rows
  int queries;          // base queries registered before tick 0
  int ckpt_interval_s;  // 0 = no checkpoints and no WAL
  int instances;        // independent instances per suite
};

// Every seed draws a suite of eight independent instances. One instance's
// work (recomputations, refreshes, cold plans) varies from seed to seed by
// a coefficient of variation of about 7 %, set mostly by which queries and
// trends it drew rather than by its length; a suite averages eight of them.
//
// live_churn checkpoints every 250 simulated seconds: 2 checkpoints in 500
// ticks, under half a percent of the ticks, so tick_ms_p99 stays a
// churn-or-recompute tick instead of straddling the checkpoint cluster.
constexpr Spec kSpecs[] = {
    {Kind::kPortfolioDual, "portfolio_dual", 100, 500, 60, 0, 8},
    {Kind::kLiveChurn, "live_churn", 100, 500, 20, 250, 8},
};

// live_churn: Poisson arrivals with Zipf item popularity, admitted under a
// recompute budget tight enough that most arrivals are degraded or refused.
constexpr double kChurnArrivalRate = 0.5;
constexpr double kChurnModifyProb = 0.2;
constexpr double kChurnBudget = 0.5;

// Independent RNG streams per instance and per input, derived from the one
// workload seed, so changing how one input is drawn never shifts another.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Inputs {
  workload::TraceSet traces;
  Vector rates;
  std::vector<PolynomialQuery> queries;
  std::vector<workload::ChurnOp> schedule;
};

// Evenly spaced values over [lo, hi), dealt out in a seeded order.
Vector ShuffledLadder(int n, double lo, double hi, Rng* rng) {
  Vector v(static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) {
    v[static_cast<size_t>(k)] = lo + (hi - lo) * (k + 0.5) / n;
  }
  for (int k = n - 1; k > 0; --k) {
    std::swap(v[static_cast<size_t>(k)],
              v[static_cast<size_t>(rng->UniformInt(0, k))]);
  }
  return v;
}

// Per-item traces as workload::GenerateTraceSet draws them, except that
// initial values and volatilities come from narrow ladders around the
// library's mean (price 110, volatility 1.1e-3 per tick), dealt out in a
// seeded order separately to the hot fifth of the items (the query
// generators' 20/80 split) and to the rest. With the library's tenfold
// ranges a handful of volatile hot items carried most of the traffic, and
// which items those were set most of the seed-to-seed spread; here the
// seeds differ in paths, trends, jumps, queries and churn instead.
constexpr double kInitialLo = 90.0, kInitialHi = 130.0;
constexpr double kVolLo = 0.9e-3, kVolHi = 1.3e-3;

Result<workload::TraceSet> Traces(const Spec& spec, Rng* rng) {
  const int hot = std::max(1, spec.items / 5);
  Vector initial, vol;
  for (int group_size : {hot, spec.items - hot}) {
    const Vector i = ShuffledLadder(group_size, kInitialLo, kInitialHi, rng);
    const Vector v = ShuffledLadder(group_size, kVolLo, kVolHi, rng);
    initial.insert(initial.end(), i.begin(), i.end());
    vol.insert(vol.end(), v.begin(), v.end());
  }
  const workload::TraceSetConfig defaults;
  workload::TraceSet set;
  set.num_ticks = spec.ticks + 1;
  for (int k = 0; k < spec.items; ++k) {
    workload::TraceConfig tc;  // GBM with the library's trend model
    tc.num_ticks = set.num_ticks;
    tc.initial = initial[static_cast<size_t>(k)];
    tc.volatility = vol[static_cast<size_t>(k)];
    tc.jump_prob = defaults.jump_prob;
    tc.jump_scale = defaults.jump_scale;
    POLYDAB_ASSIGN_OR_RETURN(workload::Trace trace,
                             workload::GenerateTrace(tc, rng));
    set.traces.push_back(std::move(trace));
  }
  return set;
}

Result<Inputs> Generate(const Spec& spec, uint64_t seed) {
  Inputs in;
  Rng trace_rng(SubSeed(seed, 1));
  POLYDAB_ASSIGN_OR_RETURN(in.traces, Traces(spec, &trace_rng));
  POLYDAB_ASSIGN_OR_RETURN(in.rates, workload::EstimateRates(in.traces, 60));
  const Vector initial = in.traces.Snapshot(0);

  Rng query_rng(SubSeed(seed, 2));
  workload::QueryGenConfig qc;
  qc.num_items = spec.items;
  POLYDAB_ASSIGN_OR_RETURN(
      in.queries, workload::GeneratePortfolioQueries(spec.queries, qc, initial,
                                                     &query_rng));

  if (spec.kind == Kind::kLiveChurn) {
    workload::ChurnConfig cc;
    cc.arrival_rate = kChurnArrivalRate;
    cc.modify_prob = kChurnModifyProb;
    cc.horizon_s = static_cast<double>(spec.ticks);
    cc.num_items = spec.items;
    Rng churn_rng(SubSeed(seed, 3));
    POLYDAB_ASSIGN_OR_RETURN(
        in.schedule, workload::GenerateChurnSchedule(cc, initial, &churn_rng));
  }
  return in;
}

// ---------------------------------------------------------------------------
// Outside-in layer timers

// Stamps every row pull. Pull 0 is tick 0 (set-up reads it before the
// initial plans); pull k >= 1 is requested only once tick k - 1 is fully
// processed, so successive stamps bound one tick's service time, and the
// final (end-of-stream) pull closes the tick loop.
class StampedSource final : public workload::TickSource {
 public:
  explicit StampedSource(const workload::TraceSet* set) : inner_(set) {
    stamps_.reserve(static_cast<size_t>(set->num_ticks) + 2);
  }

  size_t num_items() const override { return inner_.num_items(); }
  int num_ticks_hint() const override { return inner_.num_ticks_hint(); }
  Result<bool> Next(Vector* row) override {
    stamps_.push_back(Clock::now());
    return inner_.Next(row);
  }
  Status Rewind() override { return inner_.Rewind(); }

  const std::vector<Clock::time_point>& stamps() const { return stamps_; }

 private:
  workload::TraceSetTickSource inner_;
  std::vector<Clock::time_point> stamps_;
};

struct Span {
  Clock::time_point start;
  Clock::time_point end;
  const char* layer;
};

// Times every OnTick of the wrapped service; a tick whose call changed the
// service's outcome counters carried a churn op.
class TimedService final : public sim::ServiceHooks {
 public:
  TimedService(svc::QueryService* inner, std::vector<Span>* spans)
      : inner_(inner), spans_(spans) {}

  Status OnTick(int tick, double now, sim::ServiceOps& ops) override {
    const int64_t ops_before = OpCount();
    const Clock::time_point t0 = Clock::now();
    Status st = inner_->OnTick(tick, now, ops);
    const Clock::time_point t1 = Clock::now();
    spans_->push_back({t0, t1, "svc"});
    total_s_ += Seconds(t0, t1);
    if (OpCount() != ops_before) churn_ms_.push_back(Seconds(t0, t1) * 1e3);
    return st;
  }
  std::string SnapshotState() const override { return inner_->SnapshotState(); }
  Status RestoreState(const std::string& state) override {
    return inner_->RestoreState(state);
  }

  double total_s() const { return total_s_; }
  const std::vector<double>& churn_ms() const { return churn_ms_; }

 private:
  int64_t OpCount() const {
    return inner_->registrations() + inner_->deregistrations() +
           inner_->modifications() + inner_->rejections();
  }

  svc::QueryService* inner_;
  std::vector<Span>* spans_;
  double total_s_ = 0.0;
  std::vector<double> churn_ms_;
};

// Stamps recompute_start/end (the planner's re-solve, GP solve included)
// and checkpoint_begin/end (snapshot build, write and WAL flush) as the
// engine emits them, and counts the events behind sim.violation_ratio.
class SpanObserver final : public obs::TraceObserver {
 public:
  explicit SpanObserver(std::vector<Span>* spans) : spans_(spans) {}

  void OnEvent(const obs::TraceEvent& e) override {
    const Clock::time_point now = Clock::now();
    switch (e.kind) {
      case obs::TraceEventKind::kRecomputeStart:
        Open(&replan_open_, now);
        break;
      case obs::TraceEventKind::kRecomputeEnd:
        Close(&replan_open_, now, "planner", &replan_ms_);
        break;
      case obs::TraceEventKind::kCheckpointBegin:
        Open(&ckpt_open_, now);
        break;
      case obs::TraceEventKind::kCheckpointEnd:
        Close(&ckpt_open_, now, "recovery", &ckpt_ms_);
        break;
      case obs::TraceEventKind::kSecondaryViolation:
        ++violations_;
        break;
      case obs::TraceEventKind::kRefreshArrived:
        ++arrivals_;
        break;
      default:
        break;
    }
  }

  bool well_formed() const {
    return well_formed_ && !replan_open_.has_value() && !ckpt_open_.has_value();
  }
  const std::vector<double>& replan_ms() const { return replan_ms_; }
  const std::vector<double>& ckpt_ms() const { return ckpt_ms_; }
  int64_t violations() const { return violations_; }
  int64_t arrivals() const { return arrivals_; }

 private:
  void Open(std::optional<Clock::time_point>* slot, Clock::time_point now) {
    if (slot->has_value()) well_formed_ = false;  // nested start
    *slot = now;
  }
  void Close(std::optional<Clock::time_point>* slot, Clock::time_point now,
             const char* layer, std::vector<double>* ms) {
    if (!slot->has_value()) {
      well_formed_ = false;  // end without a start
      return;
    }
    spans_->push_back({**slot, now, layer});
    ms->push_back(Seconds(**slot, now) * 1e3);
    slot->reset();
  }

  std::vector<Span>* spans_;
  std::optional<Clock::time_point> replan_open_;
  std::optional<Clock::time_point> ckpt_open_;
  bool well_formed_ = true;
  std::vector<double> replan_ms_;
  std::vector<double> ckpt_ms_;
  int64_t violations_ = 0;
  int64_t arrivals_ = 0;
};

// ---------------------------------------------------------------------------
// Host speed reference
//
// The reference machine's speed moves between regimes that last minutes:
// the same seed ran at 1.0 and at 1.7 times the speed of its slow regime
// within half an hour, through CPU time as much as wall time. Every
// end-to-end time is therefore also expressed at reference speed: scaled
// by kReferenceMs over the time this fixed kernel took, timed in the same
// process just before each instance. The kernel does the tick loop's kinds
// of work (small dense Cholesky solves, exp and log, hash-map and heap
// traffic) and uses nothing from the polydab library, so no change to the
// program moves it.

// The kernel's median time on the reference machine in its slow regime.
constexpr double kReferenceMs = 28.0;

double ReferenceKernel() {
  constexpr int kN = 12;
  constexpr int kRounds = 20000;
  double checksum = 0.0;
  std::unordered_map<uint64_t, double> table;
  uint64_t key = 0x9E3779B97F4A7C15ULL;
  for (int round = 0; round < kRounds; ++round) {
    // Cholesky-factor an SPD matrix and solve A x = b.
    std::vector<double> a(kN * kN), x(kN);
    for (int i = 0; i < kN; ++i) {
      for (int j = 0; j < kN; ++j) {
        a[i * kN + j] = (i == j ? kN : 0.0) + 1.0 / (1 + i + j + round % 7);
      }
      x[i] = std::exp(-0.1 * i) + std::log1p(i + round % 5);
    }
    for (int j = 0; j < kN; ++j) {
      double d = a[j * kN + j];
      for (int k = 0; k < j; ++k) d -= a[j * kN + k] * a[j * kN + k];
      d = std::sqrt(d);
      a[j * kN + j] = d;
      for (int i = j + 1; i < kN; ++i) {
        double v = a[i * kN + j];
        for (int k = 0; k < j; ++k) v -= a[i * kN + k] * a[j * kN + k];
        a[i * kN + j] = v / d;
      }
    }
    for (int i = 0; i < kN; ++i) {
      for (int k = 0; k < i; ++k) x[i] -= a[i * kN + k] * x[k];
      x[i] /= a[i * kN + i];
    }
    for (int i = kN - 1; i >= 0; --i) {
      for (int k = i + 1; k < kN; ++k) x[i] -= a[k * kN + i] * x[k];
      x[i] /= a[i * kN + i];
    }
    for (int k = 0; k < 16; ++k) {
      key = key * 6364136223846793005ULL + 1442695040888963407ULL;
      table[key % 4096] += x[k % kN];
    }
    checksum += x[round % kN];
  }
  return checksum + static_cast<double>(table.size());
}

double ReferenceMs() {
  const Clock::time_point t0 = Clock::now();
  volatile double sink = ReferenceKernel();
  (void)sink;
  return Seconds(t0, Clock::now()) * 1e3;
}

// ---------------------------------------------------------------------------
// One repetition

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n);
}

// One repetition: the run of one instance, or (after Absorb) one pass over
// every instance of the suite, whose times and counts add up and whose
// per-tick and per-span samples pool.
struct Rep {
  std::vector<sim::SimMetrics> metrics;  // one per instance
  int64_t attempted = 0;  // initial plans + registration plans + recomputes
  double gen_s = 0.0;
  double engine_setup_s = 0.0;
  double tick_loop_s = 0.0;
  std::vector<double> tick_ms;
  std::vector<double> reference_ms;  // one kernel timing per instance
  // Traced repetitions only.
  std::vector<double> replan_ms;
  std::vector<double> ckpt_ms;
  std::vector<double> svc_churn_ms;
  double svc_s = 0.0;
  double self_s = 0.0;
  double trace_finish_s = 0.0;
  double trace_check_s = 0.0;
  double restart_load_s = 0.0;
  /// Seed-deterministic counts, compared exactly across repetitions.
  std::map<std::string, double> counts;
  /// Outcome of the traced repetition's own checks (OK when untraced).
  Status check = Status::OK();
};

void Append(const std::vector<double>& from, std::vector<double>* to) {
  to->insert(to->end(), from.begin(), from.end());
}

void Absorb(const Rep& part, Rep* pass) {
  Append(part.tick_ms, &pass->tick_ms);
  Append(part.reference_ms, &pass->reference_ms);
  Append(part.replan_ms, &pass->replan_ms);
  Append(part.ckpt_ms, &pass->ckpt_ms);
  Append(part.svc_churn_ms, &pass->svc_churn_ms);
  pass->metrics.insert(pass->metrics.end(), part.metrics.begin(),
                       part.metrics.end());
  pass->attempted += part.attempted;
  pass->gen_s += part.gen_s;
  pass->engine_setup_s += part.engine_setup_s;
  pass->tick_loop_s += part.tick_loop_s;
  pass->svc_s += part.svc_s;
  pass->self_s += part.self_s;
  pass->trace_finish_s += part.trace_finish_s;
  pass->trace_check_s += part.trace_check_s;
  pass->restart_load_s += part.restart_load_s;
  for (const auto& [name, value] : part.counts) pass->counts[name] += value;
  if (pass->check.ok()) pass->check = part.check;
}

class Bench {
 public:
  Bench(const Spec& spec, uint64_t seed, std::string workdir)
      : spec_(spec), workdir_(std::move(workdir)) {
    for (int i = 0; i < spec.instances; ++i) {
      instance_seeds_.push_back(SubSeed(seed, 100 + static_cast<uint64_t>(i)));
    }
  }

  /// One pass over every instance of the suite, each instance preceded by
  /// one timing of the reference kernel.
  Result<Rep> RunPass(bool traced, bool paranoid) {
    Rep pass;
    for (uint64_t instance_seed : instance_seeds_) {
      const double reference_ms = ReferenceMs();
      POLYDAB_ASSIGN_OR_RETURN(Rep part, Run(instance_seed, traced, paranoid));
      part.reference_ms.push_back(reference_ms);
      Absorb(part, &pass);
    }
    return pass;
  }

 private:
  /// One full run of one instance: generate the inputs, run the engine to
  /// end of stream, and (traced) check the trace and the durable artifacts.
  Result<Rep> Run(uint64_t seed, bool traced, bool paranoid) {
    Rep rep;
    const Clock::time_point gen0 = Clock::now();
    POLYDAB_ASSIGN_OR_RETURN(Inputs in, Generate(spec_, seed));
    rep.gen_s = Seconds(gen0, Clock::now());

    const std::string trace_path = TracePath();
    const std::string ckpt_path = CkptPath();
    const std::string wal_path = WalPath();
    for (const std::string& p : {trace_path, ckpt_path, wal_path}) {
      std::filesystem::remove(p);
    }

    sim::SimConfig config;
    config.seed = SubSeed(seed, 4);
    config.paranoid_validation = paranoid;

    obs::MetricRegistry registry;
    std::vector<Span> spans;
    SpanObserver observer(&spans);
    std::unique_ptr<obs::TraceSink> sink;
    if (traced) {
      sink = std::make_unique<obs::TraceSink>();
      POLYDAB_RETURN_NOT_OK(sink->StreamTo(trace_path));
      sink->SetObserver(&observer);
      config.trace = sink.get();
      config.registry = &registry;
    }

    std::unique_ptr<svc::QueryService> service;
    std::unique_ptr<TimedService> timed_service;
    if (spec_.kind == Kind::kLiveChurn) {
      svc::AdmissionConfig ac;
      ac.recompute_budget = kChurnBudget;
      ac.policy = svc::AdmissionConfig::Policy::kDegrade;
      service = std::make_unique<svc::QueryService>(
          ac, in.schedule, config.registry, config.plan_maintenance);
      config.service = service.get();
      if (traced) {
        timed_service = std::make_unique<TimedService>(service.get(), &spans);
        config.service = timed_service.get();
      }
    }

    recovery::RecoveryConfig rc;
    if (spec_.ckpt_interval_s > 0) {
      rc.checkpoint_path = ckpt_path;
      rc.wal_path = wal_path;
      rc.interval_s = spec_.ckpt_interval_s;
      config.recovery = &rc;
    }

    StampedSource source(&in.traces);
    const Clock::time_point call = Clock::now();
    POLYDAB_ASSIGN_OR_RETURN(
        sim::SimMetrics metrics,
        sim::RunSimulation(in.queries, source, in.rates, config));
    rep.metrics.push_back(metrics);

    const std::vector<Clock::time_point>& st = source.stamps();
    if (st.size() != static_cast<size_t>(spec_.ticks) + 2) {
      return Status::Internal("unexpected number of tick pulls: " +
                              std::to_string(st.size()));
    }
    rep.engine_setup_s = Seconds(call, st[1]);
    rep.tick_loop_s = Seconds(st[1], st.back());
    rep.tick_ms.reserve(st.size() - 2);
    for (size_t k = 1; k + 1 < st.size(); ++k) {
      rep.tick_ms.push_back(Seconds(st[k], st[k + 1]) * 1e3);
    }
    rep.attempted =
        static_cast<int64_t>(in.queries.size()) + metrics.recomputations;
    if (service != nullptr) {
      rep.attempted += service->registrations() + service->rejections() +
                       service->modifications();
    }

    if (sink != nullptr) {
      const Clock::time_point f0 = Clock::now();
      POLYDAB_RETURN_NOT_OK(sink->Finish());
      rep.trace_finish_s = Seconds(f0, Clock::now());
      rep.counts["sim.events"] = static_cast<double>(sink->emitted());
    }
    rep.counts["obs.trace_bytes"] = FileBytes(trace_path);
    rep.counts["recovery.wal_bytes"] = FileBytes(wal_path);
    if (!traced) {
      rep.counts["recovery.ckpt_bytes"] = FileBytes(ckpt_path);
      return rep;
    }
    // With a registry attached, every snapshot also carries the registry's
    // wall-clock histograms, so a traced checkpoint's bytes vary from run
    // to run and are not compared.

    rep.replan_ms = observer.replan_ms();
    rep.ckpt_ms = observer.ckpt_ms();
    if (timed_service != nullptr) {
      rep.svc_s = timed_service->total_s();
      rep.svc_churn_ms = timed_service->churn_ms();
    }
    rep.self_s = rep.tick_loop_s - Sum(rep.replan_ms) / 1e3 -
                 Sum(rep.ckpt_ms) / 1e3 - rep.svc_s;
    RecordCounts(metrics, registry, observer, service.get(), &rep);
    rep.check = CheckTraced(observer.well_formed(), std::move(spans), st,
                            in.traces, metrics, &rep);
    return rep;
  }

  // The traced run's own checks: layer spans are disjoint and inside the
  // tick loop, the streamed trace replays green and matches SimMetrics,
  // and the durable artifacts reload.
  Status CheckTraced(bool spans_paired, std::vector<Span> spans,
                     const std::vector<Clock::time_point>& pulls,
                     const workload::TraceSet& traces,
                     const sim::SimMetrics& metrics, Rep* rep) const {
    if (!spans_paired) {
      return Status::Internal("unpaired recompute/checkpoint events");
    }
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.start < b.start; });
    Clock::time_point cursor = pulls[1];
    for (const Span& s : spans) {
      if (s.start < cursor || s.end < s.start || s.end > pulls.back()) {
        return Status::Internal(std::string("layer span overlaps (") +
                                s.layer + ")");
      }
      cursor = s.end;
    }
    if (rep->self_s < 0.0) return Status::Internal("sim.self_s is negative");

    const Clock::time_point c0 = Clock::now();
    POLYDAB_ASSIGN_OR_RETURN(obs::TraceFile file,
                             obs::LoadTraceFile(TracePath()));
    POLYDAB_ASSIGN_OR_RETURN(obs::TraceCheckReport report,
                             obs::CheckTrace(file));
    rep->trace_check_s = Seconds(c0, Clock::now());
    if (!report.ok()) {
      return Status::Internal(
          "trace replay failed with " + std::to_string(report.failure_count) +
          " invariant failures; first: " +
          (report.failures.empty() ? "?" : report.failures.front()));
    }
    if (file.summaries.size() != 1 ||
        !SummaryMatches(file.summaries[0], metrics)) {
      return Status::Internal("trace run summary differs from SimMetrics");
    }

    if (spec_.ckpt_interval_s > 0) {
      const Clock::time_point r0 = Clock::now();
      recovery::CheckpointState state;
      POLYDAB_RETURN_NOT_OK(recovery::LoadLatestCheckpoint(CkptPath(), &state));
      std::vector<recovery::WalRecord> wal;
      POLYDAB_RETURN_NOT_OK(recovery::LoadWal(WalPath(), &wal));
      rep->restart_load_s = Seconds(r0, Clock::now());
      POLYDAB_RETURN_NOT_OK(CheckDurable(state, wal, traces, metrics));
    }
    return Status::OK();
  }

  static bool SummaryMatches(const obs::TraceRunSummary& s,
                             const sim::SimMetrics& m) {
    return s.refreshes == m.refreshes && s.recomputations == m.recomputations &&
           s.dab_change_messages == m.dab_change_messages &&
           s.user_notifications == m.user_notifications &&
           s.solver_failures == m.solver_failures &&
           s.mean_fidelity_loss_pct == m.mean_fidelity_loss_pct;
  }

  // The run ends on a cadence tick, so the last snapshot holds the final
  // counters, and the WAL holds exactly the consumed rows, bit for bit.
  Status CheckDurable(const recovery::CheckpointState& state,
                      const std::vector<recovery::WalRecord>& wal,
                      const workload::TraceSet& traces,
                      const sim::SimMetrics& m) const {
    const int every = spec_.ckpt_interval_s;
    const int last = spec_.ticks / every * every;
    if (state.tick != last || state.refreshes != m.refreshes ||
        state.recomputations != m.recomputations ||
        state.dab_change_messages != m.dab_change_messages) {
      return Status::Internal("checkpoint does not match the run (tick " +
                              std::to_string(state.tick) + ")");
    }
    if (recovery::LastCrashMarker(wal) != nullptr) {
      return Status::Internal("WAL carries a crash marker");
    }
    int rows = 0;
    for (const recovery::WalRecord& r : wal) {
      if (r.kind != recovery::WalRecord::Kind::kRow) continue;
      ++rows;
      if (r.tick != rows || r.values != traces.Snapshot(r.tick)) {
        return Status::Internal("WAL row " + std::to_string(rows) +
                                " differs from the consumed tick");
      }
    }
    if (rows != spec_.ticks) {
      return Status::Internal("WAL holds " + std::to_string(rows) + " rows");
    }
    return Status::OK();
  }

  static void RecordCounts(const sim::SimMetrics& m, obs::MetricRegistry& reg,
                           const SpanObserver& observer,
                           const svc::QueryService* service, Rep* rep) {
    auto counter = [&](const char* name) {
      return static_cast<double>(reg.GetCounter(name)->value());
    };
    auto& c = rep->counts;
    c["sim.refreshes"] = static_cast<double>(m.refreshes);
    c["sim.recomputations"] = static_cast<double>(m.recomputations);
    c["sim.dab_changes"] = static_cast<double>(m.dab_change_messages);
    c["sim.violations"] = static_cast<double>(observer.violations());
    c["sim.arrivals"] = static_cast<double>(observer.arrivals());
    c["sim.replan_spans"] = static_cast<double>(observer.replan_ms().size());
    c["recovery.checkpoints"] = static_cast<double>(observer.ckpt_ms().size());
    const obs::Histogram* newton =
        reg.GetHistogram("gp.solver.newton_iterations");
    c["gp.solves"] = counter("gp.solver.solves");
    c["gp.newton_iterations"] = newton->sum();
    c["gp.newton_iterations_p50"] = newton->Quantile(0.5);
    c["gp.line_search_backtracks"] =
        counter("gp.solver.line_search_backtracks");
    c["gp.phase1_solves"] = counter("gp.solver.phase1_solves");
    c["gp.warm_started_solves"] = counter("gp.solver.warm_started_solves");
    c["gp.warm_start_feasible"] = counter("gp.solver.warm_start_feasible");
    if (service != nullptr) {
      c["svc.registrations"] = static_cast<double>(service->registrations());
      c["svc.degraded"] =
          static_cast<double>(service->degraded_registrations());
      c["svc.rejections"] = static_cast<double>(service->rejections());
      c["svc.modifications"] = static_cast<double>(service->modifications());
      c["svc.deregistrations"] =
          static_cast<double>(service->deregistrations());
      c["svc.churn_ticks"] = static_cast<double>(rep->svc_churn_ms.size());
    }
  }

  std::string TracePath() const { return workdir_ + "/trace.jsonl"; }
  std::string CkptPath() const { return workdir_ + "/coord.ckpt"; }
  std::string WalPath() const { return workdir_ + "/coord.wal"; }

  const Spec& spec_;
  const std::string workdir_;
  std::vector<uint64_t> instance_seeds_;
};

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

bool SameMetric(const sim::SimMetrics& a, const sim::SimMetrics& b) {
  return a.refreshes == b.refreshes && a.recomputations == b.recomputations &&
         a.dab_change_messages == b.dab_change_messages &&
         a.user_notifications == b.user_notifications &&
         a.solver_failures == b.solver_failures &&
         a.mean_fidelity_loss_pct == b.mean_fidelity_loss_pct &&
         a.fault_drops == b.fault_drops && a.retransmits == b.retransmits &&
         a.duplicates_suppressed == b.duplicates_suppressed &&
         a.lease_expiries == b.lease_expiries &&
         a.degraded_query_seconds == b.degraded_query_seconds;
}

bool SameMetrics(const std::vector<sim::SimMetrics>& a,
                 const std::vector<sim::SimMetrics>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), SameMetric);
}

template <typename F>
std::vector<double> Collect(const std::vector<Rep>& reps, F f) {
  std::vector<double> out;
  out.reserve(reps.size());
  for (const Rep& r : reps) out.push_back(f(r));
  return out;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Args {
  const Spec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      for (const Spec& s : kSpecs) {
        if (val == s.name) a->spec = &s;
      }
      if (a->spec == nullptr) return false;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1" ? 1 : 0;
    } else if (key == "--workdir") {
      a->workdir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && a->spec != nullptr && a->seconds > 0.0 &&
         a->trace >= 0 && !a->workdir.empty();
}

// Shared by both modes: the same seed must give the same counts.
bool SameCounts(const std::vector<Rep>& reps, const char* what) {
  for (size_t i = 1; i < reps.size(); ++i) {
    if (!SameMetrics(reps[i].metrics, reps[0].metrics)) {
      std::fprintf(stderr,
                   "determinism: %s repetition %zu: SimMetrics differ\n",
                   what, i);
      return false;
    }
    for (const auto& [name, value] : reps[0].counts) {
      auto it = reps[i].counts.find(name);
      if (it == reps[i].counts.end() || it->second != value) {
        std::fprintf(stderr, "determinism: %s repetition %zu: %s differs\n",
                     what, i, name.c_str());
        return false;
      }
    }
  }
  return true;
}

constexpr int kMinReps = 2;

int RunMain(const Args& args) {
  const Spec& spec = *args.spec;
  Bench bench(spec, args.seed, args.workdir);
  std::vector<Rep> plain;   // untraced repetitions
  std::vector<Rep> traced;  // traced repetitions (--trace 1)
  bool correct = true;

  auto run = [&](bool is_traced, bool paranoid) -> Result<Rep> {
    Result<Rep> r = bench.RunPass(is_traced, paranoid);
    if (!r.ok()) {
      std::fprintf(stderr, "%s run failed: %s\n",
                   is_traced ? "traced" : "untraced",
                   r.status().ToString().c_str());
    }
    return r;
  };

  // Timed phase: closed loop, repetitions until the budget is spent.
  const Clock::time_point start = Clock::now();
  while (Seconds(start, Clock::now()) < args.seconds ||
         plain.size() < static_cast<size_t>(kMinReps) ||
         (args.trace == 1 && traced.size() < static_cast<size_t>(kMinReps))) {
    if (args.trace == 1) {
      Result<Rep> t = run(true, false);
      if (!t.ok()) return 2;
      traced.push_back(std::move(t).value());
    }
    Result<Rep> p = run(false, false);
    if (!p.ok()) return 2;
    plain.push_back(std::move(p).value());
  }
  const double peak_rss_mb = PeakRssMb();

  // Correctness: identical SimMetrics across every repetition, traced or
  // not, and identical deterministic counts across same-mode repetitions.
  // One more pass validates every installed plan against §III; in the
  // end-to-end mode it is also the traced pass that replays the trace,
  // checks the spans and reloads the durable artifacts.
  correct = SameCounts(plain, "untraced") && correct;
  if (args.trace == 1) correct = SameCounts(traced, "traced") && correct;
  Result<Rep> check = run(args.trace == 0, /*paranoid=*/true);
  if (!check.ok()) return 2;
  auto verify = [&](const Rep& r) {
    if (!SameMetrics(r.metrics, plain[0].metrics)) {
      std::fprintf(stderr, "traced, untraced or validated SimMetrics differ\n");
      correct = false;
    }
    if (!r.check.ok()) {
      std::fprintf(stderr, "check failed: %s\n", r.check.ToString().c_str());
      correct = false;
    }
  };
  for (const Rep& r : traced) verify(r);
  verify(*check);

  const Rep& first = plain[0];
  const int64_t attempted = first.attempted;
  int64_t failed = 0;
  int64_t recomputations = 0;
  double total_cost = 0.0;
  double fidelity_loss_pct = 0.0;  // mean over the instances
  for (const sim::SimMetrics& m : first.metrics) {
    failed += m.solver_failures;
    recomputations += m.recomputations;
    total_cost += m.TotalCost();
    fidelity_loss_pct += m.mean_fidelity_loss_pct / spec.instances;
  }
  const int ticks = spec.ticks * spec.instances;  // per repetition

  std::printf("workload %s seed %llu: %zu untraced + %zu traced repetitions, "
              "each %d instances of %d ticks (closed loop, one coordinator, "
              "threads=0)\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              plain.size(), traced.size(), spec.instances, spec.ticks);

  std::vector<Metric> out;
  if (args.trace == 0) {
    // Each time at reference speed (see ReferenceKernel): scaled by the
    // reference over the kernel's median time in the same repetition; then
    // the median over repetitions. `scale` = 1 gives the times as measured.
    struct Times {
      double loop_s, p50_ms, p99_ms, setup_s;
    };
    auto times = [&](bool at_reference) {
      auto med = [&](auto f) {
        return Median(Collect(plain, [&](const Rep& r) {
          const double scale =
              at_reference ? kReferenceMs / Median(r.reference_ms) : 1.0;
          return f(r) * scale;
        }));
      };
      return Times{
          med([](const Rep& r) { return r.tick_loop_s; }),
          med([](const Rep& r) { return Quantile(r.tick_ms, 0.5); }),
          med([](const Rep& r) { return Quantile(r.tick_ms, 0.99); }),
          med([](const Rep& r) { return r.gen_s + r.engine_setup_s; })};
    };
    const Times ref = times(true);
    const Times raw = times(false);
    out.push_back({"ticks_per_s", ticks / ref.loop_s, "ticks/s"});
    out.push_back({"recomputes_per_s",
                   static_cast<double>(recomputations) / ref.loop_s, "1/s"});
    out.push_back({"tick_ms_p50", ref.p50_ms, "ms"});
    out.push_back({"tick_ms_p99", ref.p99_ms, "ms"});
    out.push_back({"setup_s", ref.setup_s, "s"});
    out.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    out.push_back({"total_cost", total_cost, "messages"});
    out.push_back({"fidelity_pct", 100.0 - fidelity_loss_pct, "%"});
    std::vector<double> reference_ms;
    for (const Rep& r : plain) Append(r.reference_ms, &reference_ms);
    std::printf("times below are at reference speed; as measured, with the "
                "reference kernel at %.4g ms against %.4g ms: ticks_per_s "
                "%.6g, tick_ms_p50 %.6g, tick_ms_p99 %.6g, setup_s %.6g\n",
                Median(reference_ms), kReferenceMs, ticks / raw.loop_s,
                raw.p50_ms, raw.p99_ms, raw.setup_s);
    std::printf("tick samples per repetition: %d (p99 has %d beyond it)\n",
                ticks, ticks / 100);
    std::printf("solves attempted %lld, failed %lld (failed_ops_ratio %.6g)\n",
                static_cast<long long>(attempted),
                static_cast<long long>(failed),
                static_cast<double>(failed) / static_cast<double>(attempted));
  } else {
    const auto med = [&](auto f) { return Median(Collect(traced, f)); };
    const Rep& t = traced[0];
    auto count = [&](const char* name) {
      auto it = t.counts.find(name);
      return it == t.counts.end() ? 0.0 : it->second;
    };
    auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const double loop_traced = med([](const Rep& r) { return r.tick_loop_s; });
    const double loop_plain =
        Median(Collect(plain, [](const Rep& r) { return r.tick_loop_s; }));
    const double replan_s =
        med([](const Rep& r) { return Sum(r.replan_ms) / 1e3; });
    out.push_back({"workload.gen_s", med([](const Rep& r) { return r.gen_s; }),
                   "s"});
    out.push_back({"sim.engine_setup_s",
                   med([](const Rep& r) { return r.engine_setup_s; }), "s"});
    out.push_back({"sim.tick_loop_s", loop_traced, "s"});
    out.push_back({"sim.self_s", med([](const Rep& r) { return r.self_s; }),
                   "s"});
    out.push_back({"sim.refreshes", count("sim.refreshes"), "count"});
    out.push_back({"sim.recomputations", count("sim.recomputations"), "count"});
    out.push_back({"sim.dab_changes", count("sim.dab_changes"), "count"});
    out.push_back({"sim.events", count("sim.events"), "count"});
    out.push_back({"sim.violation_ratio",
                   ratio(count("sim.violations"), count("sim.arrivals")),
                   "ratio"});
    out.push_back({"sim.fidelity_loss_pct", fidelity_loss_pct, "%"});
    out.push_back({"sim.failed_ops_ratio",
                   ratio(static_cast<double>(failed),
                         static_cast<double>(attempted)),
                   "ratio"});
    out.push_back({"planner.replan_s", replan_s, "s"});
    out.push_back({"planner.replan_share",
                   med([](const Rep& r) {
                     return Sum(r.replan_ms) / 1e3 / r.tick_loop_s;
                   }),
                   "ratio"});
    out.push_back({"planner.replan_ms_p50",
                   med([](const Rep& r) { return Quantile(r.replan_ms, 0.5); }),
                   "ms"});
    out.push_back({"planner.replan_ms_p99", med([](const Rep& r) {
                     return Quantile(r.replan_ms, 0.99);
                   }),
                   "ms"});
    out.push_back({"gp.solves", count("gp.solves"), "count"});
    out.push_back({"gp.newton_iterations", count("gp.newton_iterations"),
                   "count"});
    out.push_back({"gp.newton_iterations_p50",
                   count("gp.newton_iterations_p50") / spec.instances,
                   "count"});
    out.push_back({"gp.line_search_backtracks",
                   count("gp.line_search_backtracks"), "count"});
    out.push_back({"gp.phase1_solves", count("gp.phase1_solves"), "count"});
    out.push_back({"gp.warm_start_feasible_ratio",
                   ratio(count("gp.warm_start_feasible"),
                         count("gp.warm_started_solves")),
                   "ratio"});
    out.push_back({"svc.on_tick_s", med([](const Rep& r) { return r.svc_s; }),
                   "s"});
    out.push_back({"svc.on_tick_ms_p99", med([](const Rep& r) {
                     return Quantile(r.svc_churn_ms, 0.99);
                   }),
                   "ms"});
    out.push_back({"svc.registrations", count("svc.registrations"), "count"});
    out.push_back({"svc.degraded", count("svc.degraded"), "count"});
    out.push_back({"svc.rejections", count("svc.rejections"), "count"});
    out.push_back({"svc.admit_ratio",
                   ratio(count("svc.registrations"),
                         count("svc.registrations") + count("svc.rejections")),
                   "ratio"});
    out.push_back({"obs.trace_bytes", count("obs.trace_bytes"), "bytes"});
    out.push_back({"obs.trace_finish_s",
                   med([](const Rep& r) { return r.trace_finish_s; }), "s"});
    out.push_back({"obs.trace_check_s",
                   med([](const Rep& r) { return r.trace_check_s; }), "s"});
    out.push_back({"recovery.ckpt_ms_p50",
                   med([](const Rep& r) { return Quantile(r.ckpt_ms, 0.5); }),
                   "ms"});
    out.push_back({"recovery.ckpt_s",
                   med([](const Rep& r) { return Sum(r.ckpt_ms) / 1e3; }),
                   "s"});
    out.push_back({"recovery.ckpt_bytes",
                   plain[0].counts.at("recovery.ckpt_bytes"), "bytes"});
    out.push_back({"recovery.wal_bytes", count("recovery.wal_bytes"),
                   "bytes"});
    out.push_back({"recovery.restart_load_s",
                   med([](const Rep& r) { return r.restart_load_s; }), "s"});
    out.push_back({"trace_overhead_ratio", ratio(loop_traced, loop_plain),
                   "ratio"});
    std::vector<double> reference_ms;
    for (const std::vector<Rep>* reps : {&plain, &traced}) {
      for (const Rep& r : *reps) Append(r.reference_ms, &reference_ms);
    }
    out.push_back({"host.reference_ms", Median(reference_ms), "ms"});
    std::printf("replan spans %zu, checkpoint spans %zu, churn ticks %zu, "
                "tick samples %d per repetition\n",
                t.replan_ms.size(), t.ckpt_ms.size(), t.svc_churn_ms.size(),
                ticks);
  }
  PrintResult(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace polydab::perfbench

int main(int argc, char** argv) {
  polydab::perfbench::Args args;
  if (!polydab::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload portfolio_dual|live_churn "
                 "--seed N --seconds S --trace 0|1 "
                 "--workdir DIR\n",
                 argv[0]);
    return 2;
  }
  return polydab::perfbench::RunMain(args);
}
