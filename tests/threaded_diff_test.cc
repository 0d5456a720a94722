// Differential test harness for the real-thread lane runtime
// (src/rt/, SimConfig::threads, docs/CONCURRENCY.md). Oracles:
//
//  1. Raw equivalence: a threads=N run's trace, exactly as emitted, must
//     be byte-identical JSONL to the threads=0 engine under the same
//     seed — across planner methods x shard counts x worker counts,
//     including a capacity-1 SPSC ring that forces dispatch
//     backpressure, fault injection and query churn. SimMetrics must
//     match field-for-field (bitwise on the fidelity loss).
//  2. Per-lane stream equality: grouping the threaded events by
//     coordinator lane reproduces the oracle's per-lane streams exactly
//     (implied by byte identity, asserted separately so a reordering
//     regression names the lane it broke).
//  3. Trace replay: threaded chaos and churn runs must keep
//     obs::CheckTrace green with zero invariant failures.
//  4. Series: a threaded run's windowed series and alerts are
//     byte-identical to the threads=0 run's.
//  5. Thread-free vocabulary: neither serial nor threaded traces carry
//     a `thread` key or `rt_*` info, and the default config keeps
//     reproducing the pre-threading serial goldens bit-for-bit.
//
// The failure path (rt_fail_at worker abort) and config validation ride
// along. The whole binary is labelled `threads`, so the threads-tsan /
// threads-asan presets run exactly this harness plus tests/rt_test.cc
// under the sanitizers.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "sim/simulation.h"
#include "svc/query_service.h"
#include "workload/churn_gen.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"

namespace polydab::sim {
namespace {

/// Same fixed workload as tests/coord_shard_diff_test.cc: 24 items, 500
/// ticks, 10 portfolio PPQs of 2-3 bilinear pairs. Sharing the fixture
/// means the serial goldens pinned there apply verbatim here.
class ThreadedDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4242);
    workload::TraceSetConfig tc;
    tc.num_items = 24;
    tc.num_ticks = 500;
    tc.vol_lo = 5e-4;
    tc.vol_hi = 2e-3;
    traces_ = *workload::GenerateTraceSet(tc, &rng);
    rates_ = *workload::EstimateRates(traces_, 60);
    workload::QueryGenConfig qc;
    qc.num_items = 24;
    qc.min_pairs = 2;
    qc.max_pairs = 3;
    queries_ = *workload::GeneratePortfolioQueries(10, qc,
                                                   traces_.Snapshot(0), &rng);
  }

  SimConfig Config(core::AssignmentMethod method, int shards,
                   int threads) const {
    SimConfig c;
    c.planner.method = method;
    c.planner.dual.mu = 5.0;
    c.seed = 3;
    c.coord_shards = shards;
    c.shard_policy = shards > 1 ? ShardPolicy::kQueryHash
                                : ShardPolicy::kEqiComponents;
    c.threads = threads;
    return c;
  }

  /// Run and collect the trace as emitted. Returns the rendered JSONL;
  /// metrics through *out.
  std::string RunRendered(SimConfig config, SimMetrics* out) {
    obs::TraceSink sink;
    config.trace = &sink;
    auto m = RunSimulation(queries_, traces_, rates_, config);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    if (!m.ok()) return "";
    *out = *m;
    return obs::TraceToJsonLines(sink.Collect());
  }

  workload::TraceSet traces_;
  Vector rates_;
  std::vector<PolynomialQuery> queries_;
};

void ExpectMetricsEqual(const SimMetrics& got, const SimMetrics& want,
                        const std::string& label) {
  EXPECT_EQ(got.refreshes, want.refreshes) << label;
  EXPECT_EQ(got.recomputations, want.recomputations) << label;
  EXPECT_EQ(got.dab_change_messages, want.dab_change_messages) << label;
  EXPECT_EQ(got.user_notifications, want.user_notifications) << label;
  EXPECT_EQ(got.solver_failures, want.solver_failures) << label;
  // Bitwise: the virtual-clock accumulation sequence is the contract the
  // worker pool must not perturb.
  EXPECT_EQ(got.mean_fidelity_loss_pct, want.mean_fidelity_loss_pct)
      << label;
}

TEST_F(ThreadedDiffTest, RawThreadedTraceMatchesVirtualClockOracle) {
  for (core::AssignmentMethod method :
       {core::AssignmentMethod::kDualDab,
        core::AssignmentMethod::kOptimalRefresh}) {
    for (int shards : {1, 2, 4}) {
      SimMetrics oracle_metrics;
      const std::string oracle =
          RunRendered(Config(method, shards, 0), &oracle_metrics);
      ASSERT_FALSE(oracle.empty());
      for (int threads : {1, 2, 3}) {
        SCOPED_TRACE(std::string("method=") + core::Name(method) +
                     " shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        SimMetrics got_metrics;
        const std::string got =
            RunRendered(Config(method, shards, threads), &got_metrics);
        ASSERT_FALSE(got.empty());
        EXPECT_EQ(got, oracle);
        ExpectMetricsEqual(got_metrics, oracle_metrics, "vs oracle");
      }
    }
  }
}

TEST_F(ThreadedDiffTest, CapacityOneRingStillMatchesOracle) {
  // rt_queue_cap=1 makes every second dispatch hit a full ring, forcing
  // the producer's yield-spin backpressure path on a recompute-heavy
  // method. The result must still be byte-identical.
  SimMetrics oracle_metrics;
  const std::string oracle = RunRendered(
      Config(core::AssignmentMethod::kOptimalRefresh, 4, 0),
      &oracle_metrics);
  ASSERT_FALSE(oracle.empty());
  SimConfig c = Config(core::AssignmentMethod::kOptimalRefresh, 4, 2);
  c.rt_queue_cap = 1;
  SimMetrics got_metrics;
  const std::string got = RunRendered(c, &got_metrics);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got, oracle);
  ExpectMetricsEqual(got_metrics, oracle_metrics, "rt_queue_cap=1");
}

TEST_F(ThreadedDiffTest, PerLaneEventStreamsMatchOracle) {
  // Byte identity already implies this; grouping by lane first makes a
  // reordering regression fail with the lane and position it broke.
  SimMetrics ignored;
  const std::string oracle = RunRendered(
      Config(core::AssignmentMethod::kDualDab, 4, 0), &ignored);
  const std::string got = RunRendered(
      Config(core::AssignmentMethod::kDualDab, 4, 3), &ignored);
  ASSERT_FALSE(oracle.empty());
  ASSERT_FALSE(got.empty());
  auto by_lane = [](const std::string& rendered) {
    std::vector<std::vector<std::string>> lanes(5);  // shard -1 -> [4]
    size_t start = 0;
    while (start < rendered.size()) {
      size_t end = rendered.find('\n', start);
      if (end == std::string::npos) end = rendered.size();
      const std::string line = rendered.substr(start, end - start);
      start = end + 1;
      if (line.find("\"type\":\"event\"") == std::string::npos) continue;
      size_t pos = line.find("\"shard\":");
      int shard = -1;
      if (pos != std::string::npos) {
        shard = std::atoi(line.c_str() + pos + 8);
      }
      lanes[shard < 0 ? 4 : shard].push_back(line);
    }
    return lanes;
  };
  const auto want = by_lane(oracle);
  const auto have = by_lane(got);
  for (size_t lane = 0; lane < want.size(); ++lane) {
    SCOPED_TRACE("lane=" + std::to_string(lane == 4 ? -1 : (int)lane));
    ASSERT_EQ(have[lane].size(), want[lane].size());
    for (size_t i = 0; i < want[lane].size(); ++i) {
      ASSERT_EQ(have[lane][i], want[lane][i]) << "position " << i;
    }
  }
}

TEST_F(ThreadedDiffTest, ThreadedChaosRunMatchesOracleAndVerifies) {
  // Fault injection on top of the worker pool: drops, dups, crashes and
  // lease expiries reshuffle which parts go stale when, but every solve
  // is still collected and installed by its own service, so raw
  // equivalence must survive — and the threaded trace must replay clean.
  FaultConfig f;
  f.drop_prob = 0.08;
  f.dup_prob = 0.05;
  f.crash_prob = 0.003;
  f.crash_recovery_s = 25.0;
  f.retx_timeout_s = 1.0;
  f.heartbeat_s = 4.0;
  f.lease_s = 8.0;
  SimConfig base = Config(core::AssignmentMethod::kDualDab, 2, 0);
  base.fault = f;
  SimMetrics oracle_metrics;
  const std::string oracle = RunRendered(base, &oracle_metrics);
  ASSERT_FALSE(oracle.empty());
  SimConfig threaded = base;
  threaded.threads = 3;
  SimMetrics got_metrics;
  const std::string got = RunRendered(threaded, &got_metrics);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got, oracle);
  ExpectMetricsEqual(got_metrics, oracle_metrics, "chaos");

  obs::TraceSink sink;
  threaded.trace = &sink;
  ASSERT_TRUE(RunSimulation(queries_, traces_, rates_, threaded).ok());
  const obs::TraceFile trace = sink.Collect();
  auto check = obs::CheckTrace(trace);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->ok()) << check->ToText(trace);
}

TEST_F(ThreadedDiffTest, ThreadedChurnRunMatchesOracleAndVerifies) {
  // Runtime register / modify / deregister churn on the worker pool:
  // the live query set changes between services, so each service's
  // collect walk has to track plan maintenance exactly.
  workload::ChurnConfig cc;
  cc.arrival_rate = 0.1;
  cc.mean_lifetime_s = 150.0;
  cc.modify_prob = 0.3;
  cc.horizon_s = 500.0;
  cc.num_items = 24;
  auto run = [&](int threads, SimMetrics* out,
                 obs::TraceFile* trace_out) -> std::string {
    Rng churn_rng(7);
    auto schedule =
        workload::GenerateChurnSchedule(cc, traces_.Snapshot(0), &churn_rng);
    EXPECT_TRUE(schedule.ok());
    svc::AdmissionConfig ac;
    svc::QueryService service(ac, std::move(*schedule), nullptr,
                              PlanMaintenance::kIncremental);
    obs::TraceSink sink;
    SimConfig c = Config(core::AssignmentMethod::kDualDab, 2, threads);
    c.service = &service;
    c.trace = &sink;
    auto m = RunSimulation(queries_, traces_, rates_, c);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    if (!m.ok()) return "";
    *out = *m;
    obs::TraceFile trace = sink.Collect();
    if (trace_out != nullptr) *trace_out = trace;
    return obs::TraceToJsonLines(trace);
  };
  SimMetrics oracle_metrics, got_metrics;
  const std::string oracle = run(0, &oracle_metrics, nullptr);
  obs::TraceFile threaded_trace;
  const std::string got = run(3, &got_metrics, &threaded_trace);
  ASSERT_FALSE(oracle.empty());
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got, oracle);
  ExpectMetricsEqual(got_metrics, oracle_metrics, "churn");
  ASSERT_GT(threaded_trace.events.size(), 0u);
  auto check = obs::CheckTrace(threaded_trace);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->ok()) << check->ToText(threaded_trace);
}

TEST_F(ThreadedDiffTest, DefaultConfigKeepsSerialGoldens) {
  // The same pinned values as coord_shard_diff_test's kGolden dual_s3 /
  // optimal_s3 rows (captured from the pre-sharding serial build): the
  // threads field defaulting to 0 must leave the engine bit-identical
  // to every build before the rt layer existed.
  struct Golden {
    core::AssignmentMethod method;
    double mu;
    int64_t refreshes, recomputations, dab_changes, notifications;
    double loss;
  };
  const Golden goldens[] = {
      {core::AssignmentMethod::kDualDab, 5.0, 821, 61, 80, 432,
       0.52104208416833664},
      {core::AssignmentMethod::kOptimalRefresh, 1.0, 756, 3147, 3676, 419,
       0.5410821643286573},
  };
  for (const Golden& g : goldens) {
    SimConfig c = Config(g.method, 1, 0);
    c.planner.dual.mu = g.mu;
    auto m = RunSimulation(queries_, traces_, rates_, c);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->refreshes, g.refreshes);
    EXPECT_EQ(m->recomputations, g.recomputations);
    EXPECT_EQ(m->dab_change_messages, g.dab_changes);
    EXPECT_EQ(m->user_notifications, g.notifications);
    EXPECT_EQ(m->solver_failures, 0);
    EXPECT_EQ(m->mean_fidelity_loss_pct, g.loss);
  }
}

/// A rendered trace names no worker: no `thread` key on any record and
/// no `rt_*` info key.
void ExpectNoThreadVocabulary(const std::string& rendered) {
  EXPECT_EQ(rendered.find("\"thread\""), std::string::npos);
  EXPECT_EQ(rendered.find("\"rt_"), std::string::npos);
}

TEST_F(ThreadedDiffTest, SerialTracesCarryNoThreadVocabulary) {
  SimMetrics ignored;
  const std::string rendered =
      RunRendered(Config(core::AssignmentMethod::kDualDab, 2, 0), &ignored);
  ASSERT_FALSE(rendered.empty());
  ExpectNoThreadVocabulary(rendered);
}

TEST_F(ThreadedDiffTest, ThreadedTracesCarryNoThreadVocabulary) {
  // Workers only solve; the event loop emits every record, so nothing in
  // a threaded trace can say which worker ran what.
  for (core::AssignmentMethod method :
       {core::AssignmentMethod::kDualDab,
        core::AssignmentMethod::kOptimalRefresh}) {
    SCOPED_TRACE(core::Name(method));
    SimMetrics ignored;
    const std::string rendered = RunRendered(Config(method, 2, 3), &ignored);
    ASSERT_FALSE(rendered.empty());
    ExpectNoThreadVocabulary(rendered);
  }
}

TEST_F(ThreadedDiffTest, ThreadedSeriesMatchesOracle) {
  // The series recorder folds the raw emission order, which a threaded
  // run shares with the oracle: the series JSONL (breakdown rows and
  // registry samples included) and every alert must be byte-identical.
  std::vector<obs::SloRule> rules;
  {
    auto parsed = obs::ParseSloRules(
        "sim.coordinator.recomputations > 2 for 2",
        obs::SeriesMetricNames());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    rules = *parsed;
  }
  auto run = [&](int threads, std::string* trace_text) -> std::string {
    obs::MetricRegistry registry;
    obs::SeriesConfig sc;
    sc.window_ticks = 25;
    sc.breakdown = true;
    sc.rules = rules;
    sc.registry = &registry;
    obs::SeriesRecorder recorder(sc);
    obs::TraceSink sink;
    SimConfig c = Config(core::AssignmentMethod::kOptimalRefresh, 1, threads);
    c.registry = &registry;
    c.trace = &sink;
    c.series = &recorder;
    auto m = RunSimulation(queries_, traces_, rates_, c);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    if (!m.ok()) return "";
    *trace_text = obs::TraceToJsonLines(sink.Collect());
    return obs::SeriesToJsonLines(recorder.file());
  };
  std::string oracle_trace, got_trace;
  const std::string oracle = run(0, &oracle_trace);
  const std::string got = run(3, &got_trace);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(got, oracle);
  EXPECT_EQ(got_trace, oracle_trace);
  // The rule must actually fire, or the alert comparison proves nothing.
  EXPECT_NE(oracle_trace.find("\"alert_fire\""), std::string::npos);
}

TEST_F(ThreadedDiffTest, WorkerAbortFailsTheRunWithTheInjectedError) {
  SimConfig c = Config(core::AssignmentMethod::kOptimalRefresh, 2, 2);
  c.rt_fail_at = 1;
  auto m = RunSimulation(queries_, traces_, rates_, c);
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.status().ToString().find("abort"), std::string::npos)
      << m.status().ToString();
}

TEST_F(ThreadedDiffTest, InvalidThreadConfigsAreRejected) {
  {
    SimConfig c = Config(core::AssignmentMethod::kDualDab, 1, -1);
    EXPECT_FALSE(RunSimulation(queries_, traces_, rates_, c).ok());
  }
  {
    SimConfig c = Config(core::AssignmentMethod::kDualDab, 1, 2);
    c.rt_queue_cap = 0;
    EXPECT_FALSE(RunSimulation(queries_, traces_, rates_, c).ok());
  }
}

}  // namespace
}  // namespace polydab::sim
