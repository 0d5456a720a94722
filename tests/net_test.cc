#include <gtest/gtest.h>

#include "net/dissemination.h"
#include "net/relay.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"

namespace polydab::net {
namespace {

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    workload::TraceSetConfig tc;
    tc.num_items = 16;
    tc.num_ticks = 400;
    traces_ = *workload::GenerateTraceSet(tc, &rng);
    rates_ = *workload::EstimateRates(traces_, 60);

    workload::QueryGenConfig qc;
    qc.num_items = 16;
    qc.min_pairs = 2;
    qc.max_pairs = 2;
    queries_ = *workload::GeneratePortfolioQueries(12, qc,
                                                   traces_.Snapshot(0), &rng);
  }

  workload::TraceSet traces_;
  Vector rates_;
  std::vector<PolynomialQuery> queries_;
};

TEST_F(NetTest, MetricsSumAcrossCoordinators) {
  DisseminationConfig dc;
  dc.num_coordinators = 4;
  dc.sim.planner.method = core::AssignmentMethod::kDualDab;
  dc.sim.planner.dual.mu = 5.0;
  auto m = RunDissemination(queries_, traces_, rates_, dc);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  int64_t refreshes = 0, recomps = 0;
  for (const auto& pc : m->per_coordinator) {
    refreshes += pc.refreshes;
    recomps += pc.recomputations;
  }
  EXPECT_EQ(m->total.refreshes, refreshes);
  EXPECT_EQ(m->total.recomputations, recomps);
  EXPECT_GT(m->total.refreshes, 0);
}

TEST_F(NetTest, EveryCoordinatorGetsQueries) {
  DisseminationConfig dc;
  dc.num_coordinators = 4;
  auto m = RunDissemination(queries_, traces_, rates_, dc);
  ASSERT_TRUE(m.ok());
  for (const auto& pc : m->per_coordinator) {
    EXPECT_GT(pc.refreshes, 0);  // 12 queries over 4 coordinators: 3 each
  }
}

TEST_F(NetTest, MoreCoordinatorsThanQueriesIsFine) {
  DisseminationConfig dc;
  dc.num_coordinators = 20;  // more than the 12 queries
  auto m = RunDissemination(queries_, traces_, rates_, dc);
  ASSERT_TRUE(m.ok());
  EXPECT_GT(m->total.refreshes, 0);
}

TEST_F(NetTest, DualDabBeatsOptimalRefreshOnOverlayToo) {
  DisseminationConfig dual;
  dual.num_coordinators = 4;
  dual.sim.planner.method = core::AssignmentMethod::kDualDab;
  dual.sim.planner.dual.mu = 5.0;
  DisseminationConfig opt = dual;
  opt.sim.planner.method = core::AssignmentMethod::kOptimalRefresh;
  auto md = RunDissemination(queries_, traces_, rates_, dual);
  auto mo = RunDissemination(queries_, traces_, rates_, opt);
  ASSERT_TRUE(md.ok());
  ASSERT_TRUE(mo.ok());
  EXPECT_LT(md->total.recomputations, mo->total.recomputations);
}

TEST_F(NetTest, RejectsBadConfig) {
  DisseminationConfig dc;
  dc.num_coordinators = 0;
  EXPECT_FALSE(RunDissemination(queries_, traces_, rates_, dc).ok());
  dc.num_coordinators = 2;
  dc.fanout = 0;
  EXPECT_FALSE(RunDissemination(queries_, traces_, rates_, dc).ok());
}


TEST_F(NetTest, RelayOverlayZeroDelayKeepsFidelity) {
  RelayConfig rc;
  rc.num_coordinators = 4;
  rc.planner.method = core::AssignmentMethod::kDualDab;
  rc.planner.dual.mu = 5.0;
  rc.delays.zero_delay = true;
  auto m = RunRelayOverlay(queries_, traces_, rates_, rc);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_NEAR(m->mean_fidelity_loss_pct, 0.0, 1e-9);
  EXPECT_GT(m->refreshes, 0);
}

TEST_F(NetTest, RelayForwardsOnlyWhatSubtreesNeed) {
  RelayConfig one;
  one.num_coordinators = 1;
  one.planner.dual.mu = 5.0;
  auto m1 = RunRelayOverlay(queries_, traces_, rates_, one);
  ASSERT_TRUE(m1.ok());

  // The same queries spread over 4 nodes: spreading adds relay hops, so
  // total arrivals can only grow.
  RelayConfig four = one;
  four.num_coordinators = 4;
  auto m4 = RunRelayOverlay(queries_, traces_, rates_, four);
  ASSERT_TRUE(m4.ok());
  EXPECT_GE(m4->refreshes, m1->refreshes);
}

TEST_F(NetTest, RelayDualBeatsOptimalRefreshOnRecomputations) {
  RelayConfig dual;
  dual.num_coordinators = 4;
  dual.planner.method = core::AssignmentMethod::kDualDab;
  dual.planner.dual.mu = 5.0;
  RelayConfig opt = dual;
  opt.planner.method = core::AssignmentMethod::kOptimalRefresh;
  auto md = RunRelayOverlay(queries_, traces_, rates_, dual);
  auto mo = RunRelayOverlay(queries_, traces_, rates_, opt);
  ASSERT_TRUE(md.ok());
  ASSERT_TRUE(mo.ok());
  EXPECT_LT(md->recomputations, mo->recomputations);
}

/// The replan record is emitted by the caller of core::ReplanPart (the
/// relay loop, the simulator's install walk), exactly once per refresh
/// recomputation; these runs have no AAO solves.
void ExpectOneReplanPerRecompute(const obs::TraceFile& trace) {
  int64_t replans = 0;
  int64_t starts = 0;
  for (const obs::TraceEvent& e : trace.events) {
    if (e.kind == obs::TraceEventKind::kPlannerReplan) ++replans;
    if (e.kind == obs::TraceEventKind::kRecomputeStart) ++starts;
  }
  EXPECT_GT(starts, 0);
  EXPECT_EQ(replans, starts);
}

TEST_F(NetTest, RelayTraceReplayVerifies) {
  // The overlay's causal trace must satisfy the offline verifier's
  // invariants, and the replayed totals must match RelayMetrics exactly.
  RelayConfig rc;
  rc.num_coordinators = 4;
  rc.planner.method = core::AssignmentMethod::kDualDab;
  rc.planner.dual.mu = 5.0;
  obs::TraceSink sink;
  rc.trace = &sink;
  auto m = RunRelayOverlay(queries_, traces_, rates_, rc);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  const obs::TraceFile trace = sink.Collect();
  ASSERT_EQ(trace.summaries.size(), 1u);
  ExpectOneReplanPerRecompute(trace);
  auto report = obs::CheckTrace(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText(trace);
  ASSERT_EQ(report->derived.size(), 1u);
  EXPECT_EQ(report->derived[0].refreshes, m->refreshes);
  EXPECT_EQ(report->derived[0].recomputations, m->recomputations);
  EXPECT_EQ(report->derived[0].dab_change_messages, m->dab_change_messages);
  EXPECT_EQ(report->derived[0].solver_failures, m->solver_failures);
  EXPECT_EQ(report->derived[0].mean_fidelity_loss_pct,
            m->mean_fidelity_loss_pct);
}

TEST_F(NetTest, DisseminationTraceHasOneSummaryPerCoordinator) {
  // Sequential per-coordinator runs share one sink; node tags keep the
  // interleaved streams separable and each coordinator self-validates.
  DisseminationConfig dc;
  dc.num_coordinators = 3;
  dc.sim.planner.method = core::AssignmentMethod::kDualDab;
  dc.sim.planner.dual.mu = 5.0;
  obs::TraceSink sink;
  dc.sim.trace = &sink;
  auto m = RunDissemination(queries_, traces_, rates_, dc);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  const obs::TraceFile trace = sink.Collect();
  ASSERT_EQ(trace.summaries.size(), 3u);
  ExpectOneReplanPerRecompute(trace);
  auto report = obs::CheckTrace(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText(trace);
  ASSERT_EQ(report->derived.size(), 3u);
  for (size_t c = 0; c < 3; ++c) {
    const sim::SimMetrics& pc = m->per_coordinator[c];
    EXPECT_EQ(report->derived[c].refreshes, pc.refreshes) << c;
    EXPECT_EQ(report->derived[c].recomputations, pc.recomputations) << c;
    EXPECT_EQ(report->derived[c].dab_change_messages,
              pc.dab_change_messages)
        << c;
  }
}

TEST_F(NetTest, ShardedDisseminationTraceReplayVerifies) {
  // Each coordinator runs its own sharded lane set; the shared trace then
  // interleaves several nodes' lane streams, and the verifier's per-lane
  // and cross-shard checks must hold per node.
  DisseminationConfig dc;
  dc.num_coordinators = 3;
  dc.sim.planner.method = core::AssignmentMethod::kDualDab;
  dc.sim.planner.dual.mu = 5.0;
  dc.sim.coord_shards = 2;
  dc.sim.shard_policy = sim::ShardPolicy::kQueryHash;
  obs::TraceSink sink;
  dc.sim.trace = &sink;
  auto m = RunDissemination(queries_, traces_, rates_, dc);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  const obs::TraceFile trace = sink.Collect();
  ExpectOneReplanPerRecompute(trace);
  auto report = obs::CheckTrace(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText(trace);
  int64_t notifications = 0;
  for (const auto& pc : m->per_coordinator) {
    notifications += pc.user_notifications;
  }
  EXPECT_EQ(m->total.user_notifications, notifications);
  EXPECT_GT(notifications, 0);
}

TEST_F(NetTest, RelayAgreesWithApproximationOnOrdering) {
  // The fast depth-delay approximation (dissemination.h) and the faithful
  // relay must agree on the scheme ordering it is used to measure.
  DisseminationConfig dc;
  dc.num_coordinators = 4;
  dc.sim.planner.dual.mu = 5.0;
  RelayConfig rc;
  rc.num_coordinators = 4;
  rc.planner.dual.mu = 5.0;

  dc.sim.planner.method = core::AssignmentMethod::kDualDab;
  rc.planner.method = core::AssignmentMethod::kDualDab;
  auto approx_dual = RunDissemination(queries_, traces_, rates_, dc);
  auto relay_dual = RunRelayOverlay(queries_, traces_, rates_, rc);
  dc.sim.planner.method = core::AssignmentMethod::kOptimalRefresh;
  rc.planner.method = core::AssignmentMethod::kOptimalRefresh;
  auto approx_opt = RunDissemination(queries_, traces_, rates_, dc);
  auto relay_opt = RunRelayOverlay(queries_, traces_, rates_, rc);
  ASSERT_TRUE(approx_dual.ok() && relay_dual.ok() && approx_opt.ok() &&
              relay_opt.ok());
  EXPECT_LT(approx_dual->total.recomputations,
            approx_opt->total.recomputations);
  EXPECT_LT(relay_dual->recomputations, relay_opt->recomputations);
}

TEST_F(NetTest, RelayRejectsBadConfig) {
  RelayConfig rc;
  rc.num_coordinators = 0;
  EXPECT_FALSE(RunRelayOverlay(queries_, traces_, rates_, rc).ok());
  rc.num_coordinators = 2;
  rc.fanout = 0;
  EXPECT_FALSE(RunRelayOverlay(queries_, traces_, rates_, rc).ok());
  rc.fanout = 2;
  EXPECT_FALSE(RunRelayOverlay({}, traces_, rates_, rc).ok());
}

}  // namespace
}  // namespace polydab::net
