// stencil::watch — live performance layer tests: estimator convergence and
// quantile error bounds, congestion-incident hysteresis (true positive and
// no-false-positive), windowed-floor cost oracle behavior, snapshot
// determinism across identical seeded runs, and the live-cost feedback
// paths into sched placement and recover_replace.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "sched/sched.h"
#include "topo/archetype.h"
#include "watch/estimator.h"
#include "watch/watch.h"

using stencil::Cluster;
using stencil::Dim3;
using stencil::DistributedDomain;
using stencil::RankCtx;
using stencil::watch::Ewma;
using stencil::watch::Incident;
using stencil::watch::P2Quantile;
using stencil::watch::Watch;
using stencil::watch::WireClass;
namespace topo = stencil::topo;
namespace sched = stencil::sched;

namespace {

// Deterministic LCG (no wall clock, no std::random_device) for sample
// streams with a known distribution.
struct Lcg {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  }
  double uniform() { return static_cast<double>(next() % 1000000) / 1000000.0; }
};

/// Feed one synthetic message on an internode host lane: `pb` ns/byte of
/// wire occupancy with no queueing (ready == span.start).
void feed(Watch& w, int src_node, int dst_node, std::uint64_t bytes, double pb,
          stencil::sim::Time at = 0) {
  const auto dur = static_cast<stencil::sim::Time>(pb * static_cast<double>(bytes));
  w.on_message(/*src_rank=*/src_node, /*dst_rank=*/dst_node, src_node, dst_node,
               /*device=*/false, bytes, at, {at, at + dur});
}

}  // namespace

// --- estimators -------------------------------------------------------------

TEST(Estimator, EwmaConvergesToConstantAndTracksStep) {
  Ewma e(0.25);
  EXPECT_TRUE(e.empty());
  for (int i = 0; i < 10; ++i) e.observe(5.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);  // first sample seeds, constant stays exact
  for (int i = 0; i < 64; ++i) e.observe(9.0);
  EXPECT_NEAR(e.value(), 9.0, 1e-6);  // geometric convergence to the new level
  EXPECT_EQ(e.count(), 74u);
}

TEST(Estimator, P2QuantileExactBelowFiveSamples) {
  P2Quantile q(0.95);
  q.observe(3.0);
  EXPECT_DOUBLE_EQ(q.value(), 3.0);
  q.observe(1.0);
  q.observe(2.0);
  q.observe(4.0);
  // Nearest-rank p95 of {1,2,3,4} is the max.
  EXPECT_DOUBLE_EQ(q.value(), 4.0);
  EXPECT_EQ(q.count(), 4u);
  q.reset();
  EXPECT_EQ(q.count(), 0u);
  EXPECT_DOUBLE_EQ(q.value(), 0.0);
}

TEST(Estimator, P2QuantileSmallWindowNearestRank) {
  // Exact nearest-rank (rank ceil(q*n)) below five samples: a truncating
  // index would return the max for the median of two — the small-window
  // regression this pins down.
  P2Quantile med(0.5);
  med.observe(10.0);
  med.observe(2.0);
  EXPECT_DOUBLE_EQ(med.value(), 2.0);  // rank ceil(0.5*2) = 1 -> the min
  med.observe(6.0);
  EXPECT_DOUBLE_EQ(med.value(), 6.0);  // rank ceil(1.5) = 2 of {2,6,10}
  med.observe(8.0);
  EXPECT_DOUBLE_EQ(med.value(), 6.0);  // rank ceil(2) = 2 of {2,6,8,10}

  P2Quantile p25(0.25);
  p25.observe(4.0);
  p25.observe(1.0);
  p25.observe(3.0);
  p25.observe(2.0);
  EXPECT_DOUBLE_EQ(p25.value(), 1.0);  // rank ceil(1) = 1 of {1,2,3,4}

  // q=0 degenerates to the minimum, and a p95 over four samples still
  // lands on the max (rank ceil(3.8) = 4).
  P2Quantile q0(0.0);
  q0.observe(5.0);
  q0.observe(-1.0);
  EXPECT_DOUBLE_EQ(q0.value(), -1.0);
  P2Quantile p95(0.95);
  for (const double v : {7.0, 5.0, 9.0, 6.0}) p95.observe(v);
  EXPECT_DOUBLE_EQ(p95.value(), 9.0);
}

TEST(Estimator, P2QuantileUniformErrorBound) {
  P2Quantile q(0.95);
  Lcg rng;
  for (int i = 0; i < 5000; ++i) q.observe(rng.uniform() * 1000.0);
  // True p95 of U(0, 1000) is 950; the 5-marker sketch should land within
  // a few percent at this sample count.
  EXPECT_NEAR(q.value(), 950.0, 30.0);
}

TEST(Estimator, P2QuantileMedianOfLinearRamp) {
  P2Quantile q(0.5);
  for (int i = 1; i <= 1001; ++i) q.observe(static_cast<double>(i));
  EXPECT_NEAR(q.value(), 501.0, 10.0);
}

// --- congestion incidents ---------------------------------------------------

TEST(Congestion, OpensAfterStreakAndClosesAfterClears) {
  Watch w;
  w.configure(/*num_nodes=*/2, /*world_size=*/4);
  const std::uint64_t bytes = 8192;
  // Teach the floor: two healthy messages make the bucket eligible to vote.
  feed(w, 0, 1, bytes, 1.0);
  feed(w, 0, 1, bytes, 1.0);
  // Breaches below the open_after streak must not open.
  feed(w, 0, 1, bytes, 2.5);  // stretch 1.5 > congestion_stretch 1.0
  feed(w, 0, 1, bytes, 2.5);
  EXPECT_EQ(w.incidents_opened(), 0u);
  feed(w, 0, 1, bytes, 2.5);  // third consecutive breach: open
  EXPECT_EQ(w.incidents_opened(), 1u);
  EXPECT_EQ(w.incidents_of(Incident::Kind::kCongestedLink), 1u);
  EXPECT_EQ(w.open_incidents(), 1);
  ASSERT_EQ(w.incidents().size(), 1u);
  EXPECT_EQ(w.incidents().front().subject, "link n0->n1 host-inter");
  EXPECT_EQ(w.incidents().front().closed, 0);
  // Still open until close_after consecutive clears.
  feed(w, 0, 1, bytes, 1.0);
  feed(w, 0, 1, bytes, 1.0);
  feed(w, 0, 1, bytes, 1.0);
  EXPECT_EQ(w.open_incidents(), 1);
  feed(w, 0, 1, bytes, 1.0);  // fourth clear: close
  EXPECT_EQ(w.open_incidents(), 0);
  EXPECT_NE(w.incidents().front().closed, 0);
  EXPECT_EQ(w.incidents_opened(), 1u);  // close does not re-count
}

TEST(Congestion, NoFalsePositiveOnCleanOrSubThresholdTraffic) {
  Watch w;
  w.configure(2, 4);
  const std::uint64_t bytes = 8192;
  feed(w, 0, 1, bytes, 1.0);
  // Jitter below the stretch threshold never opens, however long it lasts.
  for (int i = 0; i < 50; ++i) feed(w, 0, 1, bytes, 1.8);  // stretch 0.8 < 1.0
  // Small messages are latency-dominated and must not vote at any stretch.
  for (int i = 0; i < 50; ++i) feed(w, 0, 1, 512, 40.0);
  EXPECT_EQ(w.incidents_opened(), 0u);
  EXPECT_EQ(w.open_incidents(), 0);
}

TEST(Congestion, InterruptedStreakDoesNotOpen) {
  Watch w;
  w.configure(2, 4);
  const std::uint64_t bytes = 8192;
  feed(w, 0, 1, bytes, 1.0);
  feed(w, 0, 1, bytes, 1.0);
  // breach, breach, clear, breach, breach, clear, ... never reaches 3.
  for (int round = 0; round < 10; ++round) {
    feed(w, 0, 1, bytes, 2.5);
    feed(w, 0, 1, bytes, 2.5);
    feed(w, 0, 1, bytes, 1.0);
  }
  EXPECT_EQ(w.incidents_opened(), 0u);
}

// --- windowed-floor cost oracle ---------------------------------------------

TEST(Oracle, WindowedFloorTracksMidLifeDegradation) {
  Watch w;
  w.configure(3, 6);
  const std::uint64_t bytes = 8192;
  // Healthy calibration window on every internode lane.
  for (int s = 0; s < 3; ++s)
    for (int d = 0; d < 3; ++d)
      if (s != d)
        for (int i = 0; i < 3; ++i) feed(w, s, d, bytes, 1.0);
  EXPECT_DOUBLE_EQ(w.live_link_cost_factor(0, 1), 1.0);
  w.publish();
  EXPECT_EQ(w.publish_epoch(), 1u);
  EXPECT_DOUBLE_EQ(w.node_cost_factor(0), 1.0);

  // New window: node 0's wires now cost 4x. The lifetime floor would still
  // remember the healthy past; the windowed floor must not.
  w.clear_window();
  for (int other : {1, 2})
    for (int i = 0; i < 3; ++i) {
      feed(w, 0, other, bytes, 4.0);
      feed(w, other, 0, bytes, 4.0);
    }
  for (int i = 0; i < 3; ++i) {
    feed(w, 1, 2, bytes, 1.0);
    feed(w, 2, 1, bytes, 1.0);
  }
  EXPECT_NEAR(w.live_link_cost_factor(0, 1), 4.0, 1e-9);
  EXPECT_NEAR(w.live_link_cost_factor(1, 0), 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(w.live_link_cost_factor(1, 2), 1.0);
  // Published view is stable until the next publish.
  EXPECT_DOUBLE_EQ(w.node_cost_factor(0), 1.0);
  w.publish();
  EXPECT_GT(w.node_cost_factor(0), w.node_cost_factor(1));
  EXPECT_NEAR(w.link_cost_factor(0, 2), 4.0, 1e-9);
}

TEST(Oracle, DeadbandSnapsHealthyJitterToExactlyOne) {
  Watch w;
  w.configure(2, 4);
  const std::uint64_t bytes = 8192;
  feed(w, 0, 1, bytes, 1.0);  // class floor
  w.clear_window();
  feed(w, 0, 1, bytes, 1.2);  // 20% above floor: inside the 25% dead-band
  EXPECT_DOUBLE_EQ(w.live_link_cost_factor(0, 1), 1.0);
  w.clear_window();
  feed(w, 0, 1, bytes, 1.3);  // 30% above floor: outside
  // Span durations are integer nanoseconds, so the factor is 1.3 +- one
  // truncated ns over 8192 bytes.
  EXPECT_NEAR(w.live_link_cost_factor(0, 1), 1.3, 1e-3);
}

TEST(Oracle, UnpublishedAndOutOfRangeFactorsAreNeutral) {
  Watch w;
  w.configure(2, 4);
  EXPECT_DOUBLE_EQ(w.node_cost_factor(0), 1.0);   // nothing published yet
  EXPECT_DOUBLE_EQ(w.link_cost_factor(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(w.node_cost_factor(-1), 1.0);
  EXPECT_DOUBLE_EQ(w.link_cost_factor(7, 9), 1.0);
  EXPECT_DOUBLE_EQ(w.live_link_cost_factor(0, 0), 1.0);  // intra-node
}

// --- tenant windows ---------------------------------------------------------

TEST(TenantWindow, ExchangeGroupsDropWarmupAndTrackPerIterationMax) {
  Watch w;
  w.configure(2, 4);
  w.set_tenant_map({0, 0, -1, -1}, 1);
  using stencil::sim::kMillisecond;
  // Three iteration groups; the first (plan compile + admission) is warm-up.
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    w.on_exchange_complete(0, seq, 2 * kMillisecond, 0);
    w.on_exchange_complete(1, seq, (seq == 1 ? 5 : 3) * kMillisecond, 0);
  }
  const Watch::TenantWindow tw = w.tenant_window(0);
  EXPECT_EQ(tw.exchanges, 2u);  // groups 1 and 2; group 0 dropped
  // Nearest-rank p95 of {5, 3} is the max of the kept groups.
  EXPECT_DOUBLE_EQ(tw.exch_p95.value(), 5.0);
  EXPECT_DOUBLE_EQ(w.tenant_window(7).exch_p95.value(), 0.0);  // unknown tenant
}

// --- determinism ------------------------------------------------------------

namespace {

std::string watched_run_snapshot() {
  stencil::watch::Watch live;
  Cluster cluster(topo::summit(), 2, 2);
  cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
  cluster.set_watch(&live);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {48, 48, 48});
    dd.set_radius(1);
    dd.add_data<float>("q0");
    dd.realize();
    for (int it = 0; it < 3; ++it) {
      ctx.comm.barrier();
      dd.exchange();
    }
  });
  live.publish();
  std::ostringstream os;
  live.write_snapshot_json(os);
  return os.str();
}

}  // namespace

TEST(Determinism, IdenticalRunsProduceIdenticalSnapshots) {
  const std::string a = watched_run_snapshot();
  const std::string b = watched_run_snapshot();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\": \"watch-v1\""), std::string::npos);
}

// --- feedback paths ---------------------------------------------------------

namespace {

/// Teach an attached watch a published `penalty`x cost on every wire
/// touching `bad_node` of a `nodes`-node machine (synthetic samples: the
/// oracle only sees per-message costs, so taught and measured state are
/// equivalent).
void teach_degraded_node(Watch& w, int nodes, int bad_node, double penalty) {
  const std::uint64_t bytes = 8192;
  for (int s = 0; s < nodes; ++s)
    for (int d = 0; d < nodes; ++d) {
      if (s == d) continue;
      const double pb = (s == bad_node || d == bad_node) ? penalty : 1.0;
      for (int i = 0; i < 3; ++i) feed(w, s, d, bytes, pb);
    }
  w.publish();
}

/// What the cluster knows of its wire costs when placement or recovery
/// reads them.
enum class Costs { kNoWatch, kUnpublished, kHealthy, kDegraded };

/// Attach `live` to a 3-node cluster and teach it what `costs` describes.
void attach_costs(Cluster& cluster, Watch& live, Costs costs) {
  if (costs == Costs::kNoWatch) return;
  cluster.set_watch(&live);
  // Healthy: node 0's wires 20% slow, jitter inside the cost dead-band.
  if (costs == Costs::kHealthy) teach_degraded_node(live, 3, /*bad_node=*/0, 1.2);
  if (costs == Costs::kDegraded) teach_degraded_node(live, 3, /*bad_node=*/0, 4.0);
}

/// Nodes kNodeAware placement picks for one 6-GPU job (exactly one node of
/// the three).
std::vector<int> probe_nodes(Costs costs) {
  Watch live;
  Cluster cluster(topo::summit(), 3, 6);
  cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
  attach_costs(cluster, live, costs);
  sched::Scheduler::Options opt;
  opt.place = sched::PlacePolicy::kNodeAware;
  sched::Scheduler scheduler(cluster, opt);
  sched::JobSpec s;
  s.name = "probe";
  s.user = "test";
  s.gpus = 6;
  s.domain = {48, 48, 48};
  s.radius = 1;
  s.quantities = 1;
  s.iterations = 2;
  scheduler.submit(s);
  const sched::RunReport rep = scheduler.run();
  EXPECT_EQ(rep.tenants.size(), 1u);
  return rep.tenants.front().nodes;
}

/// GPUs recover_replace adopts the orphans of rank 17 (the last rank of
/// node 2) onto. Every survivor computes the same greedy adoption, so rank
/// 0's answer is the placement.
std::vector<int> adopters(Costs costs) {
  Watch live;
  Cluster cluster(topo::summit(), 3, 6);
  cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
  attach_costs(cluster, live, costs);
  std::vector<int> new_gpus;
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {48, 48, 48});
    dd.set_radius(1);
    dd.add_data<float>("q0");
    dd.realize();
    if (ctx.rank() != 0) return;
    for (const auto& rh : dd.recover_replace({17})) new_gpus.push_back(rh.new_gpu);
  });
  return new_gpus;
}

}  // namespace

TEST(Feedback, SchedPlacementRoutesAroundDegradedNodeUnderLiveCosts) {
  const std::vector<int> static_nodes = probe_nodes(Costs::kNoWatch);
  const std::vector<int> live_nodes = probe_nodes(Costs::kDegraded);
  // Static node-aware ties break by node id and land on the degraded node 0;
  // live costs read the published 4x factor and route around it.
  ASSERT_EQ(static_nodes.size(), 1u);
  ASSERT_EQ(live_nodes.size(), 1u);
  EXPECT_EQ(static_nodes.front(), 0);
  EXPECT_NE(live_nodes.front(), 0);
}

TEST(Feedback, RecoverReplaceAvoidsDegradedNodeUnderLiveCosts) {
  const std::vector<int> static_gpus = adopters(Costs::kNoWatch);
  const std::vector<int> live_gpus = adopters(Costs::kDegraded);
  ASSERT_FALSE(static_gpus.empty());
  ASSERT_FALSE(live_gpus.empty());
  // 6 GPUs per node on this shape: node = gpu / 6. The static tie-break
  // adopts onto the lowest GPU ids (node 0); the live bias makes node 0's
  // GPUs look loaded and pushes the orphans onto healthy nodes.
  bool static_hits_bad = false;
  for (const int g : static_gpus) static_hits_bad = static_hits_bad || g / 6 == 0;
  EXPECT_TRUE(static_hits_bad);
  for (const int g : live_gpus) {
    EXPECT_NE(g / 6, 0) << "orphan adopted onto degraded node 0 (gpu " << g << ")";
  }
}

// An attached watch is the only switch for live costs, so it must be neutral
// until it has something to say: never published, or published on a healthy
// machine (jitter inside the dead-band publishes every factor as exactly 1),
// placement and adoption are the static policy's.
TEST(Feedback, LiveCostsNeutralUntilPublished) {
  const std::vector<int> static_nodes = probe_nodes(Costs::kNoWatch);
  const std::vector<int> static_gpus = adopters(Costs::kNoWatch);
  ASSERT_FALSE(static_gpus.empty());
  for (const Costs c : {Costs::kUnpublished, Costs::kHealthy}) {
    SCOPED_TRACE(c == Costs::kUnpublished ? "unpublished" : "healthy");
    EXPECT_EQ(probe_nodes(c), static_nodes);
    EXPECT_EQ(adopters(c), static_gpus);
  }
}
