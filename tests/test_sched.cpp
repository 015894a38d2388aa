// stencil::sched — multi-tenant scheduler tests: tenant slicing, admission /
// queueing / rejection, placement policies, backfill, fair-share vs strict
// priority, co-tenant data correctness (bit-exact vs solo), checker and
// cross-tenant verifier cleanliness, and tenant-labeled tracing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "check/checker.h"
#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "core/tenant.h"
#include "halo_oracle.h"
#include "sched/sched.h"
#include "topo/archetype.h"
#include "trace/recorder.h"

using stencil::Boundary;
using stencil::Cluster;
using stencil::Dim3;
using stencil::DistributedDomain;
using stencil::LocalDomain;
using stencil::MethodFlags;
using stencil::Neighborhood;
using stencil::RankCtx;
using stencil::core::TenantView;
using stencil::sched::Admission;
using stencil::sched::Capacity;
using stencil::sched::JobSpec;
using stencil::sched::JobState;
using stencil::sched::MachineState;
using stencil::sched::PlacePolicy;
using stencil::sched::RunReport;
using stencil::sched::Scheduler;
using stencil::sched::SchedPolicy;
using stencil::sched::TenantReport;
using namespace stencil::halo_oracle;

namespace {

JobSpec small_job(const std::string& name, const std::string& user, int gpus,
                  Dim3 domain = {48, 48, 48}) {
  JobSpec s;
  s.name = name;
  s.user = user;
  s.gpus = gpus;
  s.domain = domain;
  s.radius = 1;
  s.quantities = 1;
  s.iterations = 2;
  return s;
}

}  // namespace

TEST(SchedShapes, FactorizationsWithinMachine) {
  // 12 ranks on a 4x6 machine: c in {6,4,3,2,1} with k=12/c <= 4.
  const auto s = Scheduler::shapes(12, 4, 6);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], std::make_pair(2, 6));
  EXPECT_EQ(s[1], std::make_pair(3, 4));
  EXPECT_EQ(s[2], std::make_pair(4, 3));
  EXPECT_TRUE(Scheduler::shapes(7, 4, 6).empty());  // 7 = 7x1 needs 7 nodes
  EXPECT_EQ(Scheduler::shapes(1, 1, 1).size(), 1u);
}

TEST(SchedAdmission, RejectsNeverFitsAtSubmit) {
  Cluster cluster(stencil::topo::summit(), 2, 6);
  Scheduler sched(cluster);
  const int too_big = sched.submit(small_job("huge", "u", 13));  // 13 > 12 slots
  EXPECT_EQ(sched.state(too_big), JobState::kRejected);
  EXPECT_FALSE(sched.reject_reason(too_big).empty());
  const int bad = sched.submit([] {
    JobSpec s;
    s.gpus = 0;
    return s;
  }());
  EXPECT_EQ(sched.state(bad), JobState::kRejected);
  const int ok = sched.submit(small_job("fits", "u", 12));
  EXPECT_EQ(sched.state(ok), JobState::kQueued);
  EXPECT_EQ(sched.queued(), 1u);
}

TEST(SchedAdmission, LinkBudgetQueuesJob) {
  Cluster cluster(stencil::topo::summit(), 4, 6);
  Scheduler::Options opt;
  opt.capacity.link_bytes_per_node = 1;  // any internode traffic busts the budget
  Scheduler sched(cluster, opt);
  // 24 GPUs forces a multi-node shape whose per-node NIC load exceeds 1 byte.
  const int id = sched.submit(small_job("wide", "u", 24, {96, 96, 96}));
  EXPECT_EQ(sched.state(id), JobState::kRejected);
  // A single-vnode job has zero NIC load and passes the same budget.
  Scheduler sched2(cluster, opt);
  EXPECT_EQ(sched2.state(sched2.submit(small_job("narrow", "u", 6))), JobState::kQueued);
}

TEST(SchedPlacement, TenantViewInvariantsHold) {
  Cluster cluster(stencil::topo::summit(), 4, 6);
  Scheduler sched(cluster);
  MachineState ms;
  ms.used.assign(4, 0);
  ms.link.assign(4, 0);
  ms.pinned.assign(4, 0);
  const auto adm = sched.try_place(small_job("t", "u", 8), ms, PlacePolicy::kNodeAware);
  ASSERT_TRUE(adm.has_value());
  TenantView v = adm->view;
  v.id = 3;
  EXPECT_NO_THROW(v.validate());
  EXPECT_EQ(v.world_size(), 8);
  EXPECT_EQ(static_cast<int>(adm->world_ranks.size()), 8);
  // Dense vnode-major member list maps back onto the slice.
  for (std::size_t m = 0; m < adm->world_ranks.size(); ++m) {
    const int wr = adm->world_ranks[m];
    const int vnode = static_cast<int>(m) / v.ranks_per_vnode;
    EXPECT_EQ(wr / 6, v.phys_node(vnode));  // rank slot lives on the vnode's node
  }
}

TEST(SchedPlacement, PackedFillsFragmentsSpreadFansOut) {
  Cluster cluster(stencil::topo::summit(), 4, 6);
  Scheduler sched(cluster);
  MachineState ms;
  ms.used.assign(4, 0);
  ms.link.assign(4, 0);
  ms.pinned.assign(4, 0);

  // First job (4 slots): packed takes one node, most-loaded-first = node 0.
  const auto t0 = sched.try_place(small_job("t0", "u", 4), ms, PlacePolicy::kPacked);
  ASSERT_TRUE(t0.has_value());
  EXPECT_EQ(t0->vnodes, 1);
  EXPECT_EQ(t0->nodes, std::vector<int>{0});
  ms.used[0] += 4;

  // Second job: the 2-slot fragment on node 0 caps the preferred vnode
  // width, so packed goes 2x2 across nodes 0 and 1 instead of opening a
  // fresh whole node.
  const auto t1 = sched.try_place(small_job("t1", "u", 4), ms, PlacePolicy::kPacked);
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->vnodes, 2);
  EXPECT_EQ(t1->ranks_per_vnode, 2);
  EXPECT_EQ(t1->nodes, (std::vector<int>{0, 1}));
  EXPECT_EQ(t1->slot_base, (std::vector<int>{4, 0}));
  EXPECT_GT(t1->internode_bytes, 0u);

  // Spread always fans out to the widest feasible shape.
  const auto sp = sched.try_place(small_job("sp", "u", 4), ms, PlacePolicy::kSpread);
  ASSERT_TRUE(sp.has_value());
  EXPECT_EQ(sp->vnodes, 4);
  EXPECT_EQ(sp->ranks_per_vnode, 1);

  // Node-aware avoids both the fragment and the co-tenant: a whole empty
  // node costs zero internode traffic and zero link overlap.
  const auto na = sched.try_place(small_job("na", "u", 4), ms, PlacePolicy::kNodeAware);
  ASSERT_TRUE(na.has_value());
  EXPECT_EQ(na->vnodes, 1);
  EXPECT_EQ(na->nodes, std::vector<int>{1});
  EXPECT_EQ(na->internode_bytes, 0u);
}

TEST(SchedPolicy, StrictPriorityOrdersWavesAndBackfills) {
  Cluster cluster(stencil::topo::summit(), 2, 6);
  cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
  Scheduler::Options opt;
  opt.policy = SchedPolicy::kStrictPriority;
  Scheduler sched(cluster, opt);
  JobSpec a = small_job("low-first", "u", 8);
  a.priority = 1;
  JobSpec b = small_job("high-big", "u", 8);
  b.priority = 9;
  JobSpec c = small_job("low-small", "u", 4);
  c.priority = 0;
  sched.submit(a);
  sched.submit(b);
  sched.submit(c);
  const RunReport rep = sched.run();
  ASSERT_EQ(rep.tenants.size(), 3u);
  // Wave 0: high-big (8 slots) first; low-first (8) no longer fits the
  // remaining 4 slots, but low-small (4) backfills around it.
  EXPECT_EQ(rep.by_name("high-big")->wave, 0);
  EXPECT_EQ(rep.by_name("low-small")->wave, 0);
  EXPECT_EQ(rep.by_name("low-first")->wave, 1);
  EXPECT_EQ(rep.waves, 2);
}

TEST(SchedPolicy, FairShareAlternatesUsers) {
  Cluster cluster(stencil::topo::summit(), 1, 6);
  cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
  Scheduler::Options opt;
  opt.policy = SchedPolicy::kFairShare;
  Scheduler sched(cluster, opt);
  // alice submits two whole-machine jobs, then bob one: with zero usage all
  // around, submit order seeds wave 0 with alice; her accumulated usage then
  // pushes her second job behind bob's.
  sched.submit(small_job("alice-1", "alice", 6));
  sched.submit(small_job("alice-2", "alice", 6));
  sched.submit(small_job("bob-1", "bob", 6));
  const RunReport rep = sched.run();
  ASSERT_EQ(rep.tenants.size(), 3u);
  EXPECT_EQ(rep.by_name("alice-1")->wave, 0);
  EXPECT_EQ(rep.by_name("bob-1")->wave, 1);
  EXPECT_EQ(rep.by_name("alice-2")->wave, 2);
}

TEST(SchedRun, CoTenantsExchangeBitExactWithCleanChecker) {
  Cluster cluster(stencil::topo::summit(), 4, 6);
  stencil::check::Checker checker(cluster.engine());
  cluster.set_checker(&checker);
  Scheduler::Options opt;
  opt.place = PlacePolicy::kNodeAware;
  opt.solo_baseline = true;
  Scheduler sched(cluster, opt);

  std::atomic<int> bad{0};
  std::atomic<int> verified_ranks{0};
  const auto make = [&](const std::string& name, int gpus, Dim3 domain, int radius) {
    JobSpec s = small_job(name, "u", gpus, domain);
    s.radius = radius;
    s.prologue = [](DistributedDomain& dd) { fill_interior(dd, 1); };
    s.epilogue = [&bad, &verified_ranks, domain](DistributedDomain& dd) {
      bad += verify_halos(dd, domain, 1);
      ++verified_ranks;
    };
    return s;
  };
  // Three tenants with different shapes, radii, and domains.
  sched.submit(make("jobA", 8, {48, 48, 48}, 1));
  sched.submit(make("jobB", 4, {40, 40, 40}, 2));
  sched.submit(make("jobC", 6, {36, 36, 36}, 1));
  const RunReport rep = sched.run();

  ASSERT_EQ(rep.tenants.size(), 3u);
  EXPECT_EQ(rep.waves, 1);  // 8+4+6 = 18 slots of 24: all co-scheduled
  // Every halo of every tenant carries the exact analytic value, in the
  // co-run AND in the solo baseline re-runs (epilogue fires in both).
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(verified_ranks.load(), 2 * (8 + 4 + 6) / cluster.gpus_per_rank());
  // All per-tenant plans were admitted by stencil::verify (persistent jobs
  // throw AdmissionError otherwise) and the cross-tenant pass found nothing.
  EXPECT_EQ(rep.verify_findings, 0u);
  // The happens-before checker watched every tenant concurrently: clean.
  EXPECT_TRUE(checker.report().clean()) << checker.report().summary();
  for (const auto& t : rep.tenants) {
    EXPECT_GT(t.p95_ms, 0.0) << t.name;
    EXPECT_GT(t.solo_p95_ms, 0.0) << t.name;
    EXPECT_GT(t.bytes_per_exchange, 0u) << t.name;
    EXPECT_GE(t.interference, -1e-9) << t.name;
  }
}

TEST(SchedRun, NodeAwareMinimizesInterference) {
  // The acceptance scenario: 3 tenants x 4 GPUs on a 4-node machine. With
  // node-aware placement every tenant owns a whole node slice and the
  // co-run is bit-identical in time to the solo runs (zero interference);
  // spread shares every NIC and must interfere. Halos are made heavy
  // (radius 2, four 8-byte quantities) so NIC serialization is visible
  // against the per-iteration latency floor.
  const auto run_policy = [](PlacePolicy p) {
    Cluster cluster(stencil::topo::summit(), 4, 6);
    cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
    Scheduler::Options opt;
    opt.place = p;
    opt.solo_baseline = true;
    Scheduler sched(cluster, opt);
    for (const char* name : {"t0", "t1", "t2"}) {
      JobSpec s = small_job(name, "u", 4, {96, 96, 96});
      s.radius = 2;
      s.quantities = 4;
      s.elem_size = 8;
      s.iterations = 5;
      s.methods = MethodFlags::kStaged | MethodFlags::kColocated | MethodFlags::kPeer |
                  MethodFlags::kKernel;
      sched.submit(s);
    }
    const RunReport rep = sched.run();
    double worst = 0.0;
    for (const auto& t : rep.tenants) worst = std::max(worst, t.interference);
    return worst;
  };
  const double aware = run_policy(PlacePolicy::kNodeAware);
  const double packed = run_policy(PlacePolicy::kPacked);
  const double spread = run_policy(PlacePolicy::kSpread);
  EXPECT_NEAR(aware, 0.0, 1e-9);  // whole-node tenants share no links
  EXPECT_GT(spread, 0.0);         // every tenant crosses every NIC
  EXPECT_LE(aware, packed + 1e-9);
  EXPECT_LE(aware, spread + 1e-9);
}

TEST(SchedRun, BlameAttributesCriticalPathToTenants) {
  Cluster cluster(stencil::topo::summit(), 2, 6);
  Scheduler::Options opt;
  opt.blame = true;
  Scheduler sched(cluster, opt);
  sched.submit(small_job("left", "u", 6));
  sched.submit(small_job("right", "u", 6));
  const RunReport rep = sched.run();
  ASSERT_EQ(rep.tenants.size(), 2u);
  double total_blame = 0.0;
  for (const auto& t : rep.tenants) total_blame += t.blame_ms;
  EXPECT_GT(total_blame, 0.0);
  EXPECT_GT(rep.makespan_ms, 0.0);
  EXPECT_GT(rep.aggregate_gb_s, 0.0);
}

TEST(SchedRun, BlameRestoresCallerRecorder) {
  // The blame collector holds the cluster's recorder slot for its wave
  // only: afterwards the caller's recorder is attached again and records
  // what the cluster runs next.
  Cluster cluster(stencil::topo::summit(), 1, 2);
  cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
  stencil::trace::Recorder rec;
  cluster.set_recorder(&rec);
  Scheduler::Options opt;
  opt.blame = true;
  Scheduler sched(cluster, opt);
  sched.submit(small_job("blamed", "u", 2));
  const RunReport rep = sched.run();
  ASSERT_EQ(rep.tenants.size(), 1u);
  EXPECT_GT(rep.tenants.front().blame_ms, 0.0);
  EXPECT_EQ(cluster.recorder(), &rec);
  const std::size_t before = rec.records().size();
  cluster.run([](RankCtx& ctx) {
    DistributedDomain dd(ctx, {32, 32, 32});
    dd.add_data<float>("q");
    dd.realize();
    dd.exchange();
  });
  EXPECT_GT(rec.records().size(), before);
}

TEST(SchedRun, TenantTelemetryIsIsolated) {
  // Each tenant's DistributedDomain owns its own telemetry; the exchange
  // counters of one tenant must reflect only its own iterations.
  Cluster cluster(stencil::topo::summit(), 2, 6);
  cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
  Scheduler sched(cluster);
  std::atomic<int> wrong{0};
  for (const char* name : {"a", "b"}) {
    JobSpec s = small_job(name, "u", 6);
    s.iterations = 3;
    s.epilogue = [&wrong](DistributedDomain& dd) {
      wrong += dd.exchanges_done() != 3;
    };
    sched.submit(s);
  }
  const RunReport rep = sched.run();
  EXPECT_EQ(rep.waves, 1);
  EXPECT_EQ(wrong.load(), 0);
}
