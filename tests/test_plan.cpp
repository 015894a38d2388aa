#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check/checker.h"
#include "check/report.h"
#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "fault/fault.h"
#include "halo_oracle.h"
#include "plan/plan.h"
#include "simpi/mpi.h"
#include "topo/archetype.h"

namespace sim = stencil::sim;
namespace topo = stencil::topo;
namespace vgpu = stencil::vgpu;
namespace simpi = stencil::simpi;
namespace fault = stencil::fault;
namespace check = stencil::check;
namespace plan = stencil::plan;

using check::FindingKind;
using stencil::Cluster;
using stencil::Dim3;
using stencil::DistributedDomain;
using stencil::LocalDomain;
using stencil::Method;
using stencil::MethodFlags;
using stencil::PackMode;
using stencil::RankCtx;
using namespace stencil::halo_oracle;

namespace {

std::string dump(const check::CheckReport& rep) {
  std::ostringstream os;
  rep.write(os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Plan-cache unit tests (no engine).
// ---------------------------------------------------------------------------

TEST(PlanCache, LookupIgnoresEpochAndMatchesConfig) {
  plan::PlanCache cache;
  plan::PlanKey key;
  key.topo_epoch = 3;
  key.method_flags = 0x5;
  key.aggregated = true;
  key.quantities = {0, 2};
  plan::CompiledPlan& p = cache.emplace(key);
  EXPECT_EQ(cache.size(), 1u);

  // Same quantity subset, any epoch: hit (epoch mismatches are migrated,
  // not missed). Flags and aggregation are frozen at realize(), so the
  // subset is the whole lookup.
  EXPECT_EQ(cache.find({0, 2}), &p);
  // Another subset: miss.
  EXPECT_EQ(cache.find({0}), nullptr);

  // A second subset gets its own entry whose address stays stable.
  plan::PlanKey k2 = key;
  k2.quantities = {1};
  plan::CompiledPlan& p2 = cache.emplace(k2);
  EXPECT_EQ(cache.find({0, 2}), &p);
  EXPECT_EQ(cache.find({1}), &p2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCache, InvalidateTagDirtiesMatchingProgramsInEveryPlan) {
  plan::PlanCache cache;
  for (int i = 0; i < 2; ++i) {
    plan::PlanKey key;
    key.quantities = {static_cast<std::size_t>(i)};
    plan::CompiledPlan& p = cache.emplace(key);
    plan::TransferProgram a;
    a.tag = 5;
    plan::TransferProgram b;
    b.tag = 9;
    p.programs.push_back(a);
    p.programs.push_back(b);
  }
  cache.invalidate_tag(5);
  for (const auto& p : cache.entries()) {
    EXPECT_EQ(p->dirty_count(), 1u);
    EXPECT_TRUE(p->programs[0].dirty);
    EXPECT_FALSE(p->programs[1].dirty);
  }
  // Idempotent.
  cache.invalidate_tag(5);
  EXPECT_EQ(cache.entries()[0]->dirty_count(), 1u);
}

TEST(PlanCache, DescribeAndStatsRender) {
  plan::PlanKey key;
  key.method_flags = 0x1f;
  key.quantities = {0, 1};
  plan::CompiledPlan p;
  p.key = key;
  plan::TransferProgram t;
  t.tag = 3;
  t.method = Method::kStaged;
  t.bytes = 4096;
  t.i_send = true;
  p.programs.push_back(t);
  std::ostringstream os;
  p.describe(os);
  EXPECT_NE(os.str().find("staged"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("4096"), std::string::npos) << os.str();

  plan::PlanStats st;
  st.compiles = 2;
  st.hits = 7;
  EXPECT_NE(st.str().find("7"), std::string::npos) << st.str();
  EXPECT_NE(key.str().find("qs=[0,1]"), std::string::npos) << key.str();
}

// ---------------------------------------------------------------------------
// Persistent simpi requests: lifecycle, restart semantics, checker lints.
// ---------------------------------------------------------------------------

struct CheckedWorld {
  sim::Engine eng;
  topo::Machine machine;
  vgpu::Runtime runtime;
  simpi::Job job;
  check::Checker chk;
  CheckedWorld(int nodes, int ranks_per_node)
      : machine(topo::summit(), nodes),
        runtime(eng, machine),
        job(eng, machine, runtime, ranks_per_node),
        chk(eng) {
    runtime.attach(&chk);
    job.attach(&chk);
  }
};

TEST(PersistentRequests, InitStartWaitLoopIsCleanAndReusesOneRecord) {
  CheckedWorld w(1, 2);
  constexpr std::size_t kBytes = 128 * 1024;  // rendezvous-sized
  w.job.run([&](simpi::Comm& comm) {
    auto& rt = w.runtime;
    auto payload = rt.alloc_pinned_host(0, kBytes);
    simpi::Request req = comm.rank() == 0
                             ? comm.send_init(simpi::Payload::of(payload, 0, kBytes), 1, 7)
                             : comm.recv_init(simpi::Payload::of(payload, 0, kBytes), 0, 7);
    for (int it = 0; it < 3; ++it) {
      comm.start(req);
      comm.wait(req);
    }
    comm.request_free(req);
  });
  EXPECT_TRUE(w.chk.report().clean()) << dump(w.chk.report());
}

TEST(PersistentRequests, WaitAndTestOnInactiveAreNoOps) {
  CheckedWorld w(1, 2);
  w.job.run([&](simpi::Comm& comm) {
    auto& rt = w.runtime;
    auto payload = rt.alloc_pinned_host(0, 1024);
    // Never started: MPI_Wait on an inactive persistent request returns
    // immediately with an empty status; MPI_Test reports flag=true.
    simpi::Request req = comm.rank() == 0
                             ? comm.send_init(simpi::Payload::of(payload, 0, 1024), 1, 7)
                             : comm.recv_init(simpi::Payload::of(payload, 0, 1024), 0, 7);
    comm.wait(req);
    EXPECT_TRUE(comm.test(req));
    comm.request_free(req);
  });
  // Inactive persistent requests are a valid resting state, not leaks.
  EXPECT_TRUE(w.chk.report().clean()) << dump(w.chk.report());
}

TEST(PersistentRequests, WaitAnySkipsInactiveEntries) {
  CheckedWorld w(1, 2);
  w.job.run([&](simpi::Comm& comm) {
    auto& rt = w.runtime;
    auto payload = rt.alloc_pinned_host(0, 1024);
    if (comm.rank() == 0) {
      std::vector<simpi::Request> reqs;
      reqs.push_back(comm.send_init(simpi::Payload::of(payload, 0, 512), 1, 8));  // inactive
      reqs.push_back(comm.isend(simpi::Payload::of(payload, 512, 512), 1, 9));
      EXPECT_EQ(comm.wait_any(reqs), 1);   // the live isend, not the parked init
      EXPECT_EQ(comm.wait_any(reqs), -1);  // all remaining entries are inactive
      comm.request_free(reqs[0]);
    } else {
      auto sink = rt.alloc_pinned_host(0, 512);
      comm.recv(simpi::Payload::of(sink, 0, 512), 0, 9);
    }
  });
  EXPECT_TRUE(w.chk.report().clean()) << dump(w.chk.report());
}

TEST(PersistentRequests, DoubleStartLintsThenThrows) {
  CheckedWorld w(1, 2);
  w.job.run([&](simpi::Comm& comm) {
    auto& rt = w.runtime;
    auto payload = rt.alloc_pinned_host(0, 64);
    if (comm.rank() == 0) {
      simpi::Request req = comm.send_init(simpi::Payload::of(payload, 0, 64), 1, 7);
      comm.start(req);
      // MPI erroneous: the previous start has not been completed by wait().
      EXPECT_THROW(comm.start(req), std::logic_error);
      comm.wait(req);
      comm.request_free(req);
    } else {
      auto sink = rt.alloc_pinned_host(0, 64);
      comm.recv(simpi::Payload::of(sink, 0, 64), 0, 7);
    }
  });
  const auto& rep = w.chk.report();
  ASSERT_EQ(rep.count(FindingKind::kPersistentRestart), 1u) << dump(rep);
  EXPECT_EQ(rep.findings().size(), 1u) << dump(rep);
  EXPECT_NE(rep.findings()[0].second.find("still in flight"), std::string::npos);
}

TEST(PersistentRequests, FreeWhileActiveLints) {
  CheckedWorld w(1, 2);
  w.job.run([&](simpi::Comm& comm) {
    auto& rt = w.runtime;
    auto payload = rt.alloc_pinned_host(0, 64);
    if (comm.rank() == 0) {
      simpi::Request req = comm.send_init(simpi::Payload::of(payload, 0, 64), 1, 7);
      comm.start(req);
      comm.request_free(req);  // BUG under test: freed with the start in flight
    } else {
      auto sink = rt.alloc_pinned_host(0, 64);
      comm.recv(simpi::Payload::of(sink, 0, 64), 0, 7);  // deferred-free still delivers
    }
  });
  const auto& rep = w.chk.report();
  ASSERT_EQ(rep.count(FindingKind::kPersistentFreedActive), 1u) << dump(rep);
  // The active operation was also never completed by wait: that is a second,
  // distinct defect of the same program, reported as the usual leak.
  EXPECT_EQ(rep.count(FindingKind::kRequestNeverWaited), 1u) << dump(rep);
}

// ---------------------------------------------------------------------------
// vgpu graph capture: deferral, replay fidelity, misuse.
// ---------------------------------------------------------------------------

template <typename F>
check::CheckReport run_checked(F&& body, int nodes = 1) {
  sim::Engine eng;
  topo::Machine machine(topo::summit(), nodes);
  vgpu::Runtime rt(eng, machine);
  check::Checker chk(eng);
  rt.attach(&chk);
  eng.run({[&] { body(rt); }});
  chk.finish();
  return chk.report();
}

TEST(GraphCapture, CaptureDefersReplayMovesBytes) {
  sim::Engine eng;
  topo::Machine machine(topo::summit(), 1);
  vgpu::Runtime rt(eng, machine);
  eng.run({[&] {
    auto src = rt.alloc_device(0, 256);
    auto dst = rt.alloc_device(0, 256);
    auto s = rt.create_stream(0);
    for (std::size_t i = 0; i < 256; ++i) src.data()[i] = static_cast<std::byte>(i);

    const std::uint64_t issued_before = rt.ops_issued();
    rt.begin_capture();
    EXPECT_TRUE(rt.capturing());
    rt.memcpy_async(dst, 0, src, 0, 256, s);
    vgpu::Graph g = rt.end_capture();
    EXPECT_FALSE(rt.capturing());

    // Capture appended a node but executed nothing.
    EXPECT_EQ(g.num_nodes(), 1u);
    EXPECT_EQ(rt.ops_issued(), issued_before);
    EXPECT_NE(dst.data()[10], src.data()[10]);

    vgpu::GraphExec exec = rt.instantiate(std::move(g));
    ASSERT_TRUE(exec.valid());
    rt.launch_graph(exec);
    rt.stream_synchronize(s);
    EXPECT_EQ(rt.graphs_launched(), 1u);
    EXPECT_EQ(exec.launches(), 1u);
    // Replay went through the eager entry point: bytes really moved.
    EXPECT_EQ(dst.data()[10], src.data()[10]);
    EXPECT_EQ(rt.ops_issued(), issued_before + 1);

    // Relaunch after mutating the source: the graph references buffers, not
    // snapshots, so each launch moves the current bytes.
    src.data()[10] = static_cast<std::byte>(0xAB);
    rt.launch_graph(exec);
    rt.stream_synchronize(s);
    EXPECT_EQ(dst.data()[10], static_cast<std::byte>(0xAB));
    EXPECT_EQ(exec.launches(), 2u);
  }});
}

TEST(GraphCapture, SynchronizingDuringCaptureThrows) {
  sim::Engine eng;
  topo::Machine machine(topo::summit(), 1);
  vgpu::Runtime rt(eng, machine);
  eng.run({[&] {
    auto s = rt.create_stream(0);
    vgpu::Event ev;
    rt.record_event(ev, s);
    rt.begin_capture();
    EXPECT_THROW(rt.stream_synchronize(s), std::logic_error);
    EXPECT_THROW(rt.event_synchronize(ev), std::logic_error);
    EXPECT_THROW(rt.device_synchronize(0), std::logic_error);
    (void)rt.end_capture();
  }});
}

TEST(GraphCapture, CheckerSeesReplayedOpsLikeEagerOps) {
  // Two unordered writes captured into a graph must still race on replay —
  // the observer sees replayed nodes through the same on_op feed as eager.
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 1024);
    auto s1 = rt.create_stream(0);
    auto s2 = rt.create_stream(0);
    rt.begin_capture();
    rt.launch_kernel(s1, 1024, "gw1", [] {}, {{&buf, 0, 1024, true}});
    rt.launch_kernel(s2, 1024, "gw2", [] {}, {{&buf, 0, 1024, true}});
    auto exec = rt.instantiate(rt.end_capture());
    rt.launch_graph(exec);
    rt.stream_synchronize(s1);
    rt.stream_synchronize(s2);
  });
  ASSERT_EQ(rep.count(FindingKind::kWriteWriteRace), 1u) << dump(rep);
  EXPECT_NE(rep.findings()[0].first.find("gw1"), std::string::npos);
}

TEST(GraphCapture, EventEdgesInsideAGraphOrderItsStreams) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 1024);
    auto s1 = rt.create_stream(0);
    auto s2 = rt.create_stream(0);
    vgpu::Event done;
    rt.begin_capture();
    rt.launch_kernel(s1, 1024, "gw1", [] {}, {{&buf, 0, 1024, true}});
    rt.record_event(done, s1);
    rt.stream_wait_event(s2, done);
    rt.launch_kernel(s2, 1024, "gw2", [] {}, {{&buf, 0, 1024, true}});
    auto exec = rt.instantiate(rt.end_capture());
    // Relaunches need an edge back from s2's tail to the next s1 head, just
    // like the planned exchange quiesces between iterations.
    for (int it = 0; it < 3; ++it) {
      rt.launch_graph(exec);
      rt.stream_synchronize(s2);
    }
    rt.stream_synchronize(s1);
  });
  EXPECT_TRUE(rep.clean()) << dump(rep);
}

// ---------------------------------------------------------------------------
// Planned exchanges: shared helpers.
// ---------------------------------------------------------------------------

int histogram_count(const std::map<Method, std::pair<int, std::size_t>>& h, Method m) {
  auto it = h.find(m);
  return it == h.end() ? 0 : it->second.first;
}

// ---------------------------------------------------------------------------
// Zero-setup acceptance: after the first planned exchange compiles, the
// steady state does no setup work at all — no new MPI request records, no
// new allocations, no re-specialization. Asserted via observer hooks.
// ---------------------------------------------------------------------------

struct CountingChecker : check::Checker {
  using check::Checker::Checker;
  std::uint64_t posts = 0;    // transient isend/irecv records created
  std::uint64_t inits = 0;    // persistent records created
  std::uint64_t pstarts = 0;  // persistent re-arms
  void on_post(const simpi::MsgInfo& m) override {
    ++posts;
    check::Checker::on_post(m);
  }
  void on_persistent_init(const simpi::MsgInfo& m) override {
    ++inits;
    check::Checker::on_persistent_init(m);
  }
  void on_persistent_start(const simpi::MsgInfo& m) override {
    ++pstarts;
    check::Checker::on_persistent_start(m);
  }
};

TEST(PlannedExchange, SteadyStateDoesZeroSetupWork) {
  const Dim3 domain{48, 48, 48};
  constexpr int kSteady = 3;
  Cluster cluster(topo::summit(), 2, 1);
  CountingChecker chk(cluster.engine());
  cluster.set_checker(&chk);

  std::uint64_t posts0 = 0, inits0 = 0, pstarts0 = 0, bufs0 = 0;
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(MethodFlags::kStaged | MethodFlags::kPeer | MethodFlags::kKernel);
    dd.set_persistent(true);
    dd.realize();

    // Warmup: the first exchange compiles the plan (requests + graphs).
    fill_interior(dd, 2);
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();
    EXPECT_EQ(verify_halos(dd, domain, 2), 0);
    EXPECT_EQ(dd.plan_stats().compiles, 1u);
    EXPECT_GT(chk.inits, 0u);  // the compile did create persistent records

    // Snapshot under a barrier pair so every rank's warmup is quiescent.
    if (ctx.comm.rank() == 0) {
      posts0 = chk.posts;
      inits0 = chk.inits;
      pstarts0 = chk.pstarts;
      bufs0 = ctx.rt.buffers_allocated();
    }
    ctx.comm.barrier();

    for (int it = 0; it < kSteady; ++it) {
      fill_interior(dd, 2);
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      EXPECT_EQ(verify_halos(dd, domain, 2), 0) << "steady iteration " << it;
    }

    // Steady state: replays only. No transient posts, no new persistent
    // records, no new buffers; the cache served pure hits.
    if (ctx.comm.rank() == 0) {
      EXPECT_EQ(chk.posts, posts0);
      EXPECT_EQ(chk.inits, inits0);
      EXPECT_GT(chk.pstarts, pstarts0);  // replays re-armed the frozen requests
      EXPECT_EQ(ctx.rt.buffers_allocated(), bufs0);
    }
    EXPECT_EQ(dd.plan_stats().compiles, 1u);
    EXPECT_EQ(dd.plan_stats().hits, static_cast<std::uint64_t>(kSteady));
    EXPECT_EQ(dd.plan_stats().replays, static_cast<std::uint64_t>(kSteady) + 1);
    EXPECT_EQ(dd.plan_stats().invalidations, 0u);
    EXPECT_EQ(dd.topology_epoch(), 0u);
    ctx.comm.barrier();
  });
  EXPECT_TRUE(chk.report().clean()) << dump(chk.report());
}

// ---------------------------------------------------------------------------
// Selective exchange × plan cache: distinct subsets compile distinct plans,
// alternating subsets stay bit-exact (with aggregation on).
// ---------------------------------------------------------------------------

TEST(PlannedExchange, SelectiveSubsetsGetDistinctCachedPlans) {
  const Dim3 domain{48, 48, 48};
  Cluster cluster(topo::summit(), 2, 1);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(MethodFlags::kStaged | MethodFlags::kPeer | MethodFlags::kKernel);
    dd.set_remote_aggregation(true);
    dd.set_persistent(true);
    dd.realize();

    for (int it = 0; it < 3; ++it) {
      fill_interior(dd, 2);
      ctx.comm.barrier();
      dd.exchange({0});
      dd.exchange({1});
      ctx.comm.barrier();
      EXPECT_EQ(verify_halos(dd, domain, 2), 0) << "alternating iteration " << it;
      // One plan per subset, compiled exactly once each.
      EXPECT_EQ(dd.plan_cache().size(), 2u);
      EXPECT_EQ(dd.plan_stats().compiles, 2u);
    }
    EXPECT_EQ(dd.plan_stats().hits, 4u);  // iterations 1 and 2 replayed both

    // A blanket exchange is a third configuration.
    fill_interior(dd, 2);
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();
    EXPECT_EQ(verify_halos(dd, domain, 2), 0);
    EXPECT_EQ(dd.plan_cache().size(), 3u);
    EXPECT_EQ(dd.plan_stats().compiles, 3u);
    ctx.comm.barrier();
  });
  EXPECT_TRUE(chk.report().clean()) << dump(chk.report());
}

TEST(PlannedExchange, TogglingPersistentMidRunStaysBitExact) {
  const Dim3 domain{48, 48, 48};
  Cluster cluster(topo::summit(), 1, 2);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.set_methods(MethodFlags::kAll);
    dd.realize();
    // Eager → planned → eager: the mode is a pure execution strategy.
    for (int it = 0; it < 3; ++it) {
      dd.set_persistent(it == 1);
      fill_interior(dd, 1);
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      EXPECT_EQ(verify_halos(dd, domain, 1), 0) << "iteration " << it;
    }
    EXPECT_EQ(dd.plan_stats().replays, 1u);
    ctx.comm.barrier();
  });
  EXPECT_TRUE(chk.report().clean()) << dump(chk.report());
}

// ---------------------------------------------------------------------------
// Fault-driven demotion: the plan cache is partially invalidated, affected
// programs rebuild against the demoted method, and halos stay bit-exact.
// ---------------------------------------------------------------------------

TEST(PlannedExchange, FaultDemotionRebuildsOnlyAffectedPrograms) {
  const sim::Time t_fault = sim::from_seconds(1.0);
  const Dim3 domain{48, 48, 48};
  fault::FaultPlan fplan;
  fplan.revoke_peer(t_fault, -1, -1).invalidate_ipc(t_fault).disable_cuda_aware(t_fault);
  fault::Injector inj(fplan);

  Cluster cluster(topo::summit(), 2, 2);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  cluster.set_fault_injector(&inj);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(MethodFlags::kAllCudaAware | MethodFlags::kStaged);
    dd.set_persistent(true);
    dd.realize();

    const auto before = dd.method_bytes_histogram();
    EXPECT_GT(histogram_count(before, Method::kPeer), 0);
    EXPECT_GT(histogram_count(before, Method::kColocated), 0);
    EXPECT_GT(histogram_count(before, Method::kCudaAwareMpi), 0);

    fill_interior(dd, 2);
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();
    EXPECT_EQ(verify_halos(dd, domain, 2), 0);
    EXPECT_EQ(dd.plan_stats().compiles, 1u);
    EXPECT_EQ(dd.topology_epoch(), 0u);

    ctx.engine().sleep_until(t_fault + sim::kMicrosecond);
    ctx.comm.barrier();
    for (int it = 0; it < 2; ++it) {
      fill_interior(dd, 2);
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      EXPECT_EQ(verify_halos(dd, domain, 2), 0) << "post-fault iteration " << it;
    }

    // The storm demoted every PEER / COLOCATED / CUDA-aware transfer...
    const auto after = dd.method_bytes_histogram();
    EXPECT_EQ(histogram_count(after, Method::kPeer), 0);
    EXPECT_EQ(histogram_count(after, Method::kColocated), 0);
    EXPECT_EQ(histogram_count(after, Method::kCudaAwareMpi), 0);
    // ...which bumped the epoch and migrated the cached plan in place:
    // a partial rebuild, not a fresh compile.
    EXPECT_GT(dd.topology_epoch(), 0u);
    EXPECT_EQ(dd.plan_stats().compiles, 1u);
    EXPECT_GE(dd.plan_stats().invalidations, 1u);
    EXPECT_GE(dd.plan_stats().rebuilt_programs, 1u);
    // Every surviving program is now STAGED (or an eager colocated stub that
    // was rebuilt away); none are left dirty.
    for (const auto& p : dd.plan_cache().entries()) {
      EXPECT_EQ(p->dirty_count(), 0u);
    }
    ctx.comm.barrier();
  });
  EXPECT_TRUE(chk.report().clean()) << dump(chk.report());
}

// ---------------------------------------------------------------------------
// End-to-end planned exchanges across every specialization method: the
// checker must stay silent and halos bit-exact, including selective
// iterations that exercise multiple cached plans.
// ---------------------------------------------------------------------------

struct PlannedCase {
  const char* name;
  int nodes;
  int ranks_per_node;
  MethodFlags flags;
  bool aggregate = false;
  bool zero_copy = false;
  PackMode pack_mode = PackMode::kKernel;
};

void run_planned_exchange(const PlannedCase& c, std::vector<Method> expect_methods) {
  SCOPED_TRACE(c.name);
  const Dim3 domain{48, 48, 48};
  Cluster cluster(topo::summit(), c.nodes, c.ranks_per_node);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(c.flags);
    dd.set_remote_aggregation(c.aggregate);
    dd.set_staged_zero_copy(c.zero_copy);
    dd.set_pack_mode(c.pack_mode);
    dd.set_persistent(true);
    dd.realize();
    const auto hist = dd.method_bytes_histogram();
    for (Method m : expect_methods) {
      EXPECT_GT(histogram_count(hist, m), 0) << "method not exercised: " << to_string(m);
    }
    for (int it = 0; it < 3; ++it) {
      fill_interior(dd, 2);
      ctx.comm.barrier();
      if (it == 1) {
        dd.exchange({0});  // selective exchanges compile their own plans
        dd.exchange({1});
      } else {
        dd.exchange();
      }
      ctx.comm.barrier();
      EXPECT_EQ(verify_halos(dd, domain, 2), 0) << "iteration " << it;
    }
    // Three configurations ran: {0,1}, {0}, {1}. Iteration 2 was a pure hit.
    EXPECT_EQ(dd.plan_cache().size(), 3u);
    EXPECT_EQ(dd.plan_stats().compiles, 3u);
    EXPECT_GE(dd.plan_stats().hits, 1u);
  });
  EXPECT_TRUE(chk.report().clean()) << dump(chk.report());
}

TEST(PlannedExchange, KernelPeerColocatedSingleNodeClean) {
  run_planned_exchange({"single-node kAll", 1, 2, MethodFlags::kAll},
                       {Method::kKernel, Method::kPeer, Method::kColocated});
}

TEST(PlannedExchange, CudaAwareRemoteClean) {
  run_planned_exchange({"cuda-aware remote", 2, 1, MethodFlags::kAllCudaAware},
                       {Method::kPeer, Method::kCudaAwareMpi});
}

TEST(PlannedExchange, StagedRemoteClean) {
  run_planned_exchange({"staged remote", 2, 1,
                        MethodFlags::kStaged | MethodFlags::kPeer | MethodFlags::kKernel},
                       {Method::kPeer, Method::kStaged});
}

TEST(PlannedExchange, StagedAggregatedClean) {
  PlannedCase c{"staged aggregated", 2, 1,
                MethodFlags::kStaged | MethodFlags::kPeer | MethodFlags::kKernel};
  c.aggregate = true;
  run_planned_exchange(c, {Method::kStaged});
}

TEST(PlannedExchange, StagedZeroCopyClean) {
  PlannedCase c{"staged zero-copy", 2, 1,
                MethodFlags::kStaged | MethodFlags::kPeer | MethodFlags::kKernel};
  c.zero_copy = true;
  run_planned_exchange(c, {Method::kStaged});
}

TEST(PlannedExchange, PeerMemcpy3DClean) {
  PlannedCase c{"peer 3d", 1, 2, MethodFlags::kAll};
  c.pack_mode = PackMode::kMemcpy3D;
  run_planned_exchange(c, {Method::kPeer});
}

TEST(PlannedExchange, AllMethodsMultiNodeClean) {
  run_planned_exchange({"all methods 2x2", 2, 2,
                        MethodFlags::kAllCudaAware | MethodFlags::kStaged},
                       {Method::kPeer, Method::kColocated, Method::kCudaAwareMpi});
}

// ---------------------------------------------------------------------------
// One op list per transfer drives both modes: on every stream, a planned
// replay issues exactly the (kind, label) sequence the eager path issues.
// ---------------------------------------------------------------------------

struct OpSequenceChecker : check::Checker {
  using check::Checker::Checker;
  bool recording = false;
  std::map<std::pair<int, std::uint64_t>, std::vector<std::pair<vgpu::OpKind, std::string>>>
      per_stream;
  void on_op(const vgpu::OpInfo& op) override {
    if (recording) per_stream[{op.stream->device, op.stream->id}].emplace_back(op.kind, *op.label);
    check::Checker::on_op(op);
  }
};

class EagerPlannedParity : public ::testing::TestWithParam<PlannedCase> {};

TEST_P(EagerPlannedParity, SecondExchangeIssuesSameOpsPerStream) {
  const PlannedCase& c = GetParam();
  const auto second_exchange_ops = [&](bool persistent) {
    Cluster cluster(topo::summit(), c.nodes, c.ranks_per_node);
    OpSequenceChecker chk(cluster.engine());
    cluster.set_checker(&chk);
    cluster.run([&](RankCtx& ctx) {
      DistributedDomain dd(ctx, {48, 48, 48});
      dd.set_radius(1);
      dd.add_data<float>("a");
      dd.add_data<float>("b");
      dd.set_methods(c.flags);
      dd.set_remote_aggregation(c.aggregate);
      dd.set_staged_zero_copy(c.zero_copy);
      dd.set_pack_mode(c.pack_mode);
      dd.set_persistent(persistent);
      dd.realize();
      dd.exchange();  // planned mode compiles here; exchange #2 replays
      ctx.comm.barrier();
      if (ctx.comm.rank() == 0) chk.recording = true;
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      if (ctx.comm.rank() == 0) chk.recording = false;
    });
    EXPECT_TRUE(chk.report().clean()) << dump(chk.report());
    return chk.per_stream;
  };
  const auto eager = second_exchange_ops(false);
  const auto planned = second_exchange_ops(true);
  ASSERT_FALSE(eager.empty());
  EXPECT_EQ(eager.size(), planned.size());
  std::size_t differing = 0;
  for (const auto& [stream, ops] : eager) {
    const auto it = planned.find(stream);
    differing += it == planned.end() || it->second != ops;
  }
  EXPECT_EQ(differing, 0u) << "of " << eager.size() << " streams";
}

PlannedCase with(PlannedCase c, bool aggregate, bool zero_copy, PackMode pm) {
  c.aggregate = aggregate;
  c.zero_copy = zero_copy;
  c.pack_mode = pm;
  return c;
}

const MethodFlags kStagedLocal = MethodFlags::kStaged | MethodFlags::kPeer | MethodFlags::kKernel;

INSTANTIATE_TEST_SUITE_P(
    Configs, EagerPlannedParity,
    ::testing::Values(
        PlannedCase{"kAll_1x2", 1, 2, MethodFlags::kAll},
        PlannedCase{"cuda_aware_2x1", 2, 1, MethodFlags::kAllCudaAware},
        PlannedCase{"staged_2x1", 2, 1, kStagedLocal},
        with({"staged_aggregated_2x1", 2, 1, kStagedLocal}, true, false, PackMode::kKernel),
        with({"staged_zero_copy_2x1", 2, 1, kStagedLocal}, false, true, PackMode::kKernel),
        with({"peer_memcpy3d_1x1", 1, 1, MethodFlags::kAll}, false, false, PackMode::kMemcpy3D),
        PlannedCase{"all_methods_2x2", 2, 2, MethodFlags::kAllCudaAware | MethodFlags::kStaged}),
    [](const ::testing::TestParamInfo<PlannedCase>& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------------
// A COLOCATED transfer whose IPC mapping goes stale falls back to STAGED
// through STAGED's own op list: with zero-copy on, the fallback generation
// packs straight into pinned memory like every other STAGED sender.
// ---------------------------------------------------------------------------

struct D2HCounter : check::Checker {
  using check::Checker::Checker;
  std::uint64_t d2h = 0;
  void on_op(const vgpu::OpInfo& op) override {
    const vgpu::AccessList& a = *op.accesses;
    d2h += op.kind == vgpu::OpKind::kMemcpy && a.size() == 2 &&
           a[0].buf->space() == vgpu::MemSpace::kDevice &&
           a[1].buf->space() == vgpu::MemSpace::kPinnedHost;
    check::Checker::on_op(op);
  }
};

void run_zero_copy_fallback(bool persistent) {
  SCOPED_TRACE(persistent ? "planned" : "eager");
  const sim::Time t_fault = sim::from_seconds(1.0);
  const Dim3 domain{48, 48, 48};
  fault::FaultPlan fplan;
  fplan.invalidate_ipc(t_fault);
  fault::Injector inj(fplan);

  Cluster cluster(topo::summit(), 1, 2);
  D2HCounter chk(cluster.engine());
  cluster.set_checker(&chk);
  cluster.set_fault_injector(&inj);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(MethodFlags::kAll);
    dd.set_staged_zero_copy(true);
    dd.set_persistent(persistent);
    dd.realize();
    EXPECT_GT(histogram_count(dd.method_bytes_histogram(), Method::kColocated), 0);

    fill_interior(dd, 2);
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();
    EXPECT_EQ(verify_halos(dd, domain, 2), 0);

    ctx.engine().sleep_until(t_fault + sim::kMicrosecond);
    ctx.comm.barrier();
    // The first exchange after the fault is the fallback generation.
    for (int it = 0; it < 2; ++it) {
      fill_interior(dd, 2);
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      EXPECT_EQ(verify_halos(dd, domain, 2), 0) << "post-fault iteration " << it;
    }
    const auto after = dd.method_bytes_histogram();
    EXPECT_EQ(histogram_count(after, Method::kColocated), 0);
    EXPECT_GT(histogram_count(after, Method::kStaged), 0);
    ctx.comm.barrier();
  });
  // The demoted transfers are the only STAGED senders, and none staged
  // through a D2H copy.
  EXPECT_EQ(chk.d2h, 0u);
  EXPECT_TRUE(chk.report().clean()) << dump(chk.report());
}

TEST(ColocatedFallback, HonorsZeroCopyEager) { run_zero_copy_fallback(false); }

TEST(ColocatedFallback, HonorsZeroCopyPlanned) { run_zero_copy_fallback(true); }

TEST(PlannedExchange, SetPersistentWhileInFlightThrows) {
  const Dim3 domain{48, 48, 48};
  Cluster cluster(topo::summit(), 1, 2);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.set_methods(MethodFlags::kAll);
    dd.realize();
    fill_interior(dd, 1);
    ctx.comm.barrier();
    dd.exchange_start();
    EXPECT_THROW(dd.set_persistent(true), std::logic_error);
    dd.exchange_finish();
    ctx.comm.barrier();
  });
}

}  // namespace
