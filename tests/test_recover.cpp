#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "check/checker.h"
#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "fault/fault.h"
#include "halo_oracle.h"
#include "recover/recover.h"
#include "simpi/mpi.h"
#include "topo/archetype.h"
#include "vgpu/runtime.h"

namespace sim = stencil::sim;
namespace topo = stencil::topo;
namespace vgpu = stencil::vgpu;
namespace simpi = stencil::simpi;
namespace fault = stencil::fault;
namespace check = stencil::check;
namespace recover = stencil::recover;

using stencil::Cluster;
using stencil::Dim3;
using stencil::DistributedDomain;
using stencil::LocalDomain;
using stencil::MethodFlags;
using stencil::Neighborhood;
using stencil::RankCtx;

namespace {

// ---------------------------------------------------------------------------
// RetryPolicy: the backoff schedule is a pure function of (policy, attempt,
// salt) — truncated exponential plus bounded deterministic jitter.
// ---------------------------------------------------------------------------

TEST(RetryBackoff, TruncatedExponentialWithCap) {
  fault::RetryPolicy p;
  p.timeout = 100;
  p.max_retries = 8;
  p.backoff_base = 10;
  p.backoff_cap = 40;
  ASSERT_TRUE(p.enabled());
  EXPECT_EQ(p.backoff_delay(0, 7), 10);
  EXPECT_EQ(p.backoff_delay(1, 7), 20);
  EXPECT_EQ(p.backoff_delay(2, 7), 40);
  EXPECT_EQ(p.backoff_delay(3, 7), 40);  // capped
  EXPECT_EQ(p.backoff_delay(9, 7), 40);  // stays capped, no overflow
  // Budget = sum of the per-attempt delays (jitter is zero here).
  EXPECT_EQ(p.backoff_budget(4), 10 + 20 + 40 + 40);
}

TEST(RetryBackoff, UncappedDoublesAndBudgetSums) {
  fault::RetryPolicy p;
  p.timeout = 1;
  p.backoff_base = 5;
  EXPECT_EQ(p.backoff_delay(0, 0), 5);
  EXPECT_EQ(p.backoff_delay(3, 0), 40);
  EXPECT_EQ(p.backoff_budget(3), 5 + 10 + 20);
  EXPECT_EQ(fault::RetryPolicy{}.backoff_delay(5, 0), 0);  // disabled: no base
}

TEST(RetryBackoff, JitterIsDeterministicSaltedAndBounded) {
  fault::RetryPolicy p;
  p.timeout = 100;
  p.backoff_base = 100;
  p.backoff_cap = 800;
  p.jitter = 50;
  bool salt_matters = false;
  for (int k = 0; k < 6; ++k) {
    const sim::Duration raw = std::min<sim::Duration>(100 << k, 800);
    for (std::uint64_t salt : {0ull, 1ull, 0xdeadbeefull}) {
      const sim::Duration d = p.backoff_delay(k, salt);
      EXPECT_GE(d, raw);
      EXPECT_LE(d, raw + 50);
      EXPECT_EQ(d, p.backoff_delay(k, salt));  // same inputs, same schedule
    }
    salt_matters = salt_matters || p.backoff_delay(k, 1) != p.backoff_delay(k, 2);
  }
  EXPECT_TRUE(salt_matters);
  // The budget bounds every realized schedule (jitter at its max).
  sim::Duration worst = 0;
  for (int k = 0; k < 4; ++k) worst += p.backoff_delay(k, 0xdeadbeef);
  EXPECT_LE(worst, p.backoff_budget(4));
}

// ---------------------------------------------------------------------------
// Terminal-fault oracle.
// ---------------------------------------------------------------------------

TEST(TerminalFaults, InjectorOracle) {
  fault::FaultPlan plan;
  plan.fail_gpu(1000, 3).fail_node(2000, 1);
  fault::Injector inj(plan);
  EXPECT_EQ(inj.gpu_fail_time(3), 1000);
  EXPECT_EQ(inj.gpu_fail_time(0), fault::kForever);
  EXPECT_EQ(inj.node_fail_time(1), 2000);
  EXPECT_FALSE(inj.gpu_dead(3, 999));
  EXPECT_TRUE(inj.gpu_dead(3, 1000));
  EXPECT_TRUE(inj.node_dead(1, 2000));
  EXPECT_FALSE(inj.node_dead(0, 1 << 30));
  EXPECT_TRUE(inj.has_terminal_failures());
  EXPECT_EQ(inj.first_terminal_failure(), 1000);
  EXPECT_EQ(inj.detect_latency(), 20 * sim::kMicrosecond);
  EXPECT_FALSE(fault::Injector(fault::FaultPlan{}).has_terminal_failures());
}

// ---------------------------------------------------------------------------
// classify(): exception -> ladder rung.
// ---------------------------------------------------------------------------

TEST(Classify, MapsExceptionsOnAHealthyRank) {
  Cluster cluster(topo::pcie_box(1), 1, 1);
  cluster.run([&](RankCtx& ctx) {
    simpi::Job& job = ctx.comm.job();
    const auto at = ctx.engine().now();
    using TE = simpi::TransportError;

    auto ev = recover::classify(TE(TE::Code::kPeerDead, 3, 42, "peer"), job, 0, at);
    EXPECT_EQ(ev.kind, recover::FailureKind::kPeerDeath);
    EXPECT_EQ(ev.peer, 3);
    EXPECT_EQ(ev.tag, 42);

    ev = recover::classify(TE(TE::Code::kRevoked, -1, -1, "revoked"), job, 0, at);
    EXPECT_EQ(ev.kind, recover::FailureKind::kPeerDeath);

    ev = recover::classify(TE(TE::Code::kTimeout, 1, 7, "slow"), job, 0, at);
    EXPECT_EQ(ev.kind, recover::FailureKind::kTransient);
    ev = recover::classify(TE(TE::Code::kRetriesExhausted, 1, 7, "gone"), job, 0, at);
    EXPECT_EQ(ev.kind, recover::FailureKind::kTransient);

    ev = recover::classify(vgpu::DeviceLost(2, "xid"), job, 0, at);
    EXPECT_EQ(ev.kind, recover::FailureKind::kLocalDeviceLoss);

    // The exchange layer demotes a transfer whose capability is gone; a
    // CapabilityError that still reaches the ladder is not one of its rungs.
    ev = recover::classify(
        vgpu::CapabilityError(vgpu::CapabilityError::Kind::kPeerAccessLost, "p2p"), job, 0, at);
    EXPECT_EQ(ev.kind, recover::FailureKind::kNone);

    ev = recover::classify(std::runtime_error("unrelated"), job, 0, at);
    EXPECT_EQ(ev.kind, recover::FailureKind::kNone);
    EXPECT_STREQ(recover::to_string(ev.kind), "none");
  });
}

TEST(Classify, LocalDeathOverridesAnySymptom) {
  fault::FaultPlan plan;
  plan.fail_gpu(100 * sim::kMicrosecond, 0);
  fault::Injector inj(plan);
  Cluster cluster(topo::pcie_box(1), 1, 1);
  cluster.set_fault_injector(&inj);
  cluster.run([&](RankCtx& ctx) {
    ctx.engine().sleep_until(200 * sim::kMicrosecond);
    // Even a "peer died" transport error classifies as local loss once the
    // oracle says our own rank's device is gone.
    using TE = simpi::TransportError;
    const auto ev = recover::classify(TE(TE::Code::kPeerDead, 9, 1, "peer"), ctx.comm.job(),
                                      ctx.rank(), ctx.engine().now());
    EXPECT_EQ(ev.kind, recover::FailureKind::kLocalDeviceLoss);
    EXPECT_EQ(ev.peer, 0);
  });
}

// ---------------------------------------------------------------------------
// Dead-peer detection: the blocked wait surfaces kPeerDead at the detection
// bound (failure instant + detect latency), never earlier, never hangs.
// ---------------------------------------------------------------------------

TEST(PeerDeath, RecvFromDeadRankThrowsAtDetectionBound) {
  const sim::Time t_fail = 500 * sim::kMicrosecond;
  fault::FaultPlan plan;
  plan.fail_gpu(t_fail, 1);
  fault::Injector inj(plan);
  Cluster cluster(topo::pcie_box(2), 1, 2);
  cluster.set_fault_injector(&inj);
  cluster.run([&](RankCtx& ctx) {
    auto& rt = ctx.rt;
    if (ctx.rank() == 0) {
      vgpu::Buffer buf = rt.alloc_pinned_host(0, 256);
      auto req = ctx.comm.irecv(simpi::Payload::of(buf, 0, 256), 1, 5);
      try {
        ctx.comm.wait(req);
        FAIL() << "recv from a dead rank completed";
      } catch (const simpi::TransportError& e) {
        EXPECT_EQ(e.code(), simpi::TransportError::Code::kPeerDead);
        EXPECT_EQ(e.peer(), 1);
        EXPECT_EQ(ctx.engine().now(), t_fail + inj.detect_latency());
      }
    } else {
      ctx.engine().sleep_until(t_fail + sim::kMicrosecond);  // die quietly
    }
  });
}

// ---------------------------------------------------------------------------
// Checkpoint/restore round trip, and the buddy invariant (other node).
// ---------------------------------------------------------------------------

float coded(Dim3 g, std::size_t q) {
  return static_cast<float>(g.x + 97 * g.y + 97 * 97 * g.z) + 1.0e6f * static_cast<float>(q);
}

void fill_coded(DistributedDomain& dd, std::size_t nq, float bias) {
  dd.for_each_subdomain([&](LocalDomain& ld) {
    for (std::size_t q = 0; q < nq; ++q) {
      auto v = ld.view<float>(q);
      const Dim3 o = ld.origin();
      for (std::int64_t z = 0; z < ld.size().z; ++z)
        for (std::int64_t y = 0; y < ld.size().y; ++y)
          for (std::int64_t x = 0; x < ld.size().x; ++x)
            v(x, y, z) = coded({o.x + x, o.y + y, o.z + z}, q) + bias;
    }
  });
}

std::int64_t count_mismatches(DistributedDomain& dd, std::size_t nq, float bias) {
  std::int64_t bad = 0;
  dd.for_each_subdomain([&](LocalDomain& ld) {
    for (std::size_t q = 0; q < nq; ++q) {
      auto v = ld.view<float>(q);
      const Dim3 o = ld.origin();
      for (std::int64_t z = 0; z < ld.size().z; ++z)
        for (std::int64_t y = 0; y < ld.size().y; ++y)
          for (std::int64_t x = 0; x < ld.size().x; ++x)
            bad += v(x, y, z) != coded({o.x + x, o.y + y, o.z + z}, q) + bias;
    }
  });
  return bad;
}

TEST(Checkpoint, RoundTripRestoresBitExactState) {
  Cluster cluster(topo::pcie_box(2), 2, 2);
  std::int64_t bad = -1;
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {16, 16, 16});
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.realize();
    recover::RecoveryManager rm(ctx, dd, /*cadence=*/1);

    // Buddies must land on the other node (offset = ranks_per_node).
    fill_coded(dd, 2, 0.0f);
    ASSERT_TRUE(rm.maybe_checkpoint(4));
    EXPECT_EQ(rm.store().my_latest(), 4);
    const int buddy = rm.store().buddy_of(ctx.rank());
    EXPECT_NE(buddy, ctx.rank());
    EXPECT_NE(buddy / 2, ctx.rank() / 2);

    // Clobber, then rewind to the committed generation.
    fill_coded(dd, 2, 123.0f);
    rm.store().restore(4, {});
    if (ctx.rank() == 0) bad = count_mismatches(dd, 2, 0.0f);

    // Two alternating slots: a later checkpoint never evicts the newest.
    fill_coded(dd, 2, 7.0f);
    ASSERT_TRUE(rm.maybe_checkpoint(6));
    EXPECT_EQ(rm.store().my_latest(), 6);
    rm.store().restore(4, {});  // the older generation is still committed
    EXPECT_EQ(rm.stats().checkpoints, 2u);
    EXPECT_THROW(rm.store().restore(2, {}), std::runtime_error);  // evicted/never taken
  });
  EXPECT_EQ(bad, 0);
}

TEST(Checkpoint, CadenceGatesCheckpoints) {
  Cluster cluster(topo::pcie_box(2), 1, 2);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {12, 12, 12});
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.realize();
    recover::RecoveryManager every3(ctx, dd, 3);
    EXPECT_TRUE(every3.maybe_checkpoint(0));
    EXPECT_FALSE(every3.maybe_checkpoint(1));
    EXPECT_FALSE(every3.maybe_checkpoint(2));
    EXPECT_TRUE(every3.maybe_checkpoint(3));
    recover::RecoveryManager never(ctx, dd, 0);
    EXPECT_FALSE(never.maybe_checkpoint(0));
    EXPECT_EQ(never.store().my_latest(), -1);
  });
}

// ---------------------------------------------------------------------------
// The acceptance drill: a 2x2-GPU heat3d run where one GPU dies mid-run must
// complete via shrink + buddy restore, bit-exact against the failure-free
// golden run, with the happens-before checker clean across the epoch bump.
// ---------------------------------------------------------------------------

struct Heat3dResult {
  std::vector<float> field;  // assembled interior, x-major
  std::int64_t survivors = 0;
  std::int64_t casualties = 0;
  recover::RecoveryStats stats;
  bool checker_clean = false;
  std::string checker_summary;
};

Heat3dResult run_heat3d(std::int64_t edge, int steps, bool kill_gpu1, sim::Time t_fail,
                        std::int64_t cadence) {
  Heat3dResult out;
  out.field.assign(static_cast<std::size_t>(edge * edge * edge), -1.0f);

  fault::FaultPlan plan;
  if (kill_gpu1) plan.fail_gpu(t_fail, 1);
  fault::Injector inj(plan);
  Cluster cluster(topo::pcie_box(2), 2, 2);
  check::Checker checker(cluster.engine());
  cluster.set_checker(&checker);
  if (inj.active()) cluster.set_fault_injector(&inj);

  // Pace iterations so the fault lands mid-run regardless of exchange cost.
  const sim::Time slice = steps > 0 ? (2 * t_fail) / steps : 0;

  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {edge, edge, edge});
    dd.set_radius(1);
    dd.set_neighborhood(Neighborhood::kFaces);
    const auto cur = dd.add_data<float>("T");
    const auto nxt = dd.add_data<float>("T_next");
    dd.realize();
    recover::RecoveryManager rm(ctx, dd, cadence);

    // Deterministic non-trivial initial condition.
    dd.for_each_subdomain([&](LocalDomain& ld) {
      auto v = ld.view<float>(cur);
      const Dim3 o = ld.origin();
      for (std::int64_t z = 0; z < ld.size().z; ++z)
        for (std::int64_t y = 0; y < ld.size().y; ++y)
          for (std::int64_t x = 0; x < ld.size().x; ++x)
            v(x, y, z) = coded({o.x + x, o.y + y, o.z + z}, 0) * 1e-4f;
    });

    std::int64_t it = 0, trip = 0;
    while (it < steps) {
      try {
        ctx.engine().sleep_until(slice * trip);
        ++trip;
        rm.maybe_checkpoint(it);
        dd.exchange({cur});
        dd.for_each_subdomain([&](LocalDomain& ld) {
          dd.launch_compute(ld, "jacobi", 1000, [&ld] {
            auto t = ld.view<float>(0);
            auto tn = ld.view<float>(1);
            const auto s = ld.size();
            for (std::int64_t z = 0; z < s.z; ++z)
              for (std::int64_t y = 0; y < s.y; ++y)
                for (std::int64_t x = 0; x < s.x; ++x) {
                  const float lap = t(x - 1, y, z) + t(x + 1, y, z) + t(x, y - 1, z) +
                                    t(x, y + 1, z) + t(x, y, z - 1) + t(x, y, z + 1) -
                                    6.0f * t(x, y, z);
                  tn(x, y, z) = t(x, y, z) + 0.1f * lap;
                }
          });
        });
        dd.compute_synchronize();
        dd.for_each_subdomain([&](LocalDomain& ld) { ld.swap_data(cur, nxt); });
        ++it;
      } catch (const std::exception& e) {
        const auto ev = recover::classify(e, ctx.comm.job(), ctx.rank(), ctx.engine().now());
        if (ev.kind == recover::FailureKind::kNone) throw;
        const std::int64_t back = rm.recover(ev, it);
        if (back == recover::RecoveryManager::kRankGone) {
          ++out.casualties;
          return;
        }
        it = back;
      }
    }
    ++out.survivors;
    if (rm.stats().recoveries > out.stats.recoveries) out.stats = rm.stats();

    // Assemble this rank's interiors into the global field (DES actors run
    // one at a time, so plain writes are safe).
    dd.for_each_subdomain([&](LocalDomain& ld) {
      auto v = ld.view<float>(cur);
      const Dim3 o = ld.origin();
      for (std::int64_t z = 0; z < ld.size().z; ++z)
        for (std::int64_t y = 0; y < ld.size().y; ++y)
          for (std::int64_t x = 0; x < ld.size().x; ++x)
            out.field[static_cast<std::size_t>((o.z + z) * edge * edge + (o.y + y) * edge +
                                               o.x + x)] = v(x, y, z);
    });
  });
  out.checker_clean = checker.report().clean();
  out.checker_summary = checker.report().summary();
  for (const auto& f : checker.report().findings()) {
    out.checker_summary += "\n  " + f.first + ": " + f.second;
  }
  return out;
}

TEST(Acceptance, GpuFailMidRunShrinksAndMatchesGoldenBitExact) {
  constexpr std::int64_t kEdge = 24;
  constexpr int kSteps = 6;
  const sim::Time t_fail = 400 * sim::kMicrosecond;

  const Heat3dResult golden = run_heat3d(kEdge, kSteps, false, t_fail, 2);
  ASSERT_EQ(golden.survivors, 4);
  ASSERT_EQ(golden.casualties, 0);
  ASSERT_TRUE(golden.checker_clean);

  const Heat3dResult wounded = run_heat3d(kEdge, kSteps, true, t_fail, 2);
  EXPECT_EQ(wounded.casualties, 1);
  EXPECT_EQ(wounded.survivors, 3);
  EXPECT_GE(wounded.stats.recoveries, 1u);
  EXPECT_EQ(wounded.stats.ranks_retired, 1u);
  EXPECT_GT(wounded.stats.last_mttr, 0);
  EXPECT_TRUE(wounded.checker_clean)
      << "checker found races across the recovery epoch: " << wounded.checker_summary;

  // Every interior point was produced by a survivor...
  for (const float f : wounded.field) ASSERT_NE(f, -1.0f);
  // ...and the survivor-computed field is bit-identical to the golden run.
  ASSERT_EQ(wounded.field.size(), golden.field.size());
  std::size_t diffs = 0, first = 0;
  for (std::size_t i = 0; i < golden.field.size(); ++i) {
    if (wounded.field[i] != golden.field[i]) {
      if (diffs == 0) first = i;
      ++diffs;
    }
  }
  EXPECT_EQ(diffs, 0u) << "first diff at linear " << first << " = ("
                       << first % kEdge << "," << (first / kEdge) % kEdge << ","
                       << first / (kEdge * kEdge) << "): " << wounded.field[first]
                       << " vs golden " << golden.field[first];
}

// ---------------------------------------------------------------------------
// The transient rung: a drop window that outlasts the retry budget fails an
// exchange on every rank; each rank aborts it and replays the iteration.
// ---------------------------------------------------------------------------

TEST(TransientRung, AbortsTheInterruptedExchangeAndReplaysBitExact) {
  constexpr std::int64_t kEdge = 32;
  const Dim3 domain{kEdge, kEdge, kEdge};
  const sim::Time drop_at = 50 * sim::kMillisecond;

  fault::FaultPlan plan;
  fault::RetryPolicy rp;
  rp.timeout = 50 * sim::kMicrosecond;
  rp.max_retries = 1;
  plan.set_retry_policy(rp);
  plan.drop_messages(drop_at, drop_at + 2 * sim::kMillisecond, -1, -1, 1.0);
  fault::Injector inj(plan);

  Cluster cluster(topo::pcie_box(2), 2, 2);
  cluster.set_fault_injector(&inj);
  std::vector<int> transient(4, 0);  // per rank; replays inside the window fail again
  int other = 0, finished = 0, halo_errors = 0;
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("q0");
    dd.realize();
    recover::RecoveryManager rm(ctx, dd, 0);
    // Enter the drop window after the set-up handshakes.
    ctx.engine().sleep_until(drop_at);
    for (std::int64_t it = 0; it < 2;) {
      try {
        stencil::halo_oracle::fill_interior(dd, 1);
        dd.exchange();
        halo_errors += stencil::halo_oracle::verify_halos(dd, domain, 1);
        ++it;
      } catch (const std::exception& e) {
        const auto ev = recover::classify(e, ctx.comm.job(), ctx.rank(), ctx.engine().now());
        if (ev.kind == recover::FailureKind::kTransient) {
          ++transient[static_cast<std::size_t>(ctx.rank())];
        } else {
          ++other;
          ADD_FAILURE() << "rank " << ctx.rank() << ": " << recover::to_string(ev.kind) << ": "
                        << ev.what;
          return;
        }
        it = rm.recover(ev, it);
      }
    }
    ++finished;
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_GE(transient[static_cast<std::size_t>(r)], 1) << "rank " << r;
  }
  EXPECT_EQ(other, 0);
  EXPECT_EQ(finished, 4);
  EXPECT_EQ(halo_errors, 0);
}

// ---------------------------------------------------------------------------
// The kitchen sink: persistent compiled plans + happens-before checker + a
// transient fault storm + a terminal rank death, in one run.
// ---------------------------------------------------------------------------

TEST(Combined, PersistentPlansSurviveStormAndRankDeath) {
  constexpr std::int64_t kEdge = 16;
  // Late enough that realize() and its lossy setup handshakes are long done
  // (the drop storm stretches them via retries) before the rank dies.
  const sim::Time t_fail = 10 * sim::kMillisecond;

  fault::FaultPlan plan;
  fault::RetryPolicy rp;
  rp.timeout = 50 * sim::kMicrosecond;
  rp.max_retries = 6;
  rp.backoff_base = 5 * sim::kMicrosecond;
  rp.backoff_cap = 20 * sim::kMicrosecond;
  rp.jitter = sim::kMicrosecond;
  plan.set_retry_policy(rp);
  plan.set_seed(0xc0ffee);
  // A lossy NIC across the whole run plus one terminal GPU failure.
  plan.drop_messages(0, fault::kForever, -1, -1, 0.05);
  plan.fail_gpu(t_fail, 3);
  fault::Injector inj(plan);

  Cluster cluster(topo::pcie_box(2), 2, 2);
  check::Checker checker(cluster.engine());
  cluster.set_checker(&checker);
  cluster.set_fault_injector(&inj);

  std::int64_t halo_errors = 0;
  int survivors = 0, casualties = 0;
  std::uint64_t recoveries = 0;
  const int total = 8;
  const sim::Time slice = t_fail / 4;

  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {kEdge, kEdge, kEdge});
    dd.set_radius(1);
    dd.add_data<float>("q0");
    dd.set_persistent(true);
    dd.realize();
    recover::RecoveryManager rm(ctx, dd, 2);

    std::int64_t it = 0, trip = 0;
    while (it < total) {
      try {
        ctx.engine().sleep_until(slice * trip);
        ++trip;
        rm.maybe_checkpoint(it);
        fill_coded(dd, 1, 0.0f);
        dd.exchange();
        // Interior unchanged by the exchange; halos come from live peers.
        halo_errors += count_mismatches(dd, 1, 0.0f);
        ++it;
      } catch (const std::exception& e) {
        const auto ev = recover::classify(e, ctx.comm.job(), ctx.rank(), ctx.engine().now());
        if (ev.kind == recover::FailureKind::kNone) throw;
        const std::int64_t back = rm.recover(ev, it);
        if (back == recover::RecoveryManager::kRankGone) {
          ++casualties;
          return;
        }
        it = back;
      }
    }
    ++survivors;
    recoveries = std::max(recoveries, rm.stats().recoveries);
  });

  EXPECT_EQ(halo_errors, 0);
  EXPECT_EQ(casualties, 1);
  EXPECT_EQ(survivors, 3);
  EXPECT_GE(recoveries, 1u);
  EXPECT_TRUE(checker.report().clean()) << checker.report().summary();
}

}  // namespace
