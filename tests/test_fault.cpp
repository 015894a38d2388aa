#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "fault/fault.h"
#include "halo_oracle.h"
#include "simpi/mpi.h"
#include "topo/archetype.h"
#include "trace/recorder.h"

namespace sim = stencil::sim;
namespace topo = stencil::topo;
namespace vgpu = stencil::vgpu;
namespace simpi = stencil::simpi;
namespace fault = stencil::fault;
namespace trace = stencil::trace;

using stencil::Cluster;
using stencil::Dim3;
using stencil::DistributedDomain;
using stencil::LocalDomain;
using stencil::Method;
using stencil::MethodFlags;
using stencil::Neighborhood;
using stencil::PlacementStrategy;
using stencil::RankCtx;
using namespace stencil::halo_oracle;

namespace {

// ---------------------------------------------------------------------------
// Injector unit tests: every query is a pure function of (plan, t).
// ---------------------------------------------------------------------------

TEST(FaultInjector, DegradeWindowAndWildcards) {
  fault::FaultPlan plan;
  plan.degrade_link(100, fault::LinkClass::kNic, 0, 1, 0.25, 200)
      .degrade_link(150, fault::LinkClass::kNic, -1, -1, 0.5, 300);
  fault::Injector inj(plan);

  EXPECT_DOUBLE_EQ(inj.link_scale(fault::LinkClass::kNic, 0, 1, 99), 1.0);
  EXPECT_DOUBLE_EQ(inj.link_scale(fault::LinkClass::kNic, 0, 1, 100), 0.25);
  // Overlapping windows take the worst (minimum) scale.
  EXPECT_DOUBLE_EQ(inj.link_scale(fault::LinkClass::kNic, 0, 1, 199), 0.25);
  EXPECT_DOUBLE_EQ(inj.link_scale(fault::LinkClass::kNic, 0, 1, 200), 0.5);
  EXPECT_DOUBLE_EQ(inj.link_scale(fault::LinkClass::kNic, 0, 1, 300), 1.0);
  // Wildcard event matches other id pairs; the targeted one does not.
  EXPECT_DOUBLE_EQ(inj.link_scale(fault::LinkClass::kNic, 3, 4, 160), 0.5);
  EXPECT_DOUBLE_EQ(inj.link_scale(fault::LinkClass::kNic, 3, 4, 120), 1.0);
  // Other link classes are untouched.
  EXPECT_DOUBLE_EQ(inj.link_scale(fault::LinkClass::kXBus, 0, -1, 160), 1.0);
}

TEST(FaultInjector, FailedLinkIsDown) {
  fault::FaultPlan plan;
  plan.fail_link(50, fault::LinkClass::kNic, 0, 1, 150);
  fault::Injector inj(plan);
  EXPECT_FALSE(inj.link_down(fault::LinkClass::kNic, 0, 1, 49));
  EXPECT_TRUE(inj.link_down(fault::LinkClass::kNic, 0, 1, 50));
  EXPECT_TRUE(inj.link_down(fault::LinkClass::kNic, 0, 1, 149));
  EXPECT_FALSE(inj.link_down(fault::LinkClass::kNic, 0, 1, 150));
  EXPECT_FALSE(inj.link_down(fault::LinkClass::kNic, 1, 0, 100));  // directional
}

TEST(FaultInjector, PeerRevocationIsPermanentAndSymmetric) {
  fault::FaultPlan plan;
  plan.revoke_peer(1000, 2, 5);
  fault::Injector inj(plan);
  EXPECT_FALSE(inj.peer_revoked(2, 5, 999));
  EXPECT_TRUE(inj.peer_revoked(2, 5, 1000));
  EXPECT_TRUE(inj.peer_revoked(5, 2, 1000));  // symmetric
  EXPECT_TRUE(inj.peer_revoked(2, 5, fault::kForever));  // never restored
  EXPECT_FALSE(inj.peer_revoked(2, 4, 2000));
}

TEST(FaultInjector, IpcStaleOnlyForMappingsOpenBeforeEvent) {
  fault::FaultPlan plan;
  plan.invalidate_ipc(500, 1);
  fault::Injector inj(plan);
  // Opened before the event, queried after: stale.
  EXPECT_TRUE(inj.ipc_stale(1, 100, 600));
  EXPECT_FALSE(inj.ipc_stale(1, 100, 499));  // event not yet fired
  // Opened after the event: a fresh mapping is fine.
  EXPECT_FALSE(inj.ipc_stale(1, 501, 1000));
  // Different node untouched; wildcard-node plans hit everyone.
  EXPECT_FALSE(inj.ipc_stale(0, 100, 600));
  fault::FaultPlan all;
  all.invalidate_ipc(500);
  EXPECT_TRUE(fault::Injector(all).ipc_stale(3, 0, 500));
}

TEST(FaultInjector, DeviceSlowAndCudaAwareWindows) {
  fault::FaultPlan plan;
  plan.slow_device(10, 3, 0.1, 20).disable_cuda_aware(100, 200);
  fault::Injector inj(plan);
  EXPECT_DOUBLE_EQ(inj.device_scale(3, 15), 0.1);
  EXPECT_DOUBLE_EQ(inj.device_scale(3, 20), 1.0);
  EXPECT_DOUBLE_EQ(inj.device_scale(2, 15), 1.0);
  EXPECT_FALSE(inj.cuda_aware_disabled(99));
  EXPECT_TRUE(inj.cuda_aware_disabled(100));
  EXPECT_TRUE(inj.cuda_aware_disabled(199));
  EXPECT_FALSE(inj.cuda_aware_disabled(200));
}

TEST(FaultInjector, RejectsMalformedEvents) {
  fault::FaultPlan plan;
  EXPECT_THROW(plan.degrade_link(100, fault::LinkClass::kNic, 0, 1, 0.5, 50),
               std::invalid_argument);  // window ends before it starts
  EXPECT_THROW(plan.slow_device(0, 0, -1.0), std::invalid_argument);
  EXPECT_THROW(plan.drop_messages(0, 10, 0, 1, -0.5), std::invalid_argument);
  EXPECT_THROW(plan.delay_messages(0, 10, 0, 1, -5), std::invalid_argument);
  fault::RetryPolicy bad;
  bad.timeout = -1;
  EXPECT_THROW(plan.set_retry_policy(bad), std::invalid_argument);
}

TEST(FaultInjector, DropDecisionsAreDeterministic) {
  fault::FaultPlan plan;
  plan.drop_messages(0, fault::kForever, -1, -1, 0.5).set_seed(42);
  fault::Injector a(plan);
  fault::Injector b(plan);  // independent instance, same plan

  int drops = 0;
  for (int tag = 0; tag < 200; ++tag) {
    const bool da = a.message_dropped(0, 1, 0, 6, tag, 0, 1000 + tag);
    // Same tuple, same plan: bit-identical decision, across instances and
    // across repeated queries (no hidden RNG stream).
    EXPECT_EQ(da, b.message_dropped(0, 1, 0, 6, tag, 0, 1000 + tag));
    EXPECT_EQ(da, a.message_dropped(0, 1, 0, 6, tag, 0, 1000 + tag));
    drops += da;
  }
  // p=0.5 over 200 tuples: the hash behaves like a coin, not a constant.
  EXPECT_GT(drops, 50);
  EXPECT_LT(drops, 150);

  // Probability 1 drops everything inside the window, nothing outside it.
  fault::FaultPlan certain;
  certain.drop_messages(100, 200, 0, 1, 1.0);
  fault::Injector c(certain);
  EXPECT_TRUE(c.message_dropped(0, 1, 0, 6, 7, 0, 150));
  EXPECT_FALSE(c.message_dropped(0, 1, 0, 6, 7, 0, 99));
  EXPECT_FALSE(c.message_dropped(0, 1, 0, 6, 7, 0, 200));
  EXPECT_FALSE(c.message_dropped(1, 0, 6, 0, 7, 0, 150));  // other direction
}

TEST(FaultInjector, DelayQueryTakesMaxOfActiveWindows) {
  fault::FaultPlan plan;
  plan.delay_messages(0, 100, 0, 1, 30).delay_messages(50, 200, -1, -1, 70);
  fault::Injector inj(plan);
  EXPECT_EQ(inj.message_delay(0, 1, 10), 30);
  EXPECT_EQ(inj.message_delay(0, 1, 60), 70);  // overlapping: max wins
  EXPECT_EQ(inj.message_delay(0, 1, 150), 70);
  EXPECT_EQ(inj.message_delay(0, 1, 200), 0);
  EXPECT_EQ(inj.message_delay(2, 3, 60), 70);  // wildcard
  EXPECT_EQ(inj.message_delay(2, 3, 10), 0);
}

TEST(FaultInjector, ActiveOnlyWithEventsOrRetry) {
  EXPECT_FALSE(fault::Injector(fault::FaultPlan{}).active());
  fault::FaultPlan events;
  events.slow_device(0, -1, 0.5);
  EXPECT_TRUE(fault::Injector(events).active());
  fault::FaultPlan retry_only;
  retry_only.set_retry_policy({sim::kMillisecond, 3, sim::kMicrosecond});
  EXPECT_TRUE(fault::Injector(retry_only).active());
}

TEST(FaultInjector, RecorderGetsEveryScriptedEvent) {
  fault::FaultPlan plan;
  plan.revoke_peer(100, 0, 1).degrade_link(200, fault::LinkClass::kNic, -1, -1, 0.5, 400);
  fault::Injector inj(plan);
  trace::Recorder rec;
  inj.set_recorder(&rec);
  ASSERT_EQ(rec.records().size(), 2u);
  for (const auto& r : rec.records()) EXPECT_EQ(r.lane, "fault");
  EXPECT_NE(rec.records()[0].label.find("peer-revoke"), std::string::npos);
  EXPECT_NE(rec.records()[1].label.find("link-degrade"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine: timed gate waits and structured deadlock diagnostics.
// ---------------------------------------------------------------------------

TEST(FaultEngine, GateWaitUntilTimesOutAtDeadline) {
  sim::Engine eng;
  sim::Gate gate("g");
  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {
    EXPECT_FALSE(gate.wait_until(eng, 100 * sim::kMicrosecond, "never notified"));
    EXPECT_EQ(eng.now(), 100 * sim::kMicrosecond);
    // A deadline in the past returns immediately without rescheduling.
    EXPECT_FALSE(gate.wait_until(eng, 50 * sim::kMicrosecond));
    EXPECT_EQ(eng.now(), 100 * sim::kMicrosecond);
  });
  eng.run(std::move(bodies));
}

TEST(FaultEngine, GateWaitUntilWakesOnNotify) {
  sim::Engine eng;
  sim::Gate gate("g");
  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {
    EXPECT_TRUE(gate.wait_until(eng, sim::kSecond, "waiting for pal"));
    EXPECT_EQ(eng.now(), 30 * sim::kMicrosecond);  // notifier's time, not deadline
  });
  bodies.push_back([&] {
    eng.sleep_for(30 * sim::kMicrosecond);
    gate.notify_all(eng);
  });
  eng.run(std::move(bodies));
}

TEST(FaultEngine, DeadlockReportNamesActorsAndDetails) {
  sim::Engine eng;
  sim::Gate ga("gate-a");
  sim::Gate gb("gate-b");
  bool watchdog_fired = false;
  sim::DeadlockReport observed;
  eng.set_watchdog([&](const sim::DeadlockReport& r) {
    watchdog_fired = true;
    observed = r;
  });
  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] { ga.wait(eng, "token 17"); });
  bodies.push_back([&] { gb.wait(eng, "token 18"); });
  try {
    eng.run(std::move(bodies), {"alice", "bob"});
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    const sim::DeadlockReport& rep = e.report();
    ASSERT_EQ(rep.actors.size(), 2u);
    auto find = [&](const std::string& name) {
      auto it = std::find_if(rep.actors.begin(), rep.actors.end(),
                             [&](const sim::BlockedActorInfo& a) { return a.actor == name; });
      EXPECT_NE(it, rep.actors.end()) << "missing actor " << name;
      return it;
    };
    auto a = find("alice");
    EXPECT_EQ(a->resource, "gate-a");
    EXPECT_EQ(a->detail, "token 17");
    auto b = find("bob");
    EXPECT_EQ(b->resource, "gate-b");
    EXPECT_EQ(b->detail, "token 18");
    // The flat message carries the same diagnostics.
    const std::string what = e.what();
    EXPECT_NE(what.find("alice"), std::string::npos);
    EXPECT_NE(what.find("gate-b"), std::string::npos);
    EXPECT_NE(what.find("token 17"), std::string::npos);
  }
  EXPECT_TRUE(watchdog_fired);
  EXPECT_EQ(observed.actors.size(), 2u);
}

// ---------------------------------------------------------------------------
// simpi under faults: timeouts, retries, delays, and NIC degradation.
// ---------------------------------------------------------------------------

struct World {
  sim::Engine eng;
  topo::Machine machine;
  vgpu::Runtime runtime;
  simpi::Job job;
  World(int nodes, int ranks_per_node, topo::NodeArchetype arch = topo::summit())
      : machine(std::move(arch), nodes),
        runtime(eng, machine),
        job(eng, machine, runtime, ranks_per_node) {}
};

TEST(FaultSimpi, UnmatchedWaitTimesOutWithStructuredError) {
  fault::FaultPlan plan;
  plan.set_retry_policy({sim::kMillisecond, 2, 100 * sim::kMicrosecond});
  fault::Injector inj(plan);
  World w(1, 2);
  w.machine.set_fault_injector(&inj);
  try {
    w.job.run([](simpi::Comm& comm) {
      if (comm.rank() == 0) {
        int v = 0;
        comm.recv(simpi::Payload::of_values(&v, 1), 1, 9);  // nobody sends tag 9
      }
    });
    FAIL() << "expected TransportError";
  } catch (const simpi::TransportError& e) {
    EXPECT_EQ(e.code(), simpi::TransportError::Code::kTimeout);
    EXPECT_EQ(e.peer(), 1);
    EXPECT_EQ(e.tag(), 9);
  }
}

TEST(FaultSimpi, AllRetriesDroppedRaisesRetriesExhausted) {
  fault::FaultPlan plan;
  plan.drop_messages(0, fault::kForever, -1, -1, 1.0)
      .set_retry_policy({sim::kMillisecond, 2, 100 * sim::kMicrosecond});
  fault::Injector inj(plan);
  World w(1, 2);
  w.machine.set_fault_injector(&inj);
  try {
    w.job.run([](simpi::Comm& comm) {
      std::vector<char> buf(128 * 1024);  // above the eager limit: both sides fail
      if (comm.rank() == 0) {
        comm.send(simpi::Payload::of_values(buf.data(), buf.size()), 1, 4);
      } else {
        comm.recv(simpi::Payload::of_values(buf.data(), buf.size()), 0, 4);
      }
    });
    FAIL() << "expected TransportError";
  } catch (const simpi::TransportError& e) {
    EXPECT_EQ(e.code(), simpi::TransportError::Code::kRetriesExhausted);
    EXPECT_EQ(e.tag(), 4);
  }
}

TEST(FaultSimpi, DropThenRetryDeliversIntactPayload) {
  // Every attempt inside [0, 2ms) is lost; the retransmission that lands
  // after the window goes through. The receiver sees the original payload.
  fault::FaultPlan plan;
  plan.drop_messages(0, 2 * sim::kMillisecond, -1, -1, 1.0)
      .set_retry_policy({sim::kMillisecond, 5, 0});
  fault::Injector inj(plan);
  trace::Recorder rec;
  World w(1, 2);
  w.machine.set_fault_injector(&inj);
  w.job.attach(&rec);
  w.job.run([](simpi::Comm& comm) {
    std::vector<int> data(1024);
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<int>(3 * i + 1);
      comm.send(simpi::Payload::of_values(data.data(), data.size()), 1, 6);
    } else {
      comm.recv(simpi::Payload::of_values(data.data(), data.size()), 0, 6);
      EXPECT_GE(sim::Engine::current()->now(), 2 * sim::kMillisecond);
      for (std::size_t i = 0; i < data.size(); ++i) {
        ASSERT_EQ(data[i], static_cast<int>(3 * i + 1)) << "corrupt at " << i;
      }
    }
  });
  // The lost attempts are visible on the trace.
  const bool saw_drop = std::any_of(rec.records().begin(), rec.records().end(),
                                    [](const trace::OpRecord& r) {
                                      return r.label.find("drop tag=6") != std::string::npos;
                                    });
  EXPECT_TRUE(saw_drop);
}

TEST(FaultSimpi, InjectedDelayShiftsDeliveryExactly) {
  const sim::Duration extra = 300 * sim::kMicrosecond;
  auto timed_run = [](const fault::Injector* inj) {
    World w(2, 1);
    if (inj) w.machine.set_fault_injector(inj);
    sim::Duration elapsed = 0;
    w.job.run([&](simpi::Comm& comm) {
      std::vector<char> buf(1 << 20);
      const double t0 = comm.wtime();
      if (comm.rank() == 0) {
        comm.send(simpi::Payload::of_values(buf.data(), buf.size()), 1, 0);
      } else {
        comm.recv(simpi::Payload::of_values(buf.data(), buf.size()), 0, 0);
        elapsed = sim::from_seconds(comm.wtime() - t0);
      }
    });
    return elapsed;
  };
  const sim::Duration base = timed_run(nullptr);
  fault::FaultPlan plan;
  plan.delay_messages(0, fault::kForever, 0, 1, extra);
  fault::Injector inj(plan);
  const sim::Duration delayed = timed_run(&inj);
  EXPECT_EQ(delayed, base + extra);  // virtual time: the shift is exact
}

TEST(FaultSimpi, DegradedNicSlowsInterNodeTransfer) {
  auto timed_run = [](const fault::Injector* inj) {
    World w(2, 1);
    if (inj) w.machine.set_fault_injector(inj);
    sim::Duration elapsed = 0;
    w.job.run([&](simpi::Comm& comm) {
      std::vector<char> buf(8 << 20);
      const double t0 = comm.wtime();
      if (comm.rank() == 0) {
        comm.send(simpi::Payload::of_values(buf.data(), buf.size()), 1, 0);
      } else {
        comm.recv(simpi::Payload::of_values(buf.data(), buf.size()), 0, 0);
        elapsed = sim::from_seconds(comm.wtime() - t0);
      }
    });
    return elapsed;
  };
  const sim::Duration base = timed_run(nullptr);
  fault::FaultPlan plan;
  plan.degrade_link(0, fault::LinkClass::kNic, -1, -1, 0.25);
  fault::Injector inj(plan);
  const sim::Duration degraded = timed_run(&inj);
  EXPECT_GT(degraded, 2 * base);  // 4x less bandwidth, minus latency terms
}

TEST(FaultSimpi, SlowedDeviceStretchesKernels) {
  auto timed_kernel = [](const fault::Injector* inj) {
    sim::Engine eng;
    topo::Machine m(topo::summit(), 1);
    if (inj) m.set_fault_injector(inj);
    vgpu::Runtime rt(eng, m);
    sim::Duration d = 0;
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&] {
      auto s = rt.create_stream(0);
      const sim::Time t0 = eng.now();
      rt.launch_kernel(s, 64 << 20, "bulk", nullptr);
      rt.stream_synchronize(s);
      d = eng.now() - t0;
    });
    eng.run(std::move(bodies));
    return d;
  };
  const sim::Duration base = timed_kernel(nullptr);
  fault::FaultPlan plan;
  plan.slow_device(0, 0, 0.25);
  fault::Injector inj(plan);
  const sim::Duration slowed = timed_kernel(&inj);
  EXPECT_GT(slowed, 3 * base);
  // A device outside the event is unaffected -- scale clamps are per-gpu.
  fault::FaultPlan other;
  other.slow_device(0, 5, 0.25);
  fault::Injector other_inj(other);
  EXPECT_EQ(timed_kernel(&other_inj), base);
}

// Satellite: message storms under injected delay and drop-and-retry keep
// per-(src, tag) order and payload integrity.
TEST(FaultSimpi, StormUnderDropAndDelayKeepsOrderAndIntegrity) {
  fault::FaultPlan plan;
  plan.drop_messages(0, fault::kForever, -1, -1, 0.25)
      .delay_messages(0, fault::kForever, 0, 1, 200 * sim::kMicrosecond)
      .set_seed(0xbadcafe)
      .set_retry_policy({sim::kMillisecond, 8, 50 * sim::kMicrosecond});
  fault::Injector inj(plan);
  trace::Recorder rec;
  World w(2, 2);  // 4 ranks across 2 nodes
  w.machine.set_fault_injector(&inj);
  w.job.attach(&rec);

  constexpr int kMsgs = 12;
  constexpr int kTags[] = {3, 4};
  constexpr std::size_t kLen = 96;
  const auto stamp = [](int src, int tag, int seq, std::size_t i) {
    return src * 1'000'000 + tag * 10'000 + seq * 100 + static_cast<int>(i % 97);
  };

  w.job.run([&](simpi::Comm& comm) {
    const int me = comm.rank();
    // Blast every message to every other rank up front (eager sends).
    std::vector<std::vector<int>> out;
    std::vector<simpi::Request> reqs;
    for (int dst = 0; dst < comm.size(); ++dst) {
      if (dst == me) continue;
      for (int tag : kTags) {
        for (int seq = 0; seq < kMsgs; ++seq) {
          out.emplace_back(kLen);
          for (std::size_t i = 0; i < kLen; ++i) out.back()[i] = stamp(me, tag, seq, i);
          reqs.push_back(comm.isend(simpi::Payload::of_values(out.back().data(), kLen), dst, tag));
        }
      }
    }
    // Drain in per-(src, tag) sequence order, interleaving sources: each
    // arrival must be the next undelivered message of its stream.
    for (int seq = 0; seq < kMsgs; ++seq) {
      for (int src = 0; src < comm.size(); ++src) {
        if (src == me) continue;
        for (int tag : kTags) {
          std::vector<int> in(kLen, -1);
          comm.recv(simpi::Payload::of_values(in.data(), kLen), src, tag);
          for (std::size_t i = 0; i < kLen; ++i) {
            ASSERT_EQ(in[i], stamp(src, tag, seq, i))
                << "src " << src << " tag " << tag << " seq " << seq << " elem " << i;
          }
        }
      }
    }
    comm.waitall(reqs);
  });
  // The plan really dropped messages: retries are on the trace.
  const bool saw_drop = std::any_of(rec.records().begin(), rec.records().end(),
                                    [](const trace::OpRecord& r) {
                                      return r.label.find("drop tag=") != std::string::npos;
                                    });
  EXPECT_TRUE(saw_drop);
}

// A polled test() reports a lost message like wait does: every transmission
// of a rendezvous send is dropped, so both ends fail with kRetriesExhausted
// instead of reporting a completion.
TEST(FaultSimpi, TestReportsLostMessage) {
  fault::FaultPlan plan;
  plan.drop_messages(0, fault::kForever, -1, -1, 1.0)
      .set_retry_policy({sim::kMillisecond, 2, 100 * sim::kMicrosecond});
  fault::Injector inj(plan);
  World w(1, 2);
  w.machine.set_fault_injector(&inj);
  std::vector<simpi::TransportError::Code> codes(2, simpi::TransportError::Code::kTimeout);
  int errors = 0;
  w.job.run([&](simpi::Comm& comm) {
    std::vector<char> buf(128 * 1024);  // above the eager limit: both sides fail
    const auto p = simpi::Payload::of_values(buf.data(), buf.size());
    simpi::Request r = comm.rank() == 0 ? comm.isend(p, 1, 4) : comm.irecv(p, 0, 4);
    try {
      while (!comm.test(r)) comm.job().engine().sleep_for(10 * sim::kMicrosecond);
    } catch (const simpi::TransportError& e) {
      codes[static_cast<std::size_t>(comm.rank())] = e.code();
      EXPECT_EQ(e.peer(), 1 - comm.rank());
      EXPECT_EQ(e.tag(), 4);
      ++errors;
    }
  });
  EXPECT_EQ(errors, 2);
  for (const auto c : codes) EXPECT_EQ(c, simpi::TransportError::Code::kRetriesExhausted);
}

// One failure outcome of rank 0's recv (src 1, tag 5), run through each wait
// kind: wait, wait_any and (for a lost message) test must raise the same
// code, peer, tag and text at the same virtual instant.
enum class WaitKind { kWait, kWaitAny, kTest };

struct Outcome {
  simpi::TransportError::Code code{};
  int peer = -2;
  int tag = -2;
  std::string what;
  sim::Time at = -1;
};

TEST(FaultSimpi, WaitKindsFailAlike) {
  using Code = simpi::TransportError::Code;
  const fault::RetryPolicy retry{sim::kMillisecond, 2, 100 * sim::kMicrosecond};
  const sim::Time t_fail = 500 * sim::kMicrosecond;
  struct Row {
    Code code;
    fault::FaultPlan plan;
    std::size_t bytes;                      // rank 0's recv size
    std::function<void(simpi::Comm&)> peer;  // rank 1's part
    std::vector<WaitKind> kinds;
  };
  std::vector<Row> rows;
  rows.push_back({Code::kRevoked, fault::FaultPlan{}, 4,
                  [](simpi::Comm& comm) {
                    comm.job().engine().sleep_for(100 * sim::kMicrosecond);
                    comm.job().revoke();
                  },
                  {WaitKind::kWait, WaitKind::kWaitAny}});
  rows.push_back({Code::kPeerDead, fault::FaultPlan{}.fail_gpu(t_fail, 1), 4,
                  [&](simpi::Comm& comm) { comm.job().engine().sleep_until(t_fail); },
                  {WaitKind::kWait, WaitKind::kWaitAny}});
  rows.push_back({Code::kRetriesExhausted,
                  fault::FaultPlan{}.drop_messages(0, fault::kForever, -1, -1, 1.0)
                      .set_retry_policy(retry),
                  128 * 1024,
                  [](simpi::Comm& comm) {
                    std::vector<char> buf(128 * 1024);
                    EXPECT_THROW(comm.send(simpi::Payload::of_values(buf.data(), buf.size()), 0, 5),
                                 simpi::TransportError);
                  },
                  {WaitKind::kWait, WaitKind::kWaitAny, WaitKind::kTest}});
  rows.push_back({Code::kTimeout, fault::FaultPlan{}.set_retry_policy(retry), 4,
                  [](simpi::Comm&) {}, {WaitKind::kWait}});

  for (const Row& row : rows) {
    const auto run = [&](WaitKind kind, sim::Time test_at) {
      fault::Injector inj(row.plan);
      World w(1, 2, topo::pcie_box(2));  // rank r drives GPU r
      w.machine.set_fault_injector(&inj);
      Outcome out;
      w.job.run([&](simpi::Comm& comm) {
        if (comm.rank() == 1) {
          row.peer(comm);
          return;
        }
        auto& eng = comm.job().engine();
        std::vector<char> buf(row.bytes);
        simpi::Request r = comm.irecv(simpi::Payload::of_values(buf.data(), buf.size()), 1, 5);
        try {
          switch (kind) {
            case WaitKind::kWait:
              comm.wait(r);
              break;
            case WaitKind::kWaitAny: {
              std::vector<simpi::Request> rs{simpi::Request(), r};
              comm.wait_any(rs);
              break;
            }
            case WaitKind::kTest:
              eng.sleep_until(test_at - 1);
              EXPECT_FALSE(comm.test(r));
              eng.sleep_until(test_at);
              comm.test(r);
              break;
          }
          ADD_FAILURE() << "no TransportError";
        } catch (const simpi::TransportError& e) {
          out = {e.code(), e.peer(), e.tag(), e.what(), eng.now()};
        }
      });
      return out;
    };
    const Outcome ref = run(WaitKind::kWait, 0);
    EXPECT_EQ(ref.code, row.code) << ref.what;
    EXPECT_EQ(ref.peer, 1);
    EXPECT_EQ(ref.tag, 5);
    EXPECT_EQ(ref.what.rfind("simpi: recv src=1 tag=5 ", 0), 0u) << ref.what;
    for (const WaitKind kind : row.kinds) {
      const Outcome got = run(kind, ref.at);
      SCOPED_TRACE(ref.what + " via kind " + std::to_string(static_cast<int>(kind)));
      EXPECT_EQ(got.code, ref.code);
      EXPECT_EQ(got.peer, ref.peer);
      EXPECT_EQ(got.tag, ref.tag);
      EXPECT_EQ(got.what, ref.what);
      EXPECT_EQ(got.at, ref.at);
    }
  }
}

// wait_any has no retry budget, so it never raises kTimeout: a peer that
// posts long after the budget still matches, and with no sender at all the
// engine's deadlock detector names the wait. A budget there would break the
// recovery ladder: the halo drain waits with wait_any behind lossy retries
// that can outlast one budget, and a drain that timed out would leave its
// exchange in flight when the transient rung replays the iteration.
TEST(FaultSimpi, WaitAnyHasNoRetryBudget) {
  fault::FaultPlan plan;
  plan.set_retry_policy({sim::kMillisecond, 2, 100 * sim::kMicrosecond});
  fault::Injector inj(plan);
  World w(1, 2);
  w.machine.set_fault_injector(&inj);
  const sim::Time late = 20 * sim::kMillisecond;  // well past the ~3.3 ms budget
  int got = -1;
  w.job.run([&](simpi::Comm& comm) {
    int v = 42;
    if (comm.rank() == 0) {
      std::vector<simpi::Request> rs{comm.irecv(simpi::Payload::of_values(&got, 1), 1, 7)};
      EXPECT_EQ(comm.wait_any(rs), 0);
      EXPECT_GE(comm.job().engine().now(), late);
    } else {
      comm.job().engine().sleep_until(late);
      comm.send(simpi::Payload::of_values(&v, 1), 0, 7);
    }
  });
  EXPECT_EQ(got, 42);

  World lonely(1, 2);
  lonely.machine.set_fault_injector(&inj);
  try {
    lonely.job.run([](simpi::Comm& comm) {
      int v = 0;
      if (comm.rank() != 0) return;
      std::vector<simpi::Request> rs{comm.irecv(simpi::Payload::of_values(&v, 1), 1, 7)};
      comm.wait_any(rs);
    });
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    ASSERT_EQ(e.report().actors.size(), 1u);
    EXPECT_EQ(e.report().actors[0].detail, "waitany");
  }
}

// ---------------------------------------------------------------------------
// Exchange-layer degradation: the acceptance scenario.
// ---------------------------------------------------------------------------

int histogram_count(const std::map<Method, std::pair<int, std::size_t>>& h, Method m) {
  auto it = h.find(m);
  return it == h.end() ? 0 : it->second.first;
}

// The Fig.-12a-style drill: a single-node job loses peer access and every
// established IPC mapping mid-run. Exchanges keep completing with bit-exact
// halos; the histogram shows the demotions; the trace names them.
TEST(FaultExchange, PeerAndIpcLossMidRunStaysBitExact) {
  const sim::Time t_fault = sim::from_seconds(1.0);
  const Dim3 domain{48, 48, 48};
  fault::FaultPlan plan;
  plan.revoke_peer(t_fault, -1, -1).invalidate_ipc(t_fault);
  fault::Injector inj(plan);
  trace::Recorder rec;
  inj.set_recorder(&rec);

  Cluster cluster(topo::summit(), 1, 2);
  cluster.set_recorder(&rec);
  cluster.set_fault_injector(&inj);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(MethodFlags::kAll);
    dd.realize();

    // Healthy epoch: PEER and COLOCATED transfers are in play.
    const auto before = dd.method_bytes_histogram();
    EXPECT_GT(histogram_count(before, Method::kPeer), 0);
    EXPECT_GT(histogram_count(before, Method::kColocated), 0);
    fill_interior(dd, 2);
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();
    EXPECT_EQ(verify_halos(dd, domain, 2), 0);
    EXPECT_EQ(dd.method_bytes_histogram(), before);  // nothing demoted yet

    // Cross the fault instant, then keep exchanging.
    ctx.engine().sleep_until(t_fault + sim::kMicrosecond);
    ctx.comm.barrier();
    for (int it = 0; it < 2; ++it) {
      fill_interior(dd, 2);
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      EXPECT_EQ(verify_halos(dd, domain, 2), 0) << "post-fault iteration " << it;
    }

    // Every PEER pair lost its capability and landed on STAGED; the stale
    // IPC mappings pushed COLOCATED down too.
    const auto after = dd.method_bytes_histogram();
    EXPECT_EQ(histogram_count(after, Method::kPeer), 0);
    EXPECT_EQ(histogram_count(after, Method::kColocated), 0);
    EXPECT_GT(histogram_count(after, Method::kStaged),
              histogram_count(before, Method::kStaged));
  });

  // The trace carries both the scripted faults and the demotion decisions.
  int fault_events = 0;
  int demotions = 0;
  for (const auto& r : rec.records()) {
    if (r.lane != "fault") continue;
    if (r.label.find("demote tag=") != std::string::npos) {
      ++demotions;
      EXPECT_GE(r.start, t_fault);
    } else {
      ++fault_events;
    }
  }
  EXPECT_EQ(fault_events, 2);  // peer-revoke + ipc-invalidate
  EXPECT_GT(demotions, 0);
}

TEST(FaultExchange, CudaAwareDisableDemotesRemoteTransfers) {
  const sim::Time t_fault = sim::from_seconds(1.0);
  const Dim3 domain{48, 48, 48};
  fault::FaultPlan plan;
  plan.disable_cuda_aware(t_fault);
  fault::Injector inj(plan);

  Cluster cluster(topo::summit(), 2, 1);
  cluster.set_fault_injector(&inj);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.set_methods(MethodFlags::kAllCudaAware | MethodFlags::kStaged);
    dd.realize();

    const auto before = dd.method_bytes_histogram();
    EXPECT_GT(histogram_count(before, Method::kCudaAwareMpi), 0);
    fill_interior(dd, 1);
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();
    EXPECT_EQ(verify_halos(dd, domain, 1), 0);

    ctx.engine().sleep_until(t_fault + sim::kMicrosecond);
    ctx.comm.barrier();
    fill_interior(dd, 1);
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();
    EXPECT_EQ(verify_halos(dd, domain, 1), 0);

    const auto after = dd.method_bytes_histogram();
    EXPECT_EQ(histogram_count(after, Method::kCudaAwareMpi), 0);
    EXPECT_GT(histogram_count(after, Method::kStaged), 0);
  });
}

TEST(FaultExchange, InactiveInjectorLeavesTimingUntouched) {
  const Dim3 domain{32, 32, 32};
  auto run_once = [&](const fault::Injector* inj) {
    Cluster cluster(topo::summit(), 1, 2);
    if (inj) cluster.set_fault_injector(inj);
    cluster.run([&](RankCtx& ctx) {
      DistributedDomain dd(ctx, domain);
      dd.set_radius(1);
      dd.add_data<float>("a");
      dd.set_methods(MethodFlags::kAll);
      dd.realize();
      fill_interior(dd, 1);
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      EXPECT_EQ(verify_halos(dd, domain, 1), 0);
    });
    return cluster.engine().now();
  };
  const sim::Time base = run_once(nullptr);
  fault::Injector empty{fault::FaultPlan{}};
  EXPECT_EQ(run_once(&empty), base);  // an empty plan perturbs nothing
}

// Same plan + same seed => the same virtual-time history, record for record.
TEST(FaultExchange, FaultScheduleIsDeterministic) {
  const Dim3 domain{48, 48, 48};
  auto run_once = [&]() {
    fault::FaultPlan plan;
    plan.revoke_peer(sim::from_seconds(1.0), -1, -1)
        .invalidate_ipc(sim::from_seconds(1.0))
        .set_seed(0x5eed);
    fault::Injector inj(plan);
    trace::Recorder rec;
    inj.set_recorder(&rec);
    Cluster cluster(topo::summit(), 1, 2);
    cluster.set_recorder(&rec);
    cluster.set_fault_injector(&inj);
    cluster.run([&](RankCtx& ctx) {
      DistributedDomain dd(ctx, domain);
      dd.set_radius(1);
      dd.add_data<float>("a");
      dd.set_methods(MethodFlags::kAll);
      dd.realize();
      for (int it = 0; it < 2; ++it) {
        fill_interior(dd, 1);
        ctx.comm.barrier();
        dd.exchange();
        ctx.comm.barrier();
        if (it == 0) ctx.engine().sleep_until(sim::from_seconds(1.0) + sim::kMicrosecond);
      }
    });
    return rec.records();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lane, b[i].lane) << "record " << i;
    EXPECT_EQ(a[i].label, b[i].label) << "record " << i;
    EXPECT_EQ(a[i].start, b[i].start) << "record " << i;
    EXPECT_EQ(a[i].end, b[i].end) << "record " << i;
  }
}

}  // namespace
