// Cluster observer wiring: the Runtime and the Job each fan events out to one
// observer list, which Cluster rebuilds in a fixed slot order whenever a
// setter runs, recomputing every cross-link (checker -> telemetry, watch ->
// recorder/flight, progress monitor -> telemetry/flight/collector) from the
// current set. Attach order must not matter, detaching must not leave
// dangling links, and attaching observers must never change the simulation.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/checker.h"
#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "dtrace/collector.h"
#include "dtrace/progress.h"
#include "explain/explain.h"
#include "fault/fault.h"
#include "halo_oracle.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "topo/archetype.h"
#include "watch/watch.h"

using namespace stencil;
using namespace stencil::halo_oracle;

namespace {

// Summit sockets with one V100 each: 2 GPUs per node, one per rank at 2 rpn.
topo::NodeArchetype two_gpu_node() {
  topo::NodeArchetype arch = topo::summit();
  arch.gpus_per_socket = 1;
  return arch;
}

// One exchange on 2 nodes x 2 ranks while GPU 3's kernels run at 1/1000
// throughput, so rank 3 finishes it well behind its peers: one straggler
// alert under a 20 us / 1.05x monitor (the `drill trace --straggler` run).
// Rank 0 also leaves a send in the air across the exchange, so the alert
// has an in-flight trace context to name.
void run_straggler(Cluster& cluster) {
  fault::FaultPlan plan;
  plan.slow_device(0, /*gpu=*/3, 0.001);
  fault::Injector inj(plan);
  cluster.set_fault_injector(&inj);
  constexpr int kTag = 9'000'000;
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {48, 48, 48});
    dd.set_radius(1);
    dd.add_data<float>("q0");
    dd.add_data<float>("q1");
    dd.realize();
    int token = 1;
    simpi::Request note;
    if (ctx.rank() == 0) note = ctx.comm.isend(simpi::Payload::of_values(&token, 1), 1, kTag);
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();
    if (ctx.rank() == 0) ctx.comm.wait(note);
    if (ctx.rank() == 1) ctx.comm.recv(simpi::Payload::of_values(&token, 1), 0, kTag);
  });
  cluster.set_fault_injector(nullptr);
}

void tighten(dtrace::ProgressMonitor& mon) {
  mon.set_slack(20 * sim::kMicrosecond);
  mon.set_relative_slack(1.05);
}

}  // namespace

TEST(ClusterObservers, AttachOrderDoesNotMatter) {
  Cluster cluster(two_gpu_node(), /*nodes=*/2, /*ranks_per_node=*/2);
  cluster.set_mem_mode(vgpu::MemMode::kPhantom);
  dtrace::ProgressMonitor mon;
  tighten(mon);
  telemetry::Telemetry tel;
  dtrace::Collector col;
  // The monitor goes first, before the sinks it links to exist.
  cluster.set_progress_monitor(&mon);
  cluster.set_telemetry(&tel);
  cluster.set_collector(&col);
  run_straggler(cluster);

  ASSERT_EQ(mon.alerts().size(), 1u) << mon.str();
  EXPECT_EQ(mon.alerts()[0].rank, 3);
  EXPECT_EQ(tel.metrics().counter_value("progress_stalls_total"), 1u);
  EXPECT_FALSE(mon.alerts()[0].flight_tail.empty());
  ASSERT_FALSE(mon.alerts()[0].inflight.empty());
  EXPECT_EQ(mon.alerts()[0].inflight[0].rank, 0);
}

TEST(ClusterObservers, DetachClearsCrossLinks) {
  Cluster cluster(two_gpu_node(), /*nodes=*/2, /*ranks_per_node=*/2);
  cluster.set_mem_mode(vgpu::MemMode::kPhantom);
  dtrace::ProgressMonitor mon;
  tighten(mon);
  check::Checker chk(cluster.engine());
  watch::Watch live;
  {
    auto tel = std::make_unique<telemetry::Telemetry>();
    auto col = std::make_unique<dtrace::Collector>();
    cluster.set_telemetry(tel.get());
    cluster.set_collector(col.get());
    cluster.set_progress_monitor(&mon);
    cluster.set_checker(&chk);
    cluster.set_watch(&live);
    cluster.set_telemetry(nullptr);
    cluster.set_recorder(nullptr);
  }  // both sinks destroyed: nothing attached may still reach them
  run_straggler(cluster);

  ASSERT_EQ(mon.alerts().size(), 1u) << mon.str();
  EXPECT_TRUE(mon.alerts()[0].flight_tail.empty());
  EXPECT_TRUE(mon.alerts()[0].inflight.empty());
  EXPECT_GT(live.messages(), 0u);
  EXPECT_TRUE(chk.report().clean()) << chk.report().summary();
}

namespace {

constexpr std::size_t kQuantities = 2;
const Dim3 kDomain{32, 32, 32};

// The six observers a fully observed run attaches.
struct Observers {
  explicit Observers(sim::Engine& eng) : chk(eng) {}
  dtrace::Collector col;
  check::Checker chk;
  telemetry::Telemetry tel;
  watch::Watch live;
  dtrace::ProgressMonitor mon;
  explain::Ledger ledger;
};

using Setter = std::function<void(Cluster&, Observers&)>;

// Every setter, in Cluster's declaration order.
const std::vector<Setter>& all_setters() {
  static const std::vector<Setter> setters = {
      [](Cluster& c, Observers& o) { c.set_collector(&o.col); },
      [](Cluster& c, Observers& o) { c.set_checker(&o.chk); },
      [](Cluster& c, Observers& o) { c.set_telemetry(&o.tel); },
      [](Cluster& c, Observers& o) { c.set_watch(&o.live); },
      [](Cluster& c, Observers& o) { c.set_progress_monitor(&o.mon); },
      [](Cluster& c, Observers& o) { c.set_explain(&o.ledger); },
  };
  return setters;
}

struct RunOutput {
  std::vector<double> exchange_s;          // per rank, both exchanges
  std::vector<std::vector<float>> padded;  // per rank: every cell, halos included
  std::int64_t halo_errors = 0;
  std::string chrome, prom, check, watch, progress;
};

// A 2x2 materialized kAll run (two exchanges) with the given setters
// applied in order before it starts.
RunOutput observed_run(const std::vector<Setter>& setters) {
  Cluster cluster(two_gpu_node(), /*nodes=*/2, /*ranks_per_node=*/2);
  Observers o(cluster.engine());
  for (const Setter& s : setters) s(cluster, o);
  RunOutput out;
  out.exchange_s.resize(4);
  out.padded.resize(4);
  cluster.run([&](RankCtx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    DistributedDomain dd(ctx, kDomain);
    dd.set_radius(1);
    for (std::size_t q = 0; q < kQuantities; ++q) dd.add_data<float>("q" + std::to_string(q));
    dd.set_methods(MethodFlags::kAll);
    dd.realize();
    fill_interior(dd, kQuantities);
    for (int it = 0; it < 2; ++it) {
      ctx.comm.barrier();
      const double t0 = ctx.comm.wtime();
      dd.exchange();
      out.exchange_s[r] += ctx.comm.wtime() - t0;
    }
    ctx.comm.barrier();
    out.halo_errors += verify_halos(dd, kDomain, kQuantities);
    dd.for_each_subdomain([&](LocalDomain& ld) {
      const Dim3 sz = ld.size();
      for (std::size_t q = 0; q < kQuantities; ++q) {
        auto v = ld.view<float>(q);
        for (std::int64_t z = -1; z < sz.z + 1; ++z)
          for (std::int64_t y = -1; y < sz.y + 1; ++y)
            for (std::int64_t x = -1; x < sz.x + 1; ++x) out.padded[r].push_back(v(x, y, z));
      }
    });
  });
  o.mon.finish(cluster.engine().now());
  std::ostringstream chrome, prom, check, watch;
  o.col.write_chrome_trace(chrome);
  telemetry::write_prometheus(prom, o.tel.metrics());
  o.chk.report().write(check);
  o.live.write_snapshot_json(watch);
  out.chrome = chrome.str();
  out.prom = prom.str();
  out.check = check.str();
  out.watch = watch.str();
  out.progress = o.mon.str();
  return out;
}

}  // namespace

TEST(ClusterObservers, AttachedRunsMatchTheDetachedRun) {
  const RunOutput detached = observed_run({});
  ASSERT_EQ(detached.halo_errors, 0);
  std::vector<std::vector<Setter>> configs;
  for (const Setter& s : all_setters()) configs.push_back({s});
  configs.push_back(all_setters());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(i < all_setters().size() ? "observer #" + std::to_string(i) + " alone"
                                          : std::string("all six"));
    const RunOutput attached = observed_run(configs[i]);
    EXPECT_EQ(attached.exchange_s, detached.exchange_s);
    EXPECT_EQ(attached.padded, detached.padded);
  }
}

TEST(ClusterObservers, SetterOrderLeavesArtifactsByteIdentical) {
  std::vector<Setter> reversed(all_setters().rbegin(), all_setters().rend());
  const RunOutput fwd = observed_run(all_setters());
  const RunOutput rev = observed_run(reversed);
  EXPECT_FALSE(fwd.chrome.empty());
  EXPECT_NE(fwd.prom.find("mpi_messages_total"), std::string::npos);
  EXPECT_NE(fwd.progress.find("2 exchanges"), std::string::npos) << fwd.progress;
  EXPECT_EQ(fwd.check, "check: clean (no findings)\n");
  EXPECT_EQ(fwd.chrome, rev.chrome);
  EXPECT_EQ(fwd.prom, rev.prom);
  EXPECT_EQ(fwd.check, rev.check);
  EXPECT_EQ(fwd.watch, rev.watch);
  EXPECT_EQ(fwd.progress, rev.progress);
}
