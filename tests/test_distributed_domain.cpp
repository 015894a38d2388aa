#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "check/checker.h"
#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "core/region.h"
#include "fault/fault.h"
#include "halo_oracle.h"
#include "telemetry/telemetry.h"
#include "topo/archetype.h"

using stencil::Cluster;
using stencil::Dim3;
using stencil::DistributedDomain;
using stencil::Method;
using stencil::MethodFlags;
using stencil::PlacementStrategy;
using stencil::RankCtx;

TEST(DistributedDomain, ConfigValidation) {
  Cluster cluster(stencil::topo::summit(), 1, 1);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {32, 32, 32});
    EXPECT_THROW(dd.set_radius(0), std::invalid_argument);
    EXPECT_THROW(dd.set_methods(MethodFlags::kPeer), std::invalid_argument);  // no remote method
    EXPECT_THROW(dd.realize(), std::logic_error);  // no quantities
    dd.add_data<float>("q");
    dd.realize();
    EXPECT_THROW(dd.realize(), std::logic_error);
    EXPECT_THROW(dd.set_radius(2), std::logic_error);  // after realize
  });
  EXPECT_THROW(Cluster(stencil::topo::summit(), 1, 1)
                   .run([](RankCtx& ctx) { DistributedDomain dd(ctx, {0, 1, 1}); }),
               std::invalid_argument);
}

TEST(DistributedDomain, CudaAwareRejectedOnNonCudaAwarePlatform) {
  Cluster cluster(stencil::topo::pcie_box(2), 1, 1);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {32, 32, 32});
    EXPECT_THROW(dd.set_methods(MethodFlags::kAllCudaAware), std::invalid_argument);
  });
}

TEST(DistributedDomain, SubdomainOwnershipCoversAllGpus) {
  Cluster cluster(stencil::topo::summit(), 2, 3);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {48, 48, 48});
    dd.add_data<float>("q");
    dd.realize();
    ASSERT_EQ(dd.num_subdomains(), 2u);  // 6 GPUs / 3 ranks
    for (std::size_t i = 0; i < dd.num_subdomains(); ++i) {
      EXPECT_EQ(dd.subdomain(i).gpu(), ctx.gpus[i]);
      EXPECT_EQ(dd.placement().global_gpu_of(dd.subdomain(i).index()), ctx.gpus[i]);
    }
  });
}

TEST(DistributedDomain, ExchangeAdvancesVirtualTime) {
  Cluster cluster(stencil::topo::summit(), 1, 1);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {96, 96, 96});
    dd.set_radius(2);
    dd.add_data<float>("q");
    dd.realize();
    const double t0 = ctx.comm.wtime();
    dd.exchange();
    const double ms = (ctx.comm.wtime() - t0) * 1e3;
    EXPECT_GT(ms, 0.01);  // something was actually transferred
    EXPECT_LT(ms, 1e4);
    EXPECT_EQ(dd.exchanges_done(), 1u);
  });
}

TEST(DistributedDomain, MoreCapabilitiesNeverSlower) {
  // On a single node the specialization tiers must be monotone: each added
  // capability can only remove work from the MPI path.
  auto time_with = [&](MethodFlags flags) {
    Cluster cluster(stencil::topo::summit(), 1, 6);
    std::vector<double> per_rank(6, 0.0);
    cluster.run([&](RankCtx& ctx) {
      DistributedDomain dd(ctx, {240, 240, 240});
      dd.add_data<float>("a");
      dd.add_data<float>("b");
      dd.set_methods(flags);
      dd.realize();
      ctx.comm.barrier();
      const double t0 = ctx.comm.wtime();
      dd.exchange();
      ctx.comm.barrier();
      per_rank[static_cast<std::size_t>(ctx.rank())] = ctx.comm.wtime() - t0;
    });
    return *std::max_element(per_rank.begin(), per_rank.end());
  };
  const double staged = time_with(MethodFlags::kStaged);
  const double colo = time_with(MethodFlags::kStaged | MethodFlags::kColocated);
  const double all = time_with(MethodFlags::kAll);
  EXPECT_LE(colo, staged * 1.05);
  EXPECT_LE(all, colo * 1.05);
  EXPECT_LT(all, staged);  // specialization must actually win on-node
}

TEST(DistributedDomain, LocalHistogramMatchesMethods) {
  Cluster cluster(stencil::topo::summit(), 1, 6);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {60, 60, 60});
    dd.add_data<float>("q");
    dd.set_methods(MethodFlags::kAll);
    dd.realize();
    const auto h = dd.method_bytes_histogram();
    EXPECT_EQ(h.count(Method::kCudaAwareMpi), 0u);
    EXPECT_GT(h.count(Method::kColocated), 0u);  // 6 ranks: everything colocated
  });
}

TEST(DistributedDomain, ComputeLaunchAndSync) {
  Cluster cluster(stencil::topo::summit(), 1, 1);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {48, 48, 48});
    dd.add_data<float>("q");
    dd.realize();
    int ran = 0;
    dd.for_each_subdomain([&](stencil::LocalDomain& ld) {
      dd.launch_compute(ld, "jacobi", 1 << 20, [&] { ++ran; });
    });
    dd.compute_synchronize();
    EXPECT_EQ(ran, 6);
  });
}

TEST(DistributedDomain, PhantomModeRunsWithoutData) {
  Cluster cluster(stencil::topo::summit(), 2, 6);
  cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {512, 512, 512});
    dd.set_radius(3);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.add_data<float>("c");
    dd.add_data<float>("d");
    dd.set_methods(MethodFlags::kAll);
    dd.realize();
    ctx.comm.barrier();
    const double t0 = ctx.comm.wtime();
    dd.exchange();
    ctx.comm.barrier();
    EXPECT_GT(ctx.comm.wtime() - t0, 0.0);
  });
}

TEST(DistributedDomain, DeterministicExchangeTimes) {
  auto run_once = [] {
    Cluster cluster(stencil::topo::summit(), 2, 6);
    cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
    std::vector<double> times(12, 0.0);
    cluster.run([&](RankCtx& ctx) {
      DistributedDomain dd(ctx, {300, 300, 300});
      dd.add_data<float>("q");
      dd.set_methods(MethodFlags::kAll);
      dd.realize();
      for (int i = 0; i < 2; ++i) {
        ctx.comm.barrier();
        dd.exchange();
      }
      ctx.comm.barrier();
      times[static_cast<std::size_t>(ctx.rank())] = ctx.comm.wtime();
    });
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

namespace {

int method_count(const std::map<Method, std::pair<int, std::size_t>>& h, Method m) {
  const auto it = h.find(m);
  return it == h.end() ? 0 : it->second.first;
}

}  // namespace

// The eager exchange is lowered once per (quantity list, topology epoch).
// Each change of that key must rebuild it before the next exchange: a
// selective exchange and the full one after it, a fault-forced demotion
// under an unchanged quantity list, and recovery, which replaces and
// appends transfer states (a stale step would point at freed memory, which
// the sanitizer build reports). Every exchange starts from cleared halos
// and must leave them bit-exact, with the happens-before checker clean
// throughout; a selective exchange must also send only its quantities'
// bytes.
TEST(EagerSchedule, RebuildsOnEveryKeyChange) {
  using stencil::halo_oracle::fill_interior;
  using stencil::halo_oracle::verify_halos;
  namespace fault = stencil::fault;
  namespace sim = stencil::sim;
  const Dim3 domain{48, 48, 48};
  const sim::Time t_fault = sim::from_seconds(1.0);
  constexpr int kDead = 3;
  fault::FaultPlan plan;
  plan.revoke_peer(t_fault, -1, -1);
  fault::Injector inj(plan);

  Cluster cluster(stencil::topo::summit(), 2, 2);
  stencil::check::Checker chk(cluster.engine());
  stencil::telemetry::Telemetry tel;
  cluster.set_checker(&chk);
  cluster.set_telemetry(&tel);
  cluster.set_fault_injector(&inj);
  const std::uint64_t& mpi_bytes = tel.metrics().counter("mpi_bytes_total").value;
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(MethodFlags::kAll);
    dd.realize();
    // Returns the job's MPI bytes of the exchange, read where the barriers
    // fence it from the exchanges before and after.
    const auto exchange_checked = [&](const std::vector<std::size_t>& qs, const char* what) {
      dd.for_each_subdomain([&](stencil::LocalDomain& ld) {
        for (std::size_t q : qs) std::memset(ld.data(q).data(), 0, ld.data(q).size());
      });
      fill_interior(dd, 2);
      const std::uint64_t before = mpi_bytes;
      ctx.comm.barrier();
      dd.exchange(qs);
      ctx.comm.barrier();
      EXPECT_EQ(verify_halos(dd, domain, 2), 0) << what << " (rank " << ctx.rank() << ")";
      return mpi_bytes - before;
    };

    const std::uint64_t full = exchange_checked({0, 1}, "first exchange");
    // One of two equal-sized quantities: every message is half as long.
    EXPECT_EQ(2 * exchange_checked({1}, "selective exchange"), full);
    EXPECT_EQ(exchange_checked({0, 1}, "full exchange after the selective one"), full);

    // Same quantity list as the exchange before: only the epoch changes.
    EXPECT_GT(method_count(dd.method_bytes_histogram(), Method::kPeer), 0);
    ctx.engine().sleep_until(t_fault + sim::kMicrosecond);
    ctx.comm.barrier();
    const std::uint64_t epoch = dd.topology_epoch();
    exchange_checked({0, 1}, "demoting exchange");
    EXPECT_GT(dd.topology_epoch(), epoch);
    EXPECT_EQ(method_count(dd.method_bytes_histogram(), Method::kPeer), 0);
    exchange_checked({0, 1}, "exchange after the demotion");

    if (ctx.rank() == kDead) return;  // dies quietly; the others re-home its subdomains
    ctx.comm.job().retire_rank(kDead);
    const std::uint64_t before_replace = dd.topology_epoch();
    const std::size_t subdomains = dd.num_subdomains();
    dd.recover_replace({kDead});
    EXPECT_GT(dd.topology_epoch(), before_replace);
    if (ctx.rank() == 0) {
      EXPECT_GT(dd.num_subdomains(), subdomains);  // the lowest GPUs adopt
    }
    exchange_checked({0, 1}, "exchange after recover_replace");
  });
  EXPECT_TRUE(chk.report().clean()) << chk.report().summary();
}

// Phantom memory is timing only: issuing its kernels with empty bodies
// must leave the schedule exactly as a materialized run's, down to the
// engine's events and context switches.
TEST(EagerSchedule, PhantomMatchesMaterializedSchedule) {
  struct Run {
    std::vector<double> exchange_s;  // per rank, per exchange
    std::uint64_t events = 0;
    std::uint64_t switches = 0;
  };
  const auto run = [](stencil::vgpu::MemMode mode, int nodes, int rpn,
                      const std::function<void(DistributedDomain&)>& configure) {
    Run out;
    Cluster cluster(stencil::topo::summit(), nodes, rpn);
    cluster.set_mem_mode(mode);
    out.exchange_s.assign(static_cast<std::size_t>(nodes * rpn * 3), 0.0);
    cluster.run([&](RankCtx& ctx) {
      DistributedDomain dd(ctx, {96, 64, 32});
      dd.set_radius(2);
      dd.add_data<float>("a");
      dd.add_data<double>("b");
      configure(dd);
      dd.realize();
      for (std::size_t i = 0; i < 3; ++i) {
        ctx.comm.barrier();
        const double t0 = ctx.comm.wtime();
        if (i == 1) {
          dd.exchange({1});
        } else {
          dd.exchange();
        }
        out.exchange_s[static_cast<std::size_t>(ctx.rank()) * 3 + i] = ctx.comm.wtime() - t0;
      }
    });
    out.events = cluster.engine().events_processed();
    out.switches = cluster.engine().context_switches();
    return out;
  };
  const auto expect_same = [&](int nodes, int rpn,
                               const std::function<void(DistributedDomain&)>& configure) {
    const Run phantom = run(stencil::vgpu::MemMode::kPhantom, nodes, rpn, configure);
    const Run real = run(stencil::vgpu::MemMode::kMaterialized, nodes, rpn, configure);
    EXPECT_EQ(phantom.exchange_s, real.exchange_s);
    EXPECT_EQ(phantom.events, real.events);
    EXPECT_EQ(phantom.switches, real.switches);
    EXPECT_GT(phantom.events, 0u);
  };
  // Every method across two nodes, STAGED aggregated and zero-copy.
  expect_same(2, 2, [](DistributedDomain& dd) {
    dd.set_remote_aggregation(true);
    dd.set_staged_zero_copy(true);
  });
  // One rank: KERNEL self-exchanges and PEER strided 3-D copies.
  expect_same(1, 1, [](DistributedDomain& dd) { dd.set_pack_mode(stencil::PackMode::kMemcpy3D); });
}

namespace {

// Per-method transfer counts of a method_bytes_histogram().
std::map<Method, int> counts(const std::map<Method, std::pair<int, std::size_t>>& h) {
  std::map<Method, int> out;
  for (const auto& [m, nb] : h) out[m] = nb.first;
  return out;
}

// Payload bytes of one transfer: its sender's interior slab.
std::size_t slab_bytes(const DistributedDomain& dd, const stencil::Transfer& t,
                       std::size_t bytes_per_point) {
  const Dim3 sz = dd.placement().partition().subdomain_size(t.src_idx);
  return static_cast<std::size_t>(stencil::interior_slab(sz, t.dir, dd.radius()).volume()) *
         bytes_per_point;
}

}  // namespace

// A fault plan whose first fault lies in the future leaves the exchanges
// before it as a fault-free run has them. With one rank per Summit node, a
// rank drives both sockets: its cross-socket PEER pairs are not
// peer-capable, so they never had peer access to lose and stay PEER.
TEST(FaultDemotion, FutureFaultPlanMatchesFaultFreeRun) {
  namespace fault = stencil::fault;
  namespace sim = stencil::sim;
  struct FirstExchange {
    std::uint64_t mpi_bytes = 0;
    std::map<Method, int> hist[2];
    sim::Duration took[2] = {};
  };
  const auto first_exchange = [](const fault::Injector* inj) {
    FirstExchange out;
    Cluster cluster(stencil::topo::summit(), 2, 1);
    stencil::telemetry::Telemetry tel;
    cluster.set_telemetry(&tel);
    if (inj != nullptr) cluster.set_fault_injector(inj);
    const std::uint64_t& mpi_bytes = tel.metrics().counter("mpi_bytes_total").value;
    cluster.run([&](RankCtx& ctx) {
      DistributedDomain dd(ctx, {48, 48, 48});
      dd.set_radius(1);
      dd.add_data<float>("a");
      dd.add_data<float>("b");
      dd.set_methods(MethodFlags::kAll);
      dd.realize();
      const std::uint64_t before = mpi_bytes;
      ctx.comm.barrier();
      const sim::Time t0 = ctx.engine().now();
      dd.exchange();
      out.took[ctx.rank()] = ctx.engine().now() - t0;
      ctx.comm.barrier();
      if (ctx.rank() == 0) out.mpi_bytes = mpi_bytes - before;
      out.hist[ctx.rank()] = counts(dd.method_bytes_histogram());
    });
    return out;
  };
  fault::FaultPlan plan;
  plan.revoke_peer(sim::from_seconds(1.0), -1, -1);
  fault::Injector inj(plan);
  const FirstExchange clean = first_exchange(nullptr);
  const FirstExchange planned = first_exchange(&inj);
  EXPECT_GT(clean.mpi_bytes, 0u);
  EXPECT_EQ(planned.mpi_bytes, clean.mpi_bytes);
  for (int r = 0; r < 2; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_GT(clean.hist[r].count(Method::kPeer), 0u);
    EXPECT_EQ(planned.hist[r], clean.hist[r]);
    EXPECT_EQ(planned.took[r], clean.took[r]);
  }
}

// A rank keeps one transfer table. After a PEER->STAGED fault demotion, and
// again after recover_replace, transfers() and method_bytes_histogram()
// describe the same methods, and those are the methods the exchange issues:
// the job's MPI bytes per exchange are exactly the bytes of the STAGED
// transfers the ranks' tables say they sent. (Demotions happen at
// exchange_start, so each exchange is compared with the table after it.) The
// two ranks are translates of each other (periodic domain, one rank per
// node), so their tables match until recovery leaves one survivor.
TEST(TransferTable, DescribesIssuedMethodsAcrossDemotionAndRecovery) {
  namespace fault = stencil::fault;
  namespace sim = stencil::sim;
  constexpr std::size_t kBytesPerPoint = 2 * sizeof(float);
  constexpr int kDead = 1;
  const sim::Time t_fault = sim::from_seconds(1.0);
  fault::FaultPlan plan;
  plan.revoke_peer(t_fault, -1, -1);
  fault::Injector inj(plan);

  Cluster cluster(stencil::topo::summit(), 2, 1);
  stencil::telemetry::Telemetry tel;
  cluster.set_telemetry(&tel);
  cluster.set_fault_injector(&inj);
  const std::uint64_t& mpi_bytes = tel.metrics().counter("mpi_bytes_total").value;

  enum Stage { kBeforeFault, kDemoted, kRecovered, kStages };
  std::uint64_t issued[kStages] = {};    // job MPI bytes of the stage's exchange
  std::uint64_t expected[kStages] = {};  // summed over ranks from their tables
  std::map<Method, int> hist[2][kStages];
  int peer_not_capable[2][kStages] = {};  // PEER transfers between GPUs without peer access
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {48, 48, 48});
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(MethodFlags::kAll);
    dd.realize();
    const auto exchange_and_check = [&](Stage s, const char* what) {
      SCOPED_TRACE(std::string(what) + ", rank " + std::to_string(ctx.rank()));
      const std::uint64_t before = mpi_bytes;
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      if (ctx.rank() == 0) issued[s] = mpi_bytes - before;

      const std::vector<stencil::Transfer> table = dd.transfers();
      std::map<Method, int> listed;
      for (const stencil::Transfer& t : table) {
        ++listed[t.method];
        if (t.method == Method::kPeer && !ctx.rt.can_access_peer(t.src_gpu, t.dst_gpu)) {
          ++peer_not_capable[ctx.rank()][s];
        }
        const bool message = t.method == Method::kStaged || t.method == Method::kCudaAwareMpi;
        if (message && t.src_rank == ctx.rank()) expected[s] += slab_bytes(dd, t, kBytesPerPoint);
      }
      hist[ctx.rank()][s] = counts(dd.method_bytes_histogram());
      EXPECT_EQ(listed, hist[ctx.rank()][s]);
    };

    exchange_and_check(kBeforeFault, "before the fault");
    EXPECT_GT(hist[ctx.rank()][kBeforeFault][Method::kPeer],
              peer_not_capable[ctx.rank()][kBeforeFault]);
    EXPECT_GT(peer_not_capable[ctx.rank()][kBeforeFault], 0);

    ctx.engine().sleep_until(t_fault + sim::kMicrosecond);
    exchange_and_check(kDemoted, "after the demotion");
    // After the revoke, the PEER transfers left are exactly those between
    // GPUs that are not peer-capable: they never had peer access to lose.
    const std::map<Method, int>& demoted = hist[ctx.rank()][kDemoted];
    const int peer_left = demoted.count(Method::kPeer) != 0 ? demoted.at(Method::kPeer) : 0;
    EXPECT_EQ(peer_left, peer_not_capable[ctx.rank()][kBeforeFault]);
    EXPECT_EQ(peer_not_capable[ctx.rank()][kDemoted], peer_not_capable[ctx.rank()][kBeforeFault]);

    if (ctx.rank() == kDead) return;  // dies quietly; rank 0 adopts its subdomains
    ctx.comm.job().retire_rank(kDead);
    dd.recover_replace({kDead});
    exchange_and_check(kRecovered, "after recover_replace");
  });

  for (const Stage s : {kBeforeFault, kDemoted}) {
    EXPECT_EQ(hist[0][s], hist[1][s]) << "stage " << s;
  }
  EXPECT_GT(hist[0][kDemoted][Method::kStaged], hist[0][kBeforeFault][Method::kStaged]);
  for (const Stage s : {kBeforeFault, kDemoted, kRecovered}) {
    EXPECT_EQ(issued[s], expected[s]) << "stage " << s;
  }
  EXPECT_GT(issued[kDemoted], issued[kBeforeFault]);
}

// A zero-width face moves no bytes, so its transfers are not in the table:
// with only the -x halo (width 2), the only transfers that move bytes are
// those sent along +x.
TEST(TransferTable, ListsOnlyTransfersThatMoveBytes) {
  Cluster cluster(stencil::topo::summit(), 1, 2);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {48, 48, 48});
    dd.set_radius(stencil::Radius::faces(2, 0, 0, 0, 0, 0));
    dd.add_data<float>("q");
    dd.realize();
    const std::vector<stencil::Transfer> table = dd.transfers();
    ASSERT_FALSE(table.empty());
    int histogram_total = 0;
    for (const auto& [m, nb] : dd.method_bytes_histogram()) histogram_total += nb.first;
    EXPECT_EQ(static_cast<std::size_t>(histogram_total), table.size());
    for (const stencil::Transfer& t : table) {
      EXPECT_EQ(t.dir, (Dim3{1, 0, 0})) << "tag " << t.tag;
      EXPECT_GT(slab_bytes(dd, t, sizeof(float)), 0u) << "tag " << t.tag;
    }
  });
}
