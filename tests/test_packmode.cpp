#include <gtest/gtest.h>

#include <sstream>

#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "dtrace/collector.h"
#include "topo/machine.h"
#include "vgpu/probe.h"

using stencil::Cluster;
using stencil::Dim3;
using stencil::DistributedDomain;
using stencil::MethodFlags;
using stencil::PackMode;
using stencil::RankCtx;

TEST(StridedModel, EfficiencyMonotoneInRowLength) {
  stencil::topo::Machine m(stencil::topo::summit(), 1);
  EXPECT_LT(m.strided_efficiency(12), 0.1);      // radius-3 float x-face rows
  EXPECT_GT(m.strided_efficiency(4096), 0.9);    // long z-face rows
  EXPECT_LE(m.strided_efficiency(64), m.strided_efficiency(128));
  EXPECT_DOUBLE_EQ(m.strided_efficiency(0), 1.0);  // degenerate: treated dense
}

TEST(StridedModel, StridedSlowerThanDenseForShortRows) {
  stencil::topo::Machine m(stencil::topo::summit(), 1);
  const std::uint64_t bytes = 16ull << 20;
  const auto dense = m.schedule_d2d(0, 1, bytes, 0);
  m.reset_resources();
  const auto strided = m.schedule_d2d_strided(0, 1, bytes, /*row_bytes=*/16, 0);
  EXPECT_GT(strided.duration(), 5 * dense.duration());
}

namespace {

float coord_value(Dim3 g) { return static_cast<float>(g.x + 131 * g.y + 131 * 131 * g.z); }

void run_correctness(PackMode mode) {
  Cluster cluster(stencil::topo::summit(), 1, 1);  // 1 rank: everything is PEER
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {24, 18, 12});
    dd.set_radius(2);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(MethodFlags::kAll);
    dd.set_pack_mode(mode);
    dd.realize();

    dd.for_each_subdomain([&](stencil::LocalDomain& ld) {
      for (std::size_t q = 0; q < 2; ++q) {
        auto v = ld.view<float>(q);
        const Dim3 o = ld.origin();
        for (std::int64_t z = 0; z < ld.size().z; ++z)
          for (std::int64_t y = 0; y < ld.size().y; ++y)
            for (std::int64_t x = 0; x < ld.size().x; ++x)
              v(x, y, z) = coord_value({o.x + x, o.y + y, o.z + z}) + 4.0e6f * static_cast<float>(q);
      }
    });
    dd.exchange();
    dd.for_each_subdomain([&](stencil::LocalDomain& ld) {
      const Dim3 o = ld.origin();
      const Dim3 s = ld.size();
      for (std::size_t q = 0; q < 2; ++q) {
        auto v = ld.view<float>(q);
        for (std::int64_t z = -2; z < s.z + 2; ++z)
          for (std::int64_t y = -2; y < s.y + 2; ++y)
            for (std::int64_t x = -2; x < s.x + 2; ++x) {
              if (Dim3{x, y, z}.inside(s)) continue;
              const Dim3 g = Dim3{o.x + x, o.y + y, o.z + z}.wrap(dd.domain());
              ASSERT_EQ(v(x, y, z), coord_value(g) + 4.0e6f * static_cast<float>(q))
                  << to_string(mode) << " halo [" << x << "," << y << "," << z << "]";
            }
      }
    });
  });
}

double time_with_mode(PackMode mode) {
  Cluster cluster(stencil::topo::summit(), 1, 1);
  cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
  double t = 0.0;
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {720, 720, 720});
    dd.set_radius(3);
    dd.add_data<float>("q");
    dd.set_methods(MethodFlags::kAll);
    dd.set_pack_mode(mode);
    dd.realize();
    ctx.comm.barrier();
    const double t0 = ctx.comm.wtime();
    dd.exchange();
    t = ctx.comm.wtime() - t0;
  });
  return t;
}

}  // namespace

TEST(PackMode, Memcpy3dHalosBitExact) { run_correctness(PackMode::kMemcpy3D); }
TEST(PackMode, AutoHalosBitExact) { run_correctness(PackMode::kAuto); }

TEST(PackMode, AutoNeverWorseThanEither) {
  const double kern = time_with_mode(PackMode::kKernel);
  const double m3d = time_with_mode(PackMode::kMemcpy3D);
  const double auto_t = time_with_mode(PackMode::kAuto);
  EXPECT_LE(auto_t, kern * 1.02);
  EXPECT_LE(auto_t, m3d * 1.02);
}

TEST(ZeroCopy, StagedHalosBitExact) {
  Cluster cluster(stencil::topo::summit(), 2, 6);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {22, 18, 14});
    dd.set_radius(1);
    dd.add_data<float>("q");
    dd.set_methods(MethodFlags::kStaged);
    dd.set_staged_zero_copy(true);
    dd.realize();
    dd.for_each_subdomain([&](stencil::LocalDomain& ld) {
      auto v = ld.view<float>(0);
      const Dim3 o = ld.origin();
      for (std::int64_t z = 0; z < ld.size().z; ++z)
        for (std::int64_t y = 0; y < ld.size().y; ++y)
          for (std::int64_t x = 0; x < ld.size().x; ++x)
            v(x, y, z) = coord_value({o.x + x, o.y + y, o.z + z});
    });
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();
    dd.for_each_subdomain([&](stencil::LocalDomain& ld) {
      auto v = ld.view<float>(0);
      const Dim3 o = ld.origin();
      const Dim3 s = ld.size();
      for (std::int64_t z = -1; z < s.z + 1; ++z)
        for (std::int64_t y = -1; y < s.y + 1; ++y)
          for (std::int64_t x = -1; x < s.x + 1; ++x) {
            if (Dim3{x, y, z}.inside(s)) continue;
            const Dim3 g = Dim3{o.x + x, o.y + y, o.z + z}.wrap(dd.domain());
            ASSERT_EQ(v(x, y, z), coord_value(g));
          }
    });
  });
}

TEST(ZeroCopy, FewerOpsOnStagedPath) {
  // Zero-copy replaces pack + D2H with one launch: fewer issued ops.
  auto ops_with = [](bool zc) {
    Cluster cluster(stencil::topo::summit(), 1, 6);
    cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
    std::uint64_t ops = 0;
    cluster.run([&](RankCtx& ctx) {
      DistributedDomain dd(ctx, {240, 240, 240});
      dd.add_data<float>("q");
      dd.set_methods(MethodFlags::kStaged);
      dd.set_staged_zero_copy(zc);
      dd.realize();
      ctx.comm.barrier();
      const std::uint64_t before = ctx.rt.ops_issued();
      dd.exchange();
      ctx.comm.barrier();
      if (ctx.rank() == 0) ops = ctx.rt.ops_issued() - before;
    });
    return ops;
  };
  EXPECT_LT(ops_with(true), ops_with(false));
}

TEST(Probe, MatchesAnalyticAchievedBandwidth) {
  const auto arch = stencil::topo::summit();
  const auto probe = stencil::vgpu::probe_gpu_bandwidth(arch);
  ASSERT_EQ(probe.gpus, 6);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      if (i == j) {
        EXPECT_DOUBLE_EQ(probe.at(i, j), 0.0);
        continue;
      }
      // Within 10% of the analytic figure (latency terms account for the gap).
      const double analytic = arch.achieved_gpu_bw(i, j);
      EXPECT_NEAR(probe.at(i, j) / analytic, 1.0, 0.1) << i << "->" << j;
    }
  }
  // The probe preserves the topology ordering: in-triad beats cross-socket.
  EXPECT_GT(probe.at(0, 1), probe.at(0, 3));
}

TEST(ChromeTrace, EmitsValidShape) {
  stencil::dtrace::Collector rec;
  rec.record("gpu0.kernel", "pack \"+x\"", 1000, 2000);
  rec.record("rank0.cpu", "issue", 0, 500);
  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string s = os.str();
  EXPECT_EQ(s.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(s.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(s.find("\\\"+x\\\""), std::string::npos);  // label quoting escaped
  EXPECT_NE(s.find("\"ts\":1,\"dur\":1"), std::string::npos);  // microseconds
  EXPECT_EQ(s.back(), '\n');
}

TEST(ChromeTrace, EmptyRecorder) {
  stencil::dtrace::Collector rec;
  std::ostringstream os;
  rec.write_chrome_trace(os);
  EXPECT_EQ(os.str(), "{\"traceEvents\":[]}\n");
}
