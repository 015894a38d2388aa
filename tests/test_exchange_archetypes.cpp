// Exchange correctness across node archetypes: the same application code
// must produce bit-exact halos whether the platform has NVLink peer pairs
// (Summit), all-peer (DGX-like), or nothing but PCIe + plain MPI, and
// whether ranks die or configs mismatch the library must fail loudly.
#include <gtest/gtest.h>

#include <tuple>

#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "halo_oracle.h"
#include "topo/archetype.h"

using stencil::Cluster;
using stencil::Dim3;
using stencil::DistributedDomain;
using stencil::MethodFlags;
using stencil::Neighborhood;
using stencil::RankCtx;
using namespace stencil::halo_oracle;

namespace {

struct ArchCase {
  const char* name;
  stencil::topo::NodeArchetype arch;
  int nodes;
  int rpn;
  MethodFlags flags;
};

class ArchSweep : public ::testing::TestWithParam<int> {};

std::vector<ArchCase> cases() {
  return {
      {"summit-2n3r-all", stencil::topo::summit(), 2, 3, MethodFlags::kAll},
      {"summit-1n6r-allca", stencil::topo::summit(), 1, 6, MethodFlags::kAllCudaAware},
      {"dgx-2n2r-all", stencil::topo::dgx_like(4), 2, 2, MethodFlags::kAll},
      {"dgx-1n4r-all", stencil::topo::dgx_like(4), 1, 4, MethodFlags::kAll},
      {"dgx-1n1r-staged", stencil::topo::dgx_like(4), 1, 1, MethodFlags::kStaged},
      {"pcie-2n2r-all", stencil::topo::pcie_box(2), 2, 2, MethodFlags::kAll},
      {"pcie-1n1r-all", stencil::topo::pcie_box(2), 1, 1, MethodFlags::kAll},
      {"pcie-2n1r-staged", stencil::topo::pcie_box(2), 2, 1, MethodFlags::kStaged},
  };
}

}  // namespace

TEST_P(ArchSweep, HalosBitExact) {
  const ArchCase c = cases()[static_cast<std::size_t>(GetParam())];
  SCOPED_TRACE(c.name);
  Cluster cluster(c.arch, c.nodes, c.rpn);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {22, 18, 14});
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(c.flags);
    dd.realize();
    fill_interior(dd, 2);
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();
    EXPECT_EQ(verify_halos(dd, dd.domain(), 2), 0);
  });
}

INSTANTIATE_TEST_SUITE_P(AllArchetypes, ArchSweep, ::testing::Range(0, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string n = cases()[static_cast<std::size_t>(info.param)].name;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(FailureInjection, RankDiesMidExchangeUnwindsJob) {
  Cluster cluster(stencil::topo::summit(), 1, 6);
  EXPECT_THROW(cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {24, 24, 24});
    dd.add_data<float>("q");
    dd.set_methods(MethodFlags::kStaged);
    dd.realize();
    if (ctx.rank() == 3) throw std::runtime_error("rank 3 crashed");
    dd.exchange();  // blocks on rank 3's sends; must unwind, not hang
  }),
               std::runtime_error);
}

TEST(FailureInjection, MismatchedRadiusAcrossRanksDetected) {
  // Ranks disagreeing on the radius produce different message sizes; the
  // MPI layer reports truncation instead of corrupting halos.
  Cluster cluster(stencil::topo::summit(), 1, 2);
  EXPECT_THROW(cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {24, 24, 24});
    dd.set_radius(ctx.rank() == 0 ? 2 : 1);
    dd.add_data<float>("q");
    dd.set_methods(MethodFlags::kStaged);
    dd.realize();
    dd.exchange();
  }),
               std::runtime_error);
}

TEST(FailureInjection, OneSidedExchangeDeadlocks) {
  // Only one rank calls exchange(): its receives can never match, and the
  // engine's deadlock detector (not a hang) reports it.
  Cluster cluster(stencil::topo::summit(), 2, 1);
  EXPECT_THROW(cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {24, 24, 24});
    dd.add_data<float>("q");
    dd.set_methods(MethodFlags::kStaged);
    dd.realize();
    if (ctx.rank() == 0) dd.exchange();
  }),
               stencil::sim::DeadlockError);
}
