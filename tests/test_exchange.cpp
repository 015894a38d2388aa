#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "core/exchange.h"
#include "halo_oracle.h"
#include "topo/archetype.h"

using stencil::Cluster;
using stencil::Dim3;
using stencil::DistributedDomain;
using stencil::LocalDomain;
using stencil::MethodFlags;
using stencil::Neighborhood;
using stencil::PlacementStrategy;
using stencil::RankCtx;
using namespace stencil::halo_oracle;

namespace {

struct Config {
  int nodes;
  int ranks_per_node;
  Dim3 domain;
  int radius;
  MethodFlags flags;
  PlacementStrategy strategy;
  Neighborhood nbhd;
  std::string name;
};

void run_exchange_correctness(const Config& c, int iterations = 1) {
  Cluster cluster(stencil::topo::summit(), c.nodes, c.ranks_per_node);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, c.domain);
    dd.set_radius(c.radius);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(c.flags);
    dd.set_placement(c.strategy);
    dd.set_neighborhood(c.nbhd);
    dd.realize();
    for (int it = 0; it < iterations; ++it) {
      fill_interior(dd, 2);
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      EXPECT_EQ(verify_halos(dd, c.domain, 2, c.nbhd), 0) << c.name << " iteration " << it;
    }
  });
}

}  // namespace

TEST(Exchange, SingleNodeSingleRankAllMethods) {
  run_exchange_correctness({1, 1, {24, 18, 12}, 1, MethodFlags::kAll,
                            PlacementStrategy::kNodeAware, Neighborhood::kFull, "1n/1r/all"});
}

TEST(Exchange, SingleNodeSixRanksAllMethods) {
  run_exchange_correctness({1, 6, {24, 18, 12}, 1, MethodFlags::kAll,
                            PlacementStrategy::kNodeAware, Neighborhood::kFull, "1n/6r/all"});
}

TEST(Exchange, StagedOnlyMatchesReference) {
  run_exchange_correctness({1, 2, {24, 18, 12}, 1, MethodFlags::kStaged,
                            PlacementStrategy::kTrivial, Neighborhood::kFull, "1n/2r/staged"});
}

TEST(Exchange, CudaAwareOnlyMatchesReference) {
  run_exchange_correctness({2, 3, {24, 18, 12}, 1, MethodFlags::kCudaAwareMpi,
                            PlacementStrategy::kTrivial, Neighborhood::kFull, "2n/3r/ca"});
}

TEST(Exchange, MultiNodeMixedMethods) {
  run_exchange_correctness({2, 2, {30, 24, 16}, 2, MethodFlags::kAll,
                            PlacementStrategy::kNodeAware, Neighborhood::kFull, "2n/2r/all/r2"});
}

TEST(Exchange, RepeatedExchangesStayCorrect) {
  run_exchange_correctness({1, 2, {20, 16, 12}, 1, MethodFlags::kAll,
                            PlacementStrategy::kNodeAware, Neighborhood::kFull, "repeat"},
                           /*iterations=*/3);
}

TEST(Exchange, SelfExchangeViaKernel) {
  // A domain that is one subdomain wide in z forces wrap-onto-self.
  run_exchange_correctness({1, 1, {30, 24, 5}, 1, MethodFlags::kAll,
                            PlacementStrategy::kTrivial, Neighborhood::kFull, "self/kernel"});
}

TEST(Exchange, SelfExchangeWithoutKernelFallsBack) {
  run_exchange_correctness({1, 1, {30, 24, 5}, 1,
                            MethodFlags::kStaged | MethodFlags::kPeer,
                            PlacementStrategy::kTrivial, Neighborhood::kFull, "self/peer"});
  run_exchange_correctness({1, 1, {30, 24, 5}, 1, MethodFlags::kStaged,
                            PlacementStrategy::kTrivial, Neighborhood::kFull, "self/staged"});
}

namespace {

void run_aggregated_correctness(int nodes, int rpn, MethodFlags flags) {
  Cluster cluster(stencil::topo::summit(), nodes, rpn);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {23, 17, 11});
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(flags);
    dd.set_remote_aggregation(true);
    dd.realize();
    for (int it = 0; it < 2; ++it) {
      fill_interior(dd, 2);
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      EXPECT_EQ(verify_halos(dd, dd.domain(), 2, Neighborhood::kFull), 0) << "iteration " << it;
    }
  });
}

}  // namespace

TEST(ExchangeAggregated, StagedOnlySingleNode) {
  run_aggregated_correctness(1, 2, MethodFlags::kStaged);
}

TEST(ExchangeAggregated, StagedOnlyMultiNode) {
  run_aggregated_correctness(2, 6, MethodFlags::kStaged);
}

TEST(ExchangeAggregated, MixedMethodsMultiNode) {
  run_aggregated_correctness(2, 3, MethodFlags::kAll);
}

TEST(ExchangeAggregated, FewerMessagesAtScale) {
  // Aggregation must reduce per-exchange message count; in the
  // latency-bound strong-scaling regime that shortens the exchange.
  auto time_with = [](bool aggregated) {
    Cluster cluster(stencil::topo::summit(), 4, 6);
    cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
    std::vector<double> t(24, 0.0);
    cluster.run([&](RankCtx& ctx) {
      DistributedDomain dd(ctx, {220, 220, 220});  // small: latency matters
      dd.set_radius(1);
      dd.add_data<float>("q");
      dd.set_methods(MethodFlags::kStaged);
      dd.set_remote_aggregation(aggregated);
      dd.realize();
      ctx.comm.barrier();
      const double t0 = ctx.comm.wtime();
      dd.exchange();
      ctx.comm.barrier();
      t[static_cast<std::size_t>(ctx.rank())] = ctx.comm.wtime() - t0;
    });
    return *std::max_element(t.begin(), t.end());
  };
  EXPECT_LT(time_with(true), time_with(false));
}

// Capability specialization (§III-C): enabling methods one at a time must
// promote exactly the transfer classes each tier covers, in the paper's
// order, with everything else still falling through to the tier below.
TEST(Exchange, SpecializationFallsThroughDisabledMethods) {
  // 240x16x16 over 2 nodes x 6 GPUs partitions as a 12x1x1 chain, so the
  // plan has self-exchanges (wrap onto self in y/z), same-rank pairs (with
  // 2 ranks per node), same-node cross-rank pairs, and cross-node pairs.
  stencil::HierarchicalPartition hp({240, 16, 16}, 2, 6);
  stencil::Placement p(hp, stencil::topo::summit(), 1, 4, Neighborhood::kFull,
                       PlacementStrategy::kTrivial);
  const int rpn = 2;  // 3 GPUs per rank: same-rank distinct-GPU transfers exist
  auto hist = [&](MethodFlags f) {
    return stencil::ExchangePlan::full(p, rpn, f, Neighborhood::kFull).method_histogram();
  };
  auto count = [](const std::map<stencil::Method, int>& h, stencil::Method m) {
    auto it = h.find(m);
    return it == h.end() ? 0 : it->second;
  };
  using stencil::Method;

  // STAGED only: the universal fallback carries every transfer.
  const auto h_staged = hist(MethodFlags::kStaged);
  ASSERT_EQ(h_staged.size(), 1u);
  const int total = count(h_staged, Method::kStaged);
  EXPECT_GT(total, 0);

  // +remote: every transfer (even self) promotes to CUDA-aware MPI when
  // nothing closer to the silicon is allowed.
  const auto h_remote = hist(MethodFlags::kStaged | MethodFlags::kCudaAwareMpi);
  EXPECT_EQ(count(h_remote, Method::kCudaAwareMpi), total);
  EXPECT_EQ(count(h_remote, Method::kStaged), 0);

  // +colo: same-node cross-rank pairs peel off onto COLOCATED.
  const auto h_colo =
      hist(MethodFlags::kStaged | MethodFlags::kCudaAwareMpi | MethodFlags::kColocated);
  EXPECT_GT(count(h_colo, Method::kColocated), 0);
  EXPECT_GT(count(h_colo, Method::kCudaAwareMpi), 0);  // cross-node remainder
  EXPECT_EQ(count(h_colo, Method::kPeer), 0);
  EXPECT_EQ(count(h_colo, Method::kKernel), 0);

  // +peer: same-rank pairs (self included, with KERNEL still off) take
  // PEER_MEMCPY; colocated and remote counts cannot grow.
  const auto h_peer = hist(MethodFlags::kStaged | MethodFlags::kCudaAwareMpi |
                           MethodFlags::kColocated | MethodFlags::kPeer);
  EXPECT_GT(count(h_peer, Method::kPeer), 0);
  EXPECT_EQ(count(h_peer, Method::kColocated), count(h_colo, Method::kColocated));
  EXPECT_LT(count(h_peer, Method::kCudaAwareMpi), count(h_colo, Method::kCudaAwareMpi));

  // +kernel: only self-exchanges move again, from PEER to KERNEL.
  const auto h_all = hist(MethodFlags::kAllCudaAware | MethodFlags::kStaged);
  EXPECT_GT(count(h_all, Method::kKernel), 0);
  EXPECT_EQ(count(h_all, Method::kKernel) + count(h_all, Method::kPeer),
            count(h_peer, Method::kPeer));
  EXPECT_EQ(count(h_all, Method::kColocated), count(h_peer, Method::kColocated));
  EXPECT_EQ(count(h_all, Method::kCudaAwareMpi), count(h_peer, Method::kCudaAwareMpi));

  // Every tier change conserves the transfer count.
  for (const auto& h : {h_remote, h_colo, h_peer, h_all}) {
    int sum = 0;
    for (const auto& [m, n] : h) sum += n;
    EXPECT_EQ(sum, total);
  }
}

// Property sweep: correctness must hold for every method set x layout x
// neighborhood x placement, on an awkward non-divisible domain.
class ExchangeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(ExchangeProperty, HalosMatchReference) {
  const auto [nodes, rpn, flag_sel, strat_sel, nbhd_sel] = GetParam();
  static const MethodFlags kFlagSets[] = {
      MethodFlags::kStaged,
      MethodFlags::kStaged | MethodFlags::kColocated,
      MethodFlags::kStaged | MethodFlags::kColocated | MethodFlags::kPeer,
      MethodFlags::kAll,
      MethodFlags::kAllCudaAware,
  };
  static const PlacementStrategy kStrats[] = {PlacementStrategy::kNodeAware,
                                              PlacementStrategy::kTrivial};
  static const Neighborhood kNbhds[] = {Neighborhood::kFaces, Neighborhood::kFacesEdges,
                                        Neighborhood::kFull};
  Config c{nodes,
           rpn,
           {23, 17, 11},
           1,
           kFlagSets[flag_sel],
           kStrats[strat_sel],
           kNbhds[nbhd_sel],
           "prop"};
  run_exchange_correctness(c);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExchangeProperty,
    ::testing::Combine(::testing::Values(1, 2),       // nodes
                       ::testing::Values(1, 2, 6),    // ranks per node
                       ::testing::Range(0, 5),        // method set
                       ::testing::Range(0, 2),        // placement
                       ::testing::Values(0, 2)));     // neighborhood
