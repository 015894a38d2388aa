// Golden regression tests: the simulation is fully deterministic, so each
// configuration's exchange time is an exact function of the cost model and
// the exchange engine. These pins catch *unintentional* changes; when the
// model is deliberately recalibrated, regenerate the numbers with
//   drill explore <config> --csv
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "topo/archetype.h"

using stencil::Boundary;
using stencil::Cluster;
using stencil::Dim3;
using stencil::DistributedDomain;
using stencil::MethodFlags;
using stencil::RankCtx;

namespace {

struct GoldenCase {
  const char* name;
  int nodes;
  int rpn;
  Dim3 domain;
  MethodFlags flags;
  Boundary boundary;
  double expect_ms;
};

// Print a case by its name. Without this gtest prints the raw bytes of the
// struct, which include the address of `name`, so the listed test names
// (and the ctest names discovered from them) would change from build to build.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

double measure(const GoldenCase& c) {
  Cluster cluster(stencil::topo::summit(), c.nodes, c.rpn);
  cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
  std::vector<double> t(static_cast<std::size_t>(c.nodes) * c.rpn, 0.0);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, c.domain);
    dd.set_radius(3);
    for (int q = 0; q < 4; ++q) dd.add_data<float>("q" + std::to_string(q));
    dd.set_methods(c.flags);
    dd.set_boundary(c.boundary);
    dd.realize();
    ctx.comm.barrier();
    dd.exchange();  // warm-up
    double total = 0.0;
    for (int it = 0; it < 3; ++it) {
      ctx.comm.barrier();
      const double t0 = ctx.comm.wtime();
      dd.exchange();
      total += ctx.comm.wtime() - t0;
    }
    t[static_cast<std::size_t>(ctx.rank())] = total / 3.0;
  });
  return *std::max_element(t.begin(), t.end()) * 1e3;
}

class Golden : public ::testing::TestWithParam<GoldenCase> {};

}  // namespace

TEST_P(Golden, ExchangeTimePinned) {
  const auto& c = GetParam();
  const double ms = measure(c);
  // Exactly reproducible; 0.5% headroom only for float accumulation in the
  // wtime averaging.
  EXPECT_NEAR(ms, c.expect_ms, c.expect_ms * 0.005) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Pins, Golden,
    ::testing::Values(
        GoldenCase{"1n6r_all", 1, 6, {1363, 1363, 1363}, MethodFlags::kAll,
                   Boundary::kPeriodic, 6.549194},
        GoldenCase{"1n1r_staged", 1, 1, {1363, 1363, 1363}, MethodFlags::kStaged,
                   Boundary::kPeriodic, 102.787309},
        GoldenCase{"2n6r_all", 2, 6, {1717, 1717, 1717}, MethodFlags::kAll,
                   Boundary::kPeriodic, 15.048666},
        GoldenCase{"4n6r_ca", 4, 6, {512, 512, 512},
                   MethodFlags::kStaged | MethodFlags::kCudaAwareMpi, Boundary::kPeriodic,
                   3.596069},
        GoldenCase{"1n2r_staged", 1, 2, {720, 720, 720}, MethodFlags::kStaged,
                   Boundary::kPeriodic, 19.985326},
        GoldenCase{"2n3r_fixed", 2, 3, {900, 900, 900}, MethodFlags::kAll, Boundary::kFixed,
                   2.357243}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) { return info.param.name; });
