// Quickstart: the smallest complete program using the library's public API.
//
// Builds a simulated 2-node Summit-like cluster with 3 MPI ranks per node,
// creates a distributed 3D domain with two quantities, lets the library
// partition / place / specialize it, runs a few halo exchanges, and prints
// what the setup decided and what the exchanges cost (in simulated time).
#include <cstdio>

#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "topo/archetype.h"

int main() {
  // The "machine": 2 Summit-style nodes (2 sockets x 3 V100s each), with
  // 3 ranks per node, i.e. 2 GPUs per rank.
  stencil::Cluster cluster(stencil::topo::summit(), /*nodes=*/2, /*ranks_per_node=*/3);

  cluster.run([&](stencil::RankCtx& ctx) {
    // Each rank runs this body, exactly like an MPI program's main().
    stencil::DistributedDomain dd(ctx, {256, 256, 256});
    dd.set_radius(2);
    dd.add_data<float>("pressure");
    dd.add_data<float>("temperature");
    dd.set_methods(stencil::MethodFlags::kAll);          // let it specialize
    dd.set_placement(stencil::PlacementStrategy::kNodeAware);
    dd.realize();

    if (ctx.rank() == 0) {
      std::printf("domain %s over %d nodes x %d GPUs -> index space %s\n",
                  dd.domain().str().c_str(), ctx.machine.num_nodes(),
                  ctx.machine.gpus_per_node(),
                  dd.placement().partition().global_extent().str().c_str());
      std::printf("rank 0 owns %zu subdomains:\n", dd.num_subdomains());
      dd.for_each_subdomain([](stencil::LocalDomain& ld) {
        std::printf("  subdomain %s size %s on gpu%d\n", ld.index().str().c_str(),
                    ld.size().str().c_str(), ld.gpu());
      });
      std::printf("rank 0 transfer methods:\n");
      for (const auto& [method, nb] : dd.method_bytes_histogram()) {
        std::printf("  %-16s x%d\n", to_string(method), nb.first);
      }
    }

    // Initialize the interior, then exchange halos a few times.
    dd.for_each_subdomain([](stencil::LocalDomain& ld) {
      auto p = ld.view<float>(0);
      for (std::int64_t z = 0; z < ld.size().z; ++z)
        for (std::int64_t y = 0; y < ld.size().y; ++y)
          for (std::int64_t x = 0; x < ld.size().x; ++x) p(x, y, z) = 1.0f;
    });

    for (int it = 0; it < 3; ++it) {
      ctx.comm.barrier();
      const double t0 = ctx.comm.wtime();
      dd.exchange();
      ctx.comm.barrier();
      if (ctx.rank() == 0) {
        std::printf("exchange %d: %.3f ms (simulated)\n", it, (ctx.comm.wtime() - t0) * 1e3);
      }
    }
  });

  std::printf("quickstart done\n");
  return 0;
}
