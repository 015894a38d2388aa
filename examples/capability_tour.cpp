// capability_tour: how the same application code adapts to different node
// designs. The library discovers each platform's topology and capabilities
// (peer access, CUDA-aware MPI) and specializes its communication — the
// user code below never changes. Compares a Summit-style node, a
// single-socket DGX-like node (all-peer), and a commodity PCIe box
// (no peer access, no CUDA-aware MPI).
#include <cstdio>

#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "topo/archetype.h"

namespace {

void tour(const stencil::topo::NodeArchetype& arch, int ranks_per_node) {
  std::printf("== %s (%d GPUs/node, %d ranks) ==\n", arch.name.c_str(), arch.gpus_per_node(),
              ranks_per_node);
  stencil::Cluster cluster(arch, /*nodes=*/2, ranks_per_node);
  cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);

  std::vector<double> per_rank(static_cast<std::size_t>(2 * ranks_per_node));
  cluster.run([&](stencil::RankCtx& ctx) {
    stencil::DistributedDomain dd(ctx, {512, 512, 512});
    dd.set_radius(2);
    dd.add_data<float>("q0");
    dd.add_data<float>("q1");
    // Ask for everything; the library keeps what the platform supports.
    stencil::MethodFlags flags = stencil::MethodFlags::kAll;
    if (ctx.machine.arch().cuda_aware_mpi) {
      // Platforms with CUDA-aware MPI could use kAllCudaAware instead; the
      // paper found STAGED faster on Summit, so kAll is the default choice.
    }
    dd.set_methods(flags);
    dd.realize();

    if (ctx.rank() == 0) {
      std::printf("  rank 0 methods: ");
      for (const auto& [m, nb] : dd.method_bytes_histogram()) {
        std::printf("%s x%d  ", to_string(m), nb.first);
      }
      std::printf("\n");
    }
    ctx.comm.barrier();
    const double t0 = ctx.comm.wtime();
    dd.exchange();
    per_rank[static_cast<std::size_t>(ctx.rank())] = ctx.comm.wtime() - t0;
  });

  double worst = 0.0;
  for (double t : per_rank) worst = std::max(worst, t);
  std::printf("  exchange: %.3f ms (simulated, max over ranks)\n\n", worst * 1e3);
}

}  // namespace

int main() {
  std::printf("capability tour: one application, three node designs\n\n");
  tour(stencil::topo::summit(), 3);
  tour(stencil::topo::dgx_like(4), 2);
  tour(stencil::topo::pcie_box(2), 2);
  return 0;
}
