#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "simtime/resource.h"
#include "topo/archetype.h"

namespace stencil::fault {
class Injector;
}  // namespace stencil::fault

namespace stencil::topo {

/// A cluster: `num_nodes` identical nodes of one NodeArchetype, plus the
/// simulated resources (links, copy engines, kernel queues, NICs) that give
/// the cost model contention. The Machine is pure model — it knows nothing
/// about ranks or domains.
///
/// GPU naming: a *global* GPU id is node * gpus_per_node() + local index.
///
/// All schedule_* methods reserve the relevant resources starting no earlier
/// than `ready` and return the occupancy Span of the *wire movement only*;
/// callers layer CPU issue cost, kernel packing, and MPI latency on top.
/// Multi-hop paths (cross-socket copies, node-to-node messages) are modeled
/// cut-through: hop N+1 may begin once hop N has streamed enough to keep it
/// fed, so an uncontended path costs max-hop time, not sum of hops.
class Machine {
 public:
  Machine(NodeArchetype arch, int num_nodes);

  const NodeArchetype& arch() const { return arch_; }
  int num_nodes() const { return num_nodes_; }
  int gpus_per_node() const { return arch_.gpus_per_node(); }
  int total_gpus() const { return num_nodes_ * gpus_per_node(); }

  int node_of(int ggpu) const { return ggpu / gpus_per_node(); }
  int local_of(int ggpu) const { return ggpu % gpus_per_node(); }
  int global_gpu(int node, int local) const { return node * gpus_per_node() + local; }

  /// Can peer access be enabled between these two *global* GPUs?
  bool peer_capable(int ggpu_i, int ggpu_j) const;

  /// Attach (or detach with nullptr) a fault injector. Every schedule_*
  /// call then derates its link/device bandwidth by the injector's scale at
  /// the ready time. The Machine is the single owner of this pointer; the
  /// vgpu runtime and simpi job read it from here so all layers see one
  /// consistent fault view. Not owned; must outlive the runs that use it.
  void set_fault_injector(const fault::Injector* inj) { fault_ = inj; }
  const fault::Injector* fault_injector() const { return fault_; }

  // --- cost model -------------------------------------------------------

  /// A pack/unpack (or compute) kernel moving `bytes_moved` through device
  /// memory; serializes with other kernels on the same GPU.
  sim::Span schedule_kernel(int ggpu, std::uint64_t bytes_moved, sim::Time ready);

  /// Pinned-host to device copy over the GPU's host link.
  sim::Span schedule_h2d(int ggpu, std::uint64_t bytes, sim::Time ready);

  /// Device to pinned-host copy over the GPU's host link.
  sim::Span schedule_d2h(int ggpu, std::uint64_t bytes, sim::Time ready);

  /// Device-to-device copy between two GPUs on the *same node* (or within
  /// one GPU). When the pair is peer-capable and the caller has peer access
  /// enabled (`use_peer`), the copy streams over the dedicated link;
  /// otherwise it takes the driver's staged path host-link -> X-Bus ->
  /// host-link, exactly as cudaMemcpyPeerAsync degrades without P2P.
  sim::Span schedule_d2d(int src_ggpu, int dst_ggpu, std::uint64_t bytes, sim::Time ready,
                         bool use_peer = true);

  /// A strided 3D copy (cudaMemcpy3DPeerAsync-style): same routing as
  /// schedule_d2d but derated by the per-row DMA overhead — no pack kernel
  /// is involved, which is the §VI pack-avoidance tradeoff.
  sim::Span schedule_d2d_strided(int src_ggpu, int dst_ggpu, std::uint64_t bytes,
                                 std::uint64_t row_bytes, sim::Time ready, bool use_peer = true);

  /// The fraction of link bandwidth a strided copy with this row length
  /// achieves under the model.
  double strided_efficiency(std::uint64_t row_bytes) const;

  /// Node-to-node wire movement through both NICs (cut-through).
  sim::Span schedule_internode(int src_node, int dst_node, std::uint64_t bytes, sim::Time ready);

  /// A host-memory copy driven by one CPU core (`cpu` is the owning rank's
  /// CPU resource, created by the cluster layer).
  sim::Span schedule_host_copy(sim::Resource& cpu, std::uint64_t bytes, sim::Time ready);

  // --- raw resources (stats, tracing, tests) -----------------------------
  sim::Resource& kernel_queue(int ggpu) { return kernel_[static_cast<std::size_t>(ggpu)]; }
  sim::Resource& host_link_out(int ggpu) { return d2h_[static_cast<std::size_t>(ggpu)]; }
  sim::Resource& nic_out(int node) { return nic_out_[static_cast<std::size_t>(node)]; }
  sim::Resource& nic_in(int node) { return nic_in_[static_cast<std::size_t>(node)]; }

  /// Clear all queued work from every resource (between measurements).
  void reset_resources();

  /// The one pipelining rule for chained hops (wire, host copies, H2D): the
  /// next hop may start once `prev` has streamed enough to keep a hop of
  /// length `dur` fed, and not before `prev` itself started.
  static sim::Time cut_through_ready(const sim::Span& prev, sim::Duration dur) {
    return std::max(prev.start, prev.end - dur);
  }

 private:
  sim::Resource& p2p(int src_ggpu, int dst_ggpu);
  sim::Resource& xbus(int node, bool forward);
  // Fault-adjusted bandwidth multipliers, clamped away from zero so a dead
  // link is glacial rather than free (transfer_time(bytes, 0) == 0).
  double link_scale(int cls, int a, int b, sim::Time t) const;
  double device_scale(int ggpu, sim::Time t) const;

  NodeArchetype arch_;
  int num_nodes_;
  const fault::Injector* fault_ = nullptr;
  std::vector<sim::Resource> kernel_;   // per global GPU
  std::vector<sim::Resource> h2d_;      // per global GPU, host->device direction
  std::vector<sim::Resource> d2h_;      // per global GPU, device->host direction
  std::vector<sim::Resource> p2p_;      // per directed same-node GPU pair
  std::vector<sim::Resource> xbus_;     // per node, two directions
  std::vector<sim::Resource> nic_out_;  // per node
  std::vector<sim::Resource> nic_in_;   // per node
};

}  // namespace stencil::topo
