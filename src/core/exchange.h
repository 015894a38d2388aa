#pragma once

#include <functional>
#include <map>
#include <vector>

#include "core/method_flags.h"
#include "core/placement.h"

namespace stencil {

/// One directed halo transfer: subdomain at src_idx sends its dir-facing
/// interior slab to the subdomain at dst_idx (periodic wrap), realized by
/// `method`. Built identically on every rank from the shared placement.
struct Transfer {
  Dim3 src_idx;
  Dim3 dst_idx;
  Dim3 dir;
  int src_gpu = -1;   // global GPU ids
  int dst_gpu = -1;
  int src_rank = -1;
  int dst_rank = -1;
  Method method = Method::kStaged;
  int tag = 0;

  bool self() const { return src_idx == dst_idx; }
};

/// Capability specialization (paper §III-C): choose, for every subdomain
/// pair, the first applicable enabled method:
///   self-exchange          -> KERNEL
///   same rank              -> PEER_MEMCPY
///   same node, other rank  -> COLOCATED_MEMCPY
///   otherwise              -> CUDA_AWARE_MPI if enabled, else STAGED
/// Disabled methods fall through to the next tier; STAGED is always legal.
class ExchangePlan {
 public:
  /// Build only the transfers in which `rank` participates (as sender,
  /// receiver, or both). `ranks_per_node` defines subdomain ownership:
  /// local GPU g belongs to rank slot g / (gpus_per_node / ranks_per_node).
  /// `tenant` selects the tagspace data window the tags derive into (0 =
  /// the solo default, identical to the pre-tenancy derivation).
  static ExchangePlan for_rank(const Placement& placement, int rank, int ranks_per_node,
                               MethodFlags flags, Neighborhood nbhd,
                               Boundary boundary = Boundary::kPeriodic, int tenant = 0);

  /// Build every transfer in the whole job (tests, planning reports).
  static ExchangePlan full(const Placement& placement, int ranks_per_node, MethodFlags flags,
                           Neighborhood nbhd, Boundary boundary = Boundary::kPeriodic,
                           int tenant = 0);

  const std::vector<Transfer>& transfers() const { return transfers_; }

  /// Rewrite every transfer's GPU ids through `fn`. Multi-tenancy builds
  /// the plan in the tenant's virtual GPU space (ids the shared placement
  /// emits) and then maps each id to the physical GPU backing it, so every
  /// consumer downstream of plan construction — runtime calls, machine
  /// cost queries, peer/IPC setup — continues to see physical ids. Ranks,
  /// tags, and methods are untouched: specialization decisions were
  /// already final in virtual space (same-vnode iff same physical node).
  void map_gpus(const std::function<int(int)>& fn);

  std::map<Method, int> method_histogram() const;

  /// Rank owning a subdomain under this ownership layout.
  static int rank_of(const Placement& placement, Dim3 global_idx, int ranks_per_node);

  /// The ladder above for one transfer whose ranks and GPUs are set.
  /// `peer_ok` says whether two distinct GPUs of one rank can copy peer to
  /// peer (a rebuild after a fault passes the live capability).
  static Method specialize(const Transfer& t, bool same_node, MethodFlags flags,
                           bool peer_ok = true);

 private:
  static Transfer make_transfer(const Placement& placement, Dim3 src_idx, Dim3 dst_idx, Dim3 dir,
                                int ranks_per_node, MethodFlags flags, int tenant);
  std::vector<Transfer> transfers_;
};

}  // namespace stencil
