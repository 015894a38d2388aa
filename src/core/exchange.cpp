#include "core/exchange.h"

#include <set>
#include <stdexcept>

#include "core/tagspace.h"

namespace stencil {

int ExchangePlan::rank_of(const Placement& placement, Dim3 global_idx, int ranks_per_node) {
  const int gpn = placement.partition().gpus_per_node();
  const int gpus_per_rank = gpn / ranks_per_node;
  const int node = placement.node_linear_of(global_idx);
  const int local = placement.local_gpu_of(global_idx);
  return node * ranks_per_node + local / gpus_per_rank;
}

Transfer ExchangePlan::make_transfer(const Placement& placement, Dim3 src_idx, Dim3 dst_idx,
                                     Dim3 dir, int ranks_per_node, MethodFlags flags, int tenant) {
  const auto& hp = placement.partition();
  Transfer t;
  t.src_idx = src_idx;
  t.dir = dir;
  t.dst_idx = dst_idx;
  t.src_gpu = placement.global_gpu_of(src_idx);
  t.dst_gpu = placement.global_gpu_of(t.dst_idx);
  t.src_rank = rank_of(placement, src_idx, ranks_per_node);
  t.dst_rank = rank_of(placement, t.dst_idx, ranks_per_node);

  const int gpn = static_cast<int>(hp.gpu_extent().volume());
  t.method = specialize(t, t.src_gpu / gpn == t.dst_gpu / gpn, flags);

  const int di = direction_index(dir);
  if (di < 0) throw std::logic_error("ExchangePlan: bad direction");
  t.tag = tagspace::data_tag(src_idx.linearize(hp.global_extent()), di, tenant);
  return t;
}

Method ExchangePlan::specialize(const Transfer& t, bool same_node, MethodFlags flags,
                               bool peer_ok) {
  const Method remote =
      any(flags & MethodFlags::kCudaAwareMpi) ? Method::kCudaAwareMpi : Method::kStaged;
  if (t.self()) {
    if (any(flags & MethodFlags::kKernel)) return Method::kKernel;
    // PEER packs, copies and unpacks within one GPU; otherwise an MPI
    // message to our own rank.
    return any(flags & MethodFlags::kPeer) ? Method::kPeer : remote;
  }
  if (t.src_rank == t.dst_rank) {
    return any(flags & MethodFlags::kPeer) && peer_ok ? Method::kPeer : remote;
  }
  return same_node && any(flags & MethodFlags::kColocated) ? Method::kColocated : remote;
}

ExchangePlan ExchangePlan::for_rank(const Placement& placement, int rank, int ranks_per_node,
                                    MethodFlags flags, Neighborhood nbhd, Boundary boundary,
                                    int tenant) {
  const auto& hp = placement.partition();
  const int gpn = static_cast<int>(hp.gpu_extent().volume());
  const int gpus_per_rank = gpn / ranks_per_node;
  const int node = rank / ranks_per_node;
  const int slot = rank % ranks_per_node;
  const Dim3 ext = hp.global_extent();

  ExchangePlan plan;
  std::set<std::pair<std::int64_t, int>> seen;  // (src linear, dir index)

  const auto maybe_add = [&](Dim3 src, Dim3 dst, Dim3 dir) {
    Transfer t = make_transfer(placement, src, dst, dir, ranks_per_node, flags, tenant);
    if (t.src_rank != rank && t.dst_rank != rank) return;
    if (seen.emplace(src.linearize(ext), direction_index(dir)).second) {
      plan.transfers_.push_back(t);
    }
  };

  const auto add_for_subdomain = [&](Dim3 idx) {
    for (const Dim3& dir : neighbor_directions(nbhd)) {
      // Transfers we *send*.
      if (const auto dst = neighbor_index(idx, dir, ext, boundary)) {
        maybe_add(idx, *dst, dir);
      }
      // Transfers we *receive*: the neighbor at -dir sends along +dir.
      if (const auto src = neighbor_index(idx, dir * Dim3{-1, -1, -1}, ext, boundary)) {
        maybe_add(*src, idx, dir);
      }
    }
  };

  for (int k = 0; k < gpus_per_rank; ++k) {
    const int local_gpu = slot * gpus_per_rank + k;
    // Live occupancy, not the base assignment: after recovery re-homing a
    // GPU may host adopted subdomains (or have lost its own).
    for (const Dim3 idx : placement.subdomains_on(node, local_gpu)) {
      add_for_subdomain(idx);
    }
  }
  return plan;
}

ExchangePlan ExchangePlan::full(const Placement& placement, int ranks_per_node, MethodFlags flags,
                                Neighborhood nbhd, Boundary boundary, int tenant) {
  const auto& hp = placement.partition();
  const Dim3 ext = hp.global_extent();
  ExchangePlan plan;
  for (std::int64_t i = 0; i < ext.volume(); ++i) {
    const Dim3 idx = Dim3::from_linear(i, ext);
    for (const Dim3& dir : neighbor_directions(nbhd)) {
      if (const auto dst = neighbor_index(idx, dir, ext, boundary)) {
        plan.transfers_.push_back(
            make_transfer(placement, idx, *dst, dir, ranks_per_node, flags, tenant));
      }
    }
  }
  return plan;
}

std::map<Method, int> ExchangePlan::method_histogram() const {
  std::map<Method, int> h;
  for (const auto& t : transfers_) ++h[t.method];
  return h;
}

void ExchangePlan::map_gpus(const std::function<int(int)>& fn) {
  for (auto& t : transfers_) {
    t.src_gpu = fn(t.src_gpu);
    t.dst_gpu = fn(t.dst_gpu);
  }
}

}  // namespace stencil
