#pragma once

#include <cstdint>
#include <string>

namespace stencil {

/// Which exchange implementations the library may select (paper §III-C).
/// STAGED is the universal fallback; the others are enabled when supported
/// and allowed. The evaluation's "+remote/+colo/+peer/+kernel" column
/// groups correspond to cumulative unions of these flags.
enum class MethodFlags : std::uint32_t {
  kNone = 0,
  kStaged = 1u << 0,        // pack -> D2H -> MPI(host) -> H2D -> unpack
  kCudaAwareMpi = 1u << 1,  // pack -> MPI(device) -> unpack
  kColocated = 1u << 2,     // same node, different ranks: cudaIpc* direct copy
  kPeer = 1u << 3,          // same rank: cudaMemcpyPeerAsync
  kKernel = 1u << 4,        // self-exchange within one GPU
  kAll = kStaged | kColocated | kPeer | kKernel,
  kAllCudaAware = kCudaAwareMpi | kColocated | kPeer | kKernel,
};

constexpr MethodFlags operator|(MethodFlags a, MethodFlags b) {
  return static_cast<MethodFlags>(static_cast<std::uint32_t>(a) | static_cast<std::uint32_t>(b));
}
constexpr MethodFlags operator&(MethodFlags a, MethodFlags b) {
  return static_cast<MethodFlags>(static_cast<std::uint32_t>(a) & static_cast<std::uint32_t>(b));
}
constexpr bool any(MethodFlags f) { return f != MethodFlags::kNone; }

/// The concrete method chosen for one subdomain pair.
enum class Method {
  kKernel,
  kPeer,
  kColocated,
  kCudaAwareMpi,
  kStaged,
};

inline const char* to_string(Method m) {
  switch (m) {
    case Method::kKernel: return "kernel";
    case Method::kPeer: return "peer";
    case Method::kColocated: return "colocated";
    case Method::kCudaAwareMpi: return "cuda-aware-mpi";
    case Method::kStaged: return "staged";
  }
  return "?";
}

/// How same-rank (PEER) transfers move non-contiguous halos (§VI):
/// kKernel packs into a dense buffer with a GPU kernel (the paper's
/// implementation); kMemcpy3D issues a strided DMA copy straight between
/// the subdomains — no kernels, but thin rows waste DMA bandwidth;
/// kAuto picks per transfer by modeled strided efficiency.
enum class PackMode {
  kKernel,
  kMemcpy3D,
  kAuto,
};

inline const char* to_string(PackMode m) {
  switch (m) {
    case PackMode::kKernel: return "kernel-pack";
    case PackMode::kMemcpy3D: return "memcpy3d";
    case PackMode::kAuto: return "auto";
  }
  return "?";
}

/// Which neighbors a stencil's shape requires (paper Fig. 1): face-only
/// stencils exchange 6 neighbors; stencils with in-plane diagonals add the
/// 12 edges; full 26-neighborhoods add the 8 corners.
enum class Neighborhood {
  kFaces,       // 6 neighbors (Fig. 1a)
  kFacesEdges,  // 18 neighbors (Fig. 1b)
  kFull,        // 26 neighbors
};

}  // namespace stencil
