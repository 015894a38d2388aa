#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dim3.h"
#include "core/radius.h"
#include "core/region.h"
#include "vgpu/buffer.h"
#include "vgpu/runtime.h"

namespace stencil {

/// One grid quantity stored in a domain (e.g. pressure, vx). Quantities are
/// type-erased at this level: the domain tracks an element size; typed
/// access goes through LocalDomain::view<T>().
struct Quantity {
  std::string name;
  std::size_t elem_size = 0;
};

/// Typed host-side accessor into one quantity of one subdomain, including
/// its halo: coordinates run over [-radius.neg, sz + radius.pos) per
/// dimension. Valid only for materialized buffers (tests, examples); the
/// benchmarks' phantom domains are timing-only.
template <typename T>
class View {
 public:
  View(T* base, Dim3 storage, Dim3 halo_offset)
      : base_(base), storage_(storage), off_(halo_offset) {}

  T& operator()(std::int64_t x, std::int64_t y, std::int64_t z) {
    return base_[offset(x, y, z)];
  }
  const T& operator()(std::int64_t x, std::int64_t y, std::int64_t z) const {
    return base_[offset(x, y, z)];
  }

 private:
  std::int64_t offset(std::int64_t x, std::int64_t y, std::int64_t z) const {
    return ((z + off_.z) * storage_.y + (y + off_.y)) * storage_.x + (x + off_.x);
  }
  T* base_;
  Dim3 storage_;  // sz + negative + positive halo per dim
  Dim3 off_;      // negative halo widths
};

/// One GPU's subdomain: interior extent `sz`, a radius-wide halo on every
/// side, and one device allocation per quantity in XYZ storage order
/// (x fastest). Owns its pack/compute streams.
class LocalDomain {
 public:
  LocalDomain(vgpu::Runtime& rt, int ggpu, Dim3 global_idx, Dim3 origin, Dim3 sz, Radius radius,
              const std::vector<Quantity>& quantities);

  int gpu() const { return ggpu_; }
  Dim3 index() const { return global_idx_; }
  Dim3 origin() const { return origin_; }
  Dim3 size() const { return sz_; }
  const Radius& radius() const { return radius_; }
  Dim3 storage() const { return sz_ + radius_.padding(); }
  std::size_t num_quantities() const { return quantities_.size(); }
  const Quantity& quantity(std::size_t q) const { return quantities_[q]; }

  vgpu::Buffer& data(std::size_t q) { return data_[q]; }
  const vgpu::Buffer& data(std::size_t q) const { return data_[q]; }
  /// Whether any quantity's storage carries bytes; all-phantom storage
  /// makes every pack, unpack and region copy over it a no-op.
  bool materialized() const {
    return std::any_of(data_.begin(), data_.end(), [](const vgpu::Buffer& b) {
      return b.mode() == vgpu::MemMode::kMaterialized;
    });
  }

  /// Swap the storage of two same-sized quantities (double-buffered time
  /// stepping: "current" and "next" trade places between iterations).
  void swap_data(std::size_t a, std::size_t b) {
    if (quantities_[a].elem_size != quantities_[b].elem_size) {
      throw std::logic_error("swap_data: element sizes differ");
    }
    std::swap(data_[a], data_[b]);
  }

  template <typename T>
  View<T> view(std::size_t q) {
    if (sizeof(T) != quantities_[q].elem_size) {
      throw std::logic_error("LocalDomain::view: element size mismatch for " + quantities_[q].name);
    }
    return View<T>(data_[q].as<T>(), storage(), radius_.offsets());
  }

  /// Bytes of one region across all quantities (the packed message size).
  std::size_t region_bytes(const Region3& r) const {
    return static_cast<std::size_t>(r.volume()) * bytes_per_point_;
  }
  /// Bytes of one region across a subset of quantities.
  std::size_t region_bytes(const Region3& r, const std::vector<std::size_t>& qs) const {
    std::size_t per_point = 0;
    for (std::size_t q : qs) per_point += quantities_[q].elem_size;
    return static_cast<std::size_t>(r.volume()) * per_point;
  }
  std::size_t bytes_per_point() const { return bytes_per_point_; }

  /// Copy `region` of every quantity into `dst` (densely, quantity-major).
  /// Host-side body of the pack kernel; no-op when storage is phantom.
  void pack_region(vgpu::Buffer& dst, const Region3& region) const;

  /// Inverse of pack_region.
  void unpack_region(const vgpu::Buffer& src, const Region3& region);

  /// Subset variants: only the listed quantities, in the given order (both
  /// ends of a transfer must agree on the list — the selective exchange of
  /// DistributedDomain::exchange(qs) guarantees that).
  void pack_region(vgpu::Buffer& dst, const Region3& region,
                   const std::vector<std::size_t>& qs) const;
  void unpack_region(const vgpu::Buffer& src, const Region3& region,
                     const std::vector<std::size_t>& qs);

  /// Copy one quantity's region directly from `src` into `dst` (the body
  /// of a cudaMemcpy3D-style pack-free transfer). Region extents must
  /// match; no-op for phantom storage.
  static void copy_region(const LocalDomain& src, const Region3& src_region, LocalDomain& dst,
                          const Region3& dst_region, std::size_t q);

  /// Longest contiguous run (bytes) of one row of `region` for quantity q.
  std::size_t row_bytes(const Region3& region, std::size_t q) const {
    return static_cast<std::size_t>(region.extent.x) * quantities_[q].elem_size;
  }

  /// Append the exact byte ranges a pack/unpack/3d-copy of `region` touches
  /// on the listed quantities' buffers to `out` (checker annotations for
  /// the otherwise-opaque kernel bodies). Adjacent rows merge into single
  /// ranges, so a full-width slab collapses to one range per quantity.
  /// Ranges are emitted for phantom storage too: phantom ops still occupy
  /// virtual time and can race.
  void append_region_accesses(const Region3& region, const std::vector<std::size_t>& qs,
                              bool write, vgpu::AccessList& out) const;
  void append_region_accesses(const Region3& region, bool write, vgpu::AccessList& out) const;

  /// In-GPU self-exchange for direction `dir` (the KERNEL method's body):
  /// copies the interior slab facing `dir` into the halo slab that receives
  /// dir-traffic on this same subdomain (periodic wrap onto itself).
  void self_exchange(Dim3 dir);
  void self_exchange(Dim3 dir, const std::vector<std::size_t>& qs);

  /// The stream this domain's pack/unpack/compute kernels run on by default.
  vgpu::Stream& compute_stream() { return compute_stream_; }

 private:
  template <typename Fn>
  void for_each_row(const Region3& region, std::size_t q, Fn&& fn) const;
  // Byte offset of row (y, z) of `region` in quantity q's storage.
  std::size_t row_offset(const Region3& region, std::int64_t y, std::int64_t z,
                         std::size_t q) const;

  vgpu::Runtime& rt_;
  int ggpu_;
  Dim3 global_idx_;
  Dim3 origin_;
  Dim3 sz_;
  Radius radius_;
  std::vector<Quantity> quantities_;
  std::size_t bytes_per_point_ = 0;
  std::vector<vgpu::Buffer> data_;
  vgpu::Stream compute_stream_;
};

}  // namespace stencil
