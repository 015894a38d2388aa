#include "core/local_domain.h"

#include <cstring>
#include <stdexcept>

namespace stencil {

LocalDomain::LocalDomain(vgpu::Runtime& rt, int ggpu, Dim3 global_idx, Dim3 origin, Dim3 sz,
                         Radius radius, const std::vector<Quantity>& quantities)
    : rt_(rt),
      ggpu_(ggpu),
      global_idx_(global_idx),
      origin_(origin),
      sz_(sz),
      radius_(radius),
      quantities_(quantities) {
  if (radius_.min() < 0) throw std::invalid_argument("LocalDomain: negative radius");
  if (sz_.x <= 0 || sz_.y <= 0 || sz_.z <= 0) {
    throw std::invalid_argument("LocalDomain: empty subdomain " + sz_.str());
  }
  for (const auto& q : quantities_) bytes_per_point_ += q.elem_size;
  const Dim3 st = storage();
  data_.reserve(quantities_.size());
  for (const auto& q : quantities_) {
    data_.push_back(rt_.alloc_device(ggpu_, static_cast<std::size_t>(st.volume()) * q.elem_size));
  }
  compute_stream_ = rt_.create_stream(ggpu_);
}

std::size_t LocalDomain::row_offset(const Region3& region, std::int64_t y, std::int64_t z,
                                   std::size_t q) const {
  // Rows are contiguous runs along x, strided in the (sz + 2r)^3 storage box.
  const Dim3 st = storage();
  const Dim3 ho = radius_.offsets();
  const std::int64_t sx = region.origin.x + ho.x;
  const std::int64_t sy = region.origin.y + y + ho.y;
  const std::int64_t sz2 = region.origin.z + z + ho.z;
  return static_cast<std::size_t>(((sz2 * st.y + sy) * st.x + sx)) * quantities_[q].elem_size;
}

template <typename Fn>
void LocalDomain::for_each_row(const Region3& region, std::size_t q, Fn&& fn) const {
  for (std::int64_t z = 0; z < region.extent.z; ++z) {
    for (std::int64_t y = 0; y < region.extent.y; ++y) {
      fn(row_offset(region, y, z, q), row_bytes(region, q));
    }
  }
}

namespace {
std::vector<std::size_t> all_indices(std::size_t n) {
  std::vector<std::size_t> qs(n);
  for (std::size_t i = 0; i < n; ++i) qs[i] = i;
  return qs;
}
}  // namespace

void LocalDomain::pack_region(vgpu::Buffer& dst, const Region3& region) const {
  pack_region(dst, region, all_indices(quantities_.size()));
}

void LocalDomain::unpack_region(const vgpu::Buffer& src, const Region3& region) {
  unpack_region(src, region, all_indices(quantities_.size()));
}

void LocalDomain::pack_region(vgpu::Buffer& dst, const Region3& region,
                              const std::vector<std::size_t>& qs) const {
  if (dst.mode() != vgpu::MemMode::kMaterialized) return;
  std::size_t cursor = 0;
  for (std::size_t q : qs) {
    if (data_[q].mode() != vgpu::MemMode::kMaterialized) continue;
    const std::byte* src = data_[q].data();
    for_each_row(region, q, [&](std::size_t off, std::size_t row_bytes) {
      if (cursor + row_bytes > dst.size()) {
        throw std::out_of_range("pack_region: destination buffer too small");
      }
      std::memcpy(dst.data() + cursor, src + off, row_bytes);
      cursor += row_bytes;
    });
  }
}

void LocalDomain::unpack_region(const vgpu::Buffer& src, const Region3& region,
                                const std::vector<std::size_t>& qs) {
  if (src.mode() != vgpu::MemMode::kMaterialized) return;
  std::size_t cursor = 0;
  for (std::size_t q : qs) {
    if (data_[q].mode() != vgpu::MemMode::kMaterialized) continue;
    std::byte* dst = data_[q].data();
    for_each_row(region, q, [&](std::size_t off, std::size_t row_bytes) {
      if (cursor + row_bytes > src.size()) {
        throw std::out_of_range("unpack_region: source buffer too small");
      }
      std::memcpy(dst + off, src.data() + cursor, row_bytes);
      cursor += row_bytes;
    });
  }
}

void LocalDomain::append_region_accesses(const Region3& region, const std::vector<std::size_t>& qs,
                                         bool write, vgpu::AccessList& out) const {
  for (std::size_t q : qs) {
    const vgpu::Buffer& b = data_[q];
    for_each_row(region, q, [&](std::size_t off, std::size_t row_bytes) {
      if (!out.empty() && out.back().buf == &b && out.back().write == write &&
          out.back().offset + out.back().bytes == off) {
        out.back().bytes += row_bytes;
      } else {
        out.push_back({&b, off, row_bytes, write});
      }
    });
  }
}

void LocalDomain::append_region_accesses(const Region3& region, bool write,
                                         vgpu::AccessList& out) const {
  append_region_accesses(region, all_indices(quantities_.size()), write, out);
}

void LocalDomain::copy_region(const LocalDomain& src, const Region3& src_region, LocalDomain& dst,
                              const Region3& dst_region, std::size_t q) {
  if (src_region.extent != dst_region.extent) {
    throw std::logic_error("copy_region: region shapes differ");
  }
  if (src.data_[q].mode() != vgpu::MemMode::kMaterialized ||
      dst.data_[q].mode() != vgpu::MemMode::kMaterialized) {
    return;
  }
  const std::byte* sp = src.data_[q].data();
  std::byte* dp = dst.data_[q].data();
  for (std::int64_t z = 0; z < src_region.extent.z; ++z) {
    for (std::int64_t y = 0; y < src_region.extent.y; ++y) {
      std::memcpy(dp + dst.row_offset(dst_region, y, z, q),
                  sp + src.row_offset(src_region, y, z, q), src.row_bytes(src_region, q));
    }
  }
}

void LocalDomain::self_exchange(Dim3 dir) {
  self_exchange(dir, all_indices(quantities_.size()));
}

void LocalDomain::self_exchange(Dim3 dir, const std::vector<std::size_t>& qs) {
  const Region3 src = interior_slab(sz_, dir, radius_);
  const Region3 dst = halo_slab(sz_, dir, radius_);
  for (std::size_t q : qs) copy_region(*this, src, *this, dst, q);
}

}  // namespace stencil
