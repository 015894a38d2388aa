#pragma once

// The analytic halo oracle the exchange tests share: every interior cell
// holds its global coordinate and quantity, encoded exactly in a float, so
// after an exchange each halo cell must hold the periodically wrapped value
// of the cell it mirrors, bit for bit.

#include <gtest/gtest.h>

#include "core/distributed_domain.h"
#include "core/local_domain.h"

namespace stencil::halo_oracle {

// Encode (global coordinate, quantity) as an exactly-representable float.
inline float expected_value(Dim3 g, std::size_t q = 0) {
  return static_cast<float>(g.x + 131 * g.y + 131 * 131 * g.z) +
         static_cast<float>(q) * 4.0e6f;
}

inline void fill_interior(DistributedDomain& dd, std::size_t nq) {
  dd.for_each_subdomain([&](LocalDomain& ld) {
    for (std::size_t q = 0; q < nq; ++q) {
      auto v = ld.view<float>(q);
      const Dim3 o = ld.origin();
      for (std::int64_t z = 0; z < ld.size().z; ++z) {
        for (std::int64_t y = 0; y < ld.size().y; ++y) {
          for (std::int64_t x = 0; x < ld.size().x; ++x) {
            v(x, y, z) = expected_value({o.x + x, o.y + y, o.z + z}, q);
          }
        }
      }
    }
  });
}

// Whether the halo cell c of a subdomain of size sz lies in a direction the
// neighborhood exchanges (interior cells never do).
inline bool in_neighborhood(Dim3 c, Dim3 sz, Neighborhood n) {
  auto sig = [](std::int64_t v, std::int64_t s) { return v < 0 ? 1 : (v >= s ? 1 : 0); };
  const int nz = sig(c.x, sz.x) + sig(c.y, sz.y) + sig(c.z, sz.z);
  if (nz == 0) return false;
  switch (n) {
    case Neighborhood::kFaces: return nz == 1;
    case Neighborhood::kFacesEdges: return nz <= 2;
    case Neighborhood::kFull: return true;
  }
  return false;
}

// After an exchange, every halo cell of quantities [0, nq) covered by the
// neighborhood must hold the periodically-wrapped source value. Returns the
// failures found and reports the first five.
inline int verify_halos(DistributedDomain& dd, Dim3 domain, std::size_t nq,
                        Neighborhood nbhd = Neighborhood::kFull) {
  int failures = 0;
  const int r = dd.radius().max();
  dd.for_each_subdomain([&](LocalDomain& ld) {
    const Dim3 sz = ld.size();
    const Dim3 o = ld.origin();
    for (std::size_t q = 0; q < nq; ++q) {
      auto v = ld.view<float>(q);
      for (std::int64_t z = -r; z < sz.z + r; ++z) {
        for (std::int64_t y = -r; y < sz.y + r; ++y) {
          for (std::int64_t x = -r; x < sz.x + r; ++x) {
            if (!in_neighborhood({x, y, z}, sz, nbhd)) continue;
            const Dim3 g = Dim3{o.x + x, o.y + y, o.z + z}.wrap(domain);
            const float want = expected_value(g, q);
            if (v(x, y, z) != want && failures < 5) {
              ADD_FAILURE() << "subdomain " << ld.index().str() << " q" << q << " halo ["
                            << x << "," << y << "," << z << "] = " << v(x, y, z)
                            << ", want " << want << " (global " << g.str() << ")";
            }
            failures += v(x, y, z) != want;
          }
        }
      }
    }
  });
  return failures;
}

}  // namespace stencil::halo_oracle
