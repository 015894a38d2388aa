#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace stencil::check {

/// Logical thread id inside the checker's happens-before graph. Host actors,
/// streams and in-flight MPI requests each hold one; a completed request's
/// id is retired and reused by the next request its waiter posts.
using Tid = std::uint32_t;

/// A dense vector clock over checker Tids: component t is element t of one
/// array, and components past the array's end read as 0. The checker's tids
/// are bounded (host actors, streams, and the requests in flight at once; a
/// completed request's tid is reused), so a clock is at most as wide as the
/// job's live threads. `get` and `bump` are O(1); `join` and `leq` are
/// straight element-wise loops, whose cost does not depend on how many
/// components happen to be set.
///
/// Components are stored as 32-bit counts so that `join` runs four lanes per
/// vector instruction even on baseline x86-64 (SSE2 has 32-bit compares but
/// no 64-bit ones). A thread's epoch advances once per op it performs, and
/// `bump` throws rather than wrap past 2^32 - 1.
class VClock {
 public:
  std::uint64_t get(Tid t) const { return t < c_.size() ? c_[t] : 0; }

  void set(Tid t, std::uint64_t v) {
    if (v > kMax) throw std::overflow_error("VClock: epoch past 2^32 - 1");
    widen(std::size_t{t} + 1);
    c_[t] = static_cast<Count>(v);
  }

  /// Advance this thread's own component and return the new epoch.
  std::uint64_t bump(Tid t) {
    widen(std::size_t{t} + 1);
    if (c_[t] == kMax) throw std::overflow_error("VClock: epoch past 2^32 - 1");
    return ++c_[t];
  }

  /// Pointwise maximum: *this |= other. Returns whether any component rose,
  /// so callers can tell a join that changed nothing.
  bool join(const VClock& other) {
    const std::size_t n = other.c_.size();
    widen(n);
    Count* a = c_.data();
    const Count* b = other.c_.data();
    Lanes rose{};
    for (std::size_t i = 0; i < n; i += kLanes) {  // widths are multiples of kLanes
      Lanes x, y;
      std::memcpy(&x, a + i, sizeof x);
      std::memcpy(&y, b + i, sizeof y);
      const Lanes gt = y > x;  // all-ones lanes where other is ahead
      rose |= gt;
      x = (y & gt) | (x & ~gt);
      std::memcpy(a + i, &x, sizeof x);
    }
    return (rose[0] | rose[1] | rose[2] | rose[3]) != 0;
  }

  /// True when *this <= other pointwise (this clock's knowledge is contained
  /// in other's: everything ordered before *this is ordered before other).
  bool leq(const VClock& other) const {
    const std::size_t n = std::min(c_.size(), other.c_.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (c_[i] > other.c_[i]) return false;
    }
    return std::all_of(c_.begin() + static_cast<std::ptrdiff_t>(n), c_.end(),
                       [](Count v) { return v == 0; });
  }

  /// The set (non-zero) components, in tid order: "{1:3, 4:5}".
  std::string str() const {
    std::string s = "{";
    for (std::size_t t = 0; t < c_.size(); ++t) {
      if (c_[t] == 0) continue;
      if (s.size() > 1) s += ", ";
      s += std::to_string(t) + ":" + std::to_string(c_[t]);
    }
    return s + "}";
  }

 private:
  using Count = std::uint32_t;
  static constexpr Count kMax = std::numeric_limits<Count>::max();
  static constexpr std::size_t kLanes = 4;
  using Lanes = Count __attribute__((vector_size(kLanes * sizeof(Count))));

  // Widths round up to whole vectors. Growth doubles the capacity
  // (std::vector's policy), so a clock that learns of new tids one at a
  // time reallocates only logarithmically often.
  void widen(std::size_t n) {
    if (n > c_.size()) c_.resize((n + kLanes - 1) / kLanes * kLanes);
  }

  std::vector<Count> c_;
};

/// One recorded access for the FastTrack-style ordering test: the access was
/// performed "at" epoch `epoch` of thread `tid`. A later access B, with
/// happens-before knowledge C, happens-after access A iff C contains A's
/// epoch: A.epoch <= C[A.tid].
struct Epoch {
  Tid tid = 0;
  std::uint64_t epoch = 0;

  bool ordered_before(const VClock& later) const { return epoch <= later.get(tid); }
};

}  // namespace stencil::check
