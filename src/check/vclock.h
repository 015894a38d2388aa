#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace stencil::check {

/// Logical thread id inside the checker's happens-before graph. Host actors,
/// streams and in-flight MPI requests each hold one; a completed request's
/// id is retired and reused by the next request its waiter posts.
using Tid = std::uint32_t;

/// A sparse vector clock over checker Tids. Components default to 0;
/// entries are kept sorted by tid, so lookups are binary searches and
/// join/leq are linear merges. Clocks stay tiny: the checker's tids are the
/// host actors, the streams, and the requests in flight at once (a
/// completed request's tid is reused), so a clock's width is bounded by the
/// live threads of the job and does not grow with the messages it has sent.
/// That bound is also why join usually finds every incoming tid already
/// present and updates in place without allocating.
class VClock {
 public:
  std::uint64_t get(Tid t) const {
    auto it = find(c_.begin(), c_.end(), t);
    return it != c_.end() && it->first == t ? it->second : 0;
  }

  void set(Tid t, std::uint64_t v) {
    auto it = find(c_.begin(), c_.end(), t);
    if (it != c_.end() && it->first == t) {
      it->second = v;
    } else {
      c_.insert(it, {t, v});
    }
  }

  /// Advance this thread's own component and return the new epoch.
  std::uint64_t bump(Tid t) {
    auto it = find(c_.begin(), c_.end(), t);
    if (it != c_.end() && it->first == t) return ++it->second;
    c_.insert(it, {t, 1});
    return 1;
  }

  /// Pointwise maximum: *this |= other. In place when other's tids are a
  /// subset of this clock's; otherwise one merged allocation.
  void join(const VClock& other) {
    auto a = c_.begin();
    for (const auto& [tid, v] : other.c_) {
      while (a != c_.end() && a->first < tid) ++a;
      if (a == c_.end() || a->first != tid) {
        merge(other);
        return;
      }
      a->second = std::max(a->second, v);
    }
  }

  /// True when *this <= other pointwise (this clock's knowledge is contained
  /// in other's: everything ordered before *this is ordered before other).
  bool leq(const VClock& other) const {
    auto b = other.c_.begin();
    for (const auto& [tid, v] : c_) {
      while (b != other.c_.end() && b->first < tid) ++b;
      if (b == other.c_.end() || b->first != tid || b->second < v) return false;
    }
    return true;
  }

  bool empty() const { return c_.empty(); }

  std::string str() const {
    std::string s = "{";
    for (std::size_t i = 0; i < c_.size(); ++i) {
      if (i != 0) s += ", ";
      s += std::to_string(c_[i].first) + ":" + std::to_string(c_[i].second);
    }
    return s + "}";
  }

 private:
  using Entries = std::vector<std::pair<Tid, std::uint64_t>>;

  template <typename It>
  static It find(It first, It last, Tid t) {
    return std::lower_bound(first, last, t,
                            [](const auto& e, Tid key) { return e.first < key; });
  }

  // The general join. Components already raised by join's in-place pass
  // are simply taken again: max is idempotent.
  void merge(const VClock& other) {
    Entries merged;
    merged.reserve(c_.size() + other.c_.size());
    auto a = c_.cbegin();
    auto b = other.c_.cbegin();
    while (a != c_.cend() && b != other.c_.cend()) {
      if (a->first < b->first) {
        merged.push_back(*a++);
      } else if (b->first < a->first) {
        merged.push_back(*b++);
      } else {
        merged.push_back({a->first, std::max(a->second, b->second)});
        ++a;
        ++b;
      }
    }
    merged.insert(merged.end(), a, c_.cend());
    merged.insert(merged.end(), b, other.c_.cend());
    c_ = std::move(merged);
  }

  Entries c_;
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
