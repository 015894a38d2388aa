#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "simtime/time.h"

namespace stencil::sim {

/// Start/end of one granted occupancy of a Resource.
struct Span {
  Time start = 0;
  Time end = 0;
  Duration duration() const { return end - start; }
};

/// A serially-reusable simulated resource (a link, a copy engine, a kernel
/// queue) with FIFO queueing: an acquisition starts no earlier than both the
/// caller's ready time and the completion of all previously granted work.
///
/// Because actors run one at a time and virtual time is globally monotonic,
/// acquire() calls arrive in non-decreasing virtual-time order, so FIFO
/// processing in call order is exact (not an approximation). Contention
/// emerges naturally: two transfers claiming the same link back-to-back
/// serialize; transfers on distinct links overlap.
class Resource {
 public:
  explicit Resource(std::string name = {}) : name_(std::move(name)) {}

  /// Reserve the resource for `dur`, starting no earlier than `ready`.
  /// Returns the completion time. `start` (= completion - dur) is what a
  /// tracer should record as the span begin.
  Time acquire(Time ready, Duration dur) { return acquire_span(ready, dur).end; }

  /// As acquire(), but also reports when the occupancy begins — needed for
  /// cut-through modeling of multi-hop paths, where hop N+1 may begin as
  /// soon as hop N *starts* streaming (plus wire latency), rather than after
  /// it fully completes.
  Span acquire_span(Time ready, Duration dur) {
    const Time start = ready > busy_until_ ? ready : busy_until_;
    busy_until_ = start + (dur > 0 ? dur : 0);
    ++ops_;
    busy_total_ += (dur > 0 ? dur : 0);
    return {start, busy_until_};
  }

  /// Earliest time new work could begin.
  Time busy_until() const { return busy_until_; }

  const std::string& name() const { return name_; }
  std::uint64_t ops() const { return ops_; }
  Duration busy_total() const { return busy_total_; }

  /// Forget all queued work (used between independent measurement runs).
  void reset(Time t = 0) {
    busy_until_ = t;
    ops_ = 0;
    busy_total_ = 0;
  }

 private:
  std::string name_;
  Time busy_until_ = 0;
  std::uint64_t ops_ = 0;
  Duration busy_total_ = 0;
};

}  // namespace stencil::sim
