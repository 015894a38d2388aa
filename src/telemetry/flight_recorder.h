#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <vector>

#include "simtime/time.h"

namespace stencil::telemetry {

/// What a flight-recorder entry describes.
enum class EventKind {
  kExchangeStart,
  kExchangeEnd,
  kTransfer,   // one posted halo transfer (lane = "tag=N", detail = method)
  kGpuOp,      // one virtual-GPU operation (lane/label from the runtime)
  kMpiPost,    // isend/irecv posted
  kMpiMatch,   // message delivered
  kMpiDrop,    // one injected drop before a retry
  kMpiLost,    // retries exhausted
  kDemote,     // fault path re-specialized a transfer
  kError,      // TransportError surfaced to the application
  kStall,      // progress monitor flagged a straggling rank
  kRecover,    // failure-recovery step (detect, checkpoint, restore, ...)
  kNote,       // free-form marker
};

const char* to_string(EventKind k);

/// One structured entry: which exchange it belongs to, where it happened,
/// and how big it was — all in virtual time.
struct FlightEvent {
  std::uint64_t exchange_seq = 0;
  sim::Time at = 0;
  EventKind kind = EventKind::kNote;
  std::string lane;    // resource: "gpu0.d2h", "mpi.r0->r1", "fault", ...
  std::string detail;  // operation: "pack +x+y", "msg tag=42", "staged", ...
  std::uint64_t bytes = 0;
};

/// Bounded ring of recent FlightEvents. Logging is O(1) and never allocates
/// beyond the configured capacity; when full, the oldest entry is evicted.
/// The tail is dumped into deadlock and transport-error reports so the
/// "last N events" before a hang are always available.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 256) : capacity_(capacity ? capacity : 1) {}

  void log(FlightEvent ev);
  /// Convenience: stamp the current exchange sequence on the event.
  void log(EventKind kind, sim::Time at, std::string lane, std::string detail,
           std::uint64_t bytes = 0);

  /// Events from older exchanges keep their original stamp; this only
  /// affects events logged afterwards.
  void set_exchange_seq(std::uint64_t seq) { exchange_seq_ = seq; }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  /// Total events ever logged, including evicted ones.
  std::uint64_t total_logged() const { return total_logged_; }

  /// Last n events, oldest first (all of them when n >= size()).
  std::vector<FlightEvent> tail(std::size_t n) const;

  /// Human-readable tail, one line per event:
  ///   [seq 3] +1.250 ms  gpu-op     gpu0.d2h  pack +x  (96 KiB)
  void dump_tail(std::ostream& os, std::size_t n) const;

 private:
  std::size_t capacity_;
  std::deque<FlightEvent> ring_;
  std::uint64_t exchange_seq_ = 0;
  std::uint64_t total_logged_ = 0;
};

}  // namespace stencil::telemetry
