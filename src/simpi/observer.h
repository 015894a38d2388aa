#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "simtime/resource.h"
#include "simtime/time.h"

namespace stencil::simpi {

struct Payload;

/// Identity and metadata of one posted nonblocking operation, as reported to
/// a JobObserver. `serial` is unique for the lifetime of the Job (request
/// records are heap objects whose addresses can be reused). The Payload
/// pointer is valid only for the duration of the callback.
struct MsgInfo {
  std::uint64_t serial = 0;
  bool is_send = false;
  int src = -1;
  int dst = -1;
  int tag = 0;
  const Payload* payload = nullptr;
  std::size_t bytes = 0;    // payload size
  bool buffered = false;    // eager protocol: completed at post time
  bool persistent = false;  // created by send_init/recv_init; reusable Record
  sim::Time post_time = 0;
};

/// How a resolved send/recv pair crossed the machine (JobObserver::on_match).
/// `same_node` selects the intra-node path, which — like the profiled MPI —
/// does *not* synchronize with device streams, whereas the inter-node device
/// path brackets the copy with device synchronization and occupies the
/// default streams.
struct Delivery {
  bool delivered = true;  // false: fault injection dropped every transmission
  bool same_node = false;
  bool device = false;  // a device payload took the CUDA-aware path
  int src_node = -1;
  int dst_node = -1;
  int attempts = 1;     // transmissions, retries included
  sim::Time ready = 0;  // both endpoints ready, before queuing on shared wires
  sim::Span span;       // wire occupancy; for a loss, last attempt to failure
};

/// Observer of every simpi event, from request post to the exchange layer's
/// heartbeats. The trace recorder and causal collector, telemetry, the
/// watch, the progress monitor, and `stencil::check::Checker` (which extends
/// the happens-before graph across ranks) implement it; install with
/// Job::attach. Every callback is a no-op by default. Callbacks run on the
/// engine actor performing the triggering MPI call and must not call back
/// into the Job.
class JobObserver {
 public:
  virtual ~JobObserver() = default;

  virtual void on_job_start(int /*world_size*/) {}
  virtual void on_job_end() {}
  virtual void on_post(const MsgInfo& /*m*/) {}
  /// The request entered the matching queues: right after on_post, and
  /// after every accepted persistent start. Causal tracers stamp the
  /// send's trace context here.
  virtual void on_queued(const MsgInfo& /*m*/) {}
  /// A send/recv pair was resolved: delivered, or lost (both waits throw).
  virtual void on_match(const MsgInfo& /*send*/, const MsgInfo& /*recv*/,
                        const Delivery& /*d*/) {}
  /// Transmission `attempt` (1-based) of `send` was dropped; the retry goes
  /// out at `retry.end`.
  virtual void on_drop(const MsgInfo& /*send*/, int /*attempt*/, sim::Span /*retry*/) {}
  /// Recv buffer smaller than the matched message; thrown right after.
  virtual void on_truncation(const MsgInfo& /*send*/, const MsgInfo& /*recv*/) {}
  /// The calling actor observed completion of this request at `at` (wait
  /// returned, test returned true, wait_any selected it, or reset drained it).
  virtual void on_request_done(std::uint64_t /*serial*/, sim::Time /*at*/) {}
  /// The request was cancelled without completing (wait timeout path).
  virtual void on_request_cancel(std::uint64_t /*serial*/) {}
  /// A TransportError is about to be thrown.
  virtual void on_transport_error(const std::string& /*what*/, sim::Time /*at*/) {}
  virtual void on_barrier_arrive(std::uint64_t /*generation*/) {}
  virtual void on_barrier_release(std::uint64_t /*generation*/) {}
  /// ULFM-style failure transitions (Job::revoke / Job::retire_rank).
  virtual void on_revoke(std::uint64_t /*epoch*/, sim::Time /*at*/) {}
  virtual void on_retire(int /*rank*/, sim::Time /*at*/) {}

  /// Persistent-request lifecycle (MPI_Send_init / MPI_Start / MPI_Request_free).
  /// *_init creates the Record (nothing is queued); each start re-arms it, and
  /// completion arrives through on_match/on_request_done under the same serial.
  virtual void on_persistent_init(const MsgInfo& /*m*/) {}
  /// Fired on every start, *before* the library rejects a double start, so an
  /// observer can lint "start while still active".
  virtual void on_persistent_start(const MsgInfo& /*m*/) {}
  /// The handle was freed. `active` is true when the operation had been
  /// started and not yet completed (MPI defers the free; we lint it).
  virtual void on_persistent_free(std::uint64_t /*serial*/, bool /*active*/) {}

  /// Heartbeats from the exchange layer (Job::exchange_begin /
  /// Job::exchange_complete): `rank` began / finished halo exchange `seq`.
  virtual void on_exchange_begin(int /*rank*/, std::uint64_t /*seq*/, sim::Time /*at*/) {}
  virtual void on_exchange_complete(int /*rank*/, std::uint64_t /*seq*/,
                                    sim::Duration /*latency*/, sim::Time /*at*/) {}
};

}  // namespace stencil::simpi
