#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/recorder.h"

namespace stencil::telemetry {
class MetricsRegistry;
struct Analysis;
}  // namespace stencil::telemetry

namespace stencil::dtrace {

/// The trace context a send carries (Dapper-style propagation, DESIGN.md §12).
struct TraceContext {
  int rank = -1;           // originating rank
  std::uint64_t span = 0;  // id of the sender's post/start marker span (0: unset)
  std::uint64_t seq = 0;   // rank-local send sequence number (1-based)
};

/// A causal, rank-aware trace recorder (DESIGN.md §12). Drop-in for
/// trace::Recorder (attach with Cluster::set_collector): every recorded
/// span is attributed to the rank its lane names ("rank2.cpu" -> 2,
/// "gpu5.kernel" -> 5 / gpus_per_rank, "mpi.r1->r3" -> 1, the sender). Its
/// Job-observer callbacks propagate a trace context along every message,
/// keyed by request serial: a send stamps one when it enters matching (a
/// marker span on "rankN.mpi"; persistent requests re-stamp on every start,
/// so contexts survive compiled-plan replay), the wire span draws an arrow
/// from it, and the receive's completion adopts it with a marker and an
/// arrow from the wire span. The exchange layer adds the IPC handshake
/// arrows. The result merges into one global timeline: write_chrome_trace
/// emits one process per rank with chrome flow events (s/f arrows) drawn
/// along every message, and write_rank_json / merge support the offline
/// per-rank-file workflow.
class Collector : public trace::Recorder {
 public:
  /// Rank attribution for GPU lanes needs the job shape; Cluster wires it on
  /// attach. gpus_per_rank <= 0 leaves GPU lanes unattributed.
  void set_topology(int world_size, int gpus_per_rank);
  int world_size() const { return world_size_; }

  /// Multi-tenancy (src/sched): name the tenant each world rank belongs to.
  /// Ranks of different co-scheduled jobs share one recorder, so without a
  /// namespace a merged trace reads as one anonymous job. With labels set,
  /// the merged chrome trace names each rank's process "tenant/rank N" and
  /// write_rank_json stamps a "tenant" field; unlabeled ranks (and a
  /// label-free collector) render exactly as before.
  void set_tenant_labels(std::map<int, std::string> rank_to_tenant) {
    tenant_of_rank_ = std::move(rank_to_tenant);
  }
  const std::string& tenant_of(int rank) const;

  std::uint64_t record(std::string lane, std::string label, sim::Time start,
                       sim::Time end) override;
  bool causal() const override { return true; }

  // --- simpi::JobObserver (causal propagation) -----------------------------
  void on_queued(const simpi::MsgInfo& m) override;
  void on_match(const simpi::MsgInfo& send, const simpi::MsgInfo& recv,
                const simpi::Delivery& d) override;
  void on_request_done(std::uint64_t serial, sim::Time at) override;

  /// Trace contexts stamped on sends whose completion has not been observed
  /// yet, ordered by request serial — the "what is still in the air"
  /// snapshot a ProgressMonitor stall alert captures.
  std::vector<TraceContext> inflight() const;

  /// Which rank a lane belongs to: "rankN.*" -> N, "mpi.rS->rD" -> S (the
  /// sender initiates the message), "gpuG*" -> G / gpus_per_rank; -1 for
  /// shared lanes ("exchange", "fault", "barrier#...").
  int rank_of_lane(const std::string& lane) const;

  /// Largest rank seen across spans (-1 when nothing is attributed).
  int max_rank() const;

  /// The chrome trace (chrome://tracing, Perfetto) — the library's one
  /// writer of it. One global timeline: one process per rank (pid = rank
  /// + 1; pid 0 holds unattributed lanes), thread-per-lane within each
  /// process, and a flow-event pair (ph "s" at the producer, ph "f" bp "e"
  /// at the consumer) per causal edge, so Perfetto draws arrows along
  /// every message. Optional enrichment: with `critical` (an Analysis over
  /// records(), whose Hop::span indexes it) each chain span's args carry
  /// "critical":true and its "wait_us"; with `counters` every registry
  /// counter becomes one "C" event on pid 0 at the last span end.
  void write_chrome_trace(std::ostream& os, const telemetry::MetricsRegistry* counters = nullptr,
                          const telemetry::Analysis* critical = nullptr) const;

  /// Per-rank export for the offline-merge workflow: the spans owned by
  /// `rank` plus the flow edges whose producer span `rank` owns, as a
  /// self-describing JSON document. rank -1 exports the shared lanes.
  void write_rank_json(std::ostream& os, int rank) const;

  /// Offline merger: parse documents previously written by write_rank_json
  /// and rebuild the union Collector (spans and flows ordered by id, which
  /// is the original recording order). Throws std::runtime_error on
  /// malformed input.
  static Collector merge(const std::vector<std::string>& docs);

 private:
  struct Adoption {  // a delivered receive waiting to adopt its sender's context
    std::uint64_t wire_span = 0;
    int src = -1, dst = -1, tag = 0;
  };

  /// Span id -> recorded span, for resolving flow endpoints.
  std::unordered_map<std::uint64_t, const trace::OpRecord*> spans_by_id() const;

  int world_size_ = 0;
  int gpus_per_rank_ = 0;
  std::map<std::uint64_t, TraceContext> inflight_;         // send serial -> stamped context
  std::unordered_map<std::uint64_t, Adoption> adoptions_;  // recv serial -> delivery
  std::map<int, std::uint64_t> send_seq_;                  // rank -> sends stamped
  std::map<int, std::string> tenant_of_rank_;              // world rank -> tenant name
  std::string no_tenant_;
};

}  // namespace stencil::dtrace
