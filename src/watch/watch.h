#pragma once

/// \file watch.h
/// stencil::watch — the always-on live performance layer (DESIGN.md §16).
///
/// Converts the event streams the system already produces (simpi message
/// completions, exchange completions) into live performance state:
///
///   - per-(src-node, dst-node, wire-class) lane estimators: EWMA per-byte
///     cost, per-size-bucket observed floors (the uncontended minimum), and
///     message/byte counters — updated in O(1) with zero allocation;
///   - an anomaly engine raising structured Incidents (congested link,
///     interference spike) with open/close hysteresis, each open
///     snapshotting the FlightRecorder tail and dropping an instant event
///     into the chrome trace. Slow and stalled ranks are not its business:
///     dtrace::ProgressMonitor is the job's one straggler/stall detector;
///   - link-cost feedback: published per-node/per-link cost factors
///     (capability degradation vs the healthiest observed wire) that sched
///     kNodeAware placement and recover_replace read whenever a Watch is
///     attached — attaching it is the only switch;
///   - exporters: a deterministic `watch-v1` JSON snapshot, Prometheus
///     gauges via MetricsRegistry.
///
/// The hooks are pure bookkeeping: they cost no virtual time, so enabled
/// and disabled runs are bit-identical in timing, and a disabled run is
/// byte-identical in every artifact. Only published factors feed back into
/// decisions, and unpublished or healthy factors are exactly 1 (the
/// dead-band), which leaves every placement and adoption as without a
/// Watch. All state derives from virtual time — no wall clock anywhere
/// (slint-clean), so two identical seeded runs produce identical snapshots.
///
/// Determinism contract for the cost factors: live estimators update on
/// every message, but the factor queries read the *published* snapshot,
/// which changes only at publish() — callers publish at quiescent points
/// (between waves, before a recovery incident), so every rank that must
/// agree on a placement decision reads the same epoch.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "simpi/observer.h"
#include "simtime/resource.h"
#include "simtime/time.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "trace/recorder.h"
#include "watch/estimator.h"

namespace stencil::watch {

/// Which wire a message crossed: host vs device payload, intra- vs
/// inter-node. Lanes are keyed by (src node, dst node, wire class).
enum class WireClass { kHostIntra = 0, kHostInter = 1, kDevIntra = 2, kDevInter = 3 };
constexpr int kWireClasses = 4;
const char* to_string(WireClass c);

/// One structured anomaly, with its evidence attached.
struct Incident {
  enum class Kind { kCongestedLink, kInterferenceSpike };
  static constexpr int kKinds = 2;
  Kind kind = Kind::kCongestedLink;
  std::string subject;  ///< "link n0->n2 host-inter", "tenant 1"
  std::string detail;   ///< human-readable evidence at open time
  double severity = 0.0;  ///< stretch / ratio that tripped the detector
  sim::Time opened = 0;
  sim::Time closed = 0;  ///< 0 while still open
  std::string flight_tail;  ///< FlightRecorder tail snapshot at open ("" without a recorder)
};
const char* to_string(Incident::Kind k);

/// Attached as a Job observer (Cluster::set_watch): every delivered message
/// and every exchange-completion heartbeat feeds it.
class Watch final : public simpi::JobObserver {
 public:
  /// Coarse log2 size buckets (one per factor-of-4 of message size): a
  /// per-byte floor is only comparable between messages of similar size,
  /// because small messages are latency-dominated.
  static constexpr int kSizeBuckets = 16;

  /// One tenant's wire-traffic accumulators over a window, per (wire class,
  /// size bucket). `actual_ns` is queue-inclusive (completion minus ready),
  /// so a tenant's own messages serializing on a wire count — which is why
  /// interference compares a window against the *same tenant's best window
  /// average* (see window_interference), not against per-message floors.
  /// Snapshot-able: callers freeze a co-run window and evaluate it later,
  /// after further (solo) windows have refined the tenant's baselines.
  struct TenantWindow {
    std::uint64_t bytes[kWireClasses * kSizeBuckets] = {};
    double actual_ns[kWireClasses * kSizeBuckets] = {};
    std::uint64_t msgs = 0;
    /// p95 sketch over per-iteration exchange latencies (ms): completions
    /// group by seq, each group reduced to its max across the tenant's
    /// ranks — the same per-iteration-max statistic a post-hoc solo
    /// baseline computes. The window's first group (plan compile +
    /// admission) is dropped, mirroring the baseline's steady-state trim.
    P2Quantile exch_p95{0.95};
    std::uint64_t exchanges = 0;  ///< completed iteration groups
    long long cur_seq = -1;       ///< open group's seq (-1 = none)
    double cur_max_ms = 0.0;      ///< open group's max latency so far
    bool seen_first = false;      ///< warm-up group already dropped
  };

  // --- wiring (Cluster::set_watch) -----------------------------------------
  /// Preallocates every lane slot: after configure, the hot path never
  /// allocates. Resets all estimator state.
  void configure(int num_nodes, int world_size);
  void set_flight(const telemetry::FlightRecorder* f) { flight_ = f; }
  void set_recorder(trace::Recorder* r) { recorder_ = r; }

  // --- hot-path hooks (zero allocation) ------------------------------------
  /// One delivered message: `ready` is when both endpoints were ready,
  /// `span` the wire span the cost model produced. Floors/EWMAs/congestion
  /// use the span duration (wire occupancy — a capability signal immune to
  /// queueing); tenant windows use span.end - ready (queue-inclusive — what
  /// contention actually costs).
  void on_message(int src_rank, int dst_rank, int src_node, int dst_node, bool device,
                  std::uint64_t bytes, sim::Time ready, sim::Span span);
  /// simpi::JobObserver: a delivered match is one on_message.
  void on_match(const simpi::MsgInfo& send, const simpi::MsgInfo& recv,
                const simpi::Delivery& d) override;
  /// One rank finished one halo exchange.
  void on_exchange_complete(int world_rank, std::uint64_t seq, sim::Duration latency,
                            sim::Time at) override;

  // --- tenant attribution (sched) ------------------------------------------
  /// tenant_of_rank[world rank] -> tenant id (-1 = unattributed). Empty
  /// detaches. Grows the per-tenant state as needed; learned per-tenant
  /// baselines survive remapping (solo re-runs of the same tenant id keep
  /// refining them).
  void set_tenant_map(const std::vector<int>& tenant_of_rank, int num_tenants);
  /// Fold each tenant's current window average into its per-(class, bucket)
  /// baseline (min across windows: the least-contended window a tenant ever
  /// had), then reset the per-window accumulators (lane windows, tenant
  /// windows, exchange sketch). Learned floors/EWMAs are untouched.
  void clear_window();

  // --- link-cost feedback (published view; see publish()) -------------------
  /// Copy the live per-node/per-link factors into the published snapshot
  /// the two queries below read, evaluate tenant interference-spike
  /// incidents, and bump the epoch. Call at quiescent points only.
  void publish();
  std::uint64_t publish_epoch() const { return publish_epoch_; }
  /// Live link-cost feedback for sched placement and recover_replace, from
  /// the published snapshot: stable between publish() calls. Factors are
  /// >= 1 multipliers on the nominal internode cost: 1 = as good as the
  /// healthiest observed wire of the same class, 2 = twice the per-byte
  /// cost. The first is the aggregate for internode traffic touching
  /// `node`, the second the directional src-node -> dst-node factor.
  double node_cost_factor(int node) const;
  double link_cost_factor(int src_node, int dst_node) const;
  /// Live (unpublished) factors, for reports and tests.
  double live_node_cost_factor(int node) const;
  double live_link_cost_factor(int src_node, int dst_node) const;

  // --- queries --------------------------------------------------------------
  int num_nodes() const { return num_nodes_; }
  int world_size() const { return world_size_; }
  std::uint64_t messages() const { return messages_; }
  std::uint64_t exchanges() const { return exchange_completions_; }
  /// EWMA bandwidth of a lane in bytes per virtual second (0 = no data).
  double lane_bandwidth(int src_node, int dst_node, WireClass c) const;
  /// Lifetime message / byte counters of a lane (0 = no data).
  std::uint64_t lane_messages(int src_node, int dst_node, WireClass c) const;
  std::uint64_t lane_bytes(int src_node, int dst_node, WireClass c) const;
  /// Window stretch of a lane: observed cost over floor-predicted cost - 1.
  double lane_window_stretch(int src_node, int dst_node, WireClass c) const;
  /// Accumulated wire-span nanoseconds of a lane over the current window
  /// (0 = no data). Raw material for counterfactual what-if models
  /// (stencil::explain): actual time spent on the wire, floor-independent.
  double lane_window_actual_ns(int src_node, int dst_node, WireClass c) const;
  /// Online interference estimate for a tenant over the current window
  /// against the tenant's learned baselines (see window_interference).
  /// 0 until at least one earlier window established a baseline.
  double tenant_online_interference(int tenant) const;
  /// Copy of a tenant's current window (empty for unknown tenants).
  TenantWindow tenant_window(int tenant) const;
  /// Interference of a frozen window of `tenant` against the tenant's
  /// *current* best-window baselines (refined by any window folded since the
  /// freeze, e.g. a solo re-run): window exchange-p95 over the tenant's best
  /// window exchange-p95 - 1, clamped at 0. Falls back to the wire-time
  /// ratio (window avg ns/byte per (class, bucket) cell over the tenant's
  /// best window avg) when the window saw too few exchange completions.
  /// Baselines include self-queuing — a solo window serializes the same
  /// messages — so only genuine cross-tenant contention registers.
  double window_interference(int tenant, const TenantWindow& w) const;
  /// p95 of per-rank exchange latency (ms) over the current window.
  double exchange_p95_ms() const { return exch_p95_.value(); }

  const std::vector<Incident>& incidents() const { return incidents_; }
  int open_incidents() const { return open_incidents_; }
  std::uint64_t incidents_opened() const { return incidents_opened_; }
  std::uint64_t incidents_of(Incident::Kind k) const {
    return incidents_by_kind_[static_cast<std::size_t>(k)];
  }

  // --- exporters ------------------------------------------------------------
  /// Deterministic `watch-v1` JSON snapshot of the current window.
  void write_snapshot_json(std::ostream& os) const;
  /// Prometheus-ready gauges/counters into `reg` (watch_* namespace).
  void export_metrics(telemetry::MetricsRegistry& reg) const;

 private:
  struct BucketStats {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    double floor_pb = 0.0;  // lifetime min observed ns/byte (0 = none)
    /// Windowed floors: the least-queued message a window saw is its pure
    /// service cost (each iteration's first message finds empty queues), so
    /// the previous window's floor tracks *current* wire capability — it
    /// rises when a wire degrades mid-life, where the lifetime floor
    /// would remember the healthy past forever.
    double win_floor_pb = 0.0;     // min ns/byte this window (0 = none)
    double recent_floor_pb = 0.0;  // previous window's floor (0 = none)
  };
  struct LaneStats {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    Ewma ewma_pb;                          // ns/byte, all sizes
    BucketStats buckets[kSizeBuckets];
    // Current window.
    std::uint64_t win_msgs = 0;
    std::uint64_t win_bytes = 0;
    double win_actual_ns = 0.0;
    double win_floor_ns = 0.0;
    // Congestion hysteresis.
    int breach_streak = 0;
    int clear_streak = 0;
    bool incident_open = false;
    int incident_idx = -1;
  };
  struct TenantStats {
    TenantWindow win;
    /// Min over completed windows of the window-average queue-inclusive
    /// ns/byte per (class, bucket); 0 = no window yet. The tenant's own
    /// least-contended (solo) behavior, self-queuing included.
    double base_avg_pb[kWireClasses * kSizeBuckets] = {};
    /// Min over completed windows of the window exchange-p95 (ms); 0 = no
    /// window with enough completions yet.
    double base_exch_p95_ms = 0.0;
    int breach_streak = 0;
    int clear_streak = 0;
    bool incident_open = false;
    int incident_idx = -1;
  };

  static int size_bucket(std::uint64_t bytes);
  /// Close a window's open iteration group: fold its max into the p95
  /// sketch (the first group per window is dropped as warm-up).
  static void flush_exchange_group(TenantWindow* w);
  std::size_t lane_index(int s, int d, WireClass c) const {
    return (static_cast<std::size_t>(s) * static_cast<std::size_t>(num_nodes_) +
            static_cast<std::size_t>(d)) *
               kWireClasses +
           static_cast<std::size_t>(c);
  }
  /// Open an incident (cold path: may allocate). Returns its index or -1
  /// when the store is full (the open is still counted).
  int open_incident(Incident::Kind kind, std::string subject, std::string detail,
                    double severity, sim::Time at);
  void close_incident(int idx, sim::Time at);

  int num_nodes_ = 0;
  int world_size_ = 0;
  std::vector<LaneStats> lanes_;                    // nodes^2 x classes
  double class_floor_[kWireClasses][kSizeBuckets] = {};  // global min ns/byte
  std::vector<int> tenant_of_;                      // world rank -> tenant (-1 none)
  std::vector<TenantStats> tenants_;

  P2Quantile exch_p95_{0.95};
  std::uint64_t exchange_completions_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t window_ = 0;  // bumped by clear_window()

  std::vector<Incident> incidents_;
  int open_incidents_ = 0;
  std::uint64_t incidents_opened_ = 0;
  std::uint64_t incidents_by_kind_[Incident::kKinds] = {};

  std::vector<double> published_node_;  // factor per node (empty until publish)
  std::vector<double> published_link_;  // factor per (src*nodes+dst)
  std::uint64_t publish_epoch_ = 0;

  const telemetry::FlightRecorder* flight_ = nullptr;
  trace::Recorder* recorder_ = nullptr;
};

}  // namespace stencil::watch
