#pragma once

#include <cstdint>
#include <string>

#include "simpi/observer.h"
#include "simtime/engine.h"
#include "telemetry/critical_path.h"
#include "telemetry/export.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "vgpu/observer.h"

namespace stencil::telemetry {

/// The one per-cluster sink (Cluster::set_telemetry) that every instrumented
/// layer feeds while it is attached. Owns a MetricsRegistry and a
/// FlightRecorder; every hook is pure bookkeeping — no virtual-time cost, so
/// instrumented and un-instrumented runs are bit-identical in time.
class Telemetry : public vgpu::RuntimeObserver, public simpi::JobObserver {
 public:
  explicit Telemetry(std::size_t flight_capacity = 256) : flight_(flight_capacity) {}

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }

  // --- vgpu::RuntimeObserver ---------------------------------------------
  /// One virtual-GPU op completed on its lane. Pack/unpack labels
  /// additionally feed the pack/unpack time histograms.
  void on_op(const vgpu::OpInfo& op) override;
  void on_graph_launch(const std::string& lane, int nodes, sim::Time start,
                       sim::Time end) override;

  // --- simpi::JobObserver -------------------------------------------------
  void on_post(const simpi::MsgInfo& m) override;
  /// Delivered messages count by size and path; lost ones by loss.
  void on_match(const simpi::MsgInfo& send, const simpi::MsgInfo& recv,
                const simpi::Delivery& d) override;
  void on_drop(const simpi::MsgInfo& send, int attempt, sim::Span retry) override;
  /// A TransportError is about to surface: count it and snapshot the flight
  /// tail so the failure report carries the events leading up to it.
  void on_transport_error(const std::string& what, sim::Time at) override;
  /// Exchange heartbeats: a begin stamps later flight events with `seq`; a
  /// completion counts exchanges_total and exchange_latency_ns.
  void on_exchange_begin(int rank, std::uint64_t seq, sim::Time at) override;
  void on_exchange_complete(int rank, std::uint64_t seq, sim::Duration latency,
                            sim::Time at) override;

  // --- check::Checker hooks ------------------------------------------------
  /// The checker filed a finding (race, leak, lint, ...): count it by kind
  /// and snapshot the flight tail, exactly like transport errors and
  /// deadlocks — so a race report always carries the events leading up to
  /// it, not just the finding text.
  void on_checker_finding(const std::string& kind, sim::Time at);

  // --- DistributedDomain hooks ---------------------------------------------
  /// Per-method message/byte counters of `rank`'s finished exchange `seq`.
  void on_exchange_end(int rank, std::uint64_t seq, const std::string& method,
                       std::uint64_t messages, std::uint64_t bytes, sim::Time at);
  void on_demotion(int tag, const std::string& from, const std::string& to, sim::Time at);

  // --- plan hooks ----------------------------------------------------------
  void on_plan_event(const char* what);  // "compile", "hit", "invalidation", "rebuild", "replay"

  // --- dtrace::ProgressMonitor hook ----------------------------------------
  /// A stall verdict fired: count it and capture a flight-recorder tail dump
  /// through the same path DeadlockError and TransportError use, so a stall
  /// leaves the "last N events" trail too.
  void on_stall(const std::string& what, sim::Time at);

  // --- stencil::recover hooks ----------------------------------------------
  /// One recovery-ladder step ("detect", "checkpoint", "restore", "retire",
  /// "replace", "shrink", ...): per-step counter plus a kRecover flight event.
  void on_recover_step(const std::string& step, const std::string& detail, sim::Time at);

  // --- sim::Engine throughput ----------------------------------------------
  /// Snapshot the engine's scheduler throughput counters into gauges:
  /// sim_events_processed, sim_events_per_virtual_second,
  /// sim_max_run_queue_depth, sim_context_switches. All derive from
  /// deterministic virtual-time state — identical runs export identical
  /// numbers. Call after (or between) runs; later calls overwrite.
  void record_engine(const sim::Engine& eng);

  // --- deadlock / failure dumps --------------------------------------------
  /// Installs an engine watchdog that appends the flight-recorder tail to
  /// the DeadlockReport text and stores the combined dump for retrieval
  /// after the DeadlockError unwinds. The watchdog only reads state.
  void install_deadlock_dump(sim::Engine& eng, std::size_t tail_n = 32);

  /// Last dump captured by the deadlock watchdog or on_transport_error
  /// ("" when neither fired).
  std::string last_dump() const { return last_dump_; }

 private:
  void capture_dump(const std::string& header, std::size_t tail_n);

  MetricsRegistry metrics_;
  FlightRecorder flight_;
  std::string last_dump_;
  std::size_t dump_tail_n_ = 32;
};

}  // namespace stencil::telemetry
