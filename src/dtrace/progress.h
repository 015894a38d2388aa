#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dtrace/collector.h"
#include "simpi/observer.h"
#include "simtime/time.h"

namespace stencil::telemetry {
class FlightRecorder;
class Telemetry;
}

namespace stencil::dtrace {

/// One detected straggler or stall. `lag` is how far behind the median
/// same-exchange peer the flagged rank finished (straggler) or how long it
/// has been silent (stall). `flight_tail` and `inflight` snapshot the
/// FlightRecorder tail and the trace contexts still in the air when the
/// alert fired, so the report names the messages a hung rank is waiting on.
struct StallAlert {
  int rank = -1;
  std::uint64_t seq = 0;       // exchange sequence number
  sim::Time at = 0;            // virtual time the alert fired
  sim::Duration lag = 0;
  std::string detail;
  std::string flight_tail;
  std::vector<TraceContext> inflight;

  std::string str() const;
};

/// Live progress/stall monitor (DESIGN.md §12): every rank heartbeats at
/// the start and end of each halo exchange (DistributedDomain reports them
/// through Job::exchange_begin/exchange_complete, which fan out to this
/// Job observer).
/// When all ranks of an exchange have reported, per-rank durations are
/// compared against the median: a rank is flagged as a straggler when it is
/// slower than `relative_slack` x median AND more than `slack` behind it
/// (both must hold, so microsecond jitter on a fast exchange stays silent).
/// finish() flags exchanges that never completed on some rank as stalls.
/// An evaluated exchange can never stall, so its heartbeats are dropped
/// then: the monitor holds only exchanges some rank has yet to finish.
/// All comparisons are in virtual time, so detection is deterministic.
class ProgressMonitor : public simpi::JobObserver {
 public:
  void set_world(int world_size) { world_size_ = world_size; }
  /// Absolute slack floor (virtual ns). Default 50 us.
  void set_slack(sim::Duration slack) { slack_ = slack; }
  /// Relative multiple of the median duration. Default 2.0.
  void set_relative_slack(double mult) { relative_slack_ = mult; }
  /// Optional: snapshot this recorder's tail into alerts.
  void set_flight(const telemetry::FlightRecorder* flight) { flight_ = flight; }
  /// Optional: snapshot in-flight trace contexts into alerts.
  void set_collector(const Collector* collector) { collector_ = collector; }
  /// Optional: every fired alert also lands in the telemetry sink
  /// (counter + flight event + auto tail dump, the DeadlockError path).
  void set_telemetry(telemetry::Telemetry* t) { telemetry_ = t; }
  /// Optional failure attribution: maps a rank to its scripted death instant
  /// (fault::kForever = alive). A stall on a dead rank is reported as
  /// attributable — the escalation signal recovery consumes — instead of an
  /// anonymous hang. Cluster wires this to Job::rank_fail_time.
  void set_rank_fail_time(std::function<sim::Time(int)> fn) { rank_fail_time_ = std::move(fn); }

  sim::Duration slack() const { return slack_; }
  double relative_slack() const { return relative_slack_; }

  /// Heartbeats, one pair per (rank, exchange). The monitor measures
  /// durations from its own begin beats, so `latency` is unused.
  void on_exchange_begin(int rank, std::uint64_t seq, sim::Time at) override;
  void on_exchange_complete(int rank, std::uint64_t seq, sim::Duration latency,
                            sim::Time at) override;

  /// Flags exchanges some rank began but never completed (a stall) and
  /// ranks that never began an exchange their peers ran. Call at teardown
  /// or from a watchdog with the current virtual time.
  void finish(sim::Time now);

  const std::vector<StallAlert>& alerts() const { return alerts_; }
  bool clean() const { return alerts_.empty(); }
  std::uint64_t exchanges_seen() const { return evaluated_ + beats_.size(); }
  /// Exchanges whose heartbeats are still held (not yet evaluated).
  std::size_t exchanges_held() const { return beats_.size(); }

  /// Human-readable report: one line per alert, or "progress: clean".
  std::string str() const;

 private:
  struct Cell {
    sim::Time begin = 0;
    sim::Time end = 0;
    bool begun = false;
    bool done = false;
  };

  void evaluate(const std::map<int, Cell>& ranks, std::uint64_t seq);
  void fire(int rank, std::uint64_t seq, sim::Time at, sim::Duration lag, std::string detail);

  int world_size_ = 0;
  sim::Duration slack_ = 50'000;  // 50 us of virtual time
  double relative_slack_ = 2.0;
  const telemetry::FlightRecorder* flight_ = nullptr;
  const Collector* collector_ = nullptr;
  telemetry::Telemetry* telemetry_ = nullptr;
  std::function<sim::Time(int)> rank_fail_time_;
  std::map<std::uint64_t, std::map<int, Cell>> beats_;  // seq -> rank -> heartbeat
  std::uint64_t evaluated_ = 0;  // exchanges evaluated and dropped from beats_
  std::vector<StallAlert> alerts_;
};

}  // namespace stencil::dtrace
