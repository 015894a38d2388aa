#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "simpi/observer.h"
#include "simtime/time.h"
#include "vgpu/observer.h"

namespace stencil::trace {

/// `s` escaped for use inside a JSON string literal: quotes, backslashes
/// and control characters. The one escaper every JSON writer shares.
std::string json_escape(const std::string& s);

/// One recorded operation span: `lane` identifies the resource or executor
/// (e.g. "gpu0.kernel", "gpu0->gpu1", "rank2.cpu", "nic0.out"), `label` the
/// operation (e.g. "pack +x", "MPI_Isend"). `rank` and `id` are filled by
/// causal recorders (dtrace::Collector); the plain Recorder assigns ids but
/// leaves rank at -1 (unattributed).
struct OpRecord {
  std::string lane;
  std::string label;
  sim::Time start = 0;
  sim::Time end = 0;
  int rank = -1;         // owning rank, -1 when the lane is shared/unattributed
  std::uint64_t id = 0;  // 1-based span id, unique within one recorder
};

/// A causal arrow between two recorded spans (a chrome-trace flow event):
/// the consumer span could not begin before the producer span produced.
/// `msg` carries the message identity (the simpi request serial) so
/// downstream analyses can recognize the same edge arriving from the
/// checker's happens-before log and avoid attaching it twice.
struct FlowEdge {
  std::uint64_t id = 0;         // flow id (binds the chrome s/t/f events)
  std::uint64_t from_span = 0;  // producer span id
  std::uint64_t to_span = 0;    // consumer span id
  std::uint64_t msg = 0;        // message identity (simpi serial), 0 if none
  std::string label;
};

/// Collects operation spans during a simulation and renders them as CSV or
/// an ASCII Gantt chart (the reproduction of the paper's Fig. 9 timeline).
/// Recording order is deterministic because the engine runs one actor at a
/// time in a fixed order.
///
/// As a Runtime/Job observer it records every GPU op, host issue, graph
/// launch, message wire span, dropped and lost transmission, and
/// revoke/retire instant.
class Recorder : public vgpu::RuntimeObserver, public simpi::JobObserver {
 public:
  /// Records one span and returns its id (1-based). Virtual so causal
  /// recorders (dtrace::Collector) can attribute the span to a rank.
  virtual std::uint64_t record(std::string lane, std::string label, sim::Time start,
                               sim::Time end);

  /// True for causal recorders (dtrace::Collector), which also record
  /// post/deliver marker spans and flow edges along every message; a plain
  /// Recorder keeps byte-identical output with older traces.
  virtual bool causal() const { return false; }

  /// Adds a causal arrow between two recorded span ids.
  void add_flow(std::uint64_t from_span, std::uint64_t to_span, std::uint64_t msg,
                std::string label);

  // --- vgpu::RuntimeObserver ---------------------------------------------
  void on_op(const vgpu::OpInfo& op) override;
  void on_host_issue(const std::string& lane, sim::Time start, sim::Time end) override;
  void on_graph_launch(const std::string& lane, int nodes, sim::Time start,
                       sim::Time end) override;

  // --- simpi::JobObserver -------------------------------------------------
  void on_match(const simpi::MsgInfo& send, const simpi::MsgInfo& recv,
                const simpi::Delivery& d) override;
  void on_drop(const simpi::MsgInfo& send, int attempt, sim::Span retry) override;
  void on_revoke(std::uint64_t epoch, sim::Time at) override;
  void on_retire(int rank, sim::Time at) override;

  const std::vector<OpRecord>& records() const { return records_; }
  const std::vector<FlowEdge>& flows() const { return flows_; }
  bool empty() const { return records_.empty(); }
  void clear();

  /// `lane,label,start_us,end_us,duration_us` rows, sorted by (lane, start).
  void write_csv(std::ostream& os) const;

  /// One row per lane; spans rendered as blocks over [t0, t1] scaled to
  /// `width` columns. t1 <= t0 means auto-fit to the recorded range.
  void write_gantt(std::ostream& os, sim::Time t0 = 0, sim::Time t1 = 0, int width = 100) const;

 protected:
  std::vector<OpRecord> records_;
  std::vector<FlowEdge> flows_;
  std::uint64_t next_span_id_ = 0;
  std::uint64_t next_flow_id_ = 0;
};

}  // namespace stencil::trace
