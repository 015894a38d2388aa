#include "telemetry/telemetry.h"

#include <algorithm>
#include <sstream>

namespace stencil::telemetry {

namespace {

std::string mpi_lane(int src, int dst) {
  return "mpi.r" + std::to_string(src) + "->r" + std::to_string(dst);
}

std::string rank_lane(int rank) { return "rank" + std::to_string(rank); }

}  // namespace

void Telemetry::on_op(const vgpu::OpInfo& op) {
  metrics_.counter("vgpu_ops_total").add();
  metrics_.counter("vgpu_bytes_total").add(op.bytes);
  const auto dur = static_cast<std::uint64_t>(op.end > op.start ? op.end - op.start : 0);
  const std::string& label = *op.trace_label;
  if (label.compare(0, 4, "pack") == 0) {
    metrics_.histogram("vgpu_pack_ns").observe(dur);
  } else if (label.compare(0, 6, "unpack") == 0) {
    metrics_.histogram("vgpu_unpack_ns").observe(dur);
  }
  flight_.log(EventKind::kGpuOp, op.end, *op.lane, label, op.bytes);
}

void Telemetry::on_graph_launch(const std::string& lane, int nodes, sim::Time start, sim::Time) {
  metrics_.counter("vgpu_graph_launches_total").add();
  flight_.log(EventKind::kGpuOp, start, lane, "graph launch (" + std::to_string(nodes) + " nodes)");
}

void Telemetry::on_post(const simpi::MsgInfo& m) {
  metrics_.counter(m.is_send ? "mpi_sends_posted_total" : "mpi_recvs_posted_total").add();
  flight_.log(EventKind::kMpiPost, m.post_time, mpi_lane(m.src, m.dst),
              std::string(m.is_send ? "isend" : "irecv") + " tag=" + std::to_string(m.tag),
              m.bytes);
}

void Telemetry::on_match(const simpi::MsgInfo& send, const simpi::MsgInfo& recv,
                         const simpi::Delivery& d) {
  const std::string lane = mpi_lane(send.src, recv.dst);
  const std::string tag = "tag=" + std::to_string(send.tag);
  if (!d.delivered) {
    metrics_.counter("mpi_messages_lost_total").add();
    flight_.log(EventKind::kMpiLost, d.span.end, lane,
                tag + " after " + std::to_string(d.attempts) + " attempts");
    return;
  }
  metrics_.counter("mpi_messages_total").add();
  metrics_.counter("mpi_bytes_total").add(send.bytes);
  metrics_.counter(d.same_node ? "mpi_messages_intra_node_total" : "mpi_messages_inter_node_total")
      .add();
  if (d.attempts > 1) {
    metrics_.counter("mpi_retries_total").add(static_cast<std::uint64_t>(d.attempts - 1));
  }
  metrics_.histogram("mpi_message_bytes").observe(send.bytes);
  flight_.log(EventKind::kMpiMatch, d.span.end, lane,
              tag + (d.attempts > 1 ? " attempts=" + std::to_string(d.attempts) : ""), send.bytes);
}

void Telemetry::on_drop(const simpi::MsgInfo& send, int attempt, sim::Span retry) {
  metrics_.counter("mpi_drops_total").add();
  flight_.log(EventKind::kMpiDrop, retry.start, mpi_lane(send.src, send.dst),
              "tag=" + std::to_string(send.tag) + " retry#" + std::to_string(attempt));
}

void Telemetry::on_transport_error(const std::string& what, sim::Time at) {
  metrics_.counter("mpi_transport_errors_total").add();
  flight_.log(EventKind::kError, at, "mpi", what);
  capture_dump("TransportError: " + what, dump_tail_n_);
}

void Telemetry::on_checker_finding(const std::string& kind, sim::Time at) {
  metrics_.counter("checker_findings_total{kind=\"" + kind + "\"}").add();
  flight_.log(EventKind::kError, at, "check", kind);
  capture_dump("checker finding: " + kind, dump_tail_n_);
}

void Telemetry::on_exchange_begin(int rank, std::uint64_t seq, sim::Time at) {
  flight_.set_exchange_seq(seq);
  flight_.log(EventKind::kExchangeStart, at, rank_lane(rank), "#" + std::to_string(seq));
}

void Telemetry::on_exchange_complete(int, std::uint64_t, sim::Duration latency, sim::Time) {
  metrics_.counter("exchanges_total").add();
  metrics_.histogram("exchange_latency_ns")
      .observe(static_cast<std::uint64_t>(latency > 0 ? latency : 0));
}

void Telemetry::on_exchange_end(int rank, std::uint64_t seq, const std::string& method,
                                std::uint64_t messages, std::uint64_t bytes, sim::Time at) {
  metrics_.counter("exchange_messages_total{method=\"" + method + "\"}").add(messages);
  metrics_.counter("exchange_bytes_total{method=\"" + method + "\"}").add(bytes);
  flight_.log(EventKind::kExchangeEnd, at, rank_lane(rank),
              "#" + std::to_string(seq) + " " + method, bytes);
}

void Telemetry::on_demotion(int tag, const std::string& from, const std::string& to, sim::Time at) {
  metrics_.counter("fault_demotions_total").add();
  flight_.log(EventKind::kDemote, at, "fault",
              "tag=" + std::to_string(tag) + " " + from + "->" + to);
}

void Telemetry::on_plan_event(const char* what) {
  metrics_.counter("plan_" + std::string(what) + "s_total").add();
}

void Telemetry::on_stall(const std::string& what, sim::Time at) {
  metrics_.counter("progress_stalls_total").add();
  flight_.log(EventKind::kStall, at, "progress", what);
  capture_dump("progress stall: " + what, dump_tail_n_);
}

void Telemetry::on_recover_step(const std::string& step, const std::string& detail, sim::Time at) {
  metrics_.counter("recover_steps_total{step=\"" + step + "\"}").add();
  flight_.log(EventKind::kRecover, at, "recover", step + ": " + detail);
}

void Telemetry::record_engine(const sim::Engine& eng) {
  metrics_.gauge("sim_events_processed").set(static_cast<double>(eng.events_processed()));
  metrics_.gauge("sim_events_per_virtual_second").set(eng.events_per_virtual_second());
  metrics_.gauge("sim_max_run_queue_depth")
      .set(static_cast<double>(eng.max_run_queue_depth()));
  metrics_.gauge("sim_context_switches").set(static_cast<double>(eng.context_switches()));
}

void Telemetry::install_deadlock_dump(sim::Engine& eng, std::size_t tail_n) {
  dump_tail_n_ = tail_n;
  eng.set_watchdog([this, tail_n](const sim::DeadlockReport& report) {
    capture_dump(report.to_string(), tail_n);
  });
}

void Telemetry::capture_dump(const std::string& header, std::size_t tail_n) {
  std::ostringstream os;
  os << header;
  if (!header.empty() && header.back() != '\n') os << "\n";
  os << "flight recorder (last " << std::min(tail_n, flight_.size()) << " of "
     << flight_.total_logged() << " events):\n";
  flight_.dump_tail(os, tail_n);
  last_dump_ = os.str();
}

}  // namespace stencil::telemetry
