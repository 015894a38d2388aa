#include "trace/recorder.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <map>
#include <ostream>

namespace stencil::trace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Remaining control characters are illegal raw in JSON strings.
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::uint64_t Recorder::record(std::string lane, std::string label, sim::Time start,
                               sim::Time end) {
  const std::uint64_t id = ++next_span_id_;
  records_.push_back(OpRecord{std::move(lane), std::move(label), start, end, /*rank=*/-1, id});
  return id;
}

void Recorder::add_flow(std::uint64_t from_span, std::uint64_t to_span, std::uint64_t msg,
                        std::string label) {
  if (from_span == 0 || to_span == 0 || from_span == to_span) return;
  flows_.push_back(FlowEdge{++next_flow_id_, from_span, to_span, msg, std::move(label)});
}

void Recorder::on_op(const vgpu::OpInfo& op) {
  record(*op.lane, *op.trace_label, op.start, op.end);
}

void Recorder::on_host_issue(const std::string& lane, sim::Time start, sim::Time end) {
  record(lane, "issue", start, end);
}

void Recorder::on_graph_launch(const std::string& lane, int nodes, sim::Time start,
                               sim::Time end) {
  record(lane, "graph launch (" + std::to_string(nodes) + " nodes)", start, end);
}

void Recorder::on_match(const simpi::MsgInfo& send, const simpi::MsgInfo& recv,
                        const simpi::Delivery& d) {
  record("mpi.r" + std::to_string(send.src) + "->r" + std::to_string(recv.dst),
         d.delivered ? (d.device ? "ca-msg " : "msg ") + std::to_string(send.bytes) + "B"
                     : "LOST tag=" + std::to_string(send.tag) + " after " +
                           std::to_string(d.attempts) + " attempts",
         d.span.start, d.span.end);
}

void Recorder::on_drop(const simpi::MsgInfo& send, int attempt, sim::Span retry) {
  record("mpi.r" + std::to_string(send.src) + "->r" + std::to_string(send.dst),
         "drop tag=" + std::to_string(send.tag) + " retry#" + std::to_string(attempt),
         retry.start, retry.end);
}

void Recorder::on_revoke(std::uint64_t epoch, sim::Time at) {
  record("recover", "revoke epoch=" + std::to_string(epoch), at, at);
}

void Recorder::on_retire(int rank, sim::Time at) {
  record("recover", "retire rank " + std::to_string(rank), at, at);
}

void Recorder::clear() {
  records_.clear();
  flows_.clear();
  next_span_id_ = 0;
  next_flow_id_ = 0;
}

void Recorder::write_csv(std::ostream& os) const {
  std::vector<const OpRecord*> sorted;
  sorted.reserve(records_.size());
  for (const auto& r : records_) sorted.push_back(&r);
  std::stable_sort(sorted.begin(), sorted.end(), [](const OpRecord* a, const OpRecord* b) {
    if (a->lane != b->lane) return a->lane < b->lane;
    return a->start < b->start;
  });
  os << "lane,label,start_us,end_us,duration_us\n";
  for (const OpRecord* r : sorted) {
    os << r->lane << ',' << r->label << ',' << sim::to_micros(r->start) << ','
       << sim::to_micros(r->end) << ',' << sim::to_micros(r->end - r->start) << '\n';
  }
}

void Recorder::write_gantt(std::ostream& os, sim::Time t0, sim::Time t1, int width) const {
  if (records_.empty()) {
    os << "(no operations recorded)\n";
    return;
  }
  if (t1 <= t0) {
    t0 = records_.front().start;
    t1 = records_.front().end;
    for (const auto& r : records_) {
      t0 = std::min(t0, r.start);
      t1 = std::max(t1, r.end);
    }
  }
  if (t1 <= t0) t1 = t0 + 1;
  width = std::max(width, 10);

  // Group by lane, preserving first-appearance order.
  std::vector<std::string> lane_order;
  std::map<std::string, std::vector<const OpRecord*>> lanes;
  for (const auto& r : records_) {
    auto [it, inserted] = lanes.try_emplace(r.lane);
    if (inserted) lane_order.push_back(r.lane);
    it->second.push_back(&r);
  }
  std::size_t lane_w = 4;
  for (const auto& l : lane_order) lane_w = std::max(lane_w, l.size());

  const double scale = static_cast<double>(width) / static_cast<double>(t1 - t0);
  os << "timeline: " << sim::format_duration(t1 - t0) << " total, '" << '#'
     << "' = " << sim::format_duration(static_cast<sim::Duration>((t1 - t0) / width)) << "\n";
  for (const auto& lane : lane_order) {
    std::string row(static_cast<std::size_t>(width), '.');
    for (const OpRecord* r : lanes[lane]) {
      if (r->end < t0 || r->start > t1) continue;  // entirely outside the window
      const auto clamp_col = [&](sim::Time t) {
        double c = static_cast<double>(t - t0) * scale;
        return std::min<std::size_t>(static_cast<std::size_t>(std::max(c, 0.0)),
                                     static_cast<std::size_t>(width - 1));
      };
      const std::size_t b = clamp_col(r->start);
      const std::size_t e = clamp_col(r->end > r->start ? r->end - 1 : r->start);
      for (std::size_t c = b; c <= e; ++c) row[c] = '#';
    }
    os << std::left << std::setw(static_cast<int>(lane_w)) << lane << " |" << row << "|\n";
  }
}

}  // namespace stencil::trace
