#include "watch/watch.h"

#include <ostream>
#include <sstream>

namespace stencil::watch {
namespace {

// Hysteresis: consecutive breaching messages open a congested-link
// incident, consecutive clear ones close it.
constexpr int kOpenAfter = 3;
constexpr int kCloseAfter = 4;
// Congested link: per-byte wire cost exceeds (1 + stretch) x the
// class/bucket floor. Messages below kCongestionMinBytes are too noisy to
// vote.
constexpr double kCongestionStretch = 1.0;
constexpr std::uint64_t kCongestionMinBytes = 4096;
// Link/node cost factors inside [1, 1 + deadband) snap to exactly 1.0, so
// healthy-machine jitter never perturbs live-cost placement.
constexpr double kCostDeadband = 0.25;
// FlightRecorder events captured into each incident.
constexpr std::size_t kFlightTail = 16;
// Bound on stored incidents (beyond it, opens are counted, not stored).
constexpr std::size_t kMaxIncidents = 256;

}  // namespace

const char* to_string(WireClass c) {
  switch (c) {
    case WireClass::kHostIntra: return "host-intra";
    case WireClass::kHostInter: return "host-inter";
    case WireClass::kDevIntra: return "dev-intra";
    case WireClass::kDevInter: return "dev-inter";
  }
  return "?";
}

const char* to_string(Incident::Kind k) {
  switch (k) {
    case Incident::Kind::kCongestedLink: return "congested-link";
  }
  return "?";
}

int Watch::size_bucket(std::uint64_t bytes) {
  // One bucket per factor of four: bucket = ceil(log2(bytes)) / 2, clamped.
  int lg = 0;
  while (bytes > (std::uint64_t{1} << lg) && lg < 63) ++lg;
  const int b = lg / 2;
  return b < kSizeBuckets ? b : kSizeBuckets - 1;
}

void Watch::configure(int num_nodes, int world_size) {
  num_nodes_ = num_nodes < 0 ? 0 : num_nodes;
  world_size_ = world_size < 0 ? 0 : world_size;
  lanes_.assign(static_cast<std::size_t>(num_nodes_) * static_cast<std::size_t>(num_nodes_) *
                    kWireClasses,
                LaneStats{});
  for (auto& c : class_floor_)
    for (auto& b : c) b = 0.0;
  exch_p95_.reset();
  exchange_completions_ = 0;
  messages_ = 0;
  window_ = 0;
  incidents_.clear();
  open_incidents_ = 0;
  incidents_opened_ = 0;
  for (auto& k : incidents_by_kind_) k = 0;
  published_node_.clear();
  published_link_.clear();
  publish_epoch_ = 0;
}

int Watch::open_incident(Incident::Kind kind, std::string subject, std::string detail,
                         double severity, sim::Time at) {
  ++incidents_opened_;
  ++incidents_by_kind_[static_cast<std::size_t>(kind)];
  ++open_incidents_;
  if (recorder_ != nullptr) {
    // Zero-duration span = chrome-trace instant event on the watch lane.
    recorder_->record("watch", std::string(to_string(kind)) + " " + subject, at, at);
  }
  if (incidents_.size() >= kMaxIncidents) return -1;
  Incident inc;
  inc.kind = kind;
  inc.subject = std::move(subject);
  inc.detail = std::move(detail);
  inc.severity = severity;
  inc.opened = at;
  if (flight_ != nullptr) {
    std::ostringstream tail;
    flight_->dump_tail(tail, kFlightTail);
    inc.flight_tail = tail.str();
  }
  incidents_.push_back(std::move(inc));
  return static_cast<int>(incidents_.size()) - 1;
}

void Watch::close_incident(int idx, sim::Time at) {
  if (open_incidents_ > 0) --open_incidents_;
  if (idx >= 0 && idx < static_cast<int>(incidents_.size())) incidents_[idx].closed = at;
}

void Watch::on_message(int src_node, int dst_node, bool device, std::uint64_t bytes,
                       sim::Time ready, sim::Span span) {
  if (lanes_.empty() || bytes == 0) return;
  if (src_node < 0 || src_node >= num_nodes_ || dst_node < 0 || dst_node >= num_nodes_) return;
  const bool inter = src_node != dst_node;
  const WireClass wc = device ? (inter ? WireClass::kDevInter : WireClass::kDevIntra)
                              : (inter ? WireClass::kHostInter : WireClass::kHostIntra);
  // Two costs per message: wire occupancy (span duration) feeds the
  // capability estimators — floors, EWMAs, congestion — and the window wire
  // time, because it is immune to queueing; the queue-inclusive time
  // (completion minus ready) feeds only the lane window stretch, because
  // queueing is what contention costs.
  const double actual_ns = static_cast<double>(span.end - ready);
  const double occ_ns = static_cast<double>(span.end - span.start);
  if (actual_ns <= 0.0 || occ_ns <= 0.0) return;
  const double pb = occ_ns / static_cast<double>(bytes);
  const int b = size_bucket(bytes);
  const int ci = static_cast<int>(wc);

  LaneStats& lane = lanes_[lane_index(src_node, dst_node, wc)];
  BucketStats& bs = lane.buckets[b];
  ++bs.count;
  bs.bytes += bytes;
  if (bs.floor_pb == 0.0 || pb < bs.floor_pb) bs.floor_pb = pb;
  if (bs.win_floor_pb == 0.0 || pb < bs.win_floor_pb) bs.win_floor_pb = pb;
  if (class_floor_[ci][b] == 0.0 || pb < class_floor_[ci][b]) class_floor_[ci][b] = pb;

  ++lane.msgs;
  lane.bytes += bytes;
  lane.ewma_pb.observe(pb);
  ++lane.win_msgs;
  lane.win_bytes += bytes;
  lane.win_actual_ns += actual_ns;
  lane.win_wire_ns += occ_ns;
  lane.win_floor_ns += class_floor_[ci][b] * static_cast<double>(bytes);
  ++messages_;

  // Congested-link detector with hysteresis. Only messages large enough to
  // be bandwidth-dominated vote, and only once the class floor has settled
  // (two observations in the bucket).
  if (bytes >= kCongestionMinBytes && bs.count >= 2 && class_floor_[ci][b] > 0.0) {
    const double stretch = pb / class_floor_[ci][b] - 1.0;
    if (stretch > kCongestionStretch) {
      lane.clear_streak = 0;
      if (++lane.breach_streak >= kOpenAfter && !lane.incident_open) {
        lane.incident_open = true;
        std::ostringstream subject, detail;
        subject << "link n" << src_node << "->n" << dst_node << " " << to_string(wc);
        detail << "per-byte cost " << pb << " ns/B vs floor " << class_floor_[ci][b]
               << " ns/B (stretch " << stretch << ", bucket " << b << ", " << bytes << " B)";
        lane.incident_idx =
            open_incident(Incident::Kind::kCongestedLink, subject.str(), detail.str(), stretch,
                          span.end);
      }
    } else {
      lane.breach_streak = 0;
      if (lane.incident_open && ++lane.clear_streak >= kCloseAfter) {
        lane.incident_open = false;
        lane.clear_streak = 0;
        close_incident(lane.incident_idx, span.end);
        lane.incident_idx = -1;
      }
    }
  }
}

void Watch::on_match(const simpi::MsgInfo& send, const simpi::MsgInfo&,
                     const simpi::Delivery& d) {
  if (!d.delivered) return;
  on_message(d.src_node, d.dst_node, d.device, send.bytes, d.ready, d.span);
}

void Watch::on_exchange_complete(int world_rank, std::uint64_t, sim::Duration latency,
                                 sim::Time) {
  if (world_rank < 0 || world_rank >= world_size_) return;
  exch_p95_.observe(sim::to_millis(latency));
  ++exchange_completions_;
}

void Watch::clear_window() {
  for (auto& l : lanes_) {
    l.win_msgs = 0;
    l.win_bytes = 0;
    l.win_actual_ns = 0.0;
    l.win_wire_ns = 0.0;
    l.win_floor_ns = 0.0;
    for (auto& b : l.buckets) {
      if (b.win_floor_pb > 0.0) b.recent_floor_pb = b.win_floor_pb;
      b.win_floor_pb = 0.0;
    }
  }
  exch_p95_.reset();
  ++window_;
}

double Watch::live_link_cost_factor(int src_node, int dst_node) const {
  if (lanes_.empty() || src_node < 0 || src_node >= num_nodes_ || dst_node < 0 ||
      dst_node >= num_nodes_ || src_node == dst_node)
    return 1.0;
  // Capability degradation of this directional wire pair: how much worse
  // this lane's *recent windowed floor* (the pure service cost of its
  // least-queued recent message) is than the best same-class/same-size
  // floor anywhere on the machine, bytes-weighted across buckets. Floors
  // are minima over a window, so queueing on a congested but healthy link
  // cancels out (each iteration's first message finds empty queues and
  // reads 1.0) — the scheduler models co-tenant overlap itself; the oracle
  // reports what the wire can still do. Windowed (not lifetime) floors let
  // the factor track degradation that begins mid-life, and the dead-band
  // snaps healthy jitter to exactly 1.0 so live-cost placement on a
  // healthy machine is bit-identical to static placement.
  double wsum = 0.0, fsum = 0.0;
  for (WireClass wc : {WireClass::kHostInter, WireClass::kDevInter}) {
    const LaneStats& lane = lanes_[lane_index(src_node, dst_node, wc)];
    const int ci = static_cast<int>(wc);
    for (int b = 0; b < kSizeBuckets; ++b) {
      const BucketStats& bs = lane.buckets[b];
      if (bs.count == 0 || class_floor_[ci][b] <= 0.0) continue;
      const double eff = bs.win_floor_pb > 0.0
                             ? bs.win_floor_pb
                             : (bs.recent_floor_pb > 0.0 ? bs.recent_floor_pb : bs.floor_pb);
      const double f = eff / class_floor_[ci][b];
      const double w = static_cast<double>(bs.bytes);
      wsum += w;
      fsum += w * (f < 1.0 ? 1.0 : f);
    }
  }
  if (wsum <= 0.0) return 1.0;
  const double factor = fsum / wsum;
  return factor < 1.0 + kCostDeadband ? 1.0 : factor;
}

double Watch::live_node_cost_factor(int node) const {
  if (lanes_.empty() || node < 0 || node >= num_nodes_) return 1.0;
  // Bytes-weighted average of the link factors over every internode lane
  // touching this node.
  double wsum = 0.0, fsum = 0.0;
  const auto fold = [&](int s, int d) {
    double w = 0.0;
    for (WireClass wc : {WireClass::kHostInter, WireClass::kDevInter}) {
      const LaneStats& lane = lanes_[lane_index(s, d, wc)];
      w += static_cast<double>(lane.bytes);
    }
    if (w <= 0.0) return;
    wsum += w;
    fsum += w * live_link_cost_factor(s, d);
  };
  for (int other = 0; other < num_nodes_; ++other) {
    if (other == node) continue;
    fold(node, other);
    fold(other, node);
  }
  return wsum > 0.0 ? fsum / wsum : 1.0;
}

void Watch::publish() {
  if (num_nodes_ <= 0) return;
  published_node_.resize(static_cast<std::size_t>(num_nodes_));
  published_link_.resize(static_cast<std::size_t>(num_nodes_) *
                         static_cast<std::size_t>(num_nodes_));
  for (int n = 0; n < num_nodes_; ++n)
    published_node_[static_cast<std::size_t>(n)] = live_node_cost_factor(n);
  for (int s = 0; s < num_nodes_; ++s)
    for (int d = 0; d < num_nodes_; ++d)
      published_link_[static_cast<std::size_t>(s) * static_cast<std::size_t>(num_nodes_) +
                      static_cast<std::size_t>(d)] = live_link_cost_factor(s, d);
  ++publish_epoch_;
}
double Watch::node_cost_factor(int node) const {
  if (node < 0 || node >= static_cast<int>(published_node_.size())) return 1.0;
  return published_node_[static_cast<std::size_t>(node)];
}

double Watch::link_cost_factor(int src_node, int dst_node) const {
  const std::size_t nn = static_cast<std::size_t>(num_nodes_);
  const std::size_t idx =
      static_cast<std::size_t>(src_node) * nn + static_cast<std::size_t>(dst_node);
  if (src_node < 0 || dst_node < 0 || idx >= published_link_.size()) return 1.0;
  return published_link_[idx];
}

double Watch::lane_bandwidth(int src_node, int dst_node, WireClass c) const {
  if (lanes_.empty() || src_node < 0 || src_node >= num_nodes_ || dst_node < 0 ||
      dst_node >= num_nodes_)
    return 0.0;
  const LaneStats& lane = lanes_[lane_index(src_node, dst_node, c)];
  const double pb = lane.ewma_pb.value();  // ns per byte
  return pb > 0.0 ? 1e9 / pb : 0.0;        // bytes per virtual second
}

std::uint64_t Watch::lane_messages(int src_node, int dst_node, WireClass c) const {
  if (lanes_.empty() || src_node < 0 || src_node >= num_nodes_ || dst_node < 0 ||
      dst_node >= num_nodes_)
    return 0;
  return lanes_[lane_index(src_node, dst_node, c)].msgs;
}

std::uint64_t Watch::lane_bytes(int src_node, int dst_node, WireClass c) const {
  if (lanes_.empty() || src_node < 0 || src_node >= num_nodes_ || dst_node < 0 ||
      dst_node >= num_nodes_)
    return 0;
  return lanes_[lane_index(src_node, dst_node, c)].bytes;
}

double Watch::lane_window_stretch(int src_node, int dst_node, WireClass c) const {
  if (lanes_.empty() || src_node < 0 || src_node >= num_nodes_ || dst_node < 0 ||
      dst_node >= num_nodes_)
    return 0.0;
  const LaneStats& lane = lanes_[lane_index(src_node, dst_node, c)];
  if (lane.win_floor_ns <= 0.0) return 0.0;
  const double s = lane.win_actual_ns / lane.win_floor_ns - 1.0;
  return s < 0.0 ? 0.0 : s;
}

double Watch::lane_window_wire_ns(int src_node, int dst_node, WireClass c) const {
  if (lanes_.empty() || src_node < 0 || src_node >= num_nodes_ || dst_node < 0 ||
      dst_node >= num_nodes_)
    return 0.0;
  return lanes_[lane_index(src_node, dst_node, c)].win_wire_ns;
}

void Watch::write_snapshot_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"watch-v1\",\n";
  os << "  \"nodes\": " << num_nodes_ << ",\n";
  os << "  \"world\": " << world_size_ << ",\n";
  os << "  \"window\": " << window_ << ",\n";
  os << "  \"publish_epoch\": " << publish_epoch_ << ",\n";
  os << "  \"messages\": " << messages_ << ",\n";
  os << "  \"exchanges\": " << exchange_completions_ << ",\n";
  os << "  \"exchange_p95_ms\": " << exchange_p95_ms() << ",\n";

  os << "  \"lanes\": [";
  bool first = true;
  for (int s = 0; s < num_nodes_; ++s) {
    for (int d = 0; d < num_nodes_; ++d) {
      for (int c = 0; c < kWireClasses; ++c) {
        const LaneStats& lane = lanes_[lane_index(s, d, static_cast<WireClass>(c))];
        if (lane.msgs == 0) continue;
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\"src\": " << s << ", \"dst\": " << d << ", \"class\": \""
           << to_string(static_cast<WireClass>(c)) << "\", \"msgs\": " << lane.msgs
           << ", \"bytes\": " << lane.bytes << ", \"ewma_ns_per_byte\": " << lane.ewma_pb.value()
           << ", \"bandwidth_bytes_per_s\": "
           << lane_bandwidth(s, d, static_cast<WireClass>(c))
           << ", \"window_stretch\": " << lane_window_stretch(s, d, static_cast<WireClass>(c))
           << "}";
      }
    }
  }
  os << (first ? "],\n" : "\n  ],\n");

  os << "  \"node_cost_factors\": [";
  for (int n = 0; n < num_nodes_; ++n)
    os << (n ? ", " : "") << live_node_cost_factor(n);
  os << "],\n";

  os << "  \"published_node_cost_factors\": [";
  for (std::size_t n = 0; n < published_node_.size(); ++n)
    os << (n ? ", " : "") << published_node_[n];
  os << "],\n";

  os << "  \"incidents_opened\": " << incidents_opened_ << ",\n";
  os << "  \"incidents_open\": " << open_incidents_ << ",\n";
  os << "  \"incidents\": [";
  for (std::size_t i = 0; i < incidents_.size(); ++i) {
    const Incident& inc = incidents_[i];
    os << (i ? ",\n" : "\n");
    os << "    {\"kind\": \"" << to_string(inc.kind) << "\", \"subject\": \""
       << trace::json_escape(inc.subject) << "\", \"severity\": " << inc.severity
       << ", \"opened_ns\": " << inc.opened << ", \"closed_ns\": " << inc.closed
       << ", \"detail\": \"" << trace::json_escape(inc.detail) << "\"}";
  }
  os << (incidents_.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
}

void Watch::export_metrics(telemetry::MetricsRegistry& reg) const {
  reg.counter("watch_messages_total").value = messages_;
  reg.counter("watch_exchanges_total").value = exchange_completions_;
  reg.counter("watch_incidents_opened_total").value = incidents_opened_;
  reg.gauge("watch_incidents_open").set(static_cast<double>(open_incidents_));
  reg.gauge("watch_exchange_p95_ms").set(exchange_p95_ms());
  reg.gauge("watch_publish_epoch").set(static_cast<double>(publish_epoch_));
  for (int k = 0; k < Incident::kKinds; ++k) {
    reg.counter(std::string("watch_incidents_total{kind=\"") +
                to_string(static_cast<Incident::Kind>(k)) + "\"}")
        .value = incidents_by_kind_[k];
  }
  for (int n = 0; n < num_nodes_; ++n) {
    reg.gauge("watch_node_cost_factor{node=\"" + std::to_string(n) + "\"}")
        .set(live_node_cost_factor(n));
  }
  for (int s = 0; s < num_nodes_; ++s) {
    for (int d = 0; d < num_nodes_; ++d) {
      for (int c = 0; c < kWireClasses; ++c) {
        const LaneStats& lane = lanes_[lane_index(s, d, static_cast<WireClass>(c))];
        if (lane.msgs == 0) continue;
        const std::string labels = "{src=\"n" + std::to_string(s) + "\",dst=\"n" +
                                   std::to_string(d) + "\",class=\"" +
                                   to_string(static_cast<WireClass>(c)) + "\"}";
        reg.gauge("watch_lane_bandwidth_bytes_per_s" + labels)
            .set(lane_bandwidth(s, d, static_cast<WireClass>(c)));
        reg.counter("watch_lane_bytes_total" + labels).value = lane.bytes;
      }
    }
  }
}

}  // namespace stencil::watch
