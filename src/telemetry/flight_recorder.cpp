#include "telemetry/flight_recorder.h"

#include <cstdio>
#include <utility>

namespace stencil::telemetry {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kExchangeStart: return "exchange+";
    case EventKind::kExchangeEnd: return "exchange-";
    case EventKind::kTransfer: return "transfer";
    case EventKind::kGpuOp: return "gpu-op";
    case EventKind::kMpiPost: return "mpi-post";
    case EventKind::kMpiMatch: return "mpi-match";
    case EventKind::kMpiDrop: return "mpi-drop";
    case EventKind::kMpiLost: return "mpi-LOST";
    case EventKind::kDemote: return "demote";
    case EventKind::kError: return "ERROR";
    case EventKind::kStall: return "STALL";
    case EventKind::kRecover: return "recover";
    case EventKind::kNote: return "note";
  }
  return "?";
}

void FlightRecorder::log(FlightEvent ev) {
  if (ring_.size() == capacity_) ring_.pop_front();
  ring_.push_back(std::move(ev));
  ++total_logged_;
}

void FlightRecorder::log(EventKind kind, sim::Time at, std::string lane, std::string detail,
                         std::uint64_t bytes) {
  FlightEvent ev;
  ev.exchange_seq = exchange_seq_;
  ev.at = at;
  ev.kind = kind;
  ev.lane = std::move(lane);
  ev.detail = std::move(detail);
  ev.bytes = bytes;
  log(std::move(ev));
}

std::vector<FlightEvent> FlightRecorder::tail(std::size_t n) const {
  if (n > ring_.size()) n = ring_.size();
  return {ring_.end() - static_cast<std::ptrdiff_t>(n), ring_.end()};
}

void FlightRecorder::dump_tail(std::ostream& os, std::size_t n) const {
  if (ring_.empty()) {
    os << "  (flight recorder empty)\n";
    return;
  }
  const auto events = tail(n);
  if (events.size() < total_logged_) {
    os << "  ... " << (total_logged_ - events.size()) << " earlier event(s) evicted/omitted\n";
  }
  for (const auto& ev : events) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  [seq %llu] %-10s %-9s",
                  static_cast<unsigned long long>(ev.exchange_seq),
                  sim::format_duration(ev.at).c_str(), to_string(ev.kind));
    os << buf << " " << ev.lane;
    if (!ev.detail.empty()) os << "  " << ev.detail;
    if (ev.bytes != 0) os << "  (" << ev.bytes << " B)";
    os << "\n";
  }
}

}  // namespace stencil::telemetry
