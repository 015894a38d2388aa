#include "dtrace/progress.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "dtrace/collector.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"

namespace stencil::dtrace {

std::string StallAlert::str() const {
  std::ostringstream os;
  os << "[seq " << seq << "] rank " << rank << " " << detail << " (lag "
     << sim::format_duration(lag) << " at " << sim::format_duration(at) << ")";
  if (!inflight.empty()) {
    os << "\n  in-flight contexts:";
    for (const TraceContext& c : inflight) {
      os << " {rank " << c.rank << " span " << c.span << " seq " << c.seq << "}";
    }
  }
  if (!flight_tail.empty()) {
    os << "\n  flight-recorder tail:\n";
    std::istringstream lines(flight_tail);
    std::string line;
    while (std::getline(lines, line)) os << "    " << line << "\n";
  }
  return os.str();
}

void ProgressMonitor::on_exchange_begin(int rank, std::uint64_t seq, sim::Time at) {
  Cell& c = beats_[seq][rank];
  c.begin = at;
  c.begun = true;
}

void ProgressMonitor::on_exchange_complete(int rank, std::uint64_t seq, sim::Duration,
                                           sim::Time at) {
  const auto it = beats_.try_emplace(seq).first;
  const std::map<int, Cell>& ranks = it->second;
  Cell& c = it->second[rank];
  if (!c.begun) {
    c.begin = at;
    c.begun = true;
  }
  c.end = at;
  c.done = true;
  if (world_size_ > 0 && static_cast<int>(ranks.size()) == world_size_ &&
      std::all_of(ranks.begin(), ranks.end(), [](const auto& kv) { return kv.second.done; })) {
    evaluate(ranks, seq);
    // Every rank is done, so finish() can never flag this exchange.
    beats_.erase(it);
    ++evaluated_;
  }
}

void ProgressMonitor::evaluate(const std::map<int, Cell>& ranks, std::uint64_t seq) {
  std::vector<sim::Duration> durs;
  durs.reserve(ranks.size());
  for (const auto& [rank, c] : ranks) durs.push_back(c.end - c.begin);
  std::vector<sim::Duration> sorted = durs;
  std::sort(sorted.begin(), sorted.end());
  const sim::Duration median = sorted[sorted.size() / 2];
  for (const auto& [rank, c] : ranks) {
    const sim::Duration dur = c.end - c.begin;
    const sim::Duration lag = dur - median;
    const bool relative = static_cast<double>(dur) >
                          relative_slack_ * static_cast<double>(median);
    if (relative && lag > slack_) {
      std::ostringstream detail;
      detail << "straggler: exchange took " << sim::format_duration(dur) << " vs median "
             << sim::format_duration(median);
      fire(rank, seq, c.end, lag, detail.str());
    }
  }
}

void ProgressMonitor::finish(sim::Time now) {
  for (const auto& [seq, ranks] : beats_) {
    const bool anyone_done =
        std::any_of(ranks.begin(), ranks.end(), [](const auto& kv) { return kv.second.done; });
    for (const auto& [rank, c] : ranks) {
      if (c.done) continue;
      std::ostringstream detail;
      detail << "stall: exchange begun at " << sim::format_duration(c.begin)
             << " never completed" << (anyone_done ? " (peers finished)" : "");
      fire(rank, seq, now, now - c.begin, detail.str());
    }
    if (world_size_ > 0 && anyone_done) {
      for (int r = 0; r < world_size_; ++r) {
        if (ranks.count(r) != 0) continue;
        fire(r, seq, now, 0, "stall: rank never began an exchange its peers ran");
      }
    }
  }
}

void ProgressMonitor::fire(int rank, std::uint64_t seq, sim::Time at, sim::Duration lag,
                           std::string detail) {
  // Failure attribution: a stall on a rank with a scripted terminal fault is
  // not an anonymous hang — name the death so recovery can escalate it.
  if (rank_fail_time_) {
    const sim::Time pf = rank_fail_time_(rank);
    if (pf != std::numeric_limits<sim::Time>::max() && pf <= at) {
      detail += " [attributable: rank " + std::to_string(rank) + " died at " +
                sim::format_duration(pf) + "]";
    }
  }
  StallAlert a;
  a.rank = rank;
  a.seq = seq;
  a.at = at;
  a.lag = lag;
  a.detail = std::move(detail);
  if (telemetry_ != nullptr) telemetry_->on_stall(a.detail, at);
  if (flight_ != nullptr && !flight_->empty()) {
    std::ostringstream tail;
    flight_->dump_tail(tail, 16);
    a.flight_tail = tail.str();
  }
  if (collector_ != nullptr) a.inflight = collector_->inflight();
  alerts_.push_back(std::move(a));
}

std::string ProgressMonitor::str() const {
  if (alerts_.empty()) {
    return "progress: clean (" + std::to_string(exchanges_seen()) + " exchanges)";
  }
  std::ostringstream os;
  os << "progress: " << alerts_.size() << " alert" << (alerts_.size() == 1 ? "" : "s") << " over "
     << exchanges_seen() << " exchanges\n";
  for (const StallAlert& a : alerts_) os << a.str() << "\n";
  return os.str();
}

}  // namespace stencil::dtrace
