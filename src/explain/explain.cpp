#include "explain/explain.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "trace/recorder.h"

namespace stencil::explain {

const char* to_string(DecisionKind k) {
  switch (k) {
    case DecisionKind::kPartition: return "partition";
    case DecisionKind::kPlacement: return "placement";
    case DecisionKind::kSpecialization: return "specialization";
    case DecisionKind::kDemotion: return "demotion";
    case DecisionKind::kAggregation: return "aggregation";
    case DecisionKind::kPlanCompile: return "plan-compile";
    case DecisionKind::kPlanMigrate: return "plan-migrate";
    case DecisionKind::kSchedAdmission: return "sched-admission";
    case DecisionKind::kSchedPlacement: return "sched-placement";
    case DecisionKind::kRecoverStep: return "recover-step";
  }
  return "?";
}

std::uint64_t Ledger::append(DecisionRecord r) {
  r.id = next_id_++;
  ++total_recorded_;
  ++by_kind_[static_cast<std::size_t>(r.kind)];
  if (ring_.size() == capacity_) ring_.pop_front();
  ring_.push_back(std::move(r));
  return ring_.back().id;
}

void Ledger::bump(std::uint64_t id) {
  // Ids are dense and the ring evicts from the front, so the live range is
  // [front.id, front.id + size): one subtraction finds the slot.
  if (ring_.empty() || id < ring_.front().id) return;
  const std::uint64_t off = id - ring_.front().id;
  if (off >= ring_.size()) return;
  ++ring_[static_cast<std::size_t>(off)].repeats;
}

const DecisionRecord* Ledger::find(std::uint64_t id) const {
  if (ring_.empty() || id < ring_.front().id) return nullptr;
  const std::uint64_t off = id - ring_.front().id;
  if (off >= ring_.size()) return nullptr;
  return &ring_[static_cast<std::size_t>(off)];
}

void Ledger::clear() {
  ring_.clear();
  next_id_ = 0;
  total_recorded_ = 0;
  for (auto& c : by_kind_) c = 0;
}

namespace {

using trace::json_escape;

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

void Ledger::write_json(std::ostream& os, const std::string& name) const {
  os << "{\n\"schema\": \"explain-v1\",\n\"name\": \"" << json_escape(name)
     << "\",\n\"total_recorded\": " << total_recorded_
     << ",\n\"dropped\": " << total_recorded_ - ring_.size() << ",\n\"by_kind\": {";
  for (int k = 0; k < kDecisionKinds; ++k) {
    os << (k == 0 ? "" : ", ") << "\"" << to_string(static_cast<DecisionKind>(k))
       << "\": " << by_kind_[static_cast<std::size_t>(k)];
  }
  os << "},\n\"records\": [";
  bool first = true;
  for (const auto& r : ring_) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "  {\"id\": " << r.id << ", \"kind\": \"" << to_string(r.kind) << "\", \"at_ns\": "
       << r.at << ", \"actor\": " << r.actor << ", \"subject\": \"" << json_escape(r.subject)
       << "\", \"chosen\": \"" << json_escape(r.chosen)
       << "\", \"chosen_score\": " << fmt_double(r.chosen_score) << ", \"rejected\": [";
    for (std::size_t i = 0; i < r.rejected.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "{\"option\": \"" << json_escape(r.rejected[i].option)
         << "\", \"score\": " << fmt_double(r.rejected[i].score) << "}";
    }
    os << "], \"score_delta\": " << fmt_double(r.score_delta()) << ", \"work\": " << r.work
       << ", \"repeats\": " << r.repeats;
    if (!r.detail.empty()) os << ", \"detail\": \"" << json_escape(r.detail) << "\"";
    os << "}";
  }
  os << (first ? "" : "\n") << "]\n}\n";
}

void Ledger::write_report(std::ostream& os) const {
  os << "decision provenance: " << total_recorded_ << " recorded, " << ring_.size()
     << " retained\n";
  for (int k = 0; k < kDecisionKinds; ++k) {
    const auto kind = static_cast<DecisionKind>(k);
    if (by_kind_[static_cast<std::size_t>(k)] == 0) continue;
    os << "\n[" << to_string(kind) << "] x" << by_kind_[static_cast<std::size_t>(k)] << "\n";
    for (const auto& r : ring_) {
      if (r.kind != kind) continue;
      os << "  #" << r.id << " t=" << r.at << "ns";
      if (r.actor >= 0) os << " actor=" << r.actor;
      os << " " << r.subject << ": chose \"" << r.chosen << "\" (score "
         << fmt_double(r.chosen_score) << ")";
      if (r.repeats > 0) os << " x" << r.repeats + 1;
      os << "\n";
      for (const auto& alt : r.rejected) {
        os << "      rejected \"" << alt.option << "\" (score " << fmt_double(alt.score)
           << ", delta " << fmt_double(alt.score - r.chosen_score) << ")\n";
      }
      if (r.work > 0) os << "      work: " << r.work << " candidates evaluated\n";
      if (!r.detail.empty()) os << "      " << r.detail << "\n";
    }
  }
}

double predict_healthy_exchange_ms(double observed_ms, std::uint64_t exchanges,
                                   const std::vector<LaneObservation>& lanes) {
  if (exchanges == 0) return observed_ms;
  // The exchange waits for its slowest wire: per-exchange critical wire
  // time is the max over lanes of the window-average occupancy. Healthy,
  // each lane's occupancy shrinks by its cost factor.
  double worst_observed = 0.0;
  double worst_healthy = 0.0;
  for (const auto& l : lanes) {
    const double per_ex = l.wire_ns / static_cast<double>(exchanges);
    worst_observed = std::max(worst_observed, per_ex);
    worst_healthy = std::max(worst_healthy, per_ex / std::max(1.0, l.factor));
  }
  const double predicted = observed_ms - (worst_observed - worst_healthy) / 1e6;
  return std::max(predicted, 0.0);
}

PlacementWhatIf rescore_placement(const DecisionRecord& rec,
                                  const std::function<double(int, int)>& scale) {
  if (rec.evidence == nullptr) {
    throw std::invalid_argument("rescore_placement: record carries no PlacementCase evidence");
  }
  const PlacementCase& pc = *rec.evidence;
  qap::SquareMatrix d(pc.distance.n());
  for (int i = 0; i < d.n(); ++i) {
    for (int j = 0; j < d.n(); ++j) d.at(i, j) = pc.distance.at(i, j) * scale(i, j);
  }
  PlacementWhatIf out;
  out.chosen_cost = qap::cost(pc.flow, d, pc.chosen);
  out.winner = "chosen";
  out.winner_cost = out.chosen_cost;
  for (const auto& [label, f] : pc.alternatives) {
    const double c = qap::cost(pc.flow, d, f);
    if (c < out.winner_cost) {
      out.winner = label;
      out.winner_cost = c;
      out.flipped = true;
    }
  }
  out.delta = out.chosen_cost - out.winner_cost;
  return out;
}

}  // namespace stencil::explain
