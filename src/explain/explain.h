#pragma once

/// \file explain.h
/// stencil::explain — decision provenance and counterfactual what-if
/// analysis for the partition -> place -> specialize -> plan pipeline
/// (DESIGN.md §17).
///
/// The pipeline makes dozens of scored choices per job: which prime-factor
/// partition shape, which QAP assignment won a node (and which lost), which
/// specialization rung each transfer got (and what a fault-driven demotion
/// cost), whether aggregation was on, why a plan recompiled, where the
/// scheduler admitted a tenant, which recovery rung fired. Telemetry and
/// watch observe *what* happened; this layer records *why* — every scored
/// decision becomes a structured DecisionRecord in a bounded ring:
///
///   - cold-path records (placement, admission, demotion, recovery) carry
///     the chosen option, at least one rejected alternative, the objective
///     values, and a deterministic work counter (candidates evaluated —
///     never wall time, so identical runs produce identical records);
///   - the hot path (plan-cache hits) is allocation-free: a repeat bumps a
///     counter on the existing record, exactly like stencil::watch's lane
///     estimators;
///   - detached runs are byte-identical in every artifact: recording is
///     pure bookkeeping with zero virtual-time cost, and nothing else
///     consults the ledger.
///
/// On top of the log, the what-if engine re-scores recorded decisions under
/// a perturbed cost model — healthy vs degraded link factors from the
/// watch's oracle, a scaled distance matrix, an alternate assignment —
/// estimating the virtual-time delta of the counterfactual without
/// re-running the simulation.
///
/// Exporters: a deterministic `explain-v1` JSON document
/// (EXPLAIN_<name>.json, uploaded by CI next to the bench-v1 files so
/// tools/bench_compare.py can print decision-log diffs alongside perf
/// deltas) and a human-readable "explain this decision" report.
///
/// Dependency discipline: only simtime + qap, so core, sched, and recover
/// can all feed one ledger without cycles (the same reason stencil_watch
/// sits below core).

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "qap/qap.h"
#include "simtime/time.h"

namespace stencil::explain {

/// Which pipeline stage produced a record.
enum class DecisionKind {
  kPartition,       ///< prime-factor shape choice (hierarchical vs flat)
  kPlacement,       ///< QAP/greedy GPU assignment for one flow class
  kSpecialization,  ///< capability rung chosen for a transfer class
  kDemotion,        ///< fault-driven re-specialization of one transfer
  kAggregation,     ///< staged-message aggregation on/off
  kPlanCompile,     ///< plan cache miss: full compile (repeats = later hits)
  kPlanMigrate,     ///< stale-epoch migration: dirty programs rebuilt
  kSchedAdmission,  ///< scheduler admit/defer/reject verdict for one job
  kSchedPlacement,  ///< scheduler shape + node-set choice for one job
  kRecoverStep,     ///< recovery-ladder rung taken for one failure
};
constexpr int kDecisionKinds = 10;
const char* to_string(DecisionKind k);

/// One option the decision did not take, with its objective value (same
/// unit as the record's chosen_score; lower is better everywhere in this
/// codebase — QAP cost, bytes of contended wire, iterations replayed).
struct Alternative {
  std::string option;
  double score = 0.0;
};

/// Matrix evidence attached to placement records so the what-if engine can
/// re-score the assignment under a perturbed distance matrix without the
/// original Placement object. `alternatives` holds the labeled losing
/// assignments (runner-up, trivial, ...) in the same order as the record's
/// rejected list.
struct PlacementCase {
  qap::SquareMatrix flow;
  qap::SquareMatrix distance;
  std::vector<int> chosen;
  std::vector<std::pair<std::string, std::vector<int>>> alternatives;
  int nodes_sharing = 1;  ///< partition nodes sharing this flow matrix
};

/// One recorded decision. Scores are minimized: score_delta() reports how
/// much worse the best rejected alternative would have been (negative when
/// the chosen option was not the argmin — e.g. a trivial placement).
struct DecisionRecord {
  std::uint64_t id = 0;  ///< assigned by the ledger, strictly increasing
  DecisionKind kind = DecisionKind::kPartition;
  sim::Time at = 0;
  int actor = -1;       ///< rank or job id; -1 = global (shared decision)
  std::string subject;  ///< "node 0", "tag=42", "job frontier", ...
  std::string chosen;
  double chosen_score = 0.0;
  std::vector<Alternative> rejected;  ///< best (lowest score) first
  std::string detail;                 ///< free-form evidence
  std::uint64_t work = 0;     ///< candidates evaluated (deterministic)
  std::uint64_t repeats = 0;  ///< hot-path bumps (e.g. plan-cache hits)
  std::shared_ptr<const PlacementCase> evidence;  ///< placement records only

  /// Best rejected score minus chosen score (0 with no alternatives).
  double score_delta() const {
    return rejected.empty() ? 0.0 : rejected.front().score - chosen_score;
  }
};

/// Bounded ring of DecisionRecords. append() is the cold path (may
/// allocate, evicts the oldest record beyond capacity); bump() is the hot
/// path — O(1), allocation-free, a no-op for evicted ids. Hooks cost no
/// virtual time, so attached and detached runs are bit-identical in timing
/// and detached artifacts are byte-identical.
class Ledger {
 public:
  explicit Ledger(std::size_t capacity = 1024) : capacity_(capacity ? capacity : 1) {}

  /// Record a decision; returns its id. The record's id field is
  /// overwritten with the assigned value.
  std::uint64_t append(DecisionRecord r);

  /// The decision with id `id` repeated (plan-cache hit). No-op when the
  /// record has been evicted.
  void bump(std::uint64_t id);

  const std::deque<DecisionRecord>& records() const { return ring_; }
  /// Record by id, or nullptr when evicted / never recorded.
  const DecisionRecord* find(std::uint64_t id) const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  /// Total records ever appended, including evicted ones.
  std::uint64_t total_recorded() const { return total_recorded_; }
  std::uint64_t recorded_of(DecisionKind k) const {
    return by_kind_[static_cast<std::size_t>(k)];
  }

  void clear();

  /// Deterministic `explain-v1` JSON document (EXPLAIN_<name>.json).
  void write_json(std::ostream& os, const std::string& name) const;
  /// Human-readable report, grouped by kind, one decision per paragraph.
  void write_report(std::ostream& os) const;

 private:
  std::size_t capacity_;
  std::deque<DecisionRecord> ring_;
  std::uint64_t next_id_ = 0;
  std::uint64_t total_recorded_ = 0;
  std::uint64_t by_kind_[kDecisionKinds] = {};
};

// --- what-if engine ---------------------------------------------------------

/// One lane's contribution to a degraded-link run, harvested from the
/// watch: the window's total wire-occupancy time and the live link cost
/// factor (>= 1; observed per-byte cost over the healthiest floor).
struct LaneObservation {
  int src_node = 0;
  int dst_node = 0;
  double wire_ns = 0.0;  ///< window wire occupancy, summed over messages
  double factor = 1.0;   ///< live link cost factor (1 = healthy)
};

/// Predict the healthy-link per-exchange latency (ms) from a recorded
/// degraded-link run, without re-running: the exchange critical path is
/// dominated by its slowest wire, so subtract the worst lane's observed
/// per-exchange wire time and add back what that time shrinks to when each
/// lane's cost factor returns to 1 (observed / factor). `observed_ms` is
/// the measured per-exchange latency of the degraded run; `exchanges` the
/// completions the window accumulated over.
double predict_healthy_exchange_ms(double observed_ms, std::uint64_t exchanges,
                                   const std::vector<LaneObservation>& lanes);

/// Outcome of re-scoring a recorded placement under a perturbed distance
/// matrix: the chosen assignment's new cost, the new winner among
/// {chosen, alternatives}, and whether the winner flipped.
struct PlacementWhatIf {
  double chosen_cost = 0.0;
  std::string winner;      ///< "chosen" or the flipped alternative's label
  double winner_cost = 0.0;
  bool flipped = false;
  double delta = 0.0;  ///< chosen_cost - winner_cost (what the flip saves)
};

/// Re-score a placement record's evidence under `scale`, a multiplier on
/// each distance entry (i, j) — e.g. the watch's link cost factors, or a
/// uniform degradation. Throws std::invalid_argument when the record
/// carries no PlacementCase evidence.
PlacementWhatIf rescore_placement(const DecisionRecord& rec,
                                  const std::function<double(int, int)>& scale);

}  // namespace stencil::explain
