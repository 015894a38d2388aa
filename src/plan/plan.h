#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/method_flags.h"
#include "simpi/mpi.h"
#include "vgpu/runtime.h"

namespace stencil::telemetry {
class MetricsRegistry;
}

namespace stencil::plan {

/// Identity of one compiled exchange schedule. Within one realized domain
/// the method flags and the remote-aggregation mode are frozen at realize(),
/// so the only lookup field is the exact quantity subset (selective exchange
/// packs different bytes per transfer, so each subset compiles to its own
/// plan); the flags and mode are kept for str(), which names the plan.
/// `topo_epoch` is *not* part of the lookup either: it versions the
/// specialization table, and a cached plan whose epoch lags the domain's is
/// migrated in place — only the programs the fault injector dirtied are
/// rebuilt.
struct PlanKey {
  std::uint64_t topo_epoch = 0;
  std::uint32_t method_flags = 0;
  bool aggregated = false;
  std::vector<std::size_t> quantities;  // sorted, as validated by exchange()

  std::string str() const;
};

/// Counters the cache keeps across the run; `drill plan` and the zero-setup
/// tests read them.
struct PlanStats {
  std::uint64_t compiles = 0;          // full plan compilations (cache misses)
  std::uint64_t hits = 0;              // exact reuses (no rebuild at all)
  std::uint64_t invalidations = 0;     // stale-epoch migrations (partial rebuild)
  std::uint64_t rebuilt_programs = 0;  // programs recompiled across migrations
  std::uint64_t replays = 0;           // planned exchanges executed
  std::uint64_t verifications = 0;     // admission checks run (static verifier)
  std::uint64_t rejections = 0;        // plans refused at admission

  std::string str() const;

  /// Snapshot every counter into `plan_stats_*` gauges (DESIGN.md §11).
  void export_to(telemetry::MetricsRegistry& reg) const;
};

/// The frozen form of one transfer's op list (core/transfer_ops.h, which
/// defines each method's sequence): its stream ops of phases 1/3 (local
/// chain or pack) as `send_graph` and of phase 5 (landing) as `recv_graph`,
/// its post/send ops as persistent requests. Aggregation members live in a
/// GroupProgram instead. A list with an interpreted COLOCATED step sets
/// `eager`: its flow control is generation-dependent, not freezable.
/// `dirty` marks a program whose transfer was demoted after compilation; the
/// next acquire rebuilds just this entry against the new method.
struct TransferProgram {
  std::size_t xfer_index = 0;  // index into the domain's transfer set
  int tag = 0;
  Method method = Method::kStaged;
  std::size_t bytes = 0;  // payload bytes for this plan's quantity subset
  bool i_send = false;
  bool i_recv = false;
  bool eager = false;  // colocated: replayed through the interpreted path
  bool dirty = false;

  simpi::Request send_req;
  simpi::Request recv_req;
  vgpu::GraphExec send_graph;
  vgpu::GraphExec recv_graph;
};

/// The frozen form of one remote-aggregation group: one persistent request
/// for the merged host payload and one graph covering every member's pack
/// and staging copies (send side) or fan-out H2D + unpacks (recv side).
struct GroupProgram {
  std::size_t group_index = 0;  // index into the domain's send/recv group list
  bool is_send = false;
  int peer_rank = -1;
  std::size_t bytes = 0;  // merged active bytes for this plan's subset
  std::vector<int> member_tags;

  simpi::Request req;
  vgpu::GraphExec graph;
};

/// One realized schedule: everything exchange() needs per iteration, with
/// all setup (request creation, graph instantiation, event-edge layout)
/// hoisted to compile time. Replay walks flat vectors in a fixed order —
/// no per-iteration state-machine dispatch.
class CompiledPlan {
 public:
  PlanKey key;
  std::vector<TransferProgram> programs;
  std::vector<GroupProgram> send_groups;
  std::vector<GroupProgram> recv_groups;
  std::uint64_t replays = 0;

  std::size_t dirty_count() const;
  /// Mark every program of transfer `tag` dirty (fault demotion).
  void mark_dirty(int tag);

  /// Human-readable dump (`drill plan`).
  void describe(std::ostream& os) const;
};

/// Thrown when plan admission rejects a compiled plan: the static verifier
/// found a protocol defect (mismatched tags, wait cycle, reserved-tag
/// collision, buffer hazard). `report()` carries the full findings text.
class AdmissionError : public std::runtime_error {
 public:
  AdmissionError(std::string summary, std::string report)
      : std::runtime_error(std::move(summary)), report_(std::move(report)) {}
  const std::string& report() const { return report_; }

 private:
  std::string report_;
};

/// The per-domain plan cache. Owns every compiled plan; lookups match on the
/// quantity subset and never on epoch — epoch mismatches are repaired by the
/// domain via partial rebuild.
class PlanCache {
 public:
  /// Admission hook: returns a findings report for a plan, or the empty
  /// string when the plan is clean. Keeping the result a plain string keeps
  /// stencil_plan decoupled from the verifier (core installs a hook that
  /// lowers the plan to a verify::ExchangeModel and runs stencil_verify).
  using AdmissionFn = std::function<std::string(const CompiledPlan&)>;

  /// Install the admission hook (a domain installs its own at construction).
  void set_admission(AdmissionFn fn) { admission_ = std::move(fn); }
  bool has_admission() const { return static_cast<bool>(admission_); }

  /// Run the admission hook on a freshly compiled or migrated plan.
  /// Throws AdmissionError when the verifier reports findings; the caller
  /// releases the plan's requests and erase()s it, so it never replays.
  void admit(const CompiledPlan& p);

  /// The plan for this quantity subset, or nullptr (caller compiles one).
  CompiledPlan* find(const std::vector<std::size_t>& qs);

  /// Insert an empty plan for `key` and return it (stable address).
  CompiledPlan& emplace(PlanKey key);

  /// Fault path: mark the programs of transfer `tag` dirty in every plan.
  void invalidate_tag(int tag);

  /// Drop a plan (one that failed admission); `p` dangles afterwards.
  void erase(const CompiledPlan& p);

  std::size_t size() const { return plans_.size(); }
  const std::vector<std::unique_ptr<CompiledPlan>>& entries() const { return plans_; }

  PlanStats& stats() { return stats_; }
  const PlanStats& stats() const { return stats_; }

 private:
  std::vector<std::unique_ptr<CompiledPlan>> plans_;
  PlanStats stats_;
  AdmissionFn admission_;
};

}  // namespace stencil::plan
