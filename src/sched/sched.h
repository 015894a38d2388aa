#pragma once

/// \file sched.h
/// stencil::sched — multi-tenant job scheduler (DESIGN.md §15).
///
/// One simulated machine, many stencil jobs. The scheduler carves the
/// physical machine into per-job TenantView slices (core/tenant.h), runs the
/// admitted set concurrently as one SPMD wave (each tenant on its own
/// sub-communicator split from the world), and keeps full isolation:
/// per-tenant tag windows (core/tagspace.h) and a cross-tenant static verify
/// pass over every admitted plan.
///
/// Allocation granularity is the *rank slot*: each world rank drives a fixed
/// contiguous block of gpus_per_rank physical GPUs (the jsrun layout the
/// Cluster sets up), so a tenant is a set of contiguous slot runs — one per
/// virtual node — and its sub-communicator is dense vnode-major. A job asking
/// for G GPUs is shaped into (k vnodes × c slots) with k·c·gpus_per_rank ≥ G,
/// the shape and the nodes chosen by the placement policy:
///
///   kPacked     fill the most-loaded nodes first (bin-packing best-fit):
///               conserves whole nodes for future big jobs, at the cost of
///               co-tenant link sharing on the boundary nodes.
///   kSpread     widest shape on the least-loaded nodes: maximizes each
///               job's aggregate NIC bandwidth, maximizes sharing.
///   kNodeAware  enumerate every feasible (k, c, node set) and minimize
///               own internode traffic plus overlap with the residual
///               per-node link load of already-admitted co-tenants — the
///               QAP idea of the paper's placement stage lifted one level,
///               from GPUs-within-a-node to jobs-within-a-machine. With a
///               watch attached to the cluster, the published per-node cost
///               factors weight those terms (exactly 1 until a degraded
///               wire is published).
///
/// Two queue disciplines, both preemption-free with backfill (a job that
/// fits the residual machine may start ahead of a blocked one; nothing is
/// ever evicted): kFairShare orders users by accumulated GPU·iteration
/// usage, kStrictPriority by (priority, submit order). Jobs that can never
/// fit even an empty machine are rejected at submit.
///
/// Observers are the Cluster's: whatever is attached to it (happens-before
/// checker, watch, telemetry, explain ledger) sees every tenant of every
/// wave, solo re-runs included. The one the scheduler attaches itself is
/// Options::blame's per-wave collector, which holds the cluster's recorder
/// slot for its wave only and then hands back whatever recorder the caller
/// had attached.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/dim3.h"
#include "core/distributed_domain.h"
#include "core/method_flags.h"
#include "core/tenant.h"

namespace stencil::sched {

enum class PlacePolicy { kPacked, kSpread, kNodeAware };
enum class SchedPolicy { kFairShare, kStrictPriority };
enum class JobState { kQueued, kRunning, kDone, kRejected };

const char* to_string(PlacePolicy p);
const char* to_string(SchedPolicy p);
const char* to_string(JobState s);

/// Everything one tenant job needs: the stencil shape and the resources it
/// asks for. `gpus` is rounded up to whole rank slots.
struct JobSpec {
  std::string name;
  std::string user;
  Dim3 domain{64, 64, 64};
  int radius = 1;
  int gpus = 1;
  int quantities = 1;
  std::size_t elem_size = 4;
  int iterations = 4;
  int priority = 0;  ///< larger = more urgent (kStrictPriority)
  MethodFlags methods = MethodFlags::kAll;
  PlacementStrategy strategy = PlacementStrategy::kNodeAware;
  Neighborhood nbhd = Neighborhood::kFull;
  Boundary boundary = Boundary::kPeriodic;
  /// Planned exchanges (on by default): every tenant plan passes static
  /// verify admission, and the scheduler can collect the verified model for
  /// the cross-tenant pass.
  bool persistent = true;
  /// Called right after realize(), before the first exchange — the place to
  /// fill grid quantities.
  std::function<void(DistributedDomain&)> prologue;
  /// Called after the last timed exchange, before teardown — the place to
  /// verify or harvest grid contents.
  std::function<void(DistributedDomain&)> epilogue;
};

/// Admission-controller budgets beyond raw GPU slots. Per-exchange byte
/// estimates: a job's NIC load per touched node is its internode volume
/// spread over its vnodes; its pinned-staging estimate is twice that (send
/// and receive staging buffers live simultaneously).
struct Capacity {
  std::uint64_t pinned_bytes_per_node = 1ull << 30;
  std::uint64_t link_bytes_per_node = 4ull << 30;
};

/// Residual machine state the placement policies work against.
struct MachineState {
  std::vector<int> used;                ///< occupied rank slots per node
  std::vector<std::uint64_t> link;      ///< admitted NIC bytes/exchange per node
  std::vector<std::uint64_t> pinned;    ///< admitted pinned-staging bytes per node
};

/// Provenance capture for one try_place call (stencil::explain): the
/// winning (shape, node set) with its score, the labeled losing candidates
/// (next-preferred shape, alternate node set), and a deterministic count of
/// candidates scored. Filled only when a caller passes one; the placement
/// itself is unaffected.
struct PlaceExplain {
  std::string chosen;        ///< "k=2 c=2 nodes=[0 1]"
  double chosen_score = 0.0; ///< internode bytes (+ overlap terms, node-aware)
  std::vector<std::pair<std::string, double>> rejected;  ///< (label, score)
  std::uint64_t work = 0;    ///< candidate shapes scored
};

/// One admitted job's placement: the tenant slice plus the bookkeeping the
/// scheduler and the reports need.
struct Admission {
  int job = -1;
  int tenant = -1;                 ///< tag-window id, unique within a wave
  int vnodes = 0;
  int ranks_per_vnode = 0;
  std::vector<int> nodes;          ///< physical node of each vnode
  std::vector<int> slot_base;      ///< first rank slot of each vnode's run
  core::TenantView view;
  std::vector<int> world_ranks;    ///< dense vnode-major member list
  std::uint64_t internode_bytes = 0;  ///< per exchange, across all vnodes
  std::uint64_t total_bytes = 0;      ///< per exchange, all halo traffic
};

/// Per-tenant outcome of one scheduler run.
struct TenantReport {
  int job = -1;
  std::string name;
  std::string user;
  int tenant = -1;
  int wave = -1;
  int vnodes = 0;
  int ranks = 0;
  int gpus = 0;
  std::vector<int> nodes;
  std::vector<int> world_ranks;
  std::vector<double> iter_ms;     ///< per iteration, max across the tenant's ranks
  double median_ms = 0.0;
  double p95_ms = 0.0;
  double solo_p95_ms = 0.0;        ///< solo re-run (Options::solo_baseline)
  double interference = 0.0;       ///< p95 / solo_p95 - 1
  std::uint64_t bytes_per_exchange = 0;
  std::uint64_t internode_bytes = 0;
  double blame_ms = 0.0;           ///< critical-path time owned by this tenant
};

struct RunReport {
  std::vector<TenantReport> tenants;   ///< submit order
  int waves = 0;
  double makespan_ms = 0.0;            ///< virtual time across all co-run waves
  double aggregate_gb_s = 0.0;         ///< moved bytes / makespan
  std::size_t verify_findings = 0;     ///< cross-tenant checker findings
  std::vector<std::string> verify_details;

  const TenantReport* by_name(const std::string& name) const;
};

/// The scheduler itself. Lifecycle: submit() any number of jobs (rejected
/// ones are flagged immediately), then run() drives waves until the queue
/// is empty. Each wave admits as many queued jobs as fit the empty machine
/// under the active policies, runs them concurrently to completion on the
/// shared Cluster, and releases everything — preemption-free batch
/// scheduling, deterministic end to end.
class Scheduler {
 public:
  struct Options {
    PlacePolicy place = PlacePolicy::kNodeAware;
    SchedPolicy policy = SchedPolicy::kFairShare;
    Capacity capacity{};
    /// Re-run every job alone (same slice) after the co-run waves and report
    /// interference = co-tenant p95 / solo p95 - 1.
    bool solo_baseline = false;
    /// Attach a dtrace::Collector per wave and attribute critical-path time
    /// to tenants (TenantReport::blame_ms).
    bool blame = false;
  };

  explicit Scheduler(Cluster& cluster) : Scheduler(cluster, Options{}) {}
  Scheduler(Cluster& cluster, Options opt);

  /// Queue a job. Returns its id. A job that cannot fit even an empty
  /// machine is marked kRejected (see reject_reason) and never queued.
  int submit(JobSpec spec);

  JobState state(int job) const;
  const std::string& reject_reason(int job) const;
  std::size_t queued() const;

  /// Drive waves until the queue drains; returns the consolidated report.
  RunReport run();

  /// Placement engine, exposed for tests: shape + node choice for `spec`
  /// against residual state `ms` under `policy`, or nullopt when the job
  /// does not fit right now. Does not mutate `ms`. A non-null `ex` captures
  /// decision provenance (winner, losing candidates, work) for
  /// stencil::explain without changing the choice.
  std::optional<Admission> try_place(const JobSpec& spec, const MachineState& ms,
                                     PlacePolicy policy, PlaceExplain* ex = nullptr) const;

  /// All (vnodes, ranks_per_vnode) factorizations of `ranks` that fit a
  /// machine of `max_nodes` x `slots_per_node`, ranks_per_vnode descending.
  static std::vector<std::pair<int, int>> shapes(int ranks, int max_nodes, int slots_per_node);

 private:
  struct Job {
    int id = -1;
    JobSpec spec;
    JobState state = JobState::kQueued;
    std::string reject;
    int ranks = 0;  ///< slots needed = ceil(gpus / gpus_per_rank)
  };

  struct WaveResult {
    std::vector<std::vector<double>> iter_ms;  ///< [job-in-wave][iteration]
    double duration_ms = 0.0;
    std::map<int, double> blame_ms;  ///< tenant -> critical-path time
  };

  MachineState empty_state() const;
  void apply(const Admission& adm, const JobSpec& spec, MachineState* ms) const;
  /// Per-exchange byte estimates for a (k, c) shape of this spec.
  std::pair<std::uint64_t, std::uint64_t> volumes(const JobSpec& spec, int k, int c) const;
  Admission materialize(const JobSpec& spec, int k, int c, std::vector<int> nodes,
                        std::vector<int> bases) const;
  /// Queue order under the active SchedPolicy (indices into jobs_).
  std::vector<std::size_t> queue_order() const;
  WaveResult run_wave(const std::vector<Admission>& wave, RunReport* rep);

  Cluster& cluster_;
  Options opt_;
  std::vector<Job> jobs_;
  std::map<std::string, std::uint64_t> usage_;  ///< user -> accumulated gpu·iterations
  int submit_seq_ = 0;
  std::string no_reason_;
};

}  // namespace stencil::sched
