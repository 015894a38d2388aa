#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "check/checker.h"
#include "core/placement.h"
#include "core/tenant.h"
#include "dtrace/collector.h"
#include "dtrace/progress.h"
#include "explain/explain.h"
#include "simpi/mpi.h"
#include "simtime/engine.h"
#include "telemetry/telemetry.h"
#include "topo/machine.h"
#include "trace/recorder.h"
#include "verify/verify.h"
#include "vgpu/runtime.h"
#include "watch/watch.h"

namespace stencil {

class Cluster;

/// Everything one rank's code needs: its communicator, the CUDA-like
/// runtime, and the GPUs this rank drives. GPUs are block-assigned within
/// the node (rank slot s of R ranks drives GPUs [s*G/R, (s+1)*G/R)), as a
/// typical Summit jsrun layout does.
struct RankCtx {
  simpi::Comm comm;
  vgpu::Runtime& rt;
  topo::Machine& machine;
  Cluster& cluster;
  int gpus_per_rank = 0;
  std::vector<int> gpus;  // global GPU ids owned by this rank
  /// Multi-tenancy (src/sched): the slice of the machine this rank's job
  /// owns. nullptr = solo job owning the whole machine (the default; every
  /// existing call site aggregate-initializes without this member).
  const core::TenantView* tenant = nullptr;

  int rank() const { return comm.rank(); }
  int node() const { return comm.node(); }
  sim::Engine& engine() { return rt.engine(); }
};

/// Everything a plan's job-wide admission derivation reads (DESIGN.md §14).
/// Ranks whose keys compare equal derive the same model, so the first to
/// admit a plan derives it for all of them.
struct AdmissionKey {
  /// Held, not just compared: the keyed placement stays alive, so an
  /// identity match can never alias a recycled allocation.
  std::shared_ptr<const Placement> placement;
  int ranks_per_node = 0;
  MethodFlags flags{};
  Neighborhood nbhd{};
  Boundary boundary{};
  Radius radius{1};
  bool tenant_scoped = false;
  int tenant = 0;
  std::vector<int> world_ranks;  // communicator rank -> world rank
  std::size_t bytes_per_point = 0;  // of the plan's quantity set
  bool aggregated = false;
  bool staged_zero_copy = false;
  /// The admitting rank's demotions: (tag, realized method) wherever that
  /// differs from the derived method, tag-sorted. Empty in fault-free runs.
  std::vector<std::pair<int, Method>> demotions;

  bool operator==(const AdmissionKey&) const = default;
};

/// One job-wide admission derivation: every rank's message and token ops,
/// each rank lowered in its own transfer order, and the verifier's verdict
/// on that model.
struct JobAdmission {
  verify::ExchangeModel model;
  verify::Report verdict;
};

/// Owns the whole simulated world — engine, machine, virtual GPU runtime,
/// and MPI job — and runs SPMD bodies across the ranks. Also hosts the
/// cross-rank placement and plan-admission caches: both are deterministic,
/// so the first rank's result is shared instead of recomputed 1536 times.
class Cluster {
 public:
  Cluster(topo::NodeArchetype arch, int num_nodes, int ranks_per_node);

  /// Run `body` once per rank (SPMD), to completion.
  void run(const std::function<void(RankCtx&)>& body);

  sim::Engine& engine() { return eng_; }
  topo::Machine& machine() { return machine_; }
  vgpu::Runtime& runtime() { return rt_; }
  simpi::Job& job() { return job_; }

  int num_nodes() const { return machine_.num_nodes(); }
  int ranks_per_node() const { return job_.ranks_per_node(); }
  int gpus_per_rank() const { return machine_.gpus_per_node() / job_.ranks_per_node(); }

  // --- observers ------------------------------------------------------------
  // Each setter stores its slot (nullptr detaches) and calls rewire(), which
  // rebuilds the Runtime's and the Job's observer lists in one fixed slot
  // order (recorder, checker, telemetry, watch, progress monitor) and
  // recomputes every cross-link from the current set: attach order does not
  // matter, and a detached sink is unreachable from those still attached.
  // Observers are pure bookkeeping: timing is bit-identical with or without.

  /// Timeline recorder: every GPU op, host issue, graph launch, message
  /// wire span, drop, loss, and revoke/retire.
  void set_recorder(trace::Recorder* rec) { rewire(recorder_, rec); }
  trace::Recorder* recorder() const { return recorder_; }

  /// Causal distributed-tracing collector (DESIGN.md §12): a rank-aware
  /// recorder, which rewire() hands the job topology.
  void set_collector(dtrace::Collector* c) { set_recorder(c); }

  void set_mem_mode(vgpu::MemMode m) { rt_.set_mem_mode(m); }

  /// Happens-before checker: every runtime op, event edge, and MPI
  /// post/match/wait feeds it, and the exchange layer annotates its kernels
  /// with byte-range access lists when one is set. Findings feed telemetry.
  void set_checker(check::Checker* c) { rewire(checker_, c); }
  check::Checker* checker() const { return checker_; }

  /// Telemetry sink: every runtime op and MPI post/match/drop feeds its
  /// metrics registry and flight recorder.
  void set_telemetry(telemetry::Telemetry* t) { rewire(telemetry_, t); }
  telemetry::Telemetry* telemetry() const { return telemetry_; }

  /// Live performance watch: every delivered MPI message and every
  /// completed exchange feeds its lane estimators and anomaly detectors.
  /// Attaching configures (and resets) the watch to this cluster's shape;
  /// incidents land on the recorder and snapshot the telemetry flight tail.
  void set_watch(watch::Watch* w) {
    if (w != nullptr) w->configure(num_nodes(), job_.world_size());
    rewire(watch_, w);
  }
  watch::Watch* watch() const { return watch_; }

  /// Progress/stall monitor: every rank heartbeats at exchange start and
  /// completion; a straggler/stall alert snapshots the telemetry flight
  /// tail and the collector's in-flight trace contexts.
  void set_progress_monitor(dtrace::ProgressMonitor* m) { rewire(monitor_, m); }

  /// Attach a decision-provenance ledger (nullptr detaches): placement
  /// cache misses record the partition shape choice and every distinct QAP
  /// instance (winner, runner-up, objective values), and the exchange,
  /// scheduler, and recovery layers record specialization rungs, demotions,
  /// plan compiles/migrations, admission verdicts, and recovery ladder
  /// steps into the same ring. Pure bookkeeping with zero virtual-time
  /// cost: timing and all other artifacts are byte-identical with or
  /// without one attached.
  void set_explain(explain::Ledger* e) { explain_ = e; }
  explain::Ledger* explain_ledger() const { return explain_; }

  /// Attach a fault injector for this cluster's runs (nullptr detaches).
  /// The Machine holds the single authoritative pointer; the runtime, MPI
  /// job, and exchange layer all read it from there. The injector must
  /// outlive every run() that uses it.
  void set_fault_injector(const fault::Injector* inj) { machine_.set_fault_injector(inj); }

  /// Shared placement cache (see Placement: identical on every rank).
  /// `num_nodes` / `gpus_per_node` override the machine shape for tenant
  /// slices partitioning over a virtual machine (0 = use the physical
  /// shape); `gpu_slot_base` anchors the slice's bandwidth lookups and is
  /// part of the cache key so different slices never share a solution.
  std::shared_ptr<const Placement> placement_cached(
      Dim3 domain, Radius radius, std::size_t bytes_per_point, Neighborhood nbhd,
      PlacementStrategy strategy, Boundary boundary = Boundary::kPeriodic, int num_nodes = 0,
      int gpus_per_node = 0, int gpu_slot_base = 0);

  /// Shared plan-admission derivations (DESIGN.md §14): the first rank to
  /// admit a plan under `key` runs `derive` (one job-wide lowering and one
  /// verifier pass); every later rank with an equal key reuses its result.
  /// A key carrying demotions is derived on every call and not kept.
  std::shared_ptr<const JobAdmission> admission_cached(
      const AdmissionKey& key, const std::function<JobAdmission()>& derive);

  /// Job-wide admission work: derivations run (one per distinct key) and
  /// per-rank admissions that fell back to the full per-rank model.
  struct AdmissionCounts {
    std::uint64_t job_verifications = 0;
    std::uint64_t fallbacks = 0;
  };
  AdmissionCounts& admission_counts() { return admission_counts_; }

 private:
  template <typename T>
  void rewire(T*& slot, T* value) {
    slot = value;
    rewire();
  }
  void rewire();

  sim::Engine eng_;
  topo::Machine machine_;
  vgpu::Runtime rt_;
  simpi::Job job_;
  trace::Recorder* recorder_ = nullptr;
  check::Checker* checker_ = nullptr;
  telemetry::Telemetry* telemetry_ = nullptr;
  watch::Watch* watch_ = nullptr;
  dtrace::ProgressMonitor* monitor_ = nullptr;
  explain::Ledger* explain_ = nullptr;
  // What rewire() last attached, so it can detach exactly that.
  std::vector<vgpu::RuntimeObserver*> wired_rt_;
  std::vector<simpi::JobObserver*> wired_job_;
  std::map<std::string, std::shared_ptr<const Placement>> placement_cache_;
  std::vector<std::pair<AdmissionKey, std::shared_ptr<const JobAdmission>>> admission_cache_;
  AdmissionCounts admission_counts_;
};

}  // namespace stencil
