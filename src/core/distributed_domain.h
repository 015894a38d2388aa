#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/exchange.h"
#include "core/local_domain.h"
#include "core/method_flags.h"
#include "core/placement.h"
#include "plan/plan.h"
#include "verify/verify.h"

namespace stencil {

namespace xfer {
enum class Phase : std::uint8_t;
struct Op;
class OpList;
}  // namespace xfer

/// The library's user-facing type (mirroring the reference implementation):
/// one instance per rank, holding that rank's subdomains and the machinery
/// for overlapped halo exchanges.
///
///   stencil::DistributedDomain dd(ctx, {1364, 1364, 1364});
///   dd.set_radius(2);
///   dd.add_data<float>("pressure");
///   dd.set_methods(stencil::MethodFlags::kAll);
///   dd.set_placement(stencil::PlacementStrategy::kNodeAware);
///   dd.realize();
///   ...
///   dd.exchange();
///
/// realize() performs the paper's three-phase setup: partitioning
/// (hierarchical prime-factor bisection), placement (QAP over the node's
/// bandwidth matrix), and specialization (choosing KERNEL / PEER /
/// COLOCATED / CUDA-aware / STAGED per subdomain pair, including the
/// one-time cudaIpc* handshakes for COLOCATED).
///
/// Observability goes through the cluster's sinks only: exchange heartbeats
/// reach every attached simpi observer, and per-method counters, plan and
/// fault events land in `cluster.telemetry()` while one is attached
/// (DESIGN.md §11).
class DistributedDomain {
 public:
  DistributedDomain(RankCtx& ctx, Dim3 domain);
  ~DistributedDomain();  // out-of-line: TransferState is an impl detail

  // --- configuration (before realize) ------------------------------------
  /// Uniform (set_radius(2)) or per-face asymmetric halo widths.
  void set_radius(Radius r);
  void set_methods(MethodFlags f);
  void set_placement(PlacementStrategy s);
  void set_neighborhood(Neighborhood n);

  /// Periodic (default, the paper's setting) or fixed boundaries. With
  /// fixed boundaries, outward-facing halos are not exchanged — they belong
  /// to the application (e.g. Dirichlet values written once).
  void set_boundary(Boundary b);

  /// Combine all STAGED transfers between each rank pair into one MPI
  /// message per exchange (the aggregation idea of §VI / [3]): fewer,
  /// larger messages amortize per-message latency, at the cost of delaying
  /// the whole group to its slowest pack. Off by default, matching the
  /// paper ("our messages may already be few enough and large enough").
  void set_remote_aggregation(bool on);

  /// How same-rank PEER transfers move halos: GPU pack kernels (default,
  /// the paper's choice), direct strided cudaMemcpy3D-style copies, or a
  /// per-transfer automatic choice (§VI pack-avoidance future work).
  void set_pack_mode(PackMode m);

  /// STAGED senders pack straight into pinned host memory with a zero-copy
  /// kernel (§VI / [18]) instead of pack-then-D2H: one fewer async op and
  /// copy, at the cost of the GPU being busy for the host-link duration.
  void set_staged_zero_copy(bool on);

  /// Planned (persistent) exchanges: the first exchange() per configuration
  /// compiles the specialized transfer set into a reusable schedule —
  /// persistent MPI requests (MPI_Send_init/Recv_init/Start) for the message
  /// phases and instantiated vgpu graphs for the pack/copy/unpack phases —
  /// and every later exchange replays it with zero setup work. May be
  /// toggled at any exchange boundary (also after realize()); plans are
  /// compiled lazily per quantity subset (method flags and aggregation are
  /// frozen at realize()) and partially rebuilt when fault injection demotes
  /// a transfer.
  void set_persistent(bool on);
  bool persistent() const { return persistent_; }

  /// Register a grid quantity; returns its index.
  template <typename T>
  std::size_t add_data(const std::string& name) {
    return add_data_bytes(name, sizeof(T));
  }
  std::size_t add_data_bytes(const std::string& name, std::size_t elem_size);

  /// Partition, place, allocate, and specialize. Collective: every rank of
  /// the job must call realize() (the COLOCATED setup handshakes cross
  /// ranks).
  void realize();

  /// One full halo exchange, overlapping every transfer the paper's Fig. 9
  /// way. Collective. Returns when all of this rank's sends are delivered,
  /// all its halos are unpacked, and its streams are quiescent.
  /// Equivalent to exchange_start() immediately followed by exchange_finish().
  void exchange();

  /// Selective exchange: move only the listed quantities (strictly
  /// increasing indices). Collective — every rank must pass the same list.
  /// Double-buffered schemes typically only need the field they read,
  /// halving the traffic of a blanket exchange.
  void exchange(const std::vector<std::size_t>& quantities);
  void exchange_start(const std::vector<std::size_t>& quantities);

  /// Split-phase exchange for computation/communication overlap: start()
  /// posts receives and enqueues all asynchronous sender work (packs, local
  /// copies, colocated pushes), then returns. The application typically
  /// launches *interior* compute kernels next — they only need cells the
  /// exchange does not touch — and calls finish() before computing on the
  /// boundary. finish() runs the remaining ops of every transfer's op list
  /// to completion (§III-D).
  void exchange_start();
  void exchange_finish();

  // --- introspection ------------------------------------------------------
  Dim3 domain() const { return domain_; }
  const Radius& radius() const { return radius_; }
  Boundary boundary() const { return boundary_; }
  MethodFlags methods() const { return flags_; }
  std::size_t num_subdomains() const { return locals_.size(); }
  LocalDomain& subdomain(std::size_t i) { return *locals_[i]; }
  const Placement& placement() const;
  /// This rank's transfer table: every transfer it sends or receives that
  /// moves bytes, each with the method the exchange issues. Reflects runtime
  /// demotions and recovery re-homing.
  std::vector<Transfer> transfers() const;
  /// Per-method (transfer count, payload bytes) over transfers() — what
  /// `drill plan` prints.
  std::map<Method, std::pair<int, std::size_t>> method_bytes_histogram() const;
  std::uint64_t exchanges_done() const { return seq_; }

  /// Compiled-plan introspection (`drill plan`, tests). The cache is empty
  /// until the first persistent exchange compiles a schedule.
  const plan::PlanCache& plan_cache() const { return plan_cache_; }
  plan::PlanCache& plan_cache() { return plan_cache_; }
  const plan::PlanStats& plan_stats() const { return plan_cache_.stats(); }
  /// Bumped on every runtime demotion; cached plans whose epoch lags are
  /// migrated (dirty programs rebuilt) on their next use.
  std::uint64_t topology_epoch() const { return topo_epoch_; }

  // --- multi-tenancy (src/sched, DESIGN.md §15) ---------------------------
  /// The machine shape this domain partitions and places over: the tenant
  /// slice's virtual shape when RankCtx carries a TenantView, the physical
  /// machine otherwise. All tenant-aware internals route through these.
  const core::TenantView* tenant() const { return ctx_.tenant; }
  int tenant_id() const { return ctx_.tenant != nullptr ? ctx_.tenant->id : 0; }
  int part_nodes() const {
    return ctx_.tenant != nullptr ? ctx_.tenant->num_vnodes() : ctx_.cluster.num_nodes();
  }
  int part_gpn() const {
    return ctx_.tenant != nullptr ? ctx_.tenant->gpus_per_vnode : ctx_.machine.gpus_per_node();
  }
  int part_rpn() const {
    return ctx_.tenant != nullptr ? ctx_.tenant->ranks_per_vnode : ctx_.cluster.ranks_per_node();
  }
  /// This rank's (virtual) node in partition coordinates. For a tenant the
  /// communicator is the tenant's sub-communicator, whose ranks are dense
  /// vnode-major, so rank / ranks_per_vnode is the vnode index.
  int part_node() const {
    return ctx_.tenant != nullptr ? ctx_.comm.rank() / part_rpn() : ctx_.node();
  }

  // --- static plan verification (src/verify, DESIGN.md §14) ----------------
  /// Lower a compiled plan into the verifier's IR: the local rank from the
  /// artifact itself, every remote rank from the cluster's job-wide
  /// derivation for the plan's admission key (Cluster::admission_cached),
  /// each in its own for_rank transfer order, with local demotions
  /// overriding shared transfers. The reference model: `drill verify`, the
  /// scheduler's cross-tenant pass, tests, and the admission fallback.
  verify::ExchangeModel verify_model(const plan::CompiledPlan& p) const;
  /// Run the static verifier on a plan: global send/recv matching, deadlock
  /// freedom, tag-space hygiene, buffer-overlap hazards.
  ///
  /// Fail-fast admission is always on: every freshly compiled plan and every
  /// fault-demotion/recovery migration is statically verified before its
  /// first replay; findings throw plan::AdmissionError out of
  /// exchange_start(). Admission costs O(own transfers) per rank: the job
  /// is verified once per key, and each rank checks that its artifact's
  /// message and token ops equal its derived program, then checks its own
  /// buffer hazards. Any other outcome runs verify_plan, so a rejection
  /// reads exactly as verify_plan's report.
  verify::Report verify_plan(const plan::CompiledPlan& p) const;

  template <typename F>
  void for_each_subdomain(F&& f) {
    for (auto& l : locals_) f(*l);
  }

  /// Launch a compute "kernel" over a subdomain on its compute stream,
  /// with `bytes_moved` charged through device memory (cost model).
  void launch_compute(LocalDomain& ld, const std::string& label, std::uint64_t bytes_moved,
                      const std::function<void()>& body);

  /// Block until every subdomain's compute stream is quiescent.
  void compute_synchronize();

  // --- elastic failure recovery (stencil::recover) -------------------------
  /// One re-homed subdomain: which global index moved, from which GPU/rank
  /// onto which. recover_replace returns the full list so the checkpoint
  /// layer can route the dead ranks' blobs to their adopters.
  struct Rehome {
    Dim3 idx{};
    std::int64_t lin = 0;  // idx linearized over the global subdomain extent
    int old_gpu = -1;
    int new_gpu = -1;
    int old_rank = -1;
    int new_rank = -1;
  };

  /// Abort the in-flight exchange (if any) without waiting for dead peers:
  /// every posted request is returned to the inactive state via Job::reset,
  /// per-transfer handles are dropped, and all touched streams quiesce.
  /// Leaves the domain ready for recover_replace + a fresh exchange.
  void recover_abort();

  /// Incremental re-placement after the listed ranks died: their subdomains
  /// are re-homed onto surviving GPUs (deterministic greedy: least-loaded,
  /// ties to the lowest GPU id — every survivor computes the same answer
  /// with no communication), the exchange plan is re-derived, and only the
  /// transfers whose endpoints changed are rebuilt (forced down to PEER /
  /// STAGED; never COLOCATED, whose handshake needs the old world). Bumps
  /// the topology epoch so cached plans migrate on next acquire.
  ///
  /// With a watch attached to the cluster (stencil::watch), the greedy
  /// adoption reads its *published* per-node cost factors: GPUs on nodes
  /// whose wires have measurably degraded look more loaded, so orphans land
  /// on healthy nodes first. Published factors only change at
  /// Watch::publish() — a quiescent point — so every survivor still computes
  /// the same answer with no communication. Unpublished and healthy factors
  /// are exactly 1, so with no watch, before the first publish, or on a
  /// healthy machine the adoption is the static policy's.
  std::vector<Rehome> recover_replace(const std::vector<int>& dead_ranks);

  /// Exchanges are pairwise, not globally synchronized, so ranks can be a
  /// few iterations apart when an incident hits. Survivors agree on
  /// max(exchanges_done()) and realign here — COLOCATED flow control
  /// compares channel generations against seq_, so both ends must count
  /// from the same value after recovery.
  void resync_seq(std::uint64_t s);

  /// The subdomain hosted at `global_idx` on this rank, or nullptr.
  LocalDomain* local_by_subdomain(Dim3 idx);

  /// Quantity table (recovery checkpointing needs sizes for remote blobs).
  const std::vector<Quantity>& quantities() const { return quantities_; }

 private:
  struct IpcEventChannel;
  struct TransferState;
  struct AggGroup;

  void require_unrealized(const char* what) const;
  // Construct one transfer's runtime state (regions, buffers, streams per
  // method), or nullptr for a transfer that moves no bytes (asymmetric
  // radius). Shared by realize() and the recovery rebuild path.
  std::unique_ptr<TransferState> make_transfer_state(const Transfer& t);
  // Specialization for a transfer rebuilt mid-run: COLOCATED is excluded
  // (its IPC handshake belongs to the pre-failure world) and PEER requires
  // the peer link to actually be enabled.
  Method forced_method(const Transfer& t) const;
  // Lay out the staged transfers as aggregation groups: record the choice
  // (explain) and, with remote aggregation on, build the groups.
  void build_aggregation_groups();
  void colocated_setup();

  // --- runtime re-specialization (fault degradation, §III-C fail-down) ----
  // At each exchange boundary, demote any transfer whose capability was
  // revoked by fault injection (PEER access lost, CUDA-aware MPI disabled)
  // down the specialization chain to STAGED. Demotions are permanent: a
  // capability that comes back is not re-promoted.
  void maybe_respecialize();
  // Rewrite one transfer's method in its state (the one table transfers()
  // and method_bytes_histogram() read) and record the decision on the
  // trace's "fault" lane. Also bumps the topology epoch, dirties the
  // transfer's programs in every cached plan, and allocates what the new
  // method needs.
  void demote_transfer(TransferState& x, Method target);
  // Allocate the streams and buffers x's method needs on the sides of the
  // transfer this rank owns, keeping any it already has.
  void ensure_buffers(TransferState& x);

  // --- decision provenance (stencil::explain, DESIGN.md §17) --------------
  // The cluster-attached ledger, or nullptr (the common case). Every hook
  // below is pure bookkeeping with zero virtual-time cost and records
  // nothing when detached, so detached artifacts stay byte-identical.
  explain::Ledger* ledger() const { return ctx_.cluster.explain_ledger(); }
  // realize(): one kSpecialization record per method rung in use, scored by
  // ladder position (kernel 0 ... staged 4; lower = more specialized).
  void record_specialization();
  // realize(): the aggregation on/off choice, scored by staged message
  // count per exchange: `msgs` per-transfer vs `groups` grouped.
  void record_aggregation(std::uint64_t msgs, std::size_t groups);
  // demote_transfer(): the fault-forced rung change, with the revoked rung
  // as the rejected alternative (negative delta = capability lost).
  void record_demotion(const TransferState& x, Method from, Method to);

  // Checker annotation: the byte ranges a kernel or 3-D copy op touches in
  // quantities `qs` (memcpys derive their own).
  vgpu::AccessList op_access(TransferState& x, const xfer::Op& op,
                             const std::vector<std::size_t>& qs) const;

  // PEER pack avoidance (§VI): strided 3D copy instead of pack kernels,
  // per configuration or the kAuto cost model.
  bool peer_use_3d(const TransferState& x) const;

  // --- the transfer op list (core/transfer_ops.h) --------------------------
  // An aggregation member's slot in its group's pinned buffer.
  struct Slot {
    vgpu::Buffer* host;
    std::size_t offset;
  };
  // Build this rank's op list for `x` in the exchange in flight, and decide
  // per op whether it moves real bytes (x.bodies).
  void lower(TransferState& x) const;
  // Issue `x`'s ops of one phase: run_op for each.
  void run_phase(TransferState& x, xfer::Phase phase, const Slot& slot = Slot{nullptr, 0});
  // Issue one of `x`'s ops. Stream work goes to the runtime, or into the
  // graph being captured; a post-recv becomes an irecv; an interpreted
  // COLOCATED step takes over the rest of its phase (and may rewrite
  // x.ops). Sends are started by the callers, each mode in its own order.
  void run_op(TransferState& x, const xfer::Op& op, const Slot& slot = Slot{nullptr, 0});
  void issue(TransferState& x, const xfer::Op& op, const Slot& slot);

  // --- the eager exchange schedule (DESIGN.md §10) --------------------------
  // One op of the schedule: a transfer and one of its ops (into x->ops).
  struct Step {
    TransferState* x;
    const xfer::Op* op;
  };
  struct Schedule;
  // Lower the exchange for active_qs_ at topo_epoch_: active bytes, group
  // member offsets, every transfer's op list, and the per-phase steps.
  void build_schedule();
  // Issue a walked phase's steps.
  void run_steps(xfer::Phase phase);
  // Eager send of `x`'s payload, gated on its ready event.
  void start_send(TransferState& x);
  // Capture `x`'s ops of the given phases into one graph (none if empty).
  vgpu::GraphExec capture(TransferState& x, std::initializer_list<xfer::Phase> phases);

  // COLOCATED state machines, shared by the eager and planned paths (their
  // flow control is generation-dependent, so plans keep them interpreted).
  // Each runs the stream ops [first, last) that follow its step in the op
  // list; a stale IPC mapping demotes the transfer and runs STAGED's ops.
  void colocated_send(TransferState& x, const xfer::Op* first, const xfer::Op* last);
  void colocated_recv(TransferState& x, const xfer::Op* first, const xfer::Op* last);
  // Park on a COLOCATED channel gate until `done` holds, but stay
  // failure-aware: a pending revoke or a dead peer surfaces as a
  // TransportError (kRevoked / kPeerDead) instead of a silent hang — the
  // IPC channel has no MPI envelope, so the simpi dead-peer deadline never
  // covers these waits. The detail text ("<what> tag=<tag>") is built only
  // when the wait parks or throws.
  void colocated_gate_wait(sim::Gate& gate, int peer_rank, int tag,
                           const std::function<bool()>& done, const char* what);

  // End of both the eager and planned finish paths: the completion
  // heartbeat, then — only while a cluster telemetry sink is attached —
  // per-method message/byte counters (DESIGN.md §11). Zero virtual-time
  // cost.
  void note_exchange_complete();

  // The admission hook: "" for a clean plan, else the findings text.
  std::string admission_report(const plan::CompiledPlan& p) const;

  // --- plan lowering (verify_model.cpp) ------------------------------------
  // Lowers one rank's transfer op lists into its verifier program.
  struct Lowering;
  // What the job-wide derivation for `p` reads; see AdmissionKey.
  AdmissionKey admission_key(const plan::CompiledPlan& p) const;
  // The cluster's job-wide derivation for `p`, derived on first use.
  std::shared_ptr<const JobAdmission> job_admission(const plan::CompiledPlan& p) const;
  // Every rank's message and token ops, derived from the key alone.
  static JobAdmission derive_job(const AdmissionKey& key);
  // This rank's full program, lowered from `p`'s artifact; `job` supplies
  // the world ranks behind aggregation tags.
  verify::RankProgram lower_artifact(const plan::CompiledPlan& p,
                                     const verify::ExchangeModel& job) const;

  // --- exchange plans (persistent mode) -----------------------------------
  // The plan for the active configuration: exact cache hit, stale-epoch
  // migration (rebuild only dirty programs), or full compile on miss.
  plan::CompiledPlan& acquire_plan();
  // Admission: a rejected plan never replays. Its persistent requests are
  // freed and it leaves the cache, so the next acquire recompiles it.
  void admit(plan::CompiledPlan& p);
  // (Re)build one frozen transfer: capture its stream phases into graphs,
  // create its persistent requests. Frees any superseded requests first.
  void compile_program(plan::TransferProgram& prog);
  void compile_group_program(plan::GroupProgram& g);

  RankCtx& ctx_;
  Dim3 domain_;
  Radius radius_{1};
  std::vector<Quantity> quantities_;
  MethodFlags flags_ = MethodFlags::kAll;
  PlacementStrategy strategy_ = PlacementStrategy::kNodeAware;
  Neighborhood nbhd_ = Neighborhood::kFull;
  Boundary boundary_ = Boundary::kPeriodic;
  bool aggregate_remote_ = false;
  bool staged_zero_copy_ = false;
  PackMode pack_mode_ = PackMode::kKernel;
  bool realized_ = false;
  std::size_t bytes_per_point_ = 0;

  std::shared_ptr<const Placement> placement_;
  std::vector<std::unique_ptr<LocalDomain>> locals_;
  // Keyed by linearized global subdomain index: after recovery re-homing a
  // GPU may host several subdomains, so gpu id no longer identifies one.
  std::map<std::int64_t, std::size_t> local_index_by_subdomain_;
  // The rank's one transfer table, in ExchangePlan::for_rank order
  // (recovery appends adopted transfers); zero-byte transfers are skipped.
  std::vector<std::unique_ptr<TransferState>> xfers_;
  std::vector<std::unique_ptr<AggGroup>> send_groups_;
  std::vector<std::unique_ptr<AggGroup>> recv_groups_;
  std::uint64_t seq_ = 0;
  // Quantities moved by the exchange currently in flight; with topo_epoch_
  // the key of sched_.
  std::vector<std::size_t> active_qs_;
  std::unique_ptr<Schedule> sched_;

  // Exchange-plan state (persistent mode).
  bool persistent_ = false;
  std::uint64_t topo_epoch_ = 0;
  plan::PlanCache plan_cache_;
  plan::CompiledPlan* cur_plan_ = nullptr;  // plan driving the in-flight exchange, if any
  // Latest provenance record per cached plan, so the hot path (cache hit)
  // is a single map find + O(1) ledger bump — no allocation, no string
  // formatting. Populated only on the cold compile/migrate paths.
  std::map<const plan::CompiledPlan*, std::uint64_t> plan_record_ids_;

  // Split-phase exchange state, valid between exchange_start/finish.
  struct InFlight {
    bool active = false;
    sim::Time start_time = 0;  // virtual time of exchange_start (heartbeat latency)
    std::vector<simpi::Request> recv_reqs;
    // Posted sends, kept here (not on the stack) so recover_abort can reset
    // them when a failure unwinds exchange_finish mid-flight.
    std::vector<simpi::Request> send_reqs;
    // Exactly one of the pair is set: a plain transfer or a whole group.
    std::vector<std::pair<TransferState*, AggGroup*>> recv_map;
    // Planned path: the captured H2D+unpack graph for each receive, indexed
    // like recv_reqs.
    std::vector<vgpu::GraphExec*> recv_graphs;
    std::vector<std::pair<sim::Time, TransferState*>> pending_sends;        // (data-ready, xfer)
    std::vector<std::pair<sim::Time, AggGroup*>> pending_group_sends;       // (all-ready, group)
  };
  InFlight inflight_;
};

}  // namespace stencil
