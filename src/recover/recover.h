#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "fault/fault.h"
#include "simpi/mpi.h"
#include "vgpu/buffer.h"

namespace stencil::recover {

/// What a caught exception means for the recovery ladder (DESIGN.md §13).
/// The ladder escalates: retry (transient loss) -> demote (capability gone,
/// already handled by the exchange layer's fail-down) -> re-place + shrink
/// (a rank is permanently dead) -> die (the failed rank is *us*).
enum class FailureKind {
  kNone,            // not a recoverable failure: rethrow
  kTransient,       // timeout / retries exhausted: back off and retry
  kCapability,      // capability lost, transfer demoted: just retry
  kLocalDeviceLoss, // our own GPU/node died: abort, drain, exit
  kPeerDeath,       // a peer rank is permanently dead: full recovery
};

const char* to_string(FailureKind k);

/// A classified failure, carrying what the exception knew.
struct FailureEvent {
  FailureKind kind = FailureKind::kNone;
  int peer = -1;  // dead/suspect world rank, when known
  int tag = 0;    // transfer tag implicated, when known
  std::string what;
};

/// Map a caught exception to a FailureEvent. `me` is the caller's world
/// rank; the oracle check comes first — any error on a rank that is itself
/// dead (its GPUs are gone) classifies as local device loss regardless of
/// which symptom surfaced first.
FailureEvent classify(const std::exception& e, simpi::Job& job, int me, sim::Time now);

/// In-memory buddy checkpointing: each rank keeps the two most recent
/// committed generations of (a) its own subdomains and (b) its buddy's,
/// exchanged over MPI into pinned host memory. The buddy is `ranks_per_node`
/// positions ahead in the live ring, so a partner lands on another node and
/// survives kNodeFail. Two alternating slots make a failure *during* a
/// checkpoint harmless: the previous generation stays committed.
///
/// All sizing derives from the shared Placement, so a rank can allocate
/// receive buffers for its buddy's subdomains without any metadata
/// exchange. Works for phantom (timing-only) buffers too: the copies cost
/// virtual time but move no bytes.
class CheckpointStore {
 public:
  CheckpointStore(RankCtx& ctx, DistributedDomain& dd);

  /// Checkpoint the current state, labelled `iter` (caller's iteration
  /// counter; restore() hands it back so the loop can rewind). Collective
  /// over the live ranks. Throws TransportError if a buddy dies mid-way —
  /// the generation is then left uncommitted.
  void checkpoint(std::int64_t iter);

  /// Newest committed generation label, or -1 if none.
  std::int64_t my_latest() const;

  /// Agree on the restore floor: min over the survivors' my_latest().
  /// Collective over `survivors` (a shrunk communicator).
  std::int64_t negotiate_floor(simpi::Comm& survivors) const;

  /// Restore generation `k0` everywhere: every survivor rewinds its own
  /// subdomains, and each re-homed subdomain's data is routed from the dead
  /// rank's buddy (under the generation's ring) to its adopter. Throws if
  /// k0 is not committed here or a needed buddy is dead too (a rank and its
  /// buddy lost together is unrecoverable by design — one failure per
  /// incident per buddy chain).
  void restore(std::int64_t k0, const std::vector<DistributedDomain::Rehome>& moves);

  /// The rank holding `rank`'s checkpoint blobs under the latest committed
  /// generation's ring (or -1): exposed for tests.
  int buddy_of(int rank) const;

  std::uint64_t generations() const { return committed_; }

 private:
  struct SubBlob {
    std::int64_t lin = -1;
    std::vector<vgpu::Buffer> qs;  // pinned host, one per quantity
  };
  struct Gen {
    std::int64_t iter = -1;  // -1 = uncommitted
    std::vector<int> ring;   // live world ranks at checkpoint time
    std::map<std::int64_t, SubBlob> self;
    std::map<std::int64_t, SubBlob> peer;  // buddy's subdomains
  };

  static int ring_index(const std::vector<int>& ring, int rank);
  int ring_offset(const std::vector<int>& ring) const;
  // Holder of `rank`'s blobs under `ring`, or -1 when `rank` is not a member.
  int holder_under(const std::vector<int>& ring, int rank) const;
  std::vector<Dim3> subdomains_of_rank(int rank) const;
  std::size_t blob_bytes(Dim3 idx, std::size_t q) const;
  Gen* committed_gen(std::int64_t iter);

  RankCtx& ctx_;
  DistributedDomain& dd_;
  Gen slots_[2];
  int next_slot_ = 0;
  std::uint64_t committed_ = 0;
};

/// One rank's counters (`drill fault --recover` and bench_recovery read
/// them). The job-wide record is the cluster telemetry's
/// `recover_steps_total{step=...}` counters, fed per ladder step.
struct RecoveryStats {
  std::uint64_t checkpoints = 0;
  std::uint64_t transient_retries = 0;
  std::uint64_t capability_demotions = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t ranks_retired = 0;
  sim::Time last_mttr = 0;       // first failure instant -> recovery done
  std::int64_t last_floor = -1;  // iteration restored from
};

/// The recovery policy ladder, one instance per rank:
///
///   stencil::recover::RecoveryManager rm(ctx, dd, /*cadence=*/16);
///   for (std::int64_t it = 0; it < steps;) {
///     try {
///       rm.maybe_checkpoint(it);
///       dd.exchange();
///       step(dd);
///       ++it;
///     } catch (const std::exception& e) {
///       const auto ev = stencil::recover::classify(e, ctx.comm.job(),
///                                                  ctx.rank(), now);
///       const std::int64_t back = rm.recover(ev, it);
///       if (back == stencil::recover::RecoveryManager::kRankGone) return;
///       it = back;
///     }
///   }
///
/// maybe_checkpoint(it) snapshots the state *entering* iteration `it`;
/// recover() returns the iteration to resume from (k0: redo k0, k0+1, ...),
/// the caller's own `iter` for transient/capability events, or kRankGone
/// when this rank is the casualty and must leave the SPMD body.
class RecoveryManager {
 public:
  static constexpr std::int64_t kRankGone = -1;

  /// cadence 0 disables checkpointing (recovery then re-homes but cannot
  /// restore lost data; it returns the caller's `iter` unchanged).
  RecoveryManager(RankCtx& ctx, DistributedDomain& dd, std::int64_t cadence);

  /// Checkpoint when `iter` is a cadence multiple (including 0 — the
  /// initial condition is the floor of last resort). Returns true if a
  /// checkpoint was taken.
  bool maybe_checkpoint(std::int64_t iter);

  /// Run the ladder for one classified failure. See the class comment for
  /// the return protocol. Unclassified events (kNone) rethrow as logic
  /// errors — the caller should not have routed them here.
  std::int64_t recover(const FailureEvent& ev, std::int64_t iter);

  CheckpointStore& store() { return store_; }
  const RecoveryStats& stats() const { return stats_; }
  std::int64_t cadence() const { return cadence_; }

 private:
  // Decision provenance (stencil::explain): one kRecoverStep record per
  // ladder rung taken, scored by ladder position (0 retry ... 3 shrink,
  // 4 cold restart), with the avoided more-drastic rung as the rejected
  // alternative. No-op without a cluster-attached ledger.
  void record_step(const std::string& chosen, double score, const std::string& alt,
                   double alt_score, const std::string& subject, const std::string& detail);

  RankCtx& ctx_;
  DistributedDomain& dd_;
  CheckpointStore store_;
  std::int64_t cadence_ = 0;
  RecoveryStats stats_;
  // World ranks whose death THIS rank has folded into a completed (or
  // in-flight) incident. Global retirement flags cannot drive the incident
  // scope: the first survivor retires the dead instantly, and every other
  // survivor must still walk the same protocol.
  std::set<int> processed_;
};

}  // namespace stencil::recover
