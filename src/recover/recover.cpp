#include "recover/recover.h"

#include <algorithm>

#include "core/tagspace.h"

namespace stencil::recover {

const char* to_string(FailureKind k) {
  switch (k) {
    case FailureKind::kNone: return "none";
    case FailureKind::kTransient: return "transient";
    case FailureKind::kCapability: return "capability";
    case FailureKind::kLocalDeviceLoss: return "local-device-loss";
    case FailureKind::kPeerDeath: return "peer-death";
  }
  return "?";
}

FailureEvent classify(const std::exception& e, simpi::Job& job, int me, sim::Time now) {
  FailureEvent ev;
  ev.what = e.what();
  // Oracle first: if *we* are dead, every symptom — DeviceLost from a
  // kernel launch, a TransportError because our NIC went with the node —
  // means the same thing: abort, drain, leave.
  if (job.rank_fail_time(me) <= now) {
    ev.kind = FailureKind::kLocalDeviceLoss;
    ev.peer = me;
    return ev;
  }
  if (const auto* te = dynamic_cast<const simpi::TransportError*>(&e)) {
    ev.peer = te->peer();
    ev.tag = te->tag();
    switch (te->code()) {
      case simpi::TransportError::Code::kPeerDead:
      case simpi::TransportError::Code::kRevoked:
        // kRevoked means *someone* observed a death and revoked; the
        // recovery path derives the dead set from the oracle, so the event
        // needs no peer id of its own.
        ev.kind = FailureKind::kPeerDeath;
        break;
      case simpi::TransportError::Code::kTimeout:
      case simpi::TransportError::Code::kRetriesExhausted:
        ev.kind = FailureKind::kTransient;
        break;
    }
    return ev;
  }
  if (const auto* dl = dynamic_cast<const vgpu::DeviceLost*>(&e)) {
    ev.kind = FailureKind::kLocalDeviceLoss;
    ev.peer = me;
    ev.tag = dl->device();
    return ev;
  }
  if (dynamic_cast<const vgpu::CapabilityError*>(&e) != nullptr) {
    // The exchange layer demotes the transfer itself (fail-down); by the
    // time this surfaces the retry is all that is left to do.
    ev.kind = FailureKind::kCapability;
    return ev;
  }
  return ev;  // kNone: not ours to handle
}

// --- CheckpointStore --------------------------------------------------------

namespace {
// Blob-exchange tags from the central registry (core/tagspace.h): kept clear
// of the exchange layer's data, setup, and aggregation spaces, and
// bounds-checked so checkpoint tags can never bleed into restore tags.
int checkpoint_tag(std::int64_t lin, std::size_t q) {
  return tagspace::checkpoint_tag(lin, q);
}
int restore_tag(std::int64_t lin, std::size_t q) {
  return tagspace::restore_tag(lin, q);
}
// One ladder step on the cluster's telemetry sink, when one is attached.
void note_step(RankCtx& ctx, const char* step, const std::string& detail) {
  if (auto* tel = ctx.cluster.telemetry()) tel->on_recover_step(step, detail, ctx.engine().now());
}
}  // namespace

CheckpointStore::CheckpointStore(RankCtx& ctx, DistributedDomain& dd) : ctx_(ctx), dd_(dd) {}

int CheckpointStore::ring_index(const std::vector<int>& ring, int rank) {
  const auto it = std::find(ring.begin(), ring.end(), rank);
  return it == ring.end() ? -1 : static_cast<int>(it - ring.begin());
}

int CheckpointStore::ring_offset(const std::vector<int>& ring) const {
  // ranks_per_node positions ahead puts the buddy on the next node, so a
  // whole-node failure never takes a rank and its buddy together. Clamped
  // for tiny rings (the partner must be a different rank).
  const int n = static_cast<int>(ring.size());
  return std::min(ctx_.comm.job().ranks_per_node(), n - 1);
}

int CheckpointStore::holder_under(const std::vector<int>& ring, int rank) const {
  const int i = ring_index(ring, rank);
  if (i < 0) return -1;
  const int n = static_cast<int>(ring.size());
  return ring[static_cast<std::size_t>((i + ring_offset(ring)) % n)];
}

int CheckpointStore::buddy_of(int rank) const {
  const Gen* latest = nullptr;
  for (const Gen& g : slots_) {
    if (g.iter >= 0 && (latest == nullptr || g.iter > latest->iter)) latest = &g;
  }
  return latest == nullptr ? -1 : holder_under(latest->ring, rank);
}

std::vector<Dim3> CheckpointStore::subdomains_of_rank(int rank) const {
  const Placement& placement = dd_.placement();
  const int gpn = ctx_.machine.gpus_per_node();
  const int rpn = ctx_.comm.job().ranks_per_node();
  const int gpr = gpn / rpn;
  const int node = rank / rpn;
  const int slot = rank % rpn;
  std::vector<Dim3> out;
  for (int k = 0; k < gpr; ++k) {
    for (const Dim3 idx : placement.subdomains_on(node, slot * gpr + k)) out.push_back(idx);
  }
  return out;
}

std::size_t CheckpointStore::blob_bytes(Dim3 idx, std::size_t q) const {
  // Full storage including halos: restore then needs no re-exchange to be
  // bit-exact with the failure-free run at the same iteration boundary.
  const Dim3 storage = dd_.placement().partition().subdomain_size(idx) + dd_.radius().padding();
  return static_cast<std::size_t>(storage.volume()) * dd_.quantities()[q].elem_size;
}

CheckpointStore::Gen* CheckpointStore::committed_gen(std::int64_t iter) {
  for (Gen& g : slots_) {
    if (g.iter == iter) return &g;
  }
  return nullptr;
}

void CheckpointStore::checkpoint(std::int64_t iter) {
  simpi::Job& job = ctx_.comm.job();
  if (job.revoked()) {
    job.fail(simpi::TransportError::Code::kRevoked, -1, -1,
             "checkpoint: communicator revoked (recovery pending)");
  }
  const int me = ctx_.comm.rank();
  std::vector<int> ring;
  for (int r = 0; r < job.world_size(); ++r) {
    if (!job.rank_retired(r)) ring.push_back(r);
  }
  const int n = static_cast<int>(ring.size());
  const int off = ring_offset(ring);
  const int my_i = ring_index(ring, me);
  if (my_i < 0) throw std::logic_error("checkpoint: calling rank is retired");
  const int out = ring[static_cast<std::size_t>((my_i + off) % n)];
  const int in = ring[static_cast<std::size_t>(((my_i - off) % n + n) % n)];

  // Overwrite the *older* slot; the newer generation stays committed until
  // this one is, so a buddy death mid-checkpoint loses nothing.
  Gen& g = slots_[next_slot_];
  next_slot_ ^= 1;
  g.iter = -1;
  g.ring = ring;
  g.self.clear();
  g.peer.clear();

  auto& rt = ctx_.rt;
  const auto& qs = dd_.quantities();
  const Dim3 ext = dd_.placement().partition().global_extent();

  // D2H every local subdomain into fresh pinned blobs. The blobs must sit
  // in their final home *before* any async op references them: requests and
  // copies hold Buffer pointers, so a Buffer moved after posting dangles.
  dd_.for_each_subdomain([&](LocalDomain& ld) {
    SubBlob blob;
    blob.lin = ld.index().linearize(ext);
    blob.qs.reserve(qs.size());
    for (std::size_t q = 0; q < qs.size(); ++q) {
      blob.qs.push_back(rt.alloc_pinned_host(ctx_.node(), blob_bytes(ld.index(), q)));
    }
    SubBlob& stored = g.self.insert_or_assign(blob.lin, std::move(blob)).first->second;
    for (std::size_t q = 0; q < qs.size(); ++q) {
      rt.memcpy_async(stored.qs[q], 0, ld.data(q), 0, stored.qs[q].size(), ld.compute_stream());
    }
    rt.stream_synchronize(ld.compute_stream());
  });

  // Swap blobs with the buddies: mine go `off` ahead, my ward's come from
  // `off` behind. Skipped entirely for a ring of one.
  if (out != me) {
    std::vector<simpi::Request> reqs;
    for (auto& [lin, blob] : g.self) {
      for (std::size_t q = 0; q < blob.qs.size(); ++q) {
        reqs.push_back(ctx_.comm.isend(simpi::Payload::of(blob.qs[q], 0, blob.qs[q].size()), out,
                                       checkpoint_tag(lin, q)));
      }
    }
    for (const Dim3 idx : subdomains_of_rank(in)) {
      SubBlob blob;
      blob.lin = idx.linearize(ext);
      blob.qs.reserve(qs.size());
      for (std::size_t q = 0; q < qs.size(); ++q) {
        blob.qs.push_back(rt.alloc_pinned_host(ctx_.node(), blob_bytes(idx, q)));
      }
      SubBlob& stored = g.peer.insert_or_assign(blob.lin, std::move(blob)).first->second;
      for (std::size_t q = 0; q < qs.size(); ++q) {
        reqs.push_back(ctx_.comm.irecv(simpi::Payload::of(stored.qs[q], 0, stored.qs[q].size()),
                                       in, checkpoint_tag(stored.lin, q)));
      }
    }
    ctx_.comm.waitall(reqs);
  }

  g.iter = iter;  // commit last: a throw above leaves this slot invalid
  ++committed_;
  note_step(ctx_, "checkpoint", "iter=" + std::to_string(iter) + " buddy=" + std::to_string(out));
}

std::int64_t CheckpointStore::my_latest() const {
  std::int64_t latest = -1;
  for (const Gen& g : slots_) latest = std::max(latest, g.iter);
  return latest;
}

std::int64_t CheckpointStore::negotiate_floor(simpi::Comm& survivors) const {
  const std::int64_t mine = my_latest();
  std::vector<std::int64_t> all(static_cast<std::size_t>(survivors.size()));
  survivors.allgather(&mine, all.data(), sizeof(std::int64_t));
  std::int64_t floor = mine;
  for (const std::int64_t v : all) floor = std::min(floor, v);
  return floor;
}

void CheckpointStore::restore(std::int64_t k0,
                              const std::vector<DistributedDomain::Rehome>& moves) {
  Gen* g = committed_gen(k0);
  if (g == nullptr) {
    throw std::runtime_error("restore: generation " + std::to_string(k0) +
                             " is not committed on this rank");
  }
  simpi::Job& job = ctx_.comm.job();
  auto& rt = ctx_.rt;
  const int me = ctx_.comm.rank();
  const std::size_t nq = dd_.quantities().size();

  // 1. Rewind our own subdomains (every survivor rolls back to k0 — global
  //    state must be the iteration-k0 state everywhere for bit-exactness).
  const Dim3 ext = dd_.placement().partition().global_extent();
  for (auto& [lin, blob] : g->self) {
    LocalDomain* ld = dd_.local_by_subdomain(Dim3::from_linear(lin, ext));
    if (ld == nullptr) continue;  // cannot happen for a survivor
    for (std::size_t q = 0; q < nq; ++q) {
      rt.memcpy_async(ld->data(q), 0, blob.qs[q], 0, blob.qs[q].size(), ld->compute_stream());
    }
    rt.stream_synchronize(ld->compute_stream());
  }

  // 2. Route each re-homed subdomain's blobs from the dead rank's buddy
  //    (under the generation's ring) to its adopter. All survivors walk the
  //    same deterministic move list, so sends and receives pair up.
  std::vector<simpi::Request> reqs;
  std::vector<std::pair<const DistributedDomain::Rehome*, std::vector<vgpu::Buffer>>> incoming;
  for (const auto& rh : moves) {
    const int holder = holder_under(g->ring, rh.old_rank);
    if (holder < 0) {
      throw std::runtime_error("restore: dead rank " + std::to_string(rh.old_rank) +
                               " was not in the checkpoint ring");
    }
    if (job.rank_retired(holder) || job.rank_fail_time(holder) <= ctx_.engine().now()) {
      throw std::runtime_error("restore: rank " + std::to_string(rh.old_rank) +
                               " and its buddy " + std::to_string(holder) +
                               " both died — checkpoint unrecoverable");
    }
    if (holder == me) {
      const auto it = g->peer.find(rh.lin);
      if (it == g->peer.end()) {
        throw std::runtime_error("restore: missing buddy blob for subdomain lin=" +
                                 std::to_string(rh.lin));
      }
      if (rh.new_rank == me) {
        LocalDomain* ld = dd_.local_by_subdomain(rh.idx);
        for (std::size_t q = 0; q < nq; ++q) {
          rt.memcpy_async(ld->data(q), 0, it->second.qs[q], 0, it->second.qs[q].size(),
                          ld->compute_stream());
        }
        rt.stream_synchronize(ld->compute_stream());
      } else {
        for (std::size_t q = 0; q < nq; ++q) {
          reqs.push_back(ctx_.comm.isend(
              simpi::Payload::of(it->second.qs[q], 0, it->second.qs[q].size()), rh.new_rank,
              restore_tag(rh.lin, q)));
        }
      }
    } else if (rh.new_rank == me) {
      std::vector<vgpu::Buffer> bufs;
      bufs.reserve(nq);
      for (std::size_t q = 0; q < nq; ++q) {
        bufs.push_back(rt.alloc_pinned_host(ctx_.node(), blob_bytes(rh.idx, q)));
      }
      // Park the blobs first: the requests hold Buffer pointers, and moving
      // a vector<Buffer> keeps its heap storage (and so those pointers) alive.
      incoming.emplace_back(&rh, std::move(bufs));
      std::vector<vgpu::Buffer>& stored = incoming.back().second;
      for (std::size_t q = 0; q < nq; ++q) {
        reqs.push_back(ctx_.comm.irecv(simpi::Payload::of(stored[q], 0, stored[q].size()),
                                       holder, restore_tag(rh.lin, q)));
      }
    }
  }
  ctx_.comm.waitall(reqs);
  for (auto& [rh, bufs] : incoming) {
    LocalDomain* ld = dd_.local_by_subdomain(rh->idx);
    for (std::size_t q = 0; q < nq; ++q) {
      rt.memcpy_async(ld->data(q), 0, bufs[q], 0, bufs[q].size(), ld->compute_stream());
    }
    rt.stream_synchronize(ld->compute_stream());
  }
  note_step(ctx_, "restore",
            "floor=" + std::to_string(k0) + " moves=" + std::to_string(moves.size()));
}

// --- RecoveryManager --------------------------------------------------------

RecoveryManager::RecoveryManager(RankCtx& ctx, DistributedDomain& dd, std::int64_t cadence)
    : ctx_(ctx), dd_(dd), store_(ctx, dd), cadence_(cadence) {
  if (cadence < 0) throw std::invalid_argument("RecoveryManager: negative cadence");
}

void RecoveryManager::record_step(const std::string& chosen, double score,
                                  const std::string& alt, double alt_score,
                                  const std::string& subject, const std::string& detail) {
  explain::Ledger* led = ctx_.cluster.explain_ledger();
  if (led == nullptr) return;
  explain::DecisionRecord rec;
  rec.kind = explain::DecisionKind::kRecoverStep;
  rec.at = ctx_.engine().now();
  rec.actor = ctx_.comm.rank();
  rec.subject = subject;
  rec.chosen = chosen;
  rec.chosen_score = score;
  rec.rejected.push_back({alt, alt_score});
  rec.detail = detail.empty()
                   ? "score = ladder rung (0 retry ... 3 shrink, 4 cold restart)"
                   : detail + "; score = ladder rung (0 retry ... 3 shrink, 4 cold restart)";
  led->append(std::move(rec));
}

bool RecoveryManager::maybe_checkpoint(std::int64_t iter) {
  if (cadence_ == 0 || iter % cadence_ != 0) return false;
  store_.checkpoint(iter);
  ++stats_.checkpoints;
  return true;
}

std::int64_t RecoveryManager::recover(const FailureEvent& ev, std::int64_t iter) {
  simpi::Job& job = ctx_.comm.job();
  auto& eng = ctx_.engine();
  const int me = ctx_.comm.rank();
  switch (ev.kind) {
    case FailureKind::kNone:
      throw std::logic_error("recover: unclassified failure: " + ev.what);
    case FailureKind::kTransient:
      ++stats_.transient_retries;
      note_step(ctx_, "retry", ev.what);
      record_step("retry (replay iteration " + std::to_string(iter) + ")", 0.0,
                  "shrink + rollback to checkpoint floor", 3.0, ev.what,
                  "transient fault: nothing died, nothing to re-place");
      return iter;
    case FailureKind::kCapability:
      ++stats_.capability_demotions;
      note_step(ctx_, "demote", ev.what);
      record_step("demote (fail-down, replay iteration " + std::to_string(iter) + ")", 1.0,
                  "shrink + rollback to checkpoint floor", 3.0, ev.what,
                  "capability revoked: re-specialize affected transfers to staged");
      return iter;
    case FailureKind::kLocalDeviceLoss:
      // We are the casualty. Stop touching shared state, then park until
      // the survivors of our incident have retired us and finished their
      // restores (which read the blobs and channels we still own). The
      // drain ledger is per-incident: await_drain also requires that we
      // have actually been retired.
      note_step(ctx_, "die", "rank=" + std::to_string(me));
      record_step("die (park until survivors retire this rank)", 2.0,
                  "survivor shrink protocol (not applicable: we are the casualty)", 3.0,
                  "rank=" + std::to_string(me), "local device lost");
      dd_.recover_abort();
      job.await_drain(me);
      return kRankGone;
    case FailureKind::kPeerDeath:
      break;
  }

  // Survivor path: revoke -> agree on the incident -> retire -> abort ->
  // re-place -> resync -> restore -> barrier -> resume.
  job.revoke();

  // The incident covers every death this rank has not yet processed that
  // has manifested by now. Keyed off the LOCAL processed set, not the
  // global retirement flags: the first survivor through retires the dead
  // immediately, and later arrivals must still run the full protocol (the
  // shrink-comm collectives and the post-recovery barrier block until every
  // survivor joins) or the incident would wedge.
  sim::Time first_fail = fault::kForever;
  for (int r = 0; r < job.world_size(); ++r) {
    if (processed_.count(r) != 0) continue;
    const sim::Time ft = job.rank_fail_time(r);
    if (ft <= eng.now() && ft < first_fail) first_fail = ft;
  }
  if (first_fail == fault::kForever) {
    // A revoke with no unprocessed death behind it (e.g. a scripted
    // transient revoke_peer event): clear the flag and replay the
    // iteration. Nothing was re-placed, so no collectives are owed.
    job.clear_revoke();
    note_step(ctx_, "revoke-clear", ev.what);
    record_step("clear spurious revoke (replay iteration " + std::to_string(iter) + ")", 0.0,
                "full incident protocol (shrink + rollback)", 3.0, ev.what,
                "revoke with no unprocessed death behind it");
    return iter;
  }
  const fault::Injector* inj = ctx_.machine.fault_injector();
  const sim::Time horizon = first_fail + (inj != nullptr ? inj->detect_latency() : sim::Time{0});
  // Failure-detector bound: deaths by the horizon fold into this incident
  // on every survivor identically; later deaths form the next incident.
  eng.sleep_until(horizon);

  std::vector<int> dead;
  for (int r = 0; r < job.world_size(); ++r) {
    if (processed_.count(r) == 0 && job.rank_fail_time(r) <= horizon) dead.push_back(r);
  }
  for (const int r : dead) {
    processed_.insert(r);
    job.retire_rank(r);
    note_step(ctx_, "retire", "rank=" + std::to_string(r));
    record_step("retire rank " + std::to_string(r) + " (fold into this incident)", 2.0,
                "defer to a later incident (risk a wedged protocol)", 4.0,
                "rank=" + std::to_string(r), "death manifested within the detector horizon");
  }
  stats_.ranks_retired += dead.size();

  dd_.recover_abort();
  const std::vector<DistributedDomain::Rehome> moves = dd_.recover_replace(dead);
  simpi::Comm survivors = ctx_.comm.shrink();

  // Survivors can be a few iterations apart; agree on the max exchange
  // sequence so pairwise flow control counts from one value everywhere.
  const std::int64_t my_seq = static_cast<std::int64_t>(dd_.exchanges_done());
  std::vector<std::int64_t> seqs(static_cast<std::size_t>(survivors.size()));
  survivors.allgather(&my_seq, seqs.data(), sizeof(std::int64_t));
  std::int64_t max_seq = my_seq;
  for (const std::int64_t s : seqs) max_seq = std::max(max_seq, s);
  dd_.resync_seq(static_cast<std::uint64_t>(max_seq));

  std::int64_t back = iter;
  if (cadence_ > 0) {
    const std::int64_t k0 = store_.negotiate_floor(survivors);
    if (k0 < 0) throw std::runtime_error("recover: no commonly committed checkpoint");
    store_.restore(k0, moves);
    back = k0;
  }

  // Post-recovery barrier: every survivor has aborted its stale operations
  // and finished restoring, so the incident can close and the dying ranks
  // may depart.
  ctx_.comm.barrier();
  job.clear_revoke();
  job.release_drained(me);

  ++stats_.recoveries;
  stats_.last_mttr = eng.now() - first_fail;
  stats_.last_floor = back;
  note_step(ctx_, "shrink",
            "live=" + std::to_string(job.live_count()) + " floor=" + std::to_string(back) +
                " mttr_ns=" + std::to_string(stats_.last_mttr));
  record_step("shrink to " + std::to_string(job.live_count()) + " live + rollback to floor " +
                  std::to_string(back),
              3.0, "cold restart from iteration 0", 4.0,
              std::to_string(dead.size()) + " rank(s) retired",
              "replays " + std::to_string(iter - back) + " iteration(s), mttr_ns=" +
                  std::to_string(stats_.last_mttr));
  return back;
}

}  // namespace stencil::recover
