#include <algorithm>
#include <map>
#include <sstream>

#include "core/distributed_domain.h"
#include "core/region.h"
#include "core/tagspace.h"
#include "core/transfer_state.h"
#include "simpi/mpi.h"
#include "verify/verify.h"

/// \file verify_model.cpp
/// Lowers compiled plans into the verifier's ExchangeModel (DESIGN.md §14)
/// by walking the same per-transfer op lists the exchange runs
/// (core/transfer_ops.h). The job is verified once per admission key, not
/// once per rank: the first rank to admit a plan under a key derives every
/// rank's message and token ops from the shared placement (each rank in the
/// order its own realize() builds its transfers, ExchangePlan::for_rank, with
/// the admitting rank's demotions overriding shared transfers), verifies that
/// model once, and the Cluster caches the result beside the placement. Every
/// rank then lowers only its own artifact (program tags, methods, payload
/// sizes, group sizes, stream work and the memory it touches), checks that
/// its message and token ops equal its derived program, and checks its own
/// buffer hazards. A plan that drifted from the derivation (wrong tag, wrong
/// bytes, missing side) fails that check and is verified against the full
/// model, where it surfaces as a matching defect against its peers.

namespace stencil {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

verify::Box3 region_box(const Region3& r) {
  verify::Box3 b;
  const std::int64_t lo[3] = {r.origin.x, r.origin.y, r.origin.z};
  const std::int64_t ex[3] = {r.extent.x, r.extent.y, r.extent.z};
  for (int d = 0; d < 3; ++d) {
    b.lo[d] = lo[d];
    b.hi[d] = lo[d] + ex[d];
  }
  return b;
}

verify::Access flat(const vgpu::Buffer& buf, std::uint64_t off, std::uint64_t bytes, bool write) {
  verify::Access a;
  a.buffer = buf.id();
  a.write = write;
  a.offset = off;
  a.bytes = bytes;
  return a;
}

std::string token(const char* what, int tag) {
  return "colo:" + std::to_string(tag) + ":" + what;
}

std::uint64_t stream_key(const vgpu::Stream& s) {
  if (!s.valid()) return 0;
  return (static_cast<std::uint64_t>(s.device + 1) << 40) | s.id;
}

/// Stream-work names, indexed by xfer::OpKind (stream work comes first).
constexpr const char* kStreamOpNames[] = {"self", "pack", "pack", "unpack", "d2h",
                                          "h2d",  "peer-copy", "ipc-push", "3d"};

/// Whether the artifact's message and token ops are the derived program's,
/// in order, in every field a verifier pass other than the hazard check
/// reads. Stream ops have no counterpart in a derived program.
bool same_messages(const verify::RankProgram& artifact, const verify::RankProgram& derived) {
  std::size_t j = 0;
  for (const verify::Op& a : artifact.ops) {
    if (a.kind == verify::OpKind::kStream) continue;
    if (j == derived.ops.size()) return false;
    const verify::Op& d = derived.ops[j++];
    if (a.kind != d.kind || a.peer != d.peer || a.tag != d.tag || a.bytes != d.bytes ||
        a.eager != d.eager || a.token != d.token || a.gen_delta != d.gen_delta ||
        a.claims != d.claims) {
      return false;
    }
  }
  return j == derived.ops.size();
}

}  // namespace

/// Lowers one rank's transfers into its RankProgram, phase by phase in the
/// order an exchange issues them: receive groups, transfers, then send
/// groups within each phase. A derived rank (`dd` null) lowers only its
/// message and token ops: hazards are per-rank, and its blocking structure
/// is fully captured without stream work. The local rank also lowers its
/// stream work, with the memory each op touches.
struct DistributedDomain::Lowering {
  /// One unit of a rank's program: a transfer endpoint, or an aggregation
  /// group's merged message.
  struct Item {
    Transfer t;  // ranks, tag (the artifact's on the local rank), direction
    std::size_t bytes = 0;
    xfer::OpList ops;
    bool agg_member = false;             // lowered through its group
    bool group = false;                  // an aggregation group's message
    std::size_t local = kNone;           // local rank: the domain's transfer index
    vgpu::Buffer* group_host = nullptr;  // local group: its pinned buffer
    // Lowering state: the last stream op before the ready event gates the
    // send; a group's landing wait gates its members' landing.
    std::size_t ready = kNone;
    std::size_t wait = kNone;
  };

  /// A group's message and its tag-sorted members, which pack into and land
  /// from their slots of the group's buffer.
  struct Group {
    Item msg;
    std::vector<std::size_t> members;  // indices into the rank's item list
  };

  const verify::ExchangeModel& m;  // world ranks behind aggregation tags
  // Local rank only: the domain whose buffers and streams the ops touch,
  // and the artifact whose group sizes they carry.
  const DistributedDomain* dd = nullptr;
  const plan::CompiledPlan* p = nullptr;

  static Item item(int r, Transfer t, Method method, std::size_t bytes, bool agg, bool zero_copy,
                   bool peer_3d) {
    Item it;
    t.method = method;
    it.t = t;
    it.bytes = bytes;
    it.agg_member = agg;
    it.ops = xfer::ops_for(
        {method, t.src_rank == r, t.dst_rank == r, bytes, agg, zero_copy, peer_3d});
    return it;
  }

  verify::RankProgram lower(int r, std::vector<Item>& list) const;
};

verify::RankProgram DistributedDomain::Lowering::lower(int r, std::vector<Item>& list) const {
  verify::RankProgram rp;
  rp.rank = r;
  // Every transfer contributes a handful of ops to each endpoint; reserving
  // up front keeps the large Op structs from being moved on vector growth.
  rp.ops.reserve(list.size() * 4 + 8);
  const bool local = dd != nullptr;

  // Aggregation groups, laid out as realize() lays them out. The local
  // rank's group bytes come from the artifact, so a drifted layout shows up
  // as a matching defect against the peers' derived one.
  std::vector<xfer::AggMember> agg_sends, agg_recvs;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Transfer& t = list[i].t;
    if (!list[i].agg_member) continue;
    if (t.src_rank == r) agg_sends.push_back({t.dst_rank, t.tag, i});
    if (t.dst_rank == r) agg_recvs.push_back({t.src_rank, t.tag, i});
  }
  const auto groups = [&](std::vector<xfer::AggMember> members, bool is_send) {
    std::vector<Group> out;
    for (auto& [peer, indices] : xfer::aggregation_layout(std::move(members))) {
      const std::size_t gi = out.size();
      Group& g = out.emplace_back();
      Item& msg = g.msg;
      msg.group = true;
      msg.t.src_rank = is_send ? r : peer;
      msg.t.dst_rank = is_send ? peer : r;
      // Aggregation headers key off the *world* rank (matching the runtime
      // derivation) so concurrent tenants' headers never alias.
      msg.t.tag = tagspace::agg_tag(m.world_rank(msg.t.src_rank));
      for (std::size_t i : indices) msg.bytes += list[i].bytes;
      if (local) {
        const auto& artifact = is_send ? p->send_groups : p->recv_groups;
        const auto& realized = is_send ? dd->send_groups_ : dd->recv_groups_;
        if (gi < artifact.size()) msg.bytes = artifact[gi].bytes;
        if (gi < realized.size()) msg.group_host = &realized[gi]->host;
      }
      msg.ops = xfer::ops_for({Method::kStaged, is_send, !is_send, msg.bytes, false, false, false,
                               /*group=*/true});
      g.members = std::move(indices);
    }
    return out;
  };
  std::vector<Group> recv_groups = groups(std::move(agg_recvs), false);
  std::vector<Group> send_groups = groups(std::move(agg_sends), true);

  const auto emit = [&](verify::OpKind kind, const Item& it, int peer) -> verify::Op& {
    verify::Op& o = rp.ops.emplace_back();
    o.kind = kind;
    o.rank = r;
    o.peer = peer;
    o.tag = it.t.tag;
    if (kind != verify::OpKind::kTokenWait && kind != verify::OpKind::kTokenSignal) {
      o.bytes = it.bytes;
    }
    if (it.group) o.claims = tagspace::kAggRangeName;
    return o;
  };
  const auto order = [&](std::size_t from) {
    if (from != kNone) rp.order.emplace_back(from, rp.ops.size() - 1);
  };
  // Local rank: the memory an operand stands for.
  const auto touch = [&](verify::Op& o, const Item& it, xfer::Operand opnd, bool write,
                         vgpu::Buffer* slot_host, std::size_t off) {
    using xfer::Operand;
    if (opnd == Operand::kNone || opnd == Operand::kIpcPeer) return;  // not this rank's
    if (it.group) {  // a group's message moves its whole buffer
      if (it.group_host != nullptr) {
        o.accesses.push_back(flat(*it.group_host, 0, it.bytes, write));
      }
      return;
    }
    TransferState& x = *dd->xfers_[it.local];
    if (opnd == Operand::kSrcRegion || opnd == Operand::kDstRegion) {
      const bool src = opnd == Operand::kSrcRegion;
      LocalDomain* ld = src ? x.src_ld : x.dst_ld;
      if (ld == nullptr) return;
      for (std::size_t q : p->key.quantities) {
        verify::Access a;
        a.buffer = ld->data(q).id();
        a.write = write;
        a.is_box = true;
        a.box = region_box(src ? x.src_region : x.dst_region);
        o.accesses.push_back(a);
      }
      return;
    }
    const vgpu::Buffer& b = x.buffer(opnd, slot_host);
    if (!b.valid()) return;
    o.accesses.push_back(flat(b, opnd == Operand::kGroup ? off : 0, it.bytes, write));
  };
  // Lower `it`'s ops of phase `ph`. A group member passes its slot (the
  // group's buffer and offset) and the group's landing wait as `after`; a
  // group passes its members, whose readiness gates its send.
  const auto lower_item = [&](Item& it, xfer::Phase ph, std::size_t after,
                              vgpu::Buffer* slot_host, std::size_t off,
                              const std::vector<std::size_t>* members) {
    if (!it.ops.has(ph)) return;
    const bool group = it.group;
    static const std::string agg = "agg";
    const auto what = [&]() -> const std::string& { return group ? agg : xfer::dir_str(it.t.dir); };
    std::size_t last = kNone;  // last stream op on the src stream
    std::size_t edge = kNone;  // pending event edge
    const char* signal = nullptr;
    int signal_peer = -1;
    for (const xfer::Op& op : it.ops) {
      if (op.phase != ph) continue;
      switch (op.kind) {
        case xfer::OpKind::kPostRecv:
          emit(verify::OpKind::kPostRecv, it, it.t.src_rank).what = what();
          break;
        case xfer::OpKind::kWaitRecv: {
          verify::Op& o = emit(verify::OpKind::kWaitRecv, it, it.t.src_rank);
          o.what = group ? "agg" : "xfer";
          if (local) touch(o, it, op.to, true, nullptr, 0);
          after = it.wait = rp.ops.size() - 1;
          break;
        }
        case xfer::OpKind::kSend: {
          verify::Op& o = emit(verify::OpKind::kStartSend, it, it.t.dst_rank);
          o.what = what();
          if (local) touch(o, it, op.from, false, nullptr, 0);
          if (members == nullptr) {
            order(it.ready);
          } else {
            for (std::size_t i : *members) order(list[i].ready);
          }
          break;
        }
        case xfer::OpKind::kWaitSend: {
          verify::Op& o = emit(verify::OpKind::kWaitSend, it, it.t.dst_rank);
          o.what = group ? "agg" : "xfer";
          // Host payloads at or below the eager limit buffer immediately;
          // device payloads (CUDA-aware) always rendezvous.
          o.eager = op.from != xfer::Operand::kSrcPack && it.bytes <= simpi::Job::kEagerLimit;
          break;
        }
        case xfer::OpKind::kColocatedSend:
        case xfer::OpKind::kColocatedRecv: {
          // Flow control: the sender waits for the previous generation's
          // "done", the receiver for this generation's "data"; each signals
          // the other once its stream work is issued.
          const bool send = op.kind == xfer::OpKind::kColocatedSend;
          signal_peer = send ? it.t.dst_rank : it.t.src_rank;
          verify::Op& o = emit(verify::OpKind::kTokenWait, it, signal_peer);
          o.token = token(send ? "done" : "data", it.t.tag);
          o.gen_delta = send ? -1 : 0;
          after = rp.ops.size() - 1;
          signal = send ? "data" : "done";
          break;
        }
        case xfer::OpKind::kEventEdge:
          edge = last;
          break;
        case xfer::OpKind::kReady:
          it.ready = last;
          break;
        default: {  // stream work
          if (!local) break;
          const TransferState& x = *dd->xfers_[it.local];
          verify::Op& o = rp.ops.emplace_back();
          o.kind = verify::OpKind::kStream;
          o.rank = r;
          o.tag = it.t.tag;
          o.stream = stream_key(op.on_dst_stream() ? x.dst_stream : x.src_stream);
          o.what = std::string(kStreamOpNames[static_cast<int>(op.kind)]) + " " + what();
          touch(o, it, op.from, false, slot_host, off);
          touch(o, it, op.to, true, slot_host, off);
          order(after);
          order(edge);
          after = edge = kNone;
          if (!op.on_dst_stream()) last = rp.ops.size() - 1;
        }
      }
    }
    if (signal != nullptr) {
      emit(verify::OpKind::kTokenSignal, it, signal_peer).token = token(signal, it.t.tag);
    }
  };

  const auto lower_group = [&](Group& g, xfer::Phase ph) {
    lower_item(g.msg, ph, kNone, nullptr, 0, &g.members);
    // Members pack into a send group's slots and land from a receive
    // group's (a transfer to self is a member of both).
    const bool recv = g.msg.ops.has(xfer::Phase::kLand);
    if (ph != (recv ? xfer::Phase::kLand : xfer::Phase::kPack)) return;
    std::size_t off = 0;
    for (std::size_t i : g.members) {
      lower_item(list[i], ph, g.msg.wait, g.msg.group_host, off, nullptr);
      off += list[i].bytes;
    }
  };
  for (int ph = 0; ph <= static_cast<int>(xfer::Phase::kDrain); ++ph) {
    const auto phase = static_cast<xfer::Phase>(ph);
    for (Group& g : recv_groups) lower_group(g, phase);
    for (Item& it : list) {
      if (!it.agg_member) lower_item(it, phase, kNone, nullptr, 0, nullptr);
    }
    for (Group& g : send_groups) lower_group(g, phase);
  }
  return rp;
}

AdmissionKey DistributedDomain::admission_key(const plan::CompiledPlan& p) const {
  AdmissionKey k;
  k.placement = placement_;
  k.ranks_per_node = part_rpn();
  k.flags = flags_;
  k.nbhd = nbhd_;
  k.boundary = boundary_;
  k.radius = radius_;
  k.tenant_scoped = ctx_.tenant != nullptr;
  k.tenant = tenant_id();
  k.world_ranks.resize(static_cast<std::size_t>(ctx_.comm.size()));
  for (int r = 0; r < ctx_.comm.size(); ++r) {
    k.world_ranks[static_cast<std::size_t>(r)] = ctx_.comm.world_rank_of(r);
  }
  for (std::size_t q : p.key.quantities) k.bytes_per_point += quantities_[q].elem_size;
  k.aggregated = aggregate_remote_;
  k.staged_zero_copy = staged_zero_copy_;
  // Demotions of message methods are lockstep across both endpoints, so the
  // local view of every transfer this rank shares is authoritative: record
  // where the realized table departs from a fresh derivation of it.
  const ExchangePlan fresh = ExchangePlan::for_rank(*placement_, ctx_.comm.rank(), part_rpn(),
                                                    flags_, nbhd_, boundary_, tenant_id());
  std::map<int, Method> derived;
  for (const Transfer& t : fresh.transfers()) derived.emplace(t.tag, t.method);
  for (const auto& xp : xfers_) {
    const Transfer& t = xp->t;
    const auto it = derived.find(t.tag);
    if (it != derived.end() && it->second != t.method) k.demotions.emplace_back(t.tag, t.method);
  }
  std::sort(k.demotions.begin(), k.demotions.end());
  return k;
}

JobAdmission DistributedDomain::derive_job(const AdmissionKey& k) {
  JobAdmission job;
  verify::ExchangeModel& m = job.model;
  m.world_size = static_cast<int>(k.world_ranks.size());
  m.ranks.resize(k.world_ranks.size());
  for (const auto& rr : tagspace::reserved_ranges()) {
    m.reserved.push_back({rr.lo, rr.hi, rr.name});
  }
  if (k.tenant_scoped) {
    // Tenant-scoped model: our data tags must stay inside our window, and
    // every other tenant's window is as reserved as the service spans —
    // check_tags rejects any tag that strays into a co-tenant's slice.
    m.tenant_scoped = true;
    m.tenant = k.tenant;
    const tagspace::Range win = tagspace::tenant_data_range(m.tenant);
    m.tenant_window = {win.lo, win.hi, win.name};
    for (int t = 0; t < tagspace::kMaxTenants; ++t) {
      if (t == m.tenant) continue;
      const tagspace::Range other = tagspace::tenant_data_range(t);
      m.reserved.push_back({other.lo, other.hi, "tenant-" + std::to_string(t) + "-data"});
    }
    m.world_rank_of = k.world_ranks;
  }

  const auto& hp = k.placement->partition();
  const auto demoted = [&k](const Transfer& t) {
    const auto d = std::lower_bound(k.demotions.begin(), k.demotions.end(), t.tag,
                                    [](const auto& e, int tag) { return e.first < tag; });
    return d != k.demotions.end() && d->first == t.tag ? d->second : t.method;
  };
  for (int r = 0; r < m.world_size; ++r) {
    const ExchangePlan ep = ExchangePlan::for_rank(*k.placement, r, k.ranks_per_node, k.flags,
                                                   k.nbhd, k.boundary, k.tenant);
    std::vector<Lowering::Item> list;
    list.reserve(ep.transfers().size());
    for (const Transfer& t : ep.transfers()) {
      const Region3 slab = interior_slab(hp.subdomain_size(t.src_idx), t.dir, k.radius);
      const std::size_t bytes = static_cast<std::size_t>(slab.volume()) * k.bytes_per_point;
      if (bytes == 0) continue;  // asymmetric radius: nothing moves
      // Aggregation membership is fixed at realize() from the *original*
      // specialization; demotions only add individual STAGED traffic.
      // Derived ranks lower no stream work, so the 3-D copy choice is moot.
      list.push_back(Lowering::item(r, t, demoted(t), bytes,
                                    k.aggregated && t.method == Method::kStaged,
                                    k.staged_zero_copy, false));
    }
    m.ranks[static_cast<std::size_t>(r)] = Lowering{m}.lower(r, list);
  }
  job.verdict = verify::verify(m);
  return job;
}

std::shared_ptr<const JobAdmission> DistributedDomain::job_admission(
    const plan::CompiledPlan& p) const {
  const AdmissionKey key = admission_key(p);
  return ctx_.cluster.admission_cached(key, [&key] { return derive_job(key); });
}

verify::RankProgram DistributedDomain::lower_artifact(const plan::CompiledPlan& p,
                                                      const verify::ExchangeModel& job) const {
  const int me = ctx_.comm.rank();
  std::vector<Lowering::Item> list;
  list.reserve(p.programs.size());
  for (const plan::TransferProgram& prog : p.programs) {
    const TransferState& x = *xfers_[prog.xfer_index];
    Transfer t = x.t;
    t.tag = prog.tag;
    list.push_back(Lowering::item(me, t, prog.method, prog.bytes,
                                  x.aggregated && prog.method == Method::kStaged,
                                  staged_zero_copy_,
                                  prog.method == Method::kPeer && peer_use_3d(x)));
    list.back().local = prog.xfer_index;
  }
  return Lowering{job, this, &p}.lower(me, list);
}

verify::ExchangeModel DistributedDomain::verify_model(const plan::CompiledPlan& p) const {
  const std::shared_ptr<const JobAdmission> job = job_admission(p);
  verify::ExchangeModel m = job->model;
  m.name = p.key.str();
  m.ranks[static_cast<std::size_t>(ctx_.comm.rank())] = lower_artifact(p, job->model);
  return m;
}

verify::Report DistributedDomain::verify_plan(const plan::CompiledPlan& p) const {
  return verify::verify(verify_model(p));
}

std::string DistributedDomain::admission_report(const plan::CompiledPlan& p) const {
  const std::shared_ptr<const JobAdmission> job = job_admission(p);
  verify::ExchangeModel own;  // this rank's program alone
  own.ranks.push_back(lower_artifact(p, job->model));
  verify::Report r;
  const auto me = static_cast<std::size_t>(ctx_.comm.rank());
  if (job->verdict.clean() && same_messages(own.ranks.front(), job->model.ranks[me])) {
    // The full model is the clean job model with this rank's stream work
    // spliced into its program. Stream ops are not blocking targets and
    // carry no messages, so matching, tags and deadlock stay clean; only
    // this rank's program carries accesses, so its hazards are the model's.
    verify::check_hazards(own, r);
  } else {
    ++ctx_.cluster.admission_counts().fallbacks;
    r = verify_plan(p);
  }
  if (r.clean()) return {};
  std::ostringstream os;
  r.write(os);
  return os.str();
}

}  // namespace stencil
