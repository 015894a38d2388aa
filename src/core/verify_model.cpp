#include <map>
#include <sstream>

#include "core/distributed_domain.h"
#include "core/region.h"
#include "core/tagspace.h"
#include "core/transfer_state.h"
#include "simpi/mpi.h"
#include "verify/verify.h"

/// \file verify_model.cpp
/// Lowers a plan::CompiledPlan into the verifier's ExchangeModel
/// (DESIGN.md §14) by walking the same per-transfer op lists the exchange
/// runs (core/transfer_ops.h). The local rank's lists are built from the
/// compiled artifact itself — program tags, methods, payload sizes, group
/// sizes — while every remote rank's are built from transfers re-derived
/// deterministically from one cached ExchangePlan::full over the shared
/// placement, with the local demotion table overriding the methods of shared
/// transfers. A plan that drifted from the derivation (wrong tag, wrong
/// bytes, missing side) therefore surfaces as a matching defect against its
/// peers.

namespace stencil {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// One unit of a rank's program: a transfer endpoint, or an aggregation
/// group's merged message. Trivially copyable: remote ranks build one per
/// transfer endpoint of the whole job.
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

}  // namespace

verify::ExchangeModel DistributedDomain::verify_model(const plan::CompiledPlan& p) const {
  verify::ExchangeModel m;
  m.name = p.key.str();
  m.world_size = ctx_.comm.size();
  m.ranks.resize(static_cast<std::size_t>(m.world_size));
  for (const auto& rr : tagspace::reserved_ranges()) {
    m.reserved.push_back({rr.lo, rr.hi, rr.name});
  }
  if (ctx_.tenant != nullptr) {
    // Tenant-scoped model: our data tags must stay inside our window, and
    // every other tenant's window is as reserved as the service spans —
    // check_tags rejects any tag that strays into a co-tenant's slice.
    m.tenant_scoped = true;
    m.tenant = tenant_id();
    const tagspace::Range win = tagspace::tenant_data_range(m.tenant);
    m.tenant_window = {win.lo, win.hi, win.name};
    for (int t = 0; t < tagspace::kMaxTenants; ++t) {
      if (t == m.tenant) continue;
      const tagspace::Range other = tagspace::tenant_data_range(t);
      m.reserved.push_back({other.lo, other.hi, "tenant-" + std::to_string(t) + "-data"});
    }
    m.world_rank_of.resize(static_cast<std::size_t>(ctx_.comm.size()));
    for (int r = 0; r < ctx_.comm.size(); ++r) {
      m.world_rank_of[static_cast<std::size_t>(r)] = ctx_.comm.world_rank_of(r);
    }
  }

  const int me = ctx_.comm.rank();
  const int rpn = part_rpn();
  const auto& hp = placement_->partition();

  std::size_t bpp = 0;
  for (std::size_t q : p.key.quantities) bpp += quantities_[q].elem_size;

  // Current (post-demotion) method per tag, from the realized local table.
  // Demotions of message methods are lockstep across both endpoints, so the
  // local view is authoritative for every transfer this rank shares.
  std::map<int, Method> my_method;
  for (const Transfer& t : plan_.transfers()) my_method[t.tag] = t.method;

  // Per-rank transfer lists. The local rank's comes from the compiled
  // artifact — its frozen tags, methods and bytes; remote ranks are
  // re-derived from the shared placement: one full() derivation, bucketed
  // by endpoint, yields per-rank sets identical to a for_rank() per remote
  // rank at half the cost.
  std::vector<std::vector<Item>> storage(static_cast<std::size_t>(m.world_size));
  const auto add = [&](int r, Transfer t, Method method, std::size_t bytes, bool agg,
                       bool peer_3d) -> Item& {
    Item& it = storage[static_cast<std::size_t>(r)].emplace_back();
    t.method = method;
    it.t = t;
    it.bytes = bytes;
    it.agg_member = agg;
    it.ops = xfer::ops_for(
        {method, t.src_rank == r, t.dst_rank == r, bytes, agg, staged_zero_copy_, peer_3d});
    return it;
  };
  for (const plan::TransferProgram& prog : p.programs) {
    const TransferState& x = *xfers_[prog.xfer_index];
    Transfer t = x.t;
    t.tag = prog.tag;
    add(me, t, prog.method, prog.bytes, x.aggregated && prog.method == Method::kStaged,
        prog.method == Method::kPeer && peer_use_3d(x))
        .local = prog.xfer_index;
  }
  // The world transfer list and slab element counts depend only on the
  // exchange shape, so consecutive admissions reuse the cached derivation;
  // the plan-specific parts (bytes-per-point, demoted methods) are applied
  // per call below.
  VerifyDeriv& vd = verify_deriv_;
  if (vd.placement != placement_ || vd.flags != flags_ || vd.nbhd != nbhd_ ||
      vd.boundary != boundary_ || !(vd.radius == radius_)) {
    vd.placement = placement_;
    vd.flags = flags_;
    vd.nbhd = nbhd_;
    vd.boundary = boundary_;
    vd.radius = radius_;
    vd.xfers.clear();
    const ExchangePlan ep =
        ExchangePlan::full(*placement_, rpn, flags_, nbhd_, boundary_, tenant_id());
    vd.xfers.reserve(ep.transfers().size());
    for (const Transfer& t : ep.transfers()) {
      const Region3 slab = interior_slab(hp.subdomain_size(t.src_idx), t.dir, radius_);
      vd.xfers.emplace_back(t, static_cast<std::size_t>(slab.volume()));
    }
  }
  for (const auto& [t, elems] : vd.xfers) {
    const std::size_t bytes = elems * bpp;
    if (bytes == 0) continue;  // asymmetric radius: nothing moves
    const auto it = my_method.find(t.tag);
    const Method method = it != my_method.end() ? it->second : t.method;
    // Aggregation membership is fixed at realize() from the *original*
    // specialization; demotions only add individual STAGED traffic.
    const bool agg = aggregate_remote_ && t.method == Method::kStaged;
    // Remote ranks lower no stream work, so the 3-D copy choice is moot.
    if (t.src_rank != me) add(t.src_rank, t, method, bytes, agg, false);
    if (t.dst_rank != me && t.dst_rank != t.src_rank) add(t.dst_rank, t, method, bytes, agg, false);
  }

  // Each rank's op lists lower phase by phase, in the order an exchange
  // issues them: receive groups, transfers, then send groups within each
  // phase. Remote ranks lower only their message and token ops: hazards
  // are per-rank, and their blocking structure is fully captured without
  // stream work.
  for (int r = 0; r < m.world_size; ++r) {
    std::vector<Item>& list = storage[static_cast<std::size_t>(r)];
    verify::RankProgram& rp = m.ranks[static_cast<std::size_t>(r)];
    rp.rank = r;
    // Every transfer contributes a handful of ops to each endpoint;
    // reserving up front keeps the large Op structs from being moved on
    // vector growth.
    rp.ops.reserve(list.size() * 4 + 8);
    const bool local = r == me;

    // Aggregation groups, laid out as realize() lays them out. The local
    // rank's group bytes come from the artifact, so a drifted layout shows
    // up as a matching defect against the peers' derived one.
    std::vector<xfer::AggMember> agg_sends, agg_recvs;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const Transfer& t = list[i].t;
      if (!list[i].agg_member) continue;
      if (t.src_rank == r) agg_sends.push_back({t.dst_rank, t.tag, i});
      if (t.dst_rank == r) agg_recvs.push_back({t.src_rank, t.tag, i});
    }
    const auto groups = [&](std::vector<xfer::AggMember> members, bool is_send) {
      const auto& artifact = is_send ? p.send_groups : p.recv_groups;
      const auto& realized = is_send ? send_groups_ : recv_groups_;
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
        if (local && gi < artifact.size()) msg.bytes = artifact[gi].bytes;
        if (local && gi < realized.size()) msg.group_host = &realized[gi]->host;
        msg.ops = xfer::ops_for({Method::kStaged, is_send, !is_send, msg.bytes, false, false,
                                 false, /*group=*/true});
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
      TransferState& x = *xfers_[it.local];
      if (opnd == Operand::kSrcRegion || opnd == Operand::kDstRegion) {
        const bool src = opnd == Operand::kSrcRegion;
        LocalDomain* ld = src ? x.src_ld : x.dst_ld;
        if (ld == nullptr) return;
        for (std::size_t q : p.key.quantities) {
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
    const auto lower = [&](Item& it, xfer::Phase ph, std::size_t after, vgpu::Buffer* slot_host,
                           std::size_t off, const std::vector<std::size_t>* members) {
      if (!it.ops.has(ph)) return;
      const bool group = it.group;
      const auto what = [&] { return group ? std::string("agg") : xfer::dir_str(it.t.dir); };
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
            // "done", the receiver for this generation's "data"; each
            // signals the other once its stream work is issued.
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
            const TransferState& x = *xfers_[it.local];
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
      lower(g.msg, ph, kNone, nullptr, 0, &g.members);
      // Members pack into a send group's slots and land from a receive
      // group's (a transfer to self is a member of both).
      const bool recv = g.msg.ops.has(xfer::Phase::kLand);
      if (ph != (recv ? xfer::Phase::kLand : xfer::Phase::kPack)) return;
      std::size_t off = 0;
      for (std::size_t i : g.members) {
        lower(list[i], ph, g.msg.wait, g.msg.group_host, off, nullptr);
        off += list[i].bytes;
      }
    };
    for (int ph = 0; ph <= static_cast<int>(xfer::Phase::kDrain); ++ph) {
      const auto phase = static_cast<xfer::Phase>(ph);
      for (Group& g : recv_groups) lower_group(g, phase);
      for (Item& it : list) {
        if (!it.agg_member) lower(it, phase, kNone, nullptr, 0, nullptr);
      }
      for (Group& g : send_groups) lower_group(g, phase);
    }
  }

  return m;
}

verify::Report DistributedDomain::verify_plan(const plan::CompiledPlan& p) const {
  return verify::verify(verify_model(p));
}

void DistributedDomain::set_verify_plans(bool on) {
  verify_plans_ = on;
  install_admission();
}

void DistributedDomain::install_admission() {
  if (!verify_plans_) {
    plan_cache_.set_admission(nullptr);
    return;
  }
  plan_cache_.set_admission([this](const plan::CompiledPlan& p) {
    const verify::Report r = verify_plan(p);
    if (r.clean()) return std::string{};
    std::ostringstream os;
    r.write(os);
    return os.str();
  });
}

}  // namespace stencil
