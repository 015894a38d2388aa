#include "core/distributed_domain.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "core/tagspace.h"
#include "core/transfer_state.h"
#include "fault/fault.h"

namespace stencil {

namespace {

/// Setup message a COLOCATED receiver sends its sender: the exported
/// buffer handle plus the event channel's address (our cudaIpcEventHandle,
/// opaque on the wire just as CUDA's is).
struct ColoSetupMsg {
  vgpu::IpcMemHandle handle;
  void* channel;
};

int setup_tag(const Transfer& t) { return tagspace::setup_tag(t.tag); }

/// Tag for the aggregated message from `src_rank` (a rank of `comm`);
/// (src, dst) channels keep it unique, and the tagspace layout keeps it
/// clear of data and setup tags. Derived from the *world* rank so the
/// header tags of concurrent tenants (whose sub-ranks all start at 0)
/// never alias — identical to the sub-rank for solo jobs.
int agg_tag(const simpi::Comm& comm, int src_rank) {
  return tagspace::agg_tag(comm.world_rank_of(src_rank));
}

}  // namespace

DistributedDomain::~DistributedDomain() = default;

DistributedDomain::DistributedDomain(RankCtx& ctx, Dim3 domain)
    : ctx_(ctx), domain_(domain), sched_(std::make_unique<Schedule>()) {
  if (domain_.x <= 0 || domain_.y <= 0 || domain_.z <= 0) {
    throw std::invalid_argument("DistributedDomain: domain extents must be positive");
  }
  plan_cache_.set_admission([this](const plan::CompiledPlan& p) { return admission_report(p); });
}

void DistributedDomain::require_unrealized(const char* what) const {
  if (realized_) throw std::logic_error(std::string(what) + " after realize()");
}

void DistributedDomain::set_radius(Radius r) {
  require_unrealized("set_radius");
  if (r.min() < 0 || r.max() < 1) {
    throw std::invalid_argument("set_radius: widths must be >= 0 with at least one > 0");
  }
  radius_ = r;
}

void DistributedDomain::set_methods(MethodFlags f) {
  require_unrealized("set_methods");
  if (!any(f & (MethodFlags::kStaged | MethodFlags::kCudaAwareMpi))) {
    throw std::invalid_argument("set_methods: need STAGED or CUDA-aware MPI as the remote method");
  }
  if (any(f & MethodFlags::kCudaAwareMpi) && !ctx_.machine.arch().cuda_aware_mpi) {
    throw std::invalid_argument("set_methods: platform MPI is not CUDA-aware");
  }
  flags_ = f;
}

void DistributedDomain::set_placement(PlacementStrategy s) {
  require_unrealized("set_placement");
  strategy_ = s;
}

void DistributedDomain::set_neighborhood(Neighborhood n) {
  require_unrealized("set_neighborhood");
  nbhd_ = n;
}

void DistributedDomain::set_boundary(Boundary b) {
  require_unrealized("set_boundary");
  boundary_ = b;
}

void DistributedDomain::set_remote_aggregation(bool on) {
  require_unrealized("set_remote_aggregation");
  aggregate_remote_ = on;
}

void DistributedDomain::set_pack_mode(PackMode m) {
  require_unrealized("set_pack_mode");
  pack_mode_ = m;
}

void DistributedDomain::set_staged_zero_copy(bool on) {
  require_unrealized("set_staged_zero_copy");
  staged_zero_copy_ = on;
}

void DistributedDomain::set_persistent(bool on) {
  if (inflight_.active) throw std::logic_error("set_persistent while an exchange is in flight");
  persistent_ = on;
}

std::vector<Transfer> DistributedDomain::transfers() const {
  std::vector<Transfer> out;
  out.reserve(xfers_.size());
  for (const auto& xp : xfers_) out.push_back(xp->t);
  return out;
}

std::map<Method, std::pair<int, std::size_t>> DistributedDomain::method_bytes_histogram() const {
  std::map<Method, std::pair<int, std::size_t>> h;
  for (const auto& xp : xfers_) {
    auto& e = h[xp->t.method];
    ++e.first;
    e.second += xp->bytes;
  }
  return h;
}

std::size_t DistributedDomain::add_data_bytes(const std::string& name, std::size_t elem_size) {
  require_unrealized("add_data");
  if (elem_size == 0) throw std::invalid_argument("add_data: zero element size");
  quantities_.push_back(Quantity{name, elem_size});
  return quantities_.size() - 1;
}

const Placement& DistributedDomain::placement() const {
  if (!placement_) throw std::logic_error("placement() before realize()");
  return *placement_;
}

LocalDomain* DistributedDomain::local_by_subdomain(Dim3 idx) {
  if (placement_ == nullptr) return nullptr;
  const auto it =
      local_index_by_subdomain_.find(idx.linearize(placement_->partition().global_extent()));
  return it == local_index_by_subdomain_.end() ? nullptr : locals_[it->second].get();
}

void DistributedDomain::realize() {
  require_unrealized("realize");
  if (quantities_.empty()) throw std::logic_error("realize: no quantities added");
  for (const auto& q : quantities_) bytes_per_point_ += q.elem_size;

  // Phase 1+2 of the paper's setup: partition and placement (shared across
  // ranks — deterministic, needs no communication). A tenant partitions
  // over its virtual shape (vnodes x gpus_per_vnode) instead of the
  // physical machine; the first vnode's slot base anchors the bandwidth
  // lookups (slices are slot-homogeneous to a good approximation on the
  // symmetric archetypes).
  const core::TenantView* tv = ctx_.tenant;
  if (tv != nullptr) {
    tv->validate();
    if (ctx_.comm.size() != tv->world_size()) {
      throw std::invalid_argument("realize: tenant communicator has " +
                                  std::to_string(ctx_.comm.size()) + " ranks, view expects " +
                                  std::to_string(tv->world_size()));
    }
  }
  placement_ = ctx_.cluster.placement_cached(domain_, radius_, bytes_per_point_, nbhd_, strategy_,
                                             boundary_, part_nodes(), part_gpn(),
                                             tv != nullptr ? tv->gpu_base[0] : 0);
  const auto& hp = placement_->partition();

  // Materialize this rank's subdomains (the live occupancy of each GPU —
  // one subdomain per GPU until recovery re-homing adds adoptees).
  // Placement speaks virtual (partition) coordinates; LocalDomain and the
  // runtime speak physical GPU ids.
  const int phys_gpn = ctx_.machine.gpus_per_node();
  const int vnode = part_node();
  for (int ggpu : ctx_.gpus) {
    const int vlocal = tv != nullptr ? tv->vlocal(vnode, ggpu % phys_gpn) : ggpu % phys_gpn;
    for (const Dim3 idx : placement_->subdomains_on(vnode, vlocal)) {
      const Dim3 sz = hp.subdomain_size(idx);
      const Dim3 origin = hp.subdomain_origin(idx);
      locals_.push_back(std::make_unique<LocalDomain>(ctx_.rt, ggpu, idx, origin, sz, radius_,
                                                      quantities_));
      local_index_by_subdomain_[idx.linearize(hp.global_extent())] = locals_.size() - 1;
    }
  }

  // Enable peer access between my GPUs and every capable same-node GPU this
  // job owns (needed for PEER and for direct COLOCATED copies). A tenant
  // only touches its own slice — peer capability on GPUs of co-tenants is
  // their business.
  const int slice_lo = ctx_.node() * phys_gpn + (tv != nullptr ? tv->gpu_base[vnode] : 0);
  const int slice_hi = slice_lo + part_gpn();
  for (int g : ctx_.gpus) {
    for (int h = slice_lo; h < slice_hi; ++h) {
      if (g != h && ctx_.rt.can_access_peer(g, h)) {
        ctx_.rt.enable_peer_access(g, h);
        ctx_.rt.enable_peer_access(h, g);
      }
    }
  }

  // Phase 3: capability specialization. The transfers are derived in
  // partition (virtual) GPU coordinates with tags inside this tenant's tag
  // window, then translated to physical GPU ids so every downstream
  // consumer — streams, buffers, machine cost queries, IPC — sees real
  // hardware.
  ExchangePlan derived = ExchangePlan::for_rank(*placement_, ctx_.comm.rank(), part_rpn(),
                                                flags_, nbhd_, boundary_, tenant_id());
  if (tv != nullptr) {
    derived.map_gpus([tv](int vgpu) { return tv->phys_gpu(vgpu); });
  }
  for (const Transfer& t : derived.transfers()) {
    if (auto xp = make_transfer_state(t)) xfers_.push_back(std::move(xp));
  }
  record_specialization();
  build_aggregation_groups();
  colocated_setup();
  ctx_.comm.barrier();
  realized_ = true;
}

void DistributedDomain::build_aggregation_groups() {
  if (!aggregate_remote_ && ledger() == nullptr) return;
  // Group staged transfers by peer rank, separately for the send and
  // receive sides, with the layout verify_model derives for every rank.
  std::vector<xfer::AggMember> sends, recvs;
  for (std::size_t i = 0; i < xfers_.size(); ++i) {
    const TransferState& x = *xfers_[i];
    if (x.t.method != Method::kStaged || x.bytes == 0) continue;
    if (x.i_send) sends.push_back({x.t.dst_rank, x.t.tag, i});
    if (x.i_recv) recvs.push_back({x.t.src_rank, x.t.tag, i});
  }
  const auto send_layout = xfer::aggregation_layout(sends);
  const auto recv_layout = xfer::aggregation_layout(recvs);
  record_aggregation(sends.size() + recvs.size(), send_layout.size() + recv_layout.size());
  if (!aggregate_remote_) return;
  const auto build = [&](const auto& layout, std::vector<std::unique_ptr<AggGroup>>& out) {
    for (const auto& [peer, indices] : layout) {
      auto g = std::make_unique<AggGroup>();
      g->peer_rank = peer;
      for (std::size_t i : indices) {
        TransferState* x = xfers_[i].get();
        x->aggregated = true;
        g->members.emplace_back(x, 0);
        g->bytes += x->bytes;
      }
      g->host = ctx_.rt.alloc_pinned_host(ctx_.node(), g->bytes);
      out.push_back(std::move(g));
    }
  };
  build(send_layout, send_groups_);
  build(recv_layout, recv_groups_);
}

std::unique_ptr<DistributedDomain::TransferState> DistributedDomain::make_transfer_state(
    const Transfer& t) {
  const auto& hp = placement_->partition();
  auto xp = std::make_unique<TransferState>();
  TransferState& x = *xp;
  x.t = t;
  x.i_send = t.src_rank == ctx_.comm.rank();
  x.i_recv = t.dst_rank == ctx_.comm.rank();
  const Dim3 src_sz = hp.subdomain_size(t.src_idx);
  const Dim3 dst_sz = hp.subdomain_size(t.dst_idx);
  x.src_region = interior_slab(src_sz, t.dir, radius_);
  x.dst_region = halo_slab(dst_sz, t.dir, radius_);
  if (x.src_region.extent != x.dst_region.extent) {
    throw std::logic_error("transfer " + t.src_idx.str() + "->" + t.dst_idx.str() + " dir " +
                           xfer::dir_str(t.dir) + ": slab shapes differ");
  }
  x.bytes = static_cast<std::size_t>(x.src_region.volume()) * bytes_per_point_;
  if (x.bytes == 0) return nullptr;  // asymmetric radius: nothing moves this way
  if (x.i_send) x.src_ld = local_by_subdomain(t.src_idx);
  if (x.i_recv) x.dst_ld = local_by_subdomain(t.dst_idx);

  ensure_buffers(x);
  return xp;
}

void DistributedDomain::colocated_setup() {
  auto& comm = ctx_.comm;
  // Receivers export their packed buffer and event channel. Eager messages
  // complete immediately, so every rank can post all of its setup sends
  // before receiving any.
  for (auto& xp : xfers_) {
    TransferState& x = *xp;
    if (x.t.method != Method::kColocated || !x.i_recv) continue;
    ColoSetupMsg msg{ctx_.rt.ipc_get_mem_handle(x.dst_pack), x.channel.get()};
    comm.send(simpi::Payload::of_values(&msg, 1), x.t.src_rank, setup_tag(x.t));
  }
  for (auto& xp : xfers_) {
    TransferState& x = *xp;
    if (x.t.method != Method::kColocated || !x.i_send) continue;
    ColoSetupMsg msg{};
    comm.recv(simpi::Payload::of_values(&msg, 1), x.t.dst_rank, setup_tag(x.t));
    x.peer_channel = static_cast<IpcEventChannel*>(msg.channel);
    x.mapped = ctx_.rt.ipc_open_mem_handle(msg.handle, x.t.src_gpu);
  }
}

void DistributedDomain::record_specialization() {
  explain::Ledger* led = ledger();
  if (led == nullptr) return;
  const sim::Time now = ctx_.engine().now();
  for (const auto& [m, nb] : method_bytes_histogram()) {  // (transfers, bytes)
    explain::DecisionRecord rec;
    rec.kind = explain::DecisionKind::kSpecialization;
    rec.at = now;
    rec.actor = ctx_.comm.rank();
    rec.subject = std::to_string(nb.first) + " transfers, " + std::to_string(nb.second) + " bytes";
    rec.chosen = to_string(m);
    rec.chosen_score = static_cast<double>(static_cast<int>(m));
    if (m != Method::kStaged) {
      // Every rung could instead have taken the universal fallback; the
      // positive delta is how far up the ladder the capability check got.
      rec.rejected.push_back({"staged (universal fallback)",
                              static_cast<double>(static_cast<int>(Method::kStaged))});
    } else {
      rec.rejected.push_back({"cuda-aware-mpi (capability absent or disabled)",
                              static_cast<double>(static_cast<int>(Method::kCudaAwareMpi))});
    }
    rec.detail = "score = specialization rung (0 kernel ... 4 staged; lower is better)";
    led->append(std::move(rec));
  }
}

void DistributedDomain::record_aggregation(std::uint64_t msgs, std::size_t groups) {
  explain::Ledger* led = ledger();
  if (led == nullptr || msgs == 0) return;  // no staged traffic makes aggregation moot
  const auto grouped = static_cast<double>(groups);
  explain::DecisionRecord rec;
  rec.kind = explain::DecisionKind::kAggregation;
  rec.at = ctx_.engine().now();
  rec.actor = ctx_.comm.rank();
  rec.subject = std::to_string(msgs) + " staged transfers";
  if (aggregate_remote_) {
    rec.chosen = "on (one message per peer per direction)";
    rec.chosen_score = grouped;
    rec.rejected.push_back({"off (one message per transfer)", static_cast<double>(msgs)});
  } else {
    rec.chosen = "off (one message per transfer)";
    rec.chosen_score = static_cast<double>(msgs);
    rec.rejected.push_back({"on (one message per peer per direction)", grouped});
  }
  rec.detail = "score = staged MPI messages per exchange";
  led->append(std::move(rec));
}

void DistributedDomain::record_demotion(const TransferState& x, Method from, Method to) {
  explain::Ledger* led = ledger();
  if (led == nullptr) return;
  explain::DecisionRecord rec;
  rec.kind = explain::DecisionKind::kDemotion;
  rec.at = ctx_.engine().now();
  rec.actor = ctx_.comm.rank();
  rec.subject = "tag=" + std::to_string(x.t.tag) + " (" + std::to_string(x.bytes) + " bytes)";
  rec.chosen = to_string(to);
  rec.chosen_score = static_cast<double>(static_cast<int>(to));
  // Negative delta: the revoked rung was better, the fault forced the move.
  rec.rejected.push_back({std::string(to_string(from)) + " (capability revoked)",
                          static_cast<double>(static_cast<int>(from))});
  rec.detail = "fault-forced fail-down; dirties this tag's frozen programs in every cached plan";
  led->append(std::move(rec));
}

void DistributedDomain::demote_transfer(TransferState& x, Method target) {
  const Method from = x.t.method;
  record_demotion(x, from, target);
  if (auto* rec = ctx_.cluster.recorder()) {
    const sim::Time now = ctx_.engine().now();
    rec->record("fault",
                "demote tag=" + std::to_string(x.t.tag) + " " + to_string(from) + "->" +
                    to_string(target),
                now, now);
  }
  x.t.method = target;
  if (auto* tel = ctx_.cluster.telemetry()) {
    tel->on_demotion(x.t.tag, to_string(from), to_string(target), ctx_.engine().now());
  }
  // The specialization table changed shape: version it and dirty the
  // transfer's frozen programs in every cached plan. The next acquire
  // rebuilds only those entries (partial invalidation, not a recompile).
  ++topo_epoch_;
  plan_cache_.invalidate_tag(x.t.tag);
  ensure_buffers(x);
  lower(x);
}

bool DistributedDomain::peer_use_3d(const TransferState& x) const {
  bool use_3d = pack_mode_ == PackMode::kMemcpy3D;
  if (pack_mode_ == PackMode::kAuto) {
    const auto& arch = ctx_.machine.arch();
    const double link = arch.bw_nvlink_gpu_gpu * arch.eff_nvlink;  // peer-pair estimate
    const double pack_bw = arch.bw_gpu_mem * arch.eff_pack;
    const double b = static_cast<double>(x.active_bytes);
    const double kernel_est =
        2.0 * (sim::to_seconds(arch.lat_kernel) + b / (pack_bw * (1ull << 30))) +
        sim::to_seconds(arch.lat_gpu_copy) + b / (link * (1ull << 30));
    const double eff = ctx_.machine.strided_efficiency(x.src_ld->row_bytes(x.src_region, 0));
    const double strided_est =
        static_cast<double>(active_qs_.size()) * sim::to_seconds(arch.lat_gpu_copy) +
        b / (link * eff * (1ull << 30));
    use_3d = strided_est < kernel_est;
  }
  return use_3d;
}

void DistributedDomain::ensure_buffers(TransferState& x) {
  // KERNEL works in place on one stream; every other method packs on both
  // ends, and STAGED also stages through pinned host memory.
  auto& rt = ctx_.rt;
  const bool packs = x.t.method != Method::kKernel;
  const auto side = [&](int gpu, vgpu::Stream& s, vgpu::Buffer& pack, vgpu::Buffer& host) {
    if (!s.valid()) s = rt.create_stream(gpu);
    if (packs && !pack.valid()) pack = rt.alloc_device(gpu, x.bytes);
    if (x.t.method == Method::kStaged && !host.valid()) {
      host = rt.alloc_pinned_host(ctx_.machine.node_of(gpu), x.bytes);
    }
  };
  if (x.i_send) side(x.t.src_gpu, x.src_stream, x.src_pack, x.src_host);
  if (x.i_recv && packs) side(x.t.dst_gpu, x.dst_stream, x.dst_pack, x.dst_host);
  if (x.t.method == Method::kColocated && x.i_recv && x.channel == nullptr) {
    x.channel = std::make_unique<IpcEventChannel>();
  }
}

void DistributedDomain::maybe_respecialize() {
  const fault::Injector* inj = ctx_.machine.fault_injector();
  if (inj == nullptr || !inj->active()) return;
  const sim::Time now = ctx_.engine().now();
  for (auto& xp : xfers_) {
    TransferState& x = *xp;
    Method target = x.t.method;
    switch (x.t.method) {
      case Method::kPeer:
        // Peer access between distinct GPUs revoked: the direct copy path
        // is gone. COLOCATED does not apply within one rank, so fall all
        // the way down to STAGED (MPI to self over shared memory). A pair
        // that is not peer-capable (a rank's GPUs on different sockets)
        // never had peer access enabled, so it has none to lose.
        if (x.t.src_gpu != x.t.dst_gpu && ctx_.rt.can_access_peer(x.t.src_gpu, x.t.dst_gpu) &&
            !ctx_.rt.peer_enabled(x.t.src_gpu, x.t.dst_gpu)) {
          target = Method::kStaged;
        }
        break;
      case Method::kCudaAwareMpi:
        // The MPI library lost its CUDA-awareness (e.g. transport fallback
        // after a fault): stop handing it device pointers.
        if (inj->cuda_aware_disabled(now)) target = Method::kStaged;
        break;
      default:
        // KERNEL and STAGED have no capability to lose; COLOCATED staleness
        // is detected by the sender at copy time (Phase 2) because only the
        // mapping's owner knows when it was opened.
        break;
    }
    if (target != x.t.method) {
      demote_transfer(x, target);
    }
  }
}

void DistributedDomain::exchange() {
  exchange_start();
  exchange_finish();
}

void DistributedDomain::exchange(const std::vector<std::size_t>& quantities) {
  exchange_start(quantities);
  exchange_finish();
}

void DistributedDomain::exchange_start() {
  std::vector<std::size_t> all(quantities_.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  exchange_start(all);
}

void DistributedDomain::exchange_start(const std::vector<std::size_t>& quantities) {
  if (!realized_) throw std::logic_error("exchange() before realize()");
  if (inflight_.active) throw std::logic_error("exchange_start() while an exchange is in flight");
  // A pending revocation means some peer is already in recovery. Abort into
  // recovery here instead of posting requests the recovering peers will
  // never answer — the exchange is the collective heartbeat every rank
  // passes through, so no survivor can miss the incident.
  if (ctx_.comm.job().revoked()) {
    ctx_.comm.job().fail(simpi::TransportError::Code::kRevoked, -1, -1,
                         "exchange_start: communicator revoked (recovery pending)");
  }
  if (quantities.empty()) throw std::invalid_argument("exchange: empty quantity list");
  for (std::size_t i = 0; i < quantities.size(); ++i) {
    if (quantities[i] >= quantities_.size() || (i > 0 && quantities[i] <= quantities[i - 1])) {
      throw std::invalid_argument(
          "exchange: quantity indices must be strictly increasing and in range");
    }
  }
  if (quantities != active_qs_) {
    active_qs_ = quantities;
    sched_->epoch = Schedule::kUnbuilt;
  }
  // Fault degradation: re-check capabilities at every exchange boundary and
  // demote transfers whose method can no longer run (§III-C, downward only).
  maybe_respecialize();
  // Demotions and recovery bump the epoch; a steady job lowers its exchange
  // once per quantity list.
  if (sched_->epoch != topo_epoch_) build_schedule();

  inflight_.active = true;
  ++seq_;
  inflight_.start_time = ctx_.engine().now();
  ctx_.comm.job().exchange_begin(ctx_.comm.world_rank(), seq_);
  if (auto* tel = ctx_.cluster.telemetry()) {
    for (const auto& xp : xfers_) {
      if (!xp->i_send || xp->active_bytes == 0) continue;
      tel->flight().log(telemetry::EventKind::kTransfer, inflight_.start_time,
                        "tag=" + std::to_string(xp->t.tag), to_string(xp->t.method),
                        xp->active_bytes);
    }
  }
  // Planned mode: replay (or first compile, then replay) the frozen
  // schedule for this configuration instead of interpreting the op lists.
  plan::CompiledPlan* p = nullptr;
  if (persistent_) {
    try {
      p = &acquire_plan();
    } catch (const plan::AdmissionError&) {
      // The rejected plan never ran and nothing was posted: the domain is
      // idle again and this exchange does not count.
      inflight_ = InFlight{};
      --seq_;
      throw;
    }
    cur_plan_ = p;
    ++p->replays;
    ++plan_cache_.stats().replays;
    if (auto* tel = ctx_.cluster.telemetry()) tel->on_plan_event("replay");
  }
  auto& comm = ctx_.comm;
  auto& rt = ctx_.rt;

  // --- Phase 0: post every receive up front (maximizes matching), the
  // aggregated ones first. A plan re-arms its persistent receives and
  // remembers each one's landing graph.
  if (p != nullptr) {
    for (plan::GroupProgram& g : p->recv_groups) {
      comm.start(g.req);
      inflight_.recv_reqs.push_back(g.req);
      inflight_.recv_graphs.push_back(&g.graph);
    }
    for (plan::TransferProgram& prog : p->programs) {
      if (!prog.recv_req.valid()) continue;
      comm.start(prog.recv_req);
      inflight_.recv_reqs.push_back(prog.recv_req);
      inflight_.recv_graphs.push_back(&prog.recv_graph);
    }
  } else {
    for (auto& gp : recv_groups_) {
      gp->req = comm.irecv(simpi::Payload::of(gp->host, 0, gp->active_bytes), gp->peer_rank,
                           agg_tag(comm, gp->peer_rank));
      inflight_.recv_reqs.push_back(gp->req);
      inflight_.recv_map.emplace_back(nullptr, gp.get());
    }
    run_steps(xfer::Phase::kPost);
  }

  // --- Phase 1: pure-CUDA local transfers (KERNEL, PEER). A plan launches
  // each frozen chain: the sender graphs with no message to start.
  if (p != nullptr) {
    for (plan::TransferProgram& prog : p->programs) {
      if (prog.send_graph.valid() && !prog.send_req.valid()) rt.launch_graph(prog.send_graph);
    }
  } else {
    run_steps(xfer::Phase::kLocal);
  }

  // --- Phase 2: COLOCATED senders, interpreted in both modes (their flow
  // control is generation-dependent). A stale mapping demotes the transfer
  // and queues a fallback send; demote_transfer dirties its programs, so
  // the next acquire rebuilds them as persistent STAGED programs.
  run_steps(xfer::Phase::kColocatedSend);

  // --- Phase 3: STAGED / CUDA-aware senders enqueue pack (+ D2H). --------
  auto& pending = inflight_.pending_sends;
  if (p != nullptr) {
    for (plan::TransferProgram& prog : p->programs) {
      if (prog.send_req.valid()) rt.launch_graph(prog.send_graph);
    }
    for (plan::GroupProgram& g : p->send_groups) rt.launch_graph(g.graph);
  } else {
    // Aggregation members pack with their group below. A COLOCATED fallback
    // packed and queued its send in Phase 2; the schedule, built while it
    // was COLOCATED, has no Phase 3 steps for it.
    for (const Step& s : (*sched_)[xfer::Phase::kPack]) {
      run_op(*s.x, *s.op);
      // The ready event closes a sender's pack: queue its send.
      if (s.op->kind == xfer::OpKind::kReady) {
        pending.emplace_back(s.x->ready_ev.completed_at, s.x);
      }
    }
    // Aggregated STAGED sends: every member packs and stages into its slot
    // of the shared buffer; the group is ready when its slowest member is.
    for (auto& gp : send_groups_) {
      sim::Time ready = 0;
      for (auto& [x, off] : gp->members) {
        run_phase(*x, xfer::Phase::kPack, Slot{&gp->host, off});
        ready = std::max(ready, x->ready_ev.completed_at);
      }
      inflight_.pending_group_sends.emplace_back(ready, gp.get());
    }
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::stable_sort(inflight_.pending_group_sends.begin(), inflight_.pending_group_sends.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
}

namespace {

/// An interpreted COLOCATED step: it runs the rest of its phase itself.
bool takes_phase(xfer::OpKind k) {
  return k == xfer::OpKind::kColocatedSend || k == xfer::OpKind::kColocatedRecv;
}

}  // namespace

void DistributedDomain::build_schedule() {
  std::size_t active_bpp = 0;
  for (std::size_t q : active_qs_) active_bpp += quantities_[q].elem_size;
  for (auto& xp : xfers_) {
    xp->active_bytes = static_cast<std::size_t>(xp->src_region.volume()) * active_bpp;
  }
  for (auto groups : {&send_groups_, &recv_groups_}) {
    for (auto& gp : *groups) {
      gp->active_bytes = 0;
      for (auto& [x, off] : gp->members) {
        off = gp->active_bytes;
        gp->active_bytes += x->active_bytes;
      }
    }
  }
  for (auto& xp : xfers_) lower(*xp);
  // Phase 5 lands in completion order and phases 4 and 7 follow the
  // requests, so only the other five are walked.
  using P = xfer::Phase;
  for (P phase : {P::kPost, P::kLocal, P::kColocatedSend, P::kPack, P::kColocatedRecv}) {
    std::vector<Step>& steps = (*sched_)[phase];
    steps.clear();
    for (auto& xp : xfers_) {
      if (!xp->ops.has(phase) || (phase == P::kPack && xp->aggregated)) continue;
      for (const xfer::Op& op : xp->ops) {
        if (op.phase != phase) continue;
        steps.push_back({xp.get(), &op});
        if (takes_phase(op.kind)) break;
      }
    }
    steps.shrink_to_fit();
  }
  sched_->epoch = topo_epoch_;
}

void DistributedDomain::run_steps(xfer::Phase phase) {
  for (const Step& s : (*sched_)[phase]) run_op(*s.x, *s.op);
}

void DistributedDomain::lower(TransferState& x) const {
  x.ops = xfer::ops_for({x.t.method, x.i_send, x.i_recv, x.active_bytes, x.aggregated,
                         staged_zero_copy_, x.t.method == Method::kPeer && peer_use_3d(x)});
  // Phantom memory is timing only: a kernel moves bytes only when its
  // subdomain storage and its pack or staging buffer are materialized.
  const auto real = [](const LocalDomain* ld) { return ld != nullptr && ld->materialized(); };
  const auto real_buf = [&x](xfer::Operand o) {
    return x.buffer(o).mode() == vgpu::MemMode::kMaterialized;
  };
  x.bodies = 0;
  unsigned bit = 1;
  for (const xfer::Op& op : x.ops) {
    bool body = false;
    switch (op.kind) {
      case xfer::OpKind::kSelf: body = real(x.src_ld); break;
      case xfer::OpKind::kPack:
      case xfer::OpKind::kPackZeroCopy: body = real(x.src_ld) && real_buf(op.to); break;
      case xfer::OpKind::kUnpack: body = real(x.dst_ld) && real_buf(op.from); break;
      case xfer::OpKind::kCopy3D: body = real(x.src_ld) && real(x.dst_ld); break;
      default: break;  // copies and events have no body
    }
    if (body) x.bodies = static_cast<std::uint16_t>(x.bodies | bit);
    bit <<= 1;
  }
}

void DistributedDomain::run_phase(TransferState& x, xfer::Phase phase, const Slot& slot) {
  if (!x.ops.has(phase)) return;
  for (const xfer::Op& op : x.ops) {
    if (op.phase != phase) continue;
    const bool rest = takes_phase(op.kind);  // read first: a fallback rewrites x.ops
    run_op(x, op, slot);
    if (rest) return;
  }
}

void DistributedDomain::run_op(TransferState& x, const xfer::Op& op, const Slot& slot) {
  switch (op.kind) {
    case xfer::OpKind::kColocatedSend:
      return colocated_send(x, &op + 1, x.ops.end());
    case xfer::OpKind::kColocatedRecv:
      return colocated_recv(x, &op + 1, x.ops.end());
    case xfer::OpKind::kPostRecv:
      x.recv_req = ctx_.comm.irecv(simpi::Payload::of(x.buffer(op.to), 0, x.active_bytes),
                                   x.t.src_rank, x.t.tag);
      inflight_.recv_reqs.push_back(x.recv_req);
      inflight_.recv_map.emplace_back(&x, nullptr);
      break;
    case xfer::OpKind::kWaitRecv:
    case xfer::OpKind::kSend:
    case xfer::OpKind::kWaitSend:
      break;  // the modes wait and start messages in their own order
    default:
      issue(x, op, slot);
  }
}

void DistributedDomain::issue(TransferState& x, const xfer::Op& op, const Slot& slot) {
  using xfer::OpKind;
  auto& rt = ctx_.rt;
  vgpu::Stream& s = op.on_dst_stream() ? x.dst_stream : x.src_stream;
  const auto at = [&slot](xfer::Operand o) { return o == xfer::Operand::kGroup ? slot.offset : 0; };
  // A kernel over phantom memory is issued with an empty body (see lower).
  const auto body = [&x, &op](auto f) {
    return x.has_body(op) ? std::function<void()>(f) : std::function<void()>();
  };
  switch (op.kind) {
    case OpKind::kSelf:
      rt.launch_kernel(s, x.active_bytes, xfer::op_label(op.kind, x.t.dir),
                       body([&x, this] { x.src_ld->self_exchange(x.t.dir, active_qs_); }),
                       op_access(x, op, active_qs_));
      break;
    case OpKind::kPack:
    case OpKind::kPackZeroCopy: {
      vgpu::Buffer* out = &x.buffer(op.to);
      const std::function<void()> pack =
          body([&x, out, this] { x.src_ld->pack_region(*out, x.src_region, active_qs_); });
      const std::string& label = xfer::op_label(op.kind, x.t.dir);
      if (op.kind == OpKind::kPack) {
        rt.launch_kernel(s, x.active_bytes, label, pack, op_access(x, op, active_qs_));
      } else {
        rt.launch_zero_copy_kernel(s, x.active_bytes, label, pack, op_access(x, op, active_qs_));
      }
      break;
    }
    case OpKind::kUnpack: {
      vgpu::Buffer* in = &x.buffer(op.from);
      rt.launch_kernel(
          s, x.active_bytes, xfer::op_label(op.kind, x.t.dir),
          body([&x, in, this] { x.dst_ld->unpack_region(*in, x.dst_region, active_qs_); }),
          op_access(x, op, active_qs_));
      break;
    }
    case OpKind::kCopyD2H:
    case OpKind::kCopyH2D:
      rt.memcpy_async(x.buffer(op.to, slot.host), at(op.to), x.buffer(op.from, slot.host),
                      at(op.from), x.active_bytes, s);
      break;
    case OpKind::kCopyPeer:
      rt.memcpy_peer_async(x.buffer(op.to), 0, x.buffer(op.from), 0, x.active_bytes, s);
      break;
    case OpKind::kCopyIpc:
      rt.memcpy_to_ipc_async(x.mapped, 0, x.buffer(op.from), 0, x.active_bytes, s);
      break;
    case OpKind::kCopy3D:
      for (std::size_t q : active_qs_) {
        rt.memcpy3d_peer_async(
            x.t.dst_gpu, x.t.src_gpu,
            static_cast<std::size_t>(x.src_region.volume()) * quantities_[q].elem_size,
            x.src_ld->row_bytes(x.src_region, q), s, xfer::op_label(op.kind, x.t.dir),
            body([&x, q] {
              LocalDomain::copy_region(*x.src_ld, x.src_region, *x.dst_ld, x.dst_region, q);
            }),
            op_access(x, op, {q}));
      }
      break;
    case OpKind::kEventEdge:
      rt.record_event(x.ready_ev, x.src_stream);
      rt.stream_wait_event(x.dst_stream, x.ready_ev);
      break;
    case OpKind::kReady:
      rt.record_event(x.ready_ev, x.src_stream);
      break;
    default:
      throw std::logic_error("issue: not stream work");
  }
}

vgpu::AccessList DistributedDomain::op_access(TransferState& x, const xfer::Op& op,
                                              const std::vector<std::size_t>& qs) const {
  vgpu::AccessList a;
  if (ctx_.cluster.checker() == nullptr) return a;
  for (auto [o, write] : {std::pair{op.from, false}, std::pair{op.to, true}}) {
    if (o == xfer::Operand::kSrcRegion) {
      x.src_ld->append_region_accesses(x.src_region, qs, write, a);
    } else if (o == xfer::Operand::kDstRegion) {
      x.dst_ld->append_region_accesses(x.dst_region, qs, write, a);
    } else {
      a.push_back({&x.buffer(o), 0, x.active_bytes, write});
    }
  }
  return a;
}

void DistributedDomain::start_send(TransferState& x) {
  ctx_.rt.event_synchronize(x.ready_ev);
  const xfer::Op* send = x.ops.find(xfer::OpKind::kSend);
  x.send_req = ctx_.comm.isend(simpi::Payload::of(x.buffer(send->from), 0, x.active_bytes),
                               x.t.dst_rank, x.t.tag);
  inflight_.send_reqs.push_back(x.send_req);
}

vgpu::GraphExec DistributedDomain::capture(TransferState& x,
                                           std::initializer_list<xfer::Phase> phases) {
  if (std::none_of(phases.begin(), phases.end(), [&](xfer::Phase p) { return x.ops.has(p); })) {
    return {};
  }
  auto& rt = ctx_.rt;
  rt.begin_capture();
  for (xfer::Phase p : phases) run_phase(x, p);
  return rt.instantiate(rt.end_capture());
}

void DistributedDomain::colocated_send(TransferState& x, const xfer::Op* first,
                                       const xfer::Op* last) {
  auto& rt = ctx_.rt;
  auto& eng = ctx_.engine();
  bool fell_back = false;
  if (!rt.ipc_mapping_valid(x.mapped)) {
    fell_back = true;
  } else {
    // Flow control: the receiver must have unpacked the previous
    // generation before we overwrite its buffer.
    colocated_gate_wait(x.peer_channel->gate, x.t.dst_rank, x.t.tag,
                        [&] { return x.peer_channel->done_gen + 1 >= seq_; },
                        "colocated flow-control");
    try {
      // The receiver records done_ev after each unpack; until the first
      // generation lands there is nothing to wait for — waiting on an
      // unrecorded event is API misuse the checker flags. Keyed off the
      // event itself, not done_gen: recovery re-aligns generation counters
      // (recover_abort / resync_seq) without recording events, so a bare
      // done_gen check goes spuriously true after a mid-exchange abort.
      if (x.peer_channel->done_ev.recorded) {
        rt.stream_wait_event(x.src_stream, x.peer_channel->done_ev);
      }
      for (; first != last && first->phase == xfer::Phase::kColocatedSend; ++first) {
        issue(x, *first, {});
      }
      rt.record_event(x.peer_channel->data_ev, x.src_stream);
      if (trace::Recorder* rec = ctx_.cluster.recorder();
          rec != nullptr && rec->causal()) {
        const sim::Time now = eng.now();
        x.peer_channel->data_span =
            rec->record("rank" + std::to_string(ctx_.comm.world_rank()) + ".colo",
                        "ipc push tag=" + std::to_string(x.t.tag), now, now);
      }
      x.peer_channel->data_gen = seq_;
      x.peer_channel->gate.notify_all(eng);
    } catch (const vgpu::CapabilityError&) {
      // Mapping went stale between the check and the copy (virtual time
      // advanced while we blocked): reroute this generation over MPI.
      fell_back = true;
    }
  }
  if (fell_back) {
    // Demote to STAGED: tell the receiver (it owns no timeline of our
    // mapping), then run STAGED's pack phase and queue the send so Phase 4
    // posts it alongside the ordinary staged traffic.
    demote_transfer(x, Method::kStaged);
    x.peer_channel->demoted = true;
    x.peer_channel->gate.notify_all(eng);
    run_phase(x, xfer::Phase::kPack);
    inflight_.pending_sends.emplace_back(x.ready_ev.completed_at, &x);
  }
}

void DistributedDomain::colocated_recv(TransferState& x, const xfer::Op* first,
                                       const xfer::Op* last) {
  auto& rt = ctx_.rt;
  auto& eng = ctx_.engine();
  colocated_gate_wait(x.channel->gate, x.t.src_rank, x.t.tag,
                      [&] { return x.channel->data_gen >= seq_ || x.channel->demoted; },
                      "colocated data");
  if (x.channel->demoted) {
    // The sender lost its IPC mapping and rerouted this generation over
    // MPI. Adopt STAGED on this side too and run its receive: no irecv was
    // posted in Phase 0 for a COLOCATED transfer, so receive blocking here,
    // then land it.
    demote_transfer(x, Method::kStaged);
    const xfer::Op* post = x.ops.find(xfer::OpKind::kPostRecv);
    ctx_.comm.recv(simpi::Payload::of(x.buffer(post->to), 0, x.active_bytes), x.t.src_rank,
                   x.t.tag);
    run_phase(x, xfer::Phase::kLand);
    x.channel->done_gen = seq_;
    return;
  }
  rt.stream_wait_event(x.dst_stream, x.channel->data_ev);
  if (trace::Recorder* rec = ctx_.cluster.recorder();
      rec != nullptr && rec->causal() && x.channel->data_span != 0) {
    const sim::Time now = eng.now();
    const std::uint64_t adopt =
        rec->record("rank" + std::to_string(ctx_.comm.world_rank()) + ".colo",
                    "ipc recv tag=" + std::to_string(x.t.tag), now, now);
    rec->add_flow(x.channel->data_span, adopt, /*msg=*/0,
                  "ipc tag=" + std::to_string(x.t.tag));
    x.channel->data_span = 0;  // one arrow per generation
  }
  for (; first != last && first->phase == xfer::Phase::kColocatedRecv; ++first) {
    issue(x, *first, {});
  }
  rt.record_event(x.channel->done_ev, x.dst_stream);
  x.channel->done_gen = seq_;
  x.channel->gate.notify_all(eng);
}

void DistributedDomain::colocated_gate_wait(sim::Gate& gate, int peer_rank, int tag,
                                            const std::function<bool()>& done,
                                            const char* what) {
  auto& eng = ctx_.engine();
  simpi::Job& job = ctx_.comm.job();
  while (!done()) {
    const std::string detail = std::string(what) + " tag=" + std::to_string(tag);
    if (job.revoked()) {
      job.fail(simpi::TransportError::Code::kRevoked, peer_rank, tag,
               detail + ": communicator revoked (recovery pending)");
    }
    const sim::Time peer_fail = job.rank_fail_time(peer_rank);
    if (peer_fail == fault::kForever) {
      gate.wait(eng, detail);
      continue;
    }
    const fault::Injector* inj = ctx_.machine.fault_injector();
    const sim::Time deadline = peer_fail + (inj != nullptr ? inj->detect_latency() : sim::Time{0});
    if (eng.now() >= deadline) {
      job.fail(simpi::TransportError::Code::kPeerDead, peer_rank, tag,
               detail + ": peer rank " + std::to_string(peer_rank) + " died");
    }
    gate.wait_until(eng, deadline, detail);
  }
}

Method DistributedDomain::forced_method(const Transfer& t) const {
  // Cross-rank pairs count as off-node: COLOCATED is deliberately excluded
  // — its IPC handshake was negotiated against the pre-failure world and
  // cannot be redone without a collective setup phase. The MPI envelope's
  // dead-peer detection also only covers the message methods.
  return ExchangePlan::specialize(t, /*same_node=*/false, flags_,
                                  ctx_.rt.peer_enabled(t.src_gpu, t.dst_gpu));
}

void DistributedDomain::recover_abort() {
  auto& rt = ctx_.rt;
  // Return every posted request to the inactive state. inflight_ holds the
  // authoritative handles; the per-transfer / per-group / plan-program copies
  // below share the same records, so they must NOT be reset a second time —
  // eager copies are dropped, persistent ones stay valid for restart.
  for (simpi::Request& r : inflight_.recv_reqs) ctx_.comm.reset(r);
  for (simpi::Request& r : inflight_.send_reqs) ctx_.comm.reset(r);
  for (auto& xp : xfers_) {
    xp->send_req = {};
    xp->recv_req = {};
    // Re-align COLOCATED flow control: the aborted generation will never be
    // replayed under this seq_, so mark it complete on the receiver's
    // channel (both ends run recover_abort, so every channel is covered by
    // its owner).
    if (xp->channel != nullptr) {
      xp->channel->data_gen = seq_;
      xp->channel->done_gen = seq_;
      xp->channel->demoted = false;
      xp->channel->data_span = 0;
    }
  }
  for (auto groups : {&send_groups_, &recv_groups_}) {
    for (auto& gp : *groups) gp->req = {};
  }
  // Quiesce every stream we may have touched. A rank whose own device died
  // cannot: its streams are gone with the GPU, which is fine — the rank is
  // being retired and its work re-homed.
  try {
    for (auto& xp : xfers_) {
      if (xp->src_stream.valid()) rt.stream_synchronize(xp->src_stream);
      if (xp->dst_stream.valid()) rt.stream_synchronize(xp->dst_stream);
    }
    compute_synchronize();
  } catch (const vgpu::DeviceLost&) {
  }
  cur_plan_ = nullptr;
  inflight_ = InFlight{};
  if (auto* tel = ctx_.cluster.telemetry()) {
    tel->on_recover_step("abort", "seq=" + std::to_string(seq_), ctx_.engine().now());
  }
}

std::vector<DistributedDomain::Rehome> DistributedDomain::recover_replace(
    const std::vector<int>& dead_ranks) {
  if (!realized_) throw std::logic_error("recover_replace before realize()");
  if (inflight_.active) throw std::logic_error("recover_replace while an exchange is in flight");
  if (aggregate_remote_) {
    throw std::logic_error("recover_replace: remote aggregation is not recoverable yet");
  }
  if (ctx_.tenant != nullptr) {
    // Re-homing below works in whole-machine rank/GPU coordinates; a tenant
    // slice needs vnode-aware adoption plus scheduler-level capacity updates.
    // Fail loudly instead of silently corrupting a co-tenant's GPUs; the
    // scheduler path resubmits the job instead.
    throw std::logic_error("recover_replace: not supported under multi-tenancy");
  }
  const auto& hp = placement_->partition();
  const int gpn = ctx_.machine.gpus_per_node();
  const int rpn = ctx_.cluster.ranks_per_node();
  const int gpr = gpn / rpn;
  const int total_gpus = hp.num_nodes() * gpn;
  const auto rank_of_gpu = [&](int g) { return (g / gpn) * rpn + (g % gpn) / gpr; };

  // Every GPU owned by a dead rank is gone (kGpuFail kills the rank that
  // drives the GPU; kNodeFail kills all of the node's ranks).
  std::set<int> dead_gpus;
  for (int r : dead_ranks) {
    const int node = r / rpn;
    const int slot = r % rpn;
    for (int k = 0; k < gpr; ++k) dead_gpus.insert(node * gpn + slot * gpr + k);
  }

  // Orphaned subdomains in deterministic (linearized-index) order, and the
  // current load of every surviving GPU. Each survivor computes the same
  // greedy adoption with no communication — the placement is shared state.
  std::vector<Rehome> moves;
  for (int g : dead_gpus) {
    for (const Dim3 idx : placement_->subdomains_on(g / gpn, g % gpn)) {
      Rehome rh;
      rh.idx = idx;
      rh.lin = idx.linearize(hp.global_extent());
      rh.old_gpu = g;
      rh.old_rank = rank_of_gpu(g);
      moves.push_back(rh);
    }
  }
  std::sort(moves.begin(), moves.end(), [](const Rehome& a, const Rehome& b) {
    return a.lin < b.lin;
  });

  std::map<int, int> load;  // surviving GPU -> hosted subdomain count
  for (int g = 0; g < total_gpus; ++g) {
    if (dead_gpus.count(g) != 0) continue;
    load[g] = static_cast<int>(placement_->subdomains_on(g / gpn, g % gpn).size());
  }
  if (load.empty()) throw std::runtime_error("recover_replace: no surviving GPUs");

  // Live-cost bias: the attached watch's published per-node factors inflate
  // the apparent load of GPUs on degraded nodes. Reading the *published*
  // table keeps every survivor's answer identical.
  std::vector<int> node_bias(static_cast<std::size_t>(hp.num_nodes()), 0);
  if (const watch::Watch* w = ctx_.cluster.watch(); w != nullptr) {
    for (int n = 0; n < hp.num_nodes(); ++n) {
      node_bias[static_cast<std::size_t>(n)] =
          static_cast<int>(std::lround((w->node_cost_factor(n) - 1.0) * 2.0));
    }
  }

  auto np = std::make_shared<Placement>(*placement_);
  for (Rehome& rh : moves) {
    int best = -1;
    int best_eff = 0;
    for (const auto& [g, n] : load) {
      const int eff = n + node_bias[static_cast<std::size_t>(g / gpn)];
      if (best < 0 || eff < best_eff) {  // ties to the lowest GPU id
        best = g;
        best_eff = eff;
      }
    }
    rh.new_gpu = best;
    rh.new_rank = rank_of_gpu(best);
    np->rehome(rh.idx, best);
    ++load[best];
  }
  placement_ = std::move(np);

  // Adopters materialize LocalDomains for their new subdomains. The halo
  // shapes come from the unchanged partition, so sizes, tags, and iteration
  // spaces are identical to the dead rank's — the root of bit-exactness.
  const int me = ctx_.comm.rank();
  for (const Rehome& rh : moves) {
    if (rh.new_rank != me || local_by_subdomain(rh.idx) != nullptr) continue;
    locals_.push_back(std::make_unique<LocalDomain>(ctx_.rt, rh.new_gpu, rh.idx,
                                                    hp.subdomain_origin(rh.idx),
                                                    hp.subdomain_size(rh.idx), radius_,
                                                    quantities_));
    local_index_by_subdomain_[rh.lin] = locals_.size() - 1;
  }

  // Re-derive this rank's transfers against the re-homed placement and diff
  // them per tag (tags are structural — subdomain index × direction — so
  // they survive re-homing). Unchanged endpoints keep their runtime state
  // and method, incl. earlier demotions; changed endpoints are rebuilt and
  // forced down to a method that works in the post-failure world; transfers
  // new to this rank (adopted subdomains) are appended.
  const ExchangePlan next =
      ExchangePlan::for_rank(*placement_, me, rpn, flags_, nbhd_, boundary_);
  std::map<int, std::size_t> by_tag;
  for (std::size_t i = 0; i < xfers_.size(); ++i) by_tag[xfers_[i]->t.tag] = i;

  int kept = 0, rebuilt = 0, appended = 0;
  for (const Transfer& nt : next.transfers()) {
    const auto it = by_tag.find(nt.tag);
    if (it != by_tag.end()) {
      const Transfer& ot = xfers_[it->second]->t;
      if (ot.src_gpu == nt.src_gpu && ot.dst_gpu == nt.dst_gpu && ot.src_rank == nt.src_rank &&
          ot.dst_rank == nt.dst_rank) {
        ++kept;
        continue;
      }
      Transfer t = nt;
      t.method = forced_method(t);
      xfers_[it->second] = make_transfer_state(t);
      plan_cache_.invalidate_tag(t.tag);
      ++rebuilt;
    } else {
      Transfer t = nt;
      t.method = forced_method(t);
      auto xp = make_transfer_state(t);
      if (xp == nullptr) continue;  // asymmetric radius: nothing moves
      xfers_.push_back(std::move(xp));
      ++appended;
    }
  }
  // Version the specialization table: stale cached plans migrate on their
  // next acquire (dirty programs rebuilt, appended transfers compiled in).
  // (resync_seq is a separate step: the caller aligns seq_ across survivors
  // once it has agreed on the maximum.)
  ++topo_epoch_;
  if (auto* tel = ctx_.cluster.telemetry()) {
    tel->on_recover_step("replace",
                         "moved=" + std::to_string(moves.size()) +
                             " kept=" + std::to_string(kept) +
                             " rebuilt=" + std::to_string(rebuilt) +
                             " appended=" + std::to_string(appended),
                         ctx_.engine().now());
  }
  return moves;
}

void DistributedDomain::resync_seq(std::uint64_t s) {
  if (inflight_.active) throw std::logic_error("resync_seq while an exchange is in flight");
  seq_ = s;
  for (auto& xp : xfers_) {
    if (xp->channel != nullptr) {
      xp->channel->data_gen = s;
      xp->channel->done_gen = s;
    }
  }
}

void DistributedDomain::exchange_finish() {
  if (!inflight_.active) throw std::logic_error("exchange_finish() without exchange_start()");
  plan::CompiledPlan* p = cur_plan_;  // null in eager mode
  auto& comm = ctx_.comm;
  auto& rt = ctx_.rt;

  // --- Phase 4: start the sends. Each start is gated on its data with an
  // event synchronize — not a virtual-time sleep to the same instant — so
  // the send's read of the staging buffer has a happens-before edge from
  // the pack/D2H writes it consumes. Eager mode starts them in data-ready
  // order, groups interleaved (the kSend ops of the transfer op lists,
  // sorted by when their pack phase completes). A plan starts them in its
  // frozen order, transfers then groups, and COLOCATED fallback sends
  // queued by Phase 2 ride as plain isends this generation.
  const auto start_group = [&](AggGroup& g, simpi::Request& req) {
    for (const auto& m : g.members) rt.event_synchronize(m.first->ready_ev);
    if (p != nullptr) {
      comm.start(req);
    } else {
      req = comm.isend(simpi::Payload::of(g.host, 0, g.active_bytes), g.peer_rank,
                       agg_tag(comm, comm.rank()));
    }
    inflight_.send_reqs.push_back(req);
  };
  auto xi = inflight_.pending_sends.begin();
  if (p != nullptr) {
    for (plan::TransferProgram& prog : p->programs) {
      if (!prog.send_req.valid()) continue;
      rt.event_synchronize(xfers_[prog.xfer_index]->ready_ev);
      comm.start(prog.send_req);
      inflight_.send_reqs.push_back(prog.send_req);
    }
    for (plan::GroupProgram& g : p->send_groups) start_group(*send_groups_[g.group_index], g.req);
  } else {
    for (auto& [ready, gp] : inflight_.pending_group_sends) {
      for (; xi != inflight_.pending_sends.end() && xi->first <= ready; ++xi) {
        start_send(*xi->second);
      }
      start_group(*gp, gp->req);
    }
  }
  for (; xi != inflight_.pending_sends.end(); ++xi) start_send(*xi->second);

  // --- Phase 5: as each receive lands, enqueue its H2D + unpack (a plan
  // launches the captured graph, or a group's fan-out).
  for (;;) {
    const int i = comm.wait_any(inflight_.recv_reqs);
    if (i < 0) break;
    if (p != nullptr) {
      rt.launch_graph(*inflight_.recv_graphs[static_cast<std::size_t>(i)]);
      continue;
    }
    auto [xp, gp] = inflight_.recv_map[static_cast<std::size_t>(i)];
    if (gp == nullptr) {
      run_phase(*xp, xfer::Phase::kLand);
      continue;
    }
    // A whole aggregated message landed: fan its members out to their GPUs.
    for (auto& [x, off] : gp->members) run_phase(*x, xfer::Phase::kLand, Slot{&gp->host, off});
  }

  // --- Phase 6: COLOCATED receivers unpack and acknowledge. ---------------
  run_steps(xfer::Phase::kColocatedRecv);

  // --- Phase 7: drain sends, then quiesce every stream we touched. --------
  comm.waitall(inflight_.send_reqs);
  for (auto& xp : xfers_) {
    if (xp->src_stream.valid()) rt.stream_synchronize(xp->src_stream);
    if (xp->dst_stream.valid()) rt.stream_synchronize(xp->dst_stream);
  }
  cur_plan_ = nullptr;
  inflight_.active = false;
  inflight_.recv_reqs.clear();
  inflight_.send_reqs.clear();
  inflight_.recv_graphs.clear();
  inflight_.recv_map.clear();
  inflight_.pending_sends.clear();
  inflight_.pending_group_sends.clear();
  note_exchange_complete();
}

void DistributedDomain::note_exchange_complete() {
  const int me = ctx_.comm.world_rank();
  ctx_.comm.job().exchange_complete(me, seq_, inflight_.start_time);
  auto* tel = ctx_.cluster.telemetry();
  if (tel == nullptr) return;
  std::map<Method, std::pair<std::uint64_t, std::uint64_t>> per;  // method -> (msgs, bytes)
  for (const auto& xp : xfers_) {
    if (!xp->i_send || xp->active_bytes == 0) continue;
    auto& [msgs, bytes] = per[xp->t.method];
    ++msgs;
    bytes += xp->active_bytes;
    tel->metrics().histogram("exchange_message_bytes").observe(xp->active_bytes);
  }
  const sim::Time now = ctx_.engine().now();
  for (const auto& [method, mb] : per) {
    tel->on_exchange_end(me, seq_, to_string(method), mb.first, mb.second, now);
  }
}

// ---------------------------------------------------------------------------
// Exchange plans (persistent mode): compile the specialized transfer set into
// a frozen schedule — persistent MPI requests for the message phases and
// instantiated vgpu graphs for the stream phases — then replay it with zero
// per-iteration setup. Plans are compiled lazily, one per quantity subset,
// and partially rebuilt after fault demotions.
// ---------------------------------------------------------------------------

plan::CompiledPlan& DistributedDomain::acquire_plan() {
  plan::PlanStats& stats = plan_cache_.stats();
  plan::CompiledPlan* p = plan_cache_.find(active_qs_);
  if (p != nullptr && p->key.topo_epoch == topo_epoch_ && p->dirty_count() == 0) {
    ++stats.hits;
    if (auto* tel = ctx_.cluster.telemetry()) tel->on_plan_event("hit");
    // Hot path: one map find + O(1) counter bump, allocation-free.
    if (explain::Ledger* led = ledger(); led != nullptr) {
      const auto it = plan_record_ids_.find(p);
      if (it != plan_record_ids_.end()) led->bump(it->second);
    }
    return *p;
  }
  // A miss compiles a fresh plan. A stale-epoch hit migrates: a demotion
  // dirtied some programs since this plan was compiled, and only those are
  // rebuilt — requests freed and re-initialized, graphs re-captured against
  // the new method. Clean programs are untouched.
  const bool fresh = p == nullptr;
  if (fresh) {
    ++stats.compiles;
    if (auto* tel = ctx_.cluster.telemetry()) tel->on_plan_event("compile");
    p = &plan_cache_.emplace(plan::PlanKey{topo_epoch_, static_cast<std::uint32_t>(flags_),
                                           aggregate_remote_, active_qs_});
    p->programs.reserve(xfers_.size());
  } else {
    ++stats.invalidations;
    if (auto* tel = ctx_.cluster.telemetry()) tel->on_plan_event("invalidation");
  }
  const std::uint64_t epoch_before = p->key.topo_epoch;
  std::uint64_t rebuilt = 0;
  for (plan::TransferProgram& prog : p->programs) {
    if (!prog.dirty) continue;
    compile_program(prog);
    ++rebuilt;
  }
  // Programs are index-aligned with xfers_: compile the missing ones. For a
  // migrated plan these are transfers recovery appended (adopted subdomains
  // bring new neighbor pairs), extending the frozen set instead of
  // recompiling it wholesale.
  std::uint64_t appended = 0;
  for (std::size_t i = p->programs.size(); i < xfers_.size(); ++i) {
    plan::TransferProgram& prog = p->programs.emplace_back();
    prog.xfer_index = i;
    compile_program(prog);
    ++appended;
  }
  if (fresh) {
    for (bool is_send : {true, false}) {
      auto& groups = is_send ? p->send_groups : p->recv_groups;
      for (std::size_t i = 0; i < (is_send ? send_groups_ : recv_groups_).size(); ++i) {
        plan::GroupProgram& g = groups.emplace_back();
        g.group_index = i;
        g.is_send = is_send;
        compile_group_program(g);
      }
    }
  } else {
    stats.rebuilt_programs += rebuilt + appended;
    if (auto* tel = ctx_.cluster.telemetry()) {
      for (std::uint64_t i = 0; i < rebuilt + appended; ++i) tel->on_plan_event("rebuild");
    }
    p->key.topo_epoch = topo_epoch_;
  }
  // Fail-fast admission: a plan with a protocol defect never replays. Clean
  // cache hits skip the verifier; fresh and migrated plans do not.
  admit(*p);
  if (explain::Ledger* led = ledger(); led != nullptr) {
    explain::DecisionRecord rec;
    rec.at = ctx_.engine().now();
    rec.actor = ctx_.comm.rank();
    if (fresh) {
      rec.kind = explain::DecisionKind::kPlanCompile;
      rec.subject = "epoch " + std::to_string(topo_epoch_) + ", " +
                    std::to_string(active_qs_.size()) + " quantities" +
                    (aggregate_remote_ ? ", aggregated" : "");
      rec.chosen = "compile " + std::to_string(p->programs.size()) + " programs, " +
                   std::to_string(p->send_groups.size() + p->recv_groups.size()) + " groups";
      rec.chosen_score = static_cast<double>(p->programs.size());
      // The cheaper option did not exist: no compatible plan was cached.
      // Negative delta quantifies the cold-start cost; repeats counts the
      // later hits that did get it for free.
      rec.rejected.push_back({"cache hit (no compatible plan cached)", 0.0});
      rec.work = p->programs.size();
    } else {
      rec.kind = explain::DecisionKind::kPlanMigrate;
      rec.subject = "epoch " + std::to_string(epoch_before) + " -> " +
                    std::to_string(topo_epoch_);
      rec.chosen = "rebuild " + std::to_string(rebuilt) + " dirty + " +
                   std::to_string(appended) + " appended of " +
                   std::to_string(p->programs.size()) + " programs";
      rec.chosen_score = static_cast<double>(rebuilt + appended);
      // Positive delta: programs the partial migration did NOT rebuild.
      rec.rejected.push_back({"full recompile", static_cast<double>(p->programs.size())});
      rec.work = rebuilt + appended;
    }
    rec.detail = "score = programs (re)built";
    plan_record_ids_[p] = led->append(std::move(rec));
  }
  return *p;
}

void DistributedDomain::admit(plan::CompiledPlan& p) {
  try {
    plan_cache_.admit(p);
  } catch (const plan::AdmissionError&) {
    auto& comm = ctx_.comm;
    for (plan::TransferProgram& prog : p.programs) {
      if (prog.send_req.valid()) comm.request_free(prog.send_req);
      if (prog.recv_req.valid()) comm.request_free(prog.recv_req);
    }
    for (auto groups : {&p.send_groups, &p.recv_groups}) {
      for (plan::GroupProgram& g : *groups) {
        if (g.req.valid()) comm.request_free(g.req);
      }
    }
    plan_record_ids_.erase(&p);
    plan_cache_.erase(p);
    throw;
  }
}

void DistributedDomain::compile_program(plan::TransferProgram& prog) {
  TransferState& x = *xfers_[prog.xfer_index];
  auto& comm = ctx_.comm;
  // Rebuild path: release the superseded persistent envelope. Plans are
  // only (re)built between exchanges, so the requests are inactive and the
  // free is clean (no lint).
  if (prog.send_req.valid()) comm.request_free(prog.send_req);
  if (prog.recv_req.valid()) comm.request_free(prog.recv_req);
  const xfer::OpList& ops = x.ops;
  prog.tag = x.t.tag;
  prog.method = x.t.method;
  prog.bytes = x.active_bytes;
  prog.i_send = x.i_send;
  prog.i_recv = x.i_recv;
  // COLOCATED stays interpreted: its IPC flow control depends on the
  // generation counter, which a frozen node sequence cannot express.
  prog.eager = ops.has(xfer::Phase::kColocatedSend) || ops.has(xfer::Phase::kColocatedRecv);
  prog.dirty = false;
  prog.send_req = {};
  prog.recv_req = {};
  prog.send_graph = {};
  prog.recv_graph = {};
  // Aggregation members are frozen into their GroupProgram instead.
  if (prog.eager || x.aggregated) return;

  // The sender's stream work freezes into one graph: a local chain (PEER's
  // event edge rides along, re-recorded at every launch) or a pack that
  // ends in the ready event the send start is gated on.
  prog.send_graph = capture(x, {xfer::Phase::kLocal, xfer::Phase::kPack});
  if (const xfer::Op* send = ops.find(xfer::OpKind::kSend)) {
    prog.send_req = comm.send_init(simpi::Payload::of(x.buffer(send->from), 0, x.active_bytes),
                                   x.t.dst_rank, x.t.tag);
  }
  prog.recv_graph = capture(x, {xfer::Phase::kLand});
  if (const xfer::Op* post = ops.find(xfer::OpKind::kPostRecv)) {
    prog.recv_req = comm.recv_init(simpi::Payload::of(x.buffer(post->to), 0, x.active_bytes),
                                   x.t.src_rank, x.t.tag);
  }
}

void DistributedDomain::compile_group_program(plan::GroupProgram& g) {
  AggGroup& grp = *(g.is_send ? send_groups_ : recv_groups_)[g.group_index];
  auto& rt = ctx_.rt;
  auto& comm = ctx_.comm;
  if (g.req.valid()) comm.request_free(g.req);
  g.peer_rank = grp.peer_rank;
  g.bytes = grp.active_bytes;
  g.member_tags.clear();
  rt.begin_capture();
  for (auto& [x, off] : grp.members) {
    g.member_tags.push_back(x->t.tag);
    run_phase(*x, g.is_send ? xfer::Phase::kPack : xfer::Phase::kLand, Slot{&grp.host, off});
  }
  g.graph = rt.instantiate(rt.end_capture());
  g.req = g.is_send
              ? comm.send_init(simpi::Payload::of(grp.host, 0, grp.active_bytes), grp.peer_rank,
                               agg_tag(comm, comm.rank()))
              : comm.recv_init(simpi::Payload::of(grp.host, 0, grp.active_bytes), grp.peer_rank,
                               agg_tag(comm, grp.peer_rank));
}

void DistributedDomain::launch_compute(LocalDomain& ld, const std::string& label,
                                       std::uint64_t bytes_moved,
                                       const std::function<void()>& body) {
  ctx_.rt.launch_kernel(ld.compute_stream(), bytes_moved, label, body);
}

void DistributedDomain::compute_synchronize() {
  for (auto& l : locals_) ctx_.rt.stream_synchronize(l->compute_stream());
}

}  // namespace stencil
