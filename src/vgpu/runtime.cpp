#include "vgpu/runtime.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "fault/fault.h"

namespace stencil::vgpu {

namespace {
std::string gpu_lane(int ggpu, const char* what) {
  return "gpu" + std::to_string(ggpu) + "." + what;
}
std::string pair_lane(int src, int dst) {
  return "gpu" + std::to_string(src) + "->gpu" + std::to_string(dst);
}
}  // namespace

std::vector<std::string> Graph::labels() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n.label);
  return out;
}

Runtime::Runtime(sim::Engine& eng, topo::Machine& machine) : eng_(eng), machine_(machine) {
  devices_.resize(static_cast<std::size_t>(machine_.total_gpus()));
  peer_enabled_.assign(
      static_cast<std::size_t>(machine_.total_gpus()) * static_cast<std::size_t>(machine_.total_gpus()),
      false);
}

Buffer Runtime::alloc_device(int ggpu, std::size_t bytes) {
  if (ggpu < 0 || ggpu >= machine_.total_gpus()) {
    throw std::out_of_range("alloc_device: bad GPU id");
  }
  return Buffer(MemSpace::kDevice, mem_mode_, ggpu, bytes, next_buffer_id_++);
}

Buffer Runtime::alloc_pinned_host(int node, std::size_t bytes) {
  if (node < 0 || node >= machine_.num_nodes()) {
    throw std::out_of_range("alloc_pinned_host: bad node id");
  }
  return Buffer(MemSpace::kPinnedHost, mem_mode_, node, bytes, next_buffer_id_++);
}

Stream Runtime::create_stream(int ggpu) {
  Stream s;
  s.device = ggpu;
  s.id = next_stream_id_++;
  s.last_end = eng_.now();
  for (RuntimeObserver* o : observers_) o->on_stream_create(s);
  return s;
}

void Runtime::destroy_stream(Stream& s) {
  if (!s.valid()) return;
  for (RuntimeObserver* o : observers_) o->on_stream_destroy(s);
  s.device = -1;
  s.id = 0;
}

Stream Runtime::default_stream(int ggpu) {
  Stream s;
  s.device = ggpu;
  s.id = 0;
  s.last_end = dev(ggpu).default_last_end;
  return s;
}

void Runtime::record_event(Event& ev, const Stream& s) {
  if (capture_target() != nullptr) {
    capture_node("record_event",
                 [&ev, &s](Runtime& rt) { rt.record_event(ev, s); });
    return;
  }
  ev.completed_at = std::max(s.last_end, eng_.now());
  ev.recorded = true;
  for (RuntimeObserver* o : observers_) o->on_record_event(ev, s);
}

void Runtime::stream_wait_event(Stream& s, const Event& ev) {
  if (capture_target() != nullptr) {
    capture_node("wait_event",
                 [&s, &ev](Runtime& rt) { rt.stream_wait_event(s, ev); });
    return;
  }
  for (RuntimeObserver* o : observers_) o->on_stream_wait_event(s, ev);
  if (!ev.recorded) return;  // CUDA: waiting on an unrecorded event is a no-op
  s.last_end = std::max(s.last_end, ev.completed_at);
}

bool Runtime::event_query(const Event& ev) const {
  const bool complete = !ev.recorded || ev.completed_at <= eng_.now();
  for (RuntimeObserver* o : observers_) o->on_event_query(ev, complete);
  return complete;
}

void Runtime::event_synchronize(const Event& ev) {
  reject_during_capture("event_synchronize");
  if (ev.recorded) eng_.sleep_until(ev.completed_at);
  for (RuntimeObserver* o : observers_) o->on_event_synchronize(ev);
}

void Runtime::stream_synchronize(const Stream& s) {
  reject_during_capture("stream_synchronize");
  eng_.sleep_until(s.last_end);
  for (RuntimeObserver* o : observers_) o->on_stream_synchronize(s);
}

void Runtime::device_synchronize(int ggpu) {
  reject_during_capture("device_synchronize");
  eng_.sleep_until(dev(ggpu).all_streams_last_end);
  for (RuntimeObserver* o : observers_) o->on_device_synchronize(ggpu);
}

bool Runtime::can_access_peer(int ggpu, int peer_ggpu) const {
  return machine_.peer_capable(ggpu, peer_ggpu);
}

void Runtime::enable_peer_access(int ggpu, int peer_ggpu) {
  if (!can_access_peer(ggpu, peer_ggpu)) {
    throw std::runtime_error("enable_peer_access: peer access not supported between gpu" +
                             std::to_string(ggpu) + " and gpu" + std::to_string(peer_ggpu));
  }
  peer_enabled_[static_cast<std::size_t>(ggpu) * machine_.total_gpus() +
                static_cast<std::size_t>(peer_ggpu)] = true;
}

bool Runtime::peer_enabled(int ggpu, int peer_ggpu) const {
  if (ggpu == peer_ggpu) return true;
  if (!peer_enabled_[static_cast<std::size_t>(ggpu) * machine_.total_gpus() +
                     static_cast<std::size_t>(peer_ggpu)]) {
    return false;
  }
  const fault::Injector* inj = machine_.fault_injector();
  return inj == nullptr || !inj->peer_revoked(ggpu, peer_ggpu, eng_.now());
}

bool Runtime::ipc_mapping_valid(const IpcMappedPtr& p) const {
  if (!p.valid()) return false;
  const fault::Injector* inj = machine_.fault_injector();
  if (inj == nullptr) return true;
  return !inj->ipc_stale(machine_.node_of(p.device), p.opened_at, eng_.now());
}

Graph* Runtime::capture_target() {
  if (captures_.empty()) return nullptr;
  const int actor = eng_.actor_id();
  for (auto& [id, g] : captures_) {
    if (id == actor) return g.get();
  }
  return nullptr;
}

void Runtime::capture_node(std::string label, std::function<void(Runtime&)> replay) {
  capture_target()->nodes_.push_back({std::move(label), std::move(replay)});
}

void Runtime::reject_during_capture(const char* what) {
  if (capture_target() != nullptr) {
    throw std::logic_error(std::string(what) + ": illegal during graph capture");
  }
}

void Runtime::begin_capture() {
  const int actor = eng_.actor_id();
  for (const auto& [id, g] : captures_) {
    if (id == actor) throw std::logic_error("begin_capture: capture already in progress");
  }
  captures_.emplace_back(actor, std::make_unique<Graph>());
}

Graph Runtime::end_capture() {
  const int actor = eng_.actor_id();
  for (auto it = captures_.begin(); it != captures_.end(); ++it) {
    if (it->first == actor) {
      Graph g = std::move(*it->second);
      captures_.erase(it);
      return g;
    }
  }
  throw std::logic_error("end_capture: no capture in progress");
}

bool Runtime::capturing() { return capture_target() != nullptr; }

GraphExec Runtime::instantiate(Graph g) {
  reject_during_capture("instantiate");
  GraphExec e;
  e.graph_ = std::make_shared<const Graph>(std::move(g));
  // cudaGraphInstantiate: host-side work proportional to the node count,
  // paid once at plan-compile time.
  eng_.sleep_for(machine_.arch().cpu_issue * static_cast<sim::Duration>(e.num_nodes()));
  return e;
}

void Runtime::launch_graph(GraphExec& g) {
  if (!g.valid()) throw std::logic_error("launch_graph: graph was never instantiated");
  reject_during_capture("launch_graph");
  const sim::Time t0 = eng_.now();
  eng_.sleep_for(machine_.arch().cpu_issue);  // one issue for the whole graph
  if (observed()) {
    const std::string lane = cpu_lane();
    for (RuntimeObserver* o : observers_) {
      o->on_graph_launch(lane, static_cast<int>(g.num_nodes()), t0, eng_.now());
    }
  }
  ++replay_depth_;
  try {
    for (const auto& node : g.graph_->nodes_) node.replay(*this);
  } catch (...) {
    --replay_depth_;
    throw;
  }
  --replay_depth_;
  ++g.launches_;
  ++graphs_launched_;
}

sim::Time Runtime::issue(Stream& s) {
  // Terminal failures surface here, the choke point every async op passes
  // through (graph replays included): issuing to a dead device errors like
  // a real CUDA context loss would.
  if (const fault::Injector* inj = machine_.fault_injector();
      inj != nullptr && inj->has_terminal_failures()) {
    const sim::Time now = eng_.now();
    if (inj->gpu_dead(s.device, now) || inj->node_dead(machine_.node_of(s.device), now)) {
      throw DeviceLost(s.device, "vgpu: gpu" + std::to_string(s.device) +
                                     " lost (terminal fault) at t=" + sim::format_duration(now));
    }
  }
  if (replay_depth_ == 0) {
    const sim::Time t0 = eng_.now();
    eng_.sleep_for(machine_.arch().cpu_issue);
    if (observed()) {
      const std::string lane = cpu_lane();
      for (RuntimeObserver* o : observers_) o->on_host_issue(lane, t0, eng_.now());
    }
  }
  ++ops_issued_;
  DeviceState& d = dev(s.device);
  sim::Time ready = std::max(eng_.now(), s.last_end);
  if (s.id == 0) {
    // Legacy default stream: serializes behind every stream on the device.
    ready = std::max(ready, d.all_streams_last_end);
  } else {
    // Non-default streams serialize behind prior default-stream work.
    ready = std::max(ready, d.default_last_end);
  }
  return ready;
}

void Runtime::commit(Stream& s, const sim::Span& span) {
  s.last_end = std::max(s.last_end, span.end);
  DeviceState& d = dev(s.device);
  d.all_streams_last_end = std::max(d.all_streams_last_end, span.end);
  if (s.id == 0) d.default_last_end = std::max(d.default_last_end, span.end);
}

std::string Runtime::cpu_lane() const {
  const std::string& who = eng_.actor_name();
  return (who.empty() ? std::string("cpu") : who) + ".cpu";
}

void Runtime::observe_op(OpKind kind, const Stream& s, const std::string& lane,
                         const std::string& label, const std::string& trace_label,
                         std::uint64_t bytes, const sim::Span& span, const AccessList& accesses) {
  const OpInfo op{kind, &s, &lane, &label, &trace_label, &accesses, bytes, span.start, span.end};
  for (RuntimeObserver* o : observers_) o->on_op(op);
}

void Runtime::check_same_size_copy(const Buffer& dst, std::size_t dst_off, const Buffer& src,
                                   std::size_t src_off, std::size_t bytes) const {
  if (dst_off + bytes > dst.size() || src_off + bytes > src.size()) {
    throw std::out_of_range("memcpy: range exceeds buffer size");
  }
}

void Runtime::move_bytes(Buffer& dst, std::size_t dst_off, const Buffer& src, std::size_t src_off,
                         std::size_t bytes) {
  if (bytes == 0) return;
  if (dst.mode() == MemMode::kMaterialized && src.mode() == MemMode::kMaterialized) {
    std::memcpy(dst.data() + dst_off, src.data() + src_off, bytes);
  }
}

void Runtime::memcpy_async(Buffer& dst, std::size_t dst_off, const Buffer& src, std::size_t src_off,
                           std::size_t bytes, Stream& s) {
  check_same_size_copy(dst, dst_off, src, src_off, bytes);
  if (capture_target() != nullptr) {
    capture_node("memcpy " + std::to_string(bytes) + "B",
                 [&dst, dst_off, &src, src_off, bytes, &s](Runtime& rt) {
                   rt.memcpy_async(dst, dst_off, src, src_off, bytes, s);
                 });
    return;
  }
  const sim::Time ready = issue(s);
  sim::Span span;
  int lane_gpu = 0;
  const char* lane_what = "kernel";
  if (src.space() == MemSpace::kDevice && dst.space() == MemSpace::kDevice) {
    if (src.owner() != dst.owner()) {
      throw std::logic_error("memcpy_async: cross-device copy requires memcpy_peer_async");
    }
    span = machine_.schedule_d2d(src.owner(), dst.owner(), bytes, ready);
    lane_gpu = src.owner();
  } else if (src.space() == MemSpace::kDevice) {  // D2H
    span = machine_.schedule_d2h(src.owner(), bytes, ready);
    lane_gpu = src.owner();
    lane_what = "d2h";
  } else if (dst.space() == MemSpace::kDevice) {  // H2D
    span = machine_.schedule_h2d(dst.owner(), bytes, ready);
    lane_gpu = dst.owner();
    lane_what = "h2d";
  } else {
    throw std::logic_error("memcpy_async: host-to-host copies do not belong on a stream");
  }
  move_bytes(dst, dst_off, src, src_off, bytes);
  commit(s, span);
  if (observed()) {
    const std::string label = "memcpy " + std::to_string(bytes) + "B";
    observe_op(OpKind::kMemcpy, s, gpu_lane(lane_gpu, lane_what), label, label, bytes, span,
               {{&src, src_off, bytes, false}, {&dst, dst_off, bytes, true}});
  }
}

void Runtime::memcpy_peer_async(Buffer& dst, std::size_t dst_off, const Buffer& src,
                                std::size_t src_off, std::size_t bytes, Stream& s) {
  check_same_size_copy(dst, dst_off, src, src_off, bytes);
  if (src.space() != MemSpace::kDevice || dst.space() != MemSpace::kDevice) {
    throw std::logic_error("memcpy_peer_async: both buffers must be device memory");
  }
  if (capture_target() != nullptr) {
    capture_node("peer " + std::to_string(bytes) + "B",
                 [&dst, dst_off, &src, src_off, bytes, &s](Runtime& rt) {
                   rt.memcpy_peer_async(dst, dst_off, src, src_off, bytes, s);
                 });
    return;
  }
  const sim::Time ready = issue(s);
  const bool use_peer = peer_enabled(src.owner(), dst.owner());
  const sim::Span span = machine_.schedule_d2d(src.owner(), dst.owner(), bytes, ready, use_peer);
  move_bytes(dst, dst_off, src, src_off, bytes);
  commit(s, span);
  if (observed()) {
    const std::string label = (use_peer ? "peer " : "staged-peer ") + std::to_string(bytes) + "B";
    observe_op(OpKind::kMemcpyPeer, s, pair_lane(src.owner(), dst.owner()), label, label, bytes,
               span, {{&src, src_off, bytes, false}, {&dst, dst_off, bytes, true}});
  }
}

void Runtime::memcpy_to_ipc_async(const IpcMappedPtr& dst, std::size_t dst_off, const Buffer& src,
                                  std::size_t src_off, std::size_t bytes, Stream& s) {
  if (capture_target() != nullptr) {
    // Mapping validity is time-dependent (fault injection); check at replay.
    capture_node("ipc-copy " + std::to_string(bytes) + "B",
                 [&dst, dst_off, &src, src_off, bytes, &s](Runtime& rt) {
                   rt.memcpy_to_ipc_async(dst, dst_off, src, src_off, bytes, s);
                 });
    return;
  }
  if (!dst.valid()) {
    const std::string what = dst.closed ? "memcpy_to_ipc_async: mapping already closed"
                                        : "memcpy_to_ipc_async: invalid IPC mapping";
    for (RuntimeObserver* o : observers_) o->on_ipc_misuse(dst, what);
    throw std::logic_error(what);
  }
  if (!ipc_mapping_valid(dst)) {
    throw CapabilityError(CapabilityError::Kind::kIpcMappingStale,
                          "memcpy_to_ipc_async: IPC mapping to gpu" + std::to_string(dst.device) +
                              " invalidated at t=" + sim::format_duration(eng_.now()));
  }
  Buffer& target = *dst.target;
  check_same_size_copy(target, dst_off, src, src_off, bytes);
  const sim::Time ready = issue(s);
  const bool use_peer = peer_enabled(src.owner(), dst.device);
  const sim::Span span = machine_.schedule_d2d(src.owner(), dst.device, bytes, ready, use_peer);
  move_bytes(target, dst_off, src, src_off, bytes);
  commit(s, span);
  if (observed()) {
    const std::string label = "ipc-copy " + std::to_string(bytes) + "B";
    observe_op(OpKind::kMemcpyIpc, s, pair_lane(src.owner(), dst.device), label, label, bytes,
               span, {{&src, src_off, bytes, false}, {&target, dst_off, bytes, true}});
  }
}

void Runtime::memcpy3d_peer_async(int dst_ggpu, int src_ggpu, std::uint64_t bytes,
                                  std::uint64_t row_bytes, Stream& s, const std::string& label,
                                  const std::function<void()>& body, const AccessList& accesses) {
  if (capture_target() != nullptr) {
    capture_node(label + " (3d)", [dst_ggpu, src_ggpu, bytes, row_bytes, &s, label, body,
                                   accesses](Runtime& rt) {
      rt.memcpy3d_peer_async(dst_ggpu, src_ggpu, bytes, row_bytes, s, label, body, accesses);
    });
    return;
  }
  const sim::Time ready = issue(s);
  const bool use_peer = peer_enabled(src_ggpu, dst_ggpu);
  const sim::Span span =
      machine_.schedule_d2d_strided(src_ggpu, dst_ggpu, bytes, row_bytes, ready, use_peer);
  if (body) body();
  commit(s, span);
  if (observed()) {
    observe_op(OpKind::kMemcpy3D, s, pair_lane(src_ggpu, dst_ggpu), label,
               label + " " + std::to_string(bytes) + "B/3d", bytes, span, accesses);
  }
}

void Runtime::launch_kernel(Stream& s, std::uint64_t bytes_moved, const std::string& label,
                            const std::function<void()>& body, const AccessList& accesses) {
  if (capture_target() != nullptr) {
    capture_node(label, [&s, bytes_moved, label, body, accesses](Runtime& rt) {
      rt.launch_kernel(s, bytes_moved, label, body, accesses);
    });
    return;
  }
  const sim::Time ready = issue(s);
  const sim::Span span = machine_.schedule_kernel(s.device, bytes_moved, ready);
  if (body) body();
  commit(s, span);
  if (observed()) {
    observe_op(OpKind::kKernel, s, gpu_lane(s.device, "kernel"), label, label, bytes_moved, span,
               accesses);
  }
}

void Runtime::launch_zero_copy_kernel(Stream& s, std::uint64_t bytes, const std::string& label,
                                      const std::function<void()>& body,
                                      const AccessList& accesses) {
  if (capture_target() != nullptr) {
    capture_node(label + " (zero-copy)", [&s, bytes, label, body, accesses](Runtime& rt) {
      rt.launch_zero_copy_kernel(s, bytes, label, body, accesses);
    });
    return;
  }
  const auto& arch = machine_.arch();
  const sim::Time ready = issue(s);
  // The kernel streams strided reads from HBM and writes over the host
  // link; the slower of the two paces it, and both are busy throughout.
  const sim::Duration dur =
      std::max(sim::transfer_time(bytes, arch.bw_gpu_mem * arch.eff_pack),
               sim::transfer_time(bytes, arch.bw_nvlink_cpu_gpu * arch.eff_nvlink));
  const sim::Span span = machine_.kernel_queue(s.device).acquire_span(ready + arch.lat_kernel, dur);
  machine_.host_link_out(s.device).acquire(span.start, dur);
  if (body) body();
  commit(s, span);
  if (observed()) {
    observe_op(OpKind::kKernel, s, gpu_lane(s.device, "kernel"), label, label + " (zero-copy)",
               bytes, span, accesses);
  }
}

IpcMemHandle Runtime::ipc_get_mem_handle(Buffer& buf) {
  if (buf.space() != MemSpace::kDevice) {
    throw std::logic_error("ipc_get_mem_handle: only device memory is exportable");
  }
  auto it = std::find_if(ipc_exports_.begin(), ipc_exports_.end(),
                         [&](const auto& p) { return p.first == buf.id(); });
  if (it == ipc_exports_.end()) ipc_exports_.emplace_back(buf.id(), &buf);
  return IpcMemHandle{buf.id(), buf.owner()};
}

IpcMappedPtr Runtime::ipc_open_mem_handle(const IpcMemHandle& h, int opener_ggpu) {
  if (machine_.node_of(h.device) != machine_.node_of(opener_ggpu)) {
    throw std::runtime_error("ipc_open_mem_handle: handle exported on a different node");
  }
  auto it = std::find_if(ipc_exports_.begin(), ipc_exports_.end(),
                         [&](const auto& p) { return p.first == h.buffer_id; });
  if (it == ipc_exports_.end()) {
    throw std::runtime_error("ipc_open_mem_handle: unknown or stale handle");
  }
  // Copy the target out before sleeping: the yield lets other actors export
  // handles, and their emplace_back may reallocate ipc_exports_ under `it`.
  Buffer* target = it->second;
  eng_.sleep_for(machine_.arch().lat_ipc_setup);
  IpcMappedPtr p{target, h.device, eng_.now(), false};
  for (RuntimeObserver* o : observers_) o->on_ipc_open(p, opener_ggpu);
  return p;
}

void Runtime::ipc_close_mem_handle(IpcMappedPtr& p) {
  if (p.target == nullptr || p.closed) return;  // closing nothing is benign
  for (RuntimeObserver* o : observers_) o->on_ipc_close(p);
  p.closed = true;
}

}  // namespace stencil::vgpu
