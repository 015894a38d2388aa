#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "simtime/engine.h"
#include "simtime/resource.h"
#include "topo/machine.h"
#include "vgpu/buffer.h"
#include "vgpu/observer.h"

namespace stencil::vgpu {

/// An asynchronous execution queue on one virtual device. CUDA semantics:
/// operations enqueued on the same stream execute in order; operations on
/// different streams may overlap; the *legacy default stream* (id 0 per
/// device) serializes with every other stream on its device.
///
/// Completion times are fully determined at enqueue (the engine's global
/// virtual time is monotonic, so FIFO resource claims in enqueue order are
/// exact), which makes a Stream just a handle plus a frontier time.
struct Stream {
  int device = -1;
  std::uint64_t id = 0;  // 0 = the device's legacy default stream
  sim::Time last_end = 0;
  bool valid() const { return device >= 0; }
};

/// A CUDA-event-like marker. Recording captures the stream's frontier;
/// waiting/synchronizing consumes it. An unrecorded event is complete.
struct Event {
  sim::Time completed_at = 0;
  bool recorded = false;
};

/// An opaque token that lets another rank on the same node map a device
/// buffer into its address space (mirrors cudaIpcMemHandle_t).
struct IpcMemHandle {
  std::uint64_t buffer_id = 0;
  int device = -1;  // global GPU id owning the memory
};

/// A device pointer obtained from an IpcMemHandle. Copies targeting it reach
/// the exporting rank's buffer directly, bypassing any message layer.
struct IpcMappedPtr {
  Buffer* target = nullptr;
  int device = -1;
  sim::Time opened_at = 0;  // when the mapping was established (staleness)
  bool closed = false;      // set by ipc_close_mem_handle; further use is misuse
  bool valid() const { return target != nullptr && !closed; }
};

/// Thrown when a device capability the caller relied on has been lost at
/// runtime (fault injection): peer access revoked, or an IPC mapping
/// invalidated after it was opened. The exchange layer catches this and
/// re-specializes the affected transfer down the capability chain.
class CapabilityError : public std::runtime_error {
 public:
  enum class Kind { kPeerAccessLost, kIpcMappingStale };
  CapabilityError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// Thrown from every async entry point once the target device is permanently
/// dead (fault::kGpuFail / kNodeFail). Unlike CapabilityError there is no
/// lower rung to demote to: recovery (stencil::recover) must re-home the
/// device's subdomains onto surviving resources.
class DeviceLost : public std::runtime_error {
 public:
  DeviceLost(int ggpu, const std::string& what) : std::runtime_error(what), ggpu_(ggpu) {}
  int device() const { return ggpu_; }

 private:
  int ggpu_ = -1;
};

class Runtime;

/// A captured sequence of stream operations (cudaGraph analogue). Built with
/// Runtime::begin_capture()/end_capture(): while capturing, the async entry
/// points append nodes instead of executing, so capture itself moves no data
/// and takes no virtual time. Buffers, streams, and events are captured by
/// reference and must outlive every launch of an instantiated graph.
class Graph {
 public:
  std::size_t num_nodes() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  /// Node labels in capture order (diagnostics / plan reports).
  std::vector<std::string> labels() const;

 private:
  friend class Runtime;
  struct Node {
    std::string label;
    std::function<void(Runtime&)> replay;
  };
  std::vector<Node> nodes_;
};

/// An instantiated, launchable graph (cudaGraphExec analogue). launch_graph
/// replays the captured enqueues through the ordinary eager entry points, so
/// observers see replayed ops exactly like eager ops — but
/// the per-op CPU issue cost is charged once per *launch*, not once per node.
/// That amortization is the whole reason graphs exist.
class GraphExec {
 public:
  GraphExec() = default;
  bool valid() const { return graph_ != nullptr; }
  std::size_t num_nodes() const { return graph_ != nullptr ? graph_->num_nodes() : 0; }
  std::vector<std::string> labels() const {
    return graph_ != nullptr ? graph_->labels() : std::vector<std::string>{};
  }
  /// How many times this executable has been launched.
  std::uint64_t launches() const { return launches_; }

 private:
  friend class Runtime;
  std::shared_ptr<const Graph> graph_;
  std::uint64_t launches_ = 0;
};

/// The virtual CUDA runtime: allocation, streams, events, async copies,
/// pack/unpack "kernels", peer access, and IPC — all costed on a
/// topo::Machine and ordered by a sim::Engine.
///
/// Semantics notes (mirroring CUDA where it matters to the paper):
///  * All *_async calls charge the calling actor `cpu_issue` virtual time,
///    so a single rank driving many GPUs serializes op issue — the effect
///    behind Fig. 12a's rank sensitivity.
///  * Data movement between materialized buffers happens eagerly at enqueue
///    (the library never mutates a buffer that an in-flight op reads, so
///    eager movement is observationally equivalent and keeps the engine
///    simple). Simulated completion respects the cost model.
///  * Phantom buffers move no bytes but cost identical virtual time.
class Runtime {
 public:
  Runtime(sim::Engine& eng, topo::Machine& machine);

  sim::Engine& engine() { return eng_; }
  topo::Machine& machine() { return machine_; }

  /// Observers (trace recorder, checker, telemetry, ...) see every op,
  /// host issue, graph launch, event edge, synchronize, and IPC lifecycle
  /// change, in attach order (attach each once). Pure bookkeeping: attaching
  /// one never changes virtual time, and with none attached the Runtime
  /// builds no lane or label strings at all.
  void attach(RuntimeObserver* o) { observers_.push_back(o); }
  void detach(RuntimeObserver* o) { std::erase(observers_, o); }

  /// Default mode for new allocations (benchmarks flip this to kPhantom).
  void set_mem_mode(MemMode m) { mem_mode_ = m; }

  // --- memory -----------------------------------------------------------
  Buffer alloc_device(int ggpu, std::size_t bytes);
  Buffer alloc_pinned_host(int node, std::size_t bytes);

  // --- streams & events ---------------------------------------------------
  Stream create_stream(int ggpu);
  Stream default_stream(int ggpu);
  /// Invalidate a stream handle. CUDA-like: destroying a stream does not wait
  /// for its pending work, but enqueueing further work on it is an error —
  /// the checker lints destruction while work is still unordered with the host.
  void destroy_stream(Stream& s);
  void record_event(Event& ev, const Stream& s);
  void stream_wait_event(Stream& s, const Event& ev);
  bool event_query(const Event& ev) const;
  void event_synchronize(const Event& ev);
  void stream_synchronize(const Stream& s);
  void device_synchronize(int ggpu);

  /// Completion frontier of a stream without blocking (for state machines).
  sim::Time stream_frontier(const Stream& s) const { return s.last_end; }

  // --- peer access --------------------------------------------------------
  bool can_access_peer(int ggpu, int peer_ggpu) const;
  /// Enable peer access; throws if the hardware cannot (as CUDA errors).
  void enable_peer_access(int ggpu, int peer_ggpu);
  /// True when the pair has peer access *now*: enabled by the caller and not
  /// revoked by an injected fault at the current virtual time.
  bool peer_enabled(int ggpu, int peer_ggpu) const;

  /// True when an IPC mapping is still usable: valid and not invalidated by
  /// a fault event since it was opened. The exchange layer polls this at
  /// iteration boundaries to decide whether to demote a COLOCATED transfer.
  bool ipc_mapping_valid(const IpcMappedPtr& p) const;

  // --- async copies -------------------------------------------------------
  /// cudaMemcpyAsync equivalent: direction inferred from the buffer spaces
  /// and owners. Supports H2D, D2H, D2D (same device), and host-to-host.
  void memcpy_async(Buffer& dst, std::size_t dst_off, const Buffer& src, std::size_t src_off,
                    std::size_t bytes, Stream& s);

  /// cudaMemcpyPeerAsync equivalent: device-to-device between any two GPUs
  /// on one node. Uses the direct peer link only when peer access is
  /// enabled; otherwise the driver's staged path (slower), like CUDA.
  void memcpy_peer_async(Buffer& dst, std::size_t dst_off, const Buffer& src, std::size_t src_off,
                         std::size_t bytes, Stream& s);

  /// Copy into memory mapped from another rank via IPC (same node).
  void memcpy_to_ipc_async(const IpcMappedPtr& dst, std::size_t dst_off, const Buffer& src,
                           std::size_t src_off, std::size_t bytes, Stream& s);

  /// cudaMemcpy3DPeerAsync-style strided copy: moves `bytes` organized in
  /// rows of `row_bytes` directly between two same-node devices, without a
  /// pack kernel. `body` performs the real (row-by-row) data movement;
  /// time is the d2d path derated by the per-row DMA overhead.
  void memcpy3d_peer_async(int dst_ggpu, int src_ggpu, std::uint64_t bytes,
                           std::uint64_t row_bytes, Stream& s, const std::string& label,
                           const std::function<void()>& body, const AccessList& accesses = {});

  // --- kernels ------------------------------------------------------------
  /// Launch a "kernel" on `s` that moves `bytes_moved` through device
  /// memory (pack/unpack/compute). `body` runs eagerly against real data
  /// (no-op for phantom work); `label` feeds the trace.
  /// `accesses` optionally declares the byte ranges the body reads/writes
  /// (kernel bodies are opaque closures); only the checker consumes it.
  void launch_kernel(Stream& s, std::uint64_t bytes_moved, const std::string& label,
                     const std::function<void()>& body, const AccessList& accesses = {});

  /// A kernel whose stores land in *pinned host memory* (zero-copy, the
  /// Physis-style pack of §VI/[18]): one launch replaces pack + D2H, but
  /// the kernel runs at host-link speed, occupying both the GPU and the
  /// outbound host link for the duration.
  void launch_zero_copy_kernel(Stream& s, std::uint64_t bytes, const std::string& label,
                               const std::function<void()>& body, const AccessList& accesses = {});

  // --- IPC ----------------------------------------------------------------
  /// Export a device buffer; registers its address so a same-node rank can
  /// map it. The buffer must outlive all mappings.
  IpcMemHandle ipc_get_mem_handle(Buffer& buf);
  /// Open a handle exported by a same-node rank. Charges the one-time
  /// cudaIpcOpenMemHandle setup cost. Throws if the nodes differ.
  IpcMappedPtr ipc_open_mem_handle(const IpcMemHandle& h, int opener_ggpu);
  /// Close a mapping (cudaIpcCloseMemHandle). Any later copy through it is
  /// misuse: reported to the observers, then thrown as std::logic_error.
  void ipc_close_mem_handle(IpcMappedPtr& p);

  // --- graph capture ------------------------------------------------------
  /// Begin capturing the calling actor's async enqueues (cudaStreamBeginCapture
  /// analogue, scoped to the actor rather than one stream). Until end_capture,
  /// async ops and event record/wait calls append graph nodes instead of
  /// executing; synchronizing calls throw (they would invalidate a CUDA
  /// capture too). Captures never block, so a capture section is atomic under
  /// the cooperative scheduler.
  void begin_capture();
  Graph end_capture();
  /// True when the calling actor has a capture in progress.
  bool capturing();

  /// Bake a captured graph into a launchable executable. Charges host-side
  /// setup time proportional to the node count (cudaGraphInstantiate cost) —
  /// paid once, amortized over every launch.
  GraphExec instantiate(Graph g);

  /// Replay an instantiated graph: one CPU issue charge for the whole graph,
  /// then every node re-enters the eager entry point it was captured from
  /// (observers see identical ops; per-node issue cost is skipped).
  void launch_graph(GraphExec& g);

  std::uint64_t graphs_launched() const { return graphs_launched_; }

  /// Number of async ops issued so far (diagnostics).
  std::uint64_t ops_issued() const { return ops_issued_; }

  /// Number of buffers ever allocated (device + pinned host). Stable across
  /// steady-state planned exchanges — tests assert zero setup-phase work.
  std::uint64_t buffers_allocated() const { return next_buffer_id_ - 1; }

  // --- hooks for the (simulated) MPI library ------------------------------
  /// Completion frontier across all streams of a device — what a
  /// cudaDeviceSynchronize inside the MPI library would wait for.
  sim::Time device_frontier(int ggpu) { return dev(ggpu).all_streams_last_end; }

  /// Report that an external library (CUDA-aware MPI) ran work on the
  /// device's legacy default stream until `until`. Subsequent application
  /// ops on *any* stream of that device serialize behind it — the
  /// overlap-killing behaviour the paper profiled in Spectrum MPI.
  void occupy_default_stream(int ggpu, sim::Time until) {
    DeviceState& d = dev(ggpu);
    d.default_last_end = std::max(d.default_last_end, until);
    d.all_streams_last_end = std::max(d.all_streams_last_end, until);
  }

 private:
  struct DeviceState {
    sim::Time all_streams_last_end = 0;  // frontier across every stream
    sim::Time default_last_end = 0;      // frontier of the legacy default stream
  };

  /// Charge CPU issue overhead to the calling actor and return the ready
  /// time for the new op, honoring stream order + default-stream rules.
  sim::Time issue(Stream& s);
  /// Commit an op completing at `span` onto stream `s`.
  void commit(Stream& s, const sim::Span& span);
  DeviceState& dev(int ggpu) { return devices_[static_cast<std::size_t>(ggpu)]; }
  void check_same_size_copy(const Buffer& dst, std::size_t dst_off, const Buffer& src,
                            std::size_t src_off, std::size_t bytes) const;
  static void move_bytes(Buffer& dst, std::size_t dst_off, const Buffer& src, std::size_t src_off,
                         std::size_t bytes);

  bool observed() const { return !observers_.empty(); }
  /// Timeline lane of the calling actor's CPU ("rank0.cpu").
  std::string cpu_lane() const;
  /// Report a committed async op to every observer. Call sites check
  /// observed() first, so detached runs build no strings.
  void observe_op(OpKind kind, const Stream& s, const std::string& lane, const std::string& label,
                  const std::string& trace_label, std::uint64_t bytes, const sim::Span& span,
                  const AccessList& accesses);

  /// Capture in progress for the calling actor, or nullptr. Cheap on the
  /// eager path (captures_ empty short-circuits before querying the engine).
  Graph* capture_target();
  void capture_node(std::string label, std::function<void(Runtime&)> replay);
  /// Throw when called during capture (ops that would invalidate it).
  void reject_during_capture(const char* what);

  sim::Engine& eng_;
  topo::Machine& machine_;
  std::vector<RuntimeObserver*> observers_;
  MemMode mem_mode_ = MemMode::kMaterialized;
  std::vector<std::pair<int, std::unique_ptr<Graph>>> captures_;  // actor -> open capture
  int replay_depth_ = 0;  // >0 while launch_graph replays (skip per-op issue cost)
  std::uint64_t graphs_launched_ = 0;
  std::vector<DeviceState> devices_;
  std::vector<bool> peer_enabled_;  // [src * total_gpus + dst]
  std::uint64_t next_buffer_id_ = 1;
  std::uint64_t next_stream_id_ = 1;
  std::uint64_t ops_issued_ = 0;
  // IPC export registry: buffer id -> live buffer (registered on handle get).
  std::vector<std::pair<std::uint64_t, Buffer*>> ipc_exports_;
};

}  // namespace stencil::vgpu
