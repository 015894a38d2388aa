#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "simtime/time.h"

namespace stencil::vgpu {

class Buffer;
struct Stream;
struct Event;
struct IpcMappedPtr;

/// One byte range of a Buffer touched by an enqueued op. Kernel bodies are
/// opaque to the Runtime, so callers that want race checking declare the
/// ranges their kernels read and write (memcpys derive them automatically).
struct MemAccess {
  const Buffer* buf = nullptr;
  std::size_t offset = 0;
  std::size_t bytes = 0;
  bool write = false;
};

using AccessList = std::vector<MemAccess>;

/// What kind of asynchronous Runtime op an OpInfo describes.
enum class OpKind {
  kKernel,
  kMemcpy,      // memcpy_async (H2D / D2H / D2D same device)
  kMemcpyPeer,  // memcpy_peer_async
  kMemcpyIpc,   // memcpy_to_ipc_async
  kMemcpy3D,    // memcpy3d_peer_async
};

/// Everything an observer learns about one enqueued asynchronous op. All
/// pointers are valid only for the duration of the callback.
struct OpInfo {
  OpKind kind = OpKind::kKernel;
  const Stream* stream = nullptr;
  const std::string* lane = nullptr;         // timeline lane ("gpu0.kernel", "gpu0->gpu1")
  const std::string* label = nullptr;        // the caller's label
  const std::string* trace_label = nullptr;  // label plus size/mode suffix, as timelines show it
  const AccessList* accesses = nullptr;
  std::uint64_t bytes = 0;
  sim::Time start = 0;  // when the op begins on its resource
  sim::Time end = 0;    // scheduled completion (virtual time)
};

/// Observer of every Runtime event: op enqueues, host-side issue and graph
/// launches, event record/wait/sync, stream/device synchronization, stream
/// teardown, and the IPC mapping lifecycle. The trace recorder, telemetry,
/// and `stencil::check::Checker` (which maintains a happens-before graph)
/// implement it; install with Runtime::attach. Every callback defaults to a
/// no-op, so an observer overrides only what it consumes.
///
/// Callbacks run on the engine actor performing the call (use
/// sim::Engine::current() for identity) and must not call back into the
/// Runtime.
class RuntimeObserver {
 public:
  virtual ~RuntimeObserver() = default;

  virtual void on_op(const OpInfo& /*op*/) {}
  /// The calling actor spent [start, end) of CPU time issuing one op
  /// (eager path only; graph replays are charged once per launch).
  virtual void on_host_issue(const std::string& /*lane*/, sim::Time /*start*/,
                             sim::Time /*end*/) {}
  virtual void on_graph_launch(const std::string& /*lane*/, int /*nodes*/, sim::Time /*start*/,
                               sim::Time /*end*/) {}
  virtual void on_stream_create(const Stream& /*s*/) {}
  virtual void on_record_event(const Event& /*ev*/, const Stream& /*s*/) {}
  virtual void on_stream_wait_event(const Stream& /*s*/, const Event& /*ev*/) {}
  virtual void on_event_synchronize(const Event& /*ev*/) {}
  virtual void on_event_query(const Event& /*ev*/, bool /*complete*/) {}
  virtual void on_stream_synchronize(const Stream& /*s*/) {}
  virtual void on_device_synchronize(int /*ggpu*/) {}
  virtual void on_stream_destroy(const Stream& /*s*/) {}
  virtual void on_ipc_open(const IpcMappedPtr& /*p*/, int /*opener_ggpu*/) {}
  virtual void on_ipc_close(const IpcMappedPtr& /*p*/) {}
  /// A copy was attempted through a mapping that is closed or was never
  /// opened. The Runtime throws right after this callback.
  virtual void on_ipc_misuse(const IpcMappedPtr& /*p*/, const std::string& /*what*/) {}
};

}  // namespace stencil::vgpu
