#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/report.h"
#include "check/shadow.h"
#include "check/vclock.h"
#include "simpi/observer.h"
#include "simtime/engine.h"
#include "telemetry/critical_path.h"
#include "vgpu/observer.h"

namespace stencil::telemetry {
class Telemetry;
}

namespace stencil::check {

/// Vector-clock happens-before analyzer for the virtual CUDA/MPI substrate.
///
/// The simulation executes every op on one OS thread, so host sanitizers see
/// nothing; what can race is *virtual* concurrency — streams, events, and
/// MPI requests. The Checker rebuilds the happens-before partial order from
/// the ordering operations alone (stream FIFO, default-stream serialization,
/// event record/wait, stream/device synchronize, request post/completion,
/// barriers — never from virtual-time comparison, which would declare every
/// deterministic schedule race-free) and keeps per-byte-range access history
/// on every vgpu::Buffer it sees. Unordered write/write or read/write pairs
/// become findings naming both ops and the missing edge. On the same feed it
/// lints API misuse: copies through closed IPC mappings, waits on unrecorded
/// events, message truncation, tag-mismatched pairs, unwaited requests, and
/// streams destroyed with unsynchronized work.
///
/// Install with Cluster::set_checker (or Runtime::attach + Job::attach
/// directly); read `report()` after the run.
class Checker : public vgpu::RuntimeObserver, public simpi::JobObserver {
 public:
  explicit Checker(sim::Engine& eng) : eng_(eng) {}

  CheckReport& report() { return report_; }
  const CheckReport& report() const { return report_; }

  /// Optional telemetry sink: every finding (race, leak, lint, ...) is
  /// counted by kind and triggers a flight-recorder tail dump, exactly like
  /// deadlocks and transport errors. Cluster wires it to the attached
  /// telemetry sink (nullptr when none is attached).
  void set_telemetry(telemetry::Telemetry* t) { telemetry_ = t; }

  /// Ordered log of every happens-before edge the checker derived from real
  /// synchronization (event waits, stream/device syncs, MPI post/completion,
  /// barriers), in resource-description form. Feed it to
  /// telemetry::CriticalPath::add_hb_edges to refine the critical chain with
  /// the exact sync structure instead of timeline heuristics. Bounded: after
  /// kMaxHbEdges the log stops growing (analysis windows are short; the cap
  /// only guards arbitrarily long checked runs).
  const std::vector<telemetry::HbEdge>& hb_edges() const { return hb_edges_; }
  void clear_hb_edges() { hb_edges_.clear(); }

  static constexpr std::size_t kMaxHbEdges = 1u << 20;

  /// Logical threads (tids) allocated so far: one per host actor, per
  /// stream, per persistent request, plus the request tids that have ever
  /// been in flight at once on a host (a completed request's tid is reused
  /// by the next request its waiter posts). Flat across repeated exchanges.
  std::size_t threads() const { return next_tid_ - 1; }

  /// Barrier generations whose clock is still held: one is dropped once
  /// every actor that arrived at it has been released or failed out, so
  /// this stays at one or two however many barriers a run passes.
  std::size_t barrier_clocks() const { return barriers_.size(); }

  /// Shadow segments over every buffer seen, and the distinct access
  /// histories they share. Both stay flat across repeated exchanges once the
  /// shadow has its shape; a history leaked by a lost count would grow the
  /// second.
  std::size_t shadow_segments() const {
    std::size_t n = 0;
    for (const auto& [id, segs] : shadow_) n += segs.size();
    return n;
  }
  std::size_t live_histories() const { return histories_.size() - free_histories_.size(); }

  /// Run teardown lints (unwaited requests, tag-mismatched pairs, streams
  /// with unsynchronized work). Called automatically at Job end; call
  /// directly when driving the Runtime without a Job.
  void finish();

  // --- vgpu::RuntimeObserver ---------------------------------------------
  void on_op(const vgpu::OpInfo& op) override;
  void on_stream_create(const vgpu::Stream& s) override;
  void on_record_event(const vgpu::Event& ev, const vgpu::Stream& s) override;
  void on_stream_wait_event(const vgpu::Stream& s, const vgpu::Event& ev) override;
  void on_event_synchronize(const vgpu::Event& ev) override;
  void on_event_query(const vgpu::Event& ev, bool complete) override;
  void on_stream_synchronize(const vgpu::Stream& s) override;
  void on_device_synchronize(int ggpu) override;
  void on_stream_destroy(const vgpu::Stream& s) override;
  void on_ipc_misuse(const vgpu::IpcMappedPtr& p, const std::string& what) override;

  // --- simpi::JobObserver -------------------------------------------------
  void on_job_start(int world_size) override;
  void on_job_end() override;
  void on_post(const simpi::MsgInfo& m) override;
  void on_match(const simpi::MsgInfo& send, const simpi::MsgInfo& recv,
                const simpi::Delivery& d) override;
  void on_truncation(const simpi::MsgInfo& send, const simpi::MsgInfo& recv) override;
  void on_request_done(std::uint64_t serial, sim::Time at) override;
  void on_request_cancel(std::uint64_t serial) override;
  void on_transport_error(const std::string& what, sim::Time at) override;
  void on_barrier_arrive(std::uint64_t generation) override;
  void on_barrier_release(std::uint64_t generation) override;
  void on_persistent_init(const simpi::MsgInfo& m) override;
  void on_persistent_start(const simpi::MsgInfo& m) override;
  void on_persistent_free(std::uint64_t serial, bool active) override;

 private:
  /// What names a request in findings: its envelope, rendered into text
  /// only when a finding or lint needs it.
  struct RequestName {
    std::uint64_t serial = 0;
    int src = -1, dst = -1, tag = 0;
    bool is_send = false;
    bool persistent = false;
  };

  /// How a recorded access renders in a finding: the op's trace label and
  /// the logical thread that performed it. Built once per (stream, op label)
  /// or request, and shared, immutable, by every access history that names
  /// it. The thread name is captured here because request tids are reused:
  /// a tid alone cannot name the thread that made an old record.
  struct AccessLabel {
    std::string text;    // trace label of the op plus its thread; a request's, once rendered
    std::string thread;  // description of the performing thread; empty for a request
    RequestName req;     // a request label's envelope
    std::size_t refs = 0;
  };

  /// Counted handle on an AccessLabel, freed with its last handle. Access
  /// histories hold one per record; the count is a plain integer, because a
  /// checker is only ever called from its engine's thread (actors are fibers
  /// on it).
  class Label {
   public:
    Label() = default;
    static Label make(std::string text, std::string thread) {
      return Label(new AccessLabel{std::move(text), std::move(thread), {}, 0});
    }
    /// A request's label: its description is built on the first text() call,
    /// not at every post.
    static Label request(const simpi::MsgInfo& m) {
      const RequestName r{m.serial, m.src, m.dst, m.tag, m.is_send, m.persistent};
      return Label(new AccessLabel{{}, {}, r, 0});
    }
    Label(const Label& o) : Label(o.p_) {}
    Label(Label&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
    Label& operator=(Label o) noexcept {
      std::swap(p_, o.p_);
      return *this;
    }
    ~Label() {
      if (p_ != nullptr && --p_->refs == 0) delete p_;
    }
    explicit operator bool() const { return p_ != nullptr; }
    /// The access's text; a request's is its description.
    const std::string& text() const;
    /// The performing thread's description; a request is its own thread.
    const std::string& thread() const { return p_->thread.empty() ? text() : p_->thread; }

   private:
    explicit Label(AccessLabel* p) : p_(p) {
      if (p_ != nullptr) ++p_->refs;
    }
    AccessLabel* p_ = nullptr;
  };

  /// One recorded access: performed at `at.tid`'s epoch `at.epoch`. A later
  /// access with happens-before knowledge C is ordered after it iff
  /// at.epoch <= C[at.tid]. Only the epoch is stored, never a clock: the
  /// ordering test reads the *current* access's clock, not the prior one's.
  struct AccessRec {
    Epoch at;
    Label label;
    sim::Time when = 0;
  };

  /// The access history of some bytes: the last write and the reads since
  /// that no later read subsumes. Immutable once built, and shared by every
  /// shadow segment whose bytes have that history (counted by `refs`), so an
  /// op checks races and builds a successor once per distinct history it
  /// meets, not once per row.
  struct History {
    AccessRec write;  // no write yet while write.label is empty
    std::vector<AccessRec> reads;
    std::uint32_t refs = 0;
    /// Memo of the op being recorded (see successor), not part of the
    /// content: the history this one becomes under the op's read [0] and
    /// write [1]. Both are null between ops.
    History* next[2] = {nullptr, nullptr};
  };

  /// One buffer's shadow: disjoint segments, each pointing at its history
  /// and holding one count on it.
  using Shadow = SegmentMap<History*>;

  struct HostState {
    Tid tid = 0;
    VClock clock;
    std::uint64_t version = 0;   // changes whenever `clock` rises (see raise)
    std::string desc;            // engine actor name ("rank0", ...)
    std::vector<Tid> free_tids;  // retired request tids this actor reuses
    /// Barrier generation this actor arrived at and has not left yet.
    std::optional<std::uint64_t> barrier;
  };

  struct StreamState {
    Tid tid = 0;
    int device = 0;
    VClock clock;      // knowledge of the last op enqueued on the stream
    std::string name;  // "gpu0/s1" (hb-edge log)
    std::string desc;  // "stream gpu0/s1"
    Label last_label;  // for the destroy-with-pending-work lint
    /// One interned AccessLabel per distinct op label issued on the stream.
    std::vector<std::pair<std::string, Label>> labels;
    /// Versions of the host clock and of the device's `dflt` that `clock`
    /// last absorbed. A join from a source still at that version is skipped:
    /// joins are idempotent and `clock` never shrinks, so it changes nothing.
    std::uint64_t host_seen = 0;
    std::uint64_t dflt_seen = 0;
    /// The stream's latest op is not yet folded into its device's `all`.
    bool unfolded = false;
  };

  struct DeviceClocks {
    /// Join of every op on the device (any stream), once `fold` has joined
    /// in the streams listed in `unfolded`. A stream's clock only grows, and
    /// each op's clock contains the previous op's on that stream, so folding
    /// a stream's latest op covers every earlier one: `all` is folded only
    /// where it is read, not once per op.
    VClock all;
    VClock dflt;  // join of default-stream ops + CUDA-aware MPI occupation
    std::uint64_t dflt_version = 0;
    std::vector<StreamState*> unfolded;
    std::string name;  // "gpu0" (hb-edge log), built at the first device sync
  };

  struct EventState {
    VClock clock;          // stream knowledge captured at record time
    std::string src_desc;  // stream that recorded it (hb-edge log)
  };

  /// One barrier generation, from its first arrival until every actor that
  /// arrived has left it, released or failed out.
  struct BarrierState {
    VClock clock;      // join of the arrivals' host clocks
    int waiting = 0;   // actors that arrived and have not left
    bool released = false;
    std::string name;  // "barrier#7" (hb-edge log)
  };

  /// One MPI request, from post until it is both done (its waiter joined the
  /// completion) and resolved (matched, or lost). A non-persistent request
  /// is then erased, so the map holds only requests still in flight, plus
  /// persistent ones, which live until teardown.
  struct ReqState {
    /// Fresh or reused from the posting host's free list; a non-persistent
    /// request's tid goes back on its waiter's free list when done.
    Tid tid = 0;
    VClock completion;  // what wait/test joins into the waiter
    bool resolved = false;
    bool done = false;
    bool cancelled = false;
    bool is_send = false;
    // Persistent lifecycle: one ReqState per Record, re-armed on each start.
    // Active (in flight) means started and not yet completed.
    bool persistent = false;
    bool freed = false;
    std::uint64_t starts = 0;
    int src = -1, dst = -1, tag = 0;
    Label label;  // the request's description, as both text and thread
  };

  /// State of the calling host actor, created with a fresh tid on first use.
  HostState& host();
  StreamState& stream_state(const vgpu::Stream& s);
  /// The interned label of op `label` on stream `ss`.
  const Label& op_label(StreamState& ss, const std::string& label);
  Tid new_tid() { return next_tid_++; }
  /// dst |= src, and give dst a fresh version if any component rose.
  void raise(VClock& dst, std::uint64_t& version, const VClock& src) {
    if (dst.join(src)) version = ++versions_;
  }
  /// Join the device's unfolded streams into its `all` clock. The stream
  /// overload folds that stream's latest op alone, before something other
  /// than an op changes its clock.
  void fold(DeviceClocks& dc);
  void fold(StreamState& ss);
  /// The calling actor left its barrier generation (released or failed).
  void leave_barrier(HostState& h);
  /// Record every access of one op (or request) at `rec`, looking up each
  /// buffer's shadow once per run of accesses to it.
  void record_accesses(std::span<const vgpu::MemAccess> accesses, const AccessRec& rec,
                       const VClock& clock);
  /// Record [a.offset, a.offset + a.bytes) in `segs` and return the first
  /// segment starting at or after its end. With `resume`, `it` is such a
  /// return for an earlier access that ended at or before a.offset, and the
  /// walk steps on from there instead of searching.
  Shadow::Pos record_access(Shadow& segs, Shadow::Pos it, bool resume, const vgpu::MemAccess& a,
                            const AccessRec& rec, const VClock& clock);
  /// The history that bytes with history `prior` (nullptr: never accessed)
  /// have after the current op's access: computed, with its race checks, on
  /// the first call per (prior, write) in an op and memoized for the rest.
  History* successor(History* prior, const AccessRec& rec, const VClock& clock, bool write);
  /// Drop the current op's memo (and the counts it held).
  void end_op();
  History* new_history();
  static void retain(History* h) { ++h->refs; }
  void release(History* h);
  void check_pair(const AccessRec& prior, bool prior_is_write, const AccessRec& cur,
                  const VClock& clock, bool cur_is_write);
  void add_race(FindingKind kind, const AccessRec& prior, const AccessRec& cur);
  /// Files a finding: notifies the telemetry sink, then adds to the report.
  void add_finding(Finding f);
  /// Append to the hb-edge log (no-op past kMaxHbEdges). `msg` carries the
  /// message identity (request serial) for edges derived from MPI matching.
  void log_hb(const std::string& from, const std::string& to, std::uint64_t msg = 0);
  /// "mpi.r0->r1": the hb-edge name of messages from rank `src` to `dst`,
  /// built once per pair.
  const std::string& mpi_name(int src, int dst);

  sim::Engine& eng_;
  CheckReport report_;
  telemetry::Telemetry* telemetry_ = nullptr;
  Tid next_tid_ = 1;
  std::unordered_map<int, HostState> hosts_;  // by engine actor id
  using StreamKey = std::pair<int, std::uint64_t>;  // (device, id)
  struct StreamKeyHash {
    std::size_t operator()(const StreamKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(k.second * 0x9E3779B97F4A7C15ull +
                                        static_cast<std::uint64_t>(k.first));
    }
  };
  std::unordered_map<StreamKey, StreamState, StreamKeyHash> streams_;
  std::unordered_map<int, DeviceClocks> devices_;
  std::unordered_map<const vgpu::Event*, EventState> events_;
  std::unordered_map<std::uint64_t, ReqState> requests_;  // by serial
  std::map<std::uint64_t, BarrierState> barriers_;         // by generation
  // Shadow memory: buffer id -> segments. Histories are owned by
  // `histories_`; a released one goes on `free_histories_` for reuse.
  std::unordered_map<std::uint64_t, Shadow> shadow_;
  std::vector<std::unique_ptr<History>> histories_;
  std::vector<History*> free_histories_;
  // The op being recorded: the histories it memoized a successor on (each
  // holding one count), and the successors of never-accessed bytes under
  // its read [0] and write [1].
  std::vector<History*> memo_;
  History* fresh_[2] = {nullptr, nullptr};
  std::unordered_map<std::uint64_t, std::string> mpi_names_;  // by (src, dst)
  std::uint64_t versions_ = 0;  // last clock version handed out (see raise)
  std::vector<telemetry::HbEdge> hb_edges_;
  // Race dedup: (kind, first label, second label) already reported.
  std::set<std::string> reported_;
};

}  // namespace stencil::check
