#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "simpi/observer.h"
#include "simtime/engine.h"
#include "simtime/resource.h"
#include "topo/machine.h"
#include "vgpu/runtime.h"

namespace stencil::simpi {

class Comm;

/// What a message carries. Either a vgpu::Buffer slice (pinned host or
/// device memory) or a raw host pointer (ordinary memory, used for setup
/// metadata such as IPC handles and sizes). Device payloads require a
/// CUDA-aware platform, exactly like passing a device pointer to MPI_Isend.
struct Payload {
  vgpu::Buffer* buf = nullptr;
  std::size_t offset = 0;
  void* raw = nullptr;
  std::size_t bytes = 0;

  static Payload of(vgpu::Buffer& b, std::size_t off, std::size_t n) {
    return Payload{&b, off, nullptr, n};
  }
  static Payload raw_host(void* p, std::size_t n) { return Payload{nullptr, 0, p, n}; }
  template <typename T>
  static Payload of_values(T* p, std::size_t count) {
    return raw_host(const_cast<std::remove_const_t<T>*>(p), count * sizeof(T));
  }

  bool is_device() const { return buf != nullptr && buf->space() == vgpu::MemSpace::kDevice; }
};

/// Thrown instead of hanging when fault injection is active: a
/// single-request wait (wait, send, recv) found no matching peer within the
/// retry budget (kTimeout; wait_any has no budget), or the message was lost
/// and every retry was dropped too (kRetriesExhausted). Terminal failures
/// add two ULFM-style codes: kPeerDead (the peer rank is permanently dead —
/// scripted kGpuFail/kNodeFail — and Job::detected_at has passed) and
/// kRevoked (another rank revoked the communicator while this operation was
/// pending; see Job::revoke). Without a retry policy or terminal faults the
/// library keeps its MPI-faithful behaviour (block forever; the engine's
/// deadlock detector fires if nothing else can run).
class TransportError : public std::runtime_error {
 public:
  enum class Code { kTimeout, kRetriesExhausted, kPeerDead, kRevoked };
  TransportError(Code code, int peer, int tag, const std::string& what)
      : std::runtime_error(what), code_(code), peer_(peer), tag_(tag) {}
  Code code() const { return code_; }
  int peer() const { return peer_; }
  int tag() const { return tag_; }

 private:
  Code code_;
  int peer_;
  int tag_;
};

/// Handle to a pending nonblocking operation. Copyable; all copies refer to
/// the same operation. The count is a plain integer and the record is freed
/// with its last handle: a Job and every Request it issues live on one
/// engine thread (actors are fibers on it), so no handle ever crosses
/// threads, also when several jobs run side by side on separate engines.
class Request {
 public:
  Request() = default;
  Request(const Request& o) : Request(o.rec_) {}
  Request(Request&& o) noexcept : rec_(std::exchange(o.rec_, nullptr)) {}
  Request& operator=(Request o) noexcept {
    std::swap(rec_, o.rec_);
    return *this;
  }
  ~Request();
  bool valid() const { return rec_ != nullptr; }

  struct Record;  // implementation detail, public only so helpers can name it

 private:
  friend class Job;
  friend class Comm;
  explicit Request(Record* rec);
  Record* rec_ = nullptr;
};

/// One simulated MPI job: `ranks_per_node * machine.num_nodes()` ranks, each
/// an engine actor. Owns the matching engine, per-rank CPU resources, and
/// collective state. Ranks are block-mapped to nodes (rank r lives on node
/// r / ranks_per_node), matching how jobs are launched on Summit.
class Job {
 public:
  /// Host-memory sends at or below this size complete eagerly (buffered).
  static constexpr std::size_t kEagerLimit = 64 * 1024;

  Job(sim::Engine& eng, topo::Machine& machine, vgpu::Runtime& runtime, int ranks_per_node);

  /// SPMD entry point: runs `body` once per rank, to completion.
  void run(const std::function<void(Comm&)>& body);

  sim::Engine& engine() { return eng_; }
  topo::Machine& machine() { return machine_; }
  vgpu::Runtime& runtime() { return runtime_; }

  int world_size() const { return world_size_; }
  int ranks_per_node() const { return ranks_per_node_; }
  int node_of_rank(int rank) const { return rank / ranks_per_node_; }

  /// The CPU resource of a rank (one core driving copies and issue).
  sim::Resource& cpu(int rank) { return cpu_[static_cast<std::size_t>(rank)]; }

  /// Observers (trace recorder and collector, checker, telemetry, watch,
  /// progress monitor) see every post, match, drop, completion, barrier
  /// crossing, failure transition, and exchange heartbeat, in attach order
  /// (attach each once). Pure bookkeeping: never changes virtual time.
  void attach(JobObserver* o) { observers_.push_back(o); }
  void detach(JobObserver* o) { std::erase(observers_, o); }

  /// Exchange heartbeats from the halo layer, fanned out to the observers:
  /// world rank `rank` begins exchange `seq` now / completes the exchange it
  /// began at `began` now.
  void exchange_begin(int rank, std::uint64_t seq);
  void exchange_complete(int rank, std::uint64_t seq, sim::Time began);

  // --- ULFM-style failure semantics (stencil::recover) ----------------------

  /// Instant rank `r` dies, or fault::kForever. A rank is dead once its node
  /// fails or every GPU it drives fails (block mapping: rank r on node
  /// r/ranks_per_node drives the slot's gpus_per_node/ranks_per_node GPUs).
  /// Pure oracle over the installed fault plan; kForever without an injector.
  sim::Time rank_fail_time(int r) const;

  /// The failure detector: when a wait pending since `since` learns that
  /// rank `r` is dead, max(since, rank_fail_time(r)) + the plan's detection
  /// latency; fault::kForever for a rank that never dies.
  sim::Time detected_at(int r, sim::Time since) const;

  /// Ranks still participating (world size minus retired ranks). Collectives
  /// count to this target.
  int live_count() const { return world_size_ - retired_count_; }
  bool rank_retired(int r) const { return retired_[static_cast<std::size_t>(r)]; }

  /// MPI_Comm_revoke analogue: bump the communicator epoch and wake every
  /// parked wait. Operations posted under an older epoch that are still
  /// unmatched complete with TransportError::kRevoked; operations posted
  /// after the revoke (the recovery traffic itself) are unaffected.
  /// Idempotent per failure incident: further revokes are no-ops until
  /// clear_revoke() closes the incident (call it after the post-recovery
  /// barrier, when every survivor has aborted its stale operations).
  void revoke();
  bool revoked() const { return revoked_; }
  void clear_revoke() { revoked_ = false; }

  /// Acknowledge a dead rank: cancel every unmatched request it posted
  /// (notifying the observers), shrink the collective target, and wake all
  /// waiters so barriers blocked only on the dead rank release. Idempotent.
  void retire_rank(int r);

  /// Deterministic drain protocol: a dying rank parks here until every
  /// survivor has called release_drained() after finishing recovery, so its
  /// shared-memory channels and IPC buffers outlive all remote references.
  void await_drain(int me);
  void release_drained(int me);

  /// Return a request to the inactive state without waiting: unmatched
  /// records are cancelled, matched ones are drained (sleeping to their
  /// completion instant so buffer reuse stays race-free) and marked done.
  /// Non-persistent handles are invalidated. Recovery uses this to abort
  /// an in-flight exchange without tripping the checker's unwaited lint.
  void reset(Request& r);

  /// Park on a COLOCATED channel's gate until `ready()` holds. The channel
  /// has no MPI envelope, so the wait checks for failure itself: kRevoked on
  /// a revoke (seen when it next wakes), kPeerDead at detected_at(peer, 0).
  /// The deadlock detail and error text start with "<what> tag=<tag>".
  void channel_wait(sim::Gate& gate, int peer, int tag, const std::function<bool()>& ready,
                    const char* what);

  /// The one transport-error exit: notify the observers (telemetry counts
  /// it, logs it to the flight ring and captures a dump), then throw. Every
  /// layer that aborts on a transport condition throws through here.
  [[noreturn]] void fail(TransportError::Code code, int peer, int tag, const std::string& what);

 private:
  friend class Comm;

  // A fresh Record after the argument checks and the call's CPU cost.
  Request make_record(bool is_send, int me, int peer, int tag, const Payload& p);
  // Enter matching (post, or persistent start): stage eager sends, notify,
  // then match against the oldest opposite record with the same (src, tag)
  // or queue.
  void enqueue(const Request& r);
  Request post(bool is_send, int me, int peer, int tag, const Payload& p);
  Request init(bool is_send, int me, int peer, int tag, const Payload& p);
  void start(Request& r);
  void request_free(Request& r);
  void complete_match(Request::Record& send, Request::Record& recv);
  // Drop this still-unmatched record from its queue (wait failure paths).
  void cancel_unmatched(Request::Record& rec);
  void wait(Request& r, int me);
  bool test(Request& r);
  int wait_any(std::vector<Request>& rs, int me);
  // The blocking loop of wait (`any` false) and wait_any: the index of the
  // active entry that completes first, or -1 if none is active. It fails an
  // entry posted before a revoke (kRevoked), one whose peer is dead at its
  // detected_at (kPeerDead), and rs[0] at `timeout_at` (kTimeout).
  int await_first(std::span<Request> rs, int me, sim::Time timeout_at, bool any);
  // The completion step of wait, wait_any and test: sleep to complete_at,
  // mark done, and throw kRetriesExhausted for a lost message.
  void finish(Request::Record& rec);
  void barrier(int me);
  // Completion of a request observed by the calling actor.
  void done(Request::Record& rec);
  sim::Time device_ready_barrier(const Request::Record& send, const Request::Record& recv,
                                 sim::Time ready);

  sim::Engine& eng_;
  topo::Machine& machine_;
  vgpu::Runtime& runtime_;
  std::vector<JobObserver*> observers_;
  int ranks_per_node_ = 0;
  int world_size_ = 0;
  std::uint64_t next_request_serial_ = 1;

  std::vector<sim::Resource> cpu_;                       // per rank
  std::vector<std::unique_ptr<sim::Gate>> rank_gates_;   // per rank: wakes its waits
  // Unmatched queues, bucketed by destination rank, in post order. Between
  // posts no queued send matches a queued recv of the same bucket (a post
  // matches at once or queues), so a post scans only the opposite queue.
  // Each entry carries its record's (src, tag), so the scan reads keys
  // packed in the queue instead of one cold record per entry.
  struct Queued {
    int src;
    int tag;
    Request req;
  };
  std::vector<std::deque<Queued>> unmatched_sends_;
  std::vector<std::deque<Queued>> unmatched_recvs_;

  // Barrier state.
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;
  sim::Time barrier_release_ = 0;
  sim::Time barrier_max_arrival_ = 0;
  std::unique_ptr<sim::Gate> barrier_gate_;

  // ULFM-style failure state.
  void release_barrier();
  bool revoked_ = false;
  std::uint64_t comm_epoch_ = 0;
  std::vector<bool> retired_;
  int retired_count_ = 0;
  std::unique_ptr<sim::Gate> drain_gate_;
  int drain_acks_ = 0;
};

// Field order is access order: everything matching and the waits read sits
// in the first 64 bytes; the serial (read by observers only), the
// payload, the eager staging buffer and the persistent start count follow.
struct Request::Record {
  std::uint32_t refs = 0;  // Request handles (the unmatched queues hold one)
  bool is_send = false;
  bool matched = false;
  // Persistent requests (MPI_Send_init/MPI_Recv_init): the Record is created
  // once, then re-armed by start(); `active` tracks started-but-not-completed
  // and `starts` counts the re-arms. Identity (serial) never changes, so
  // observers see one reusable record across thousands of iterations.
  bool persistent = false;
  bool active = false;
  bool cancelled = false;
  // Fault injection: the match was resolved but delivery failed (message
  // dropped and the retry budget exhausted). finish() throws TransportError
  // at complete_at instead of returning. `attempts` counts transmissions.
  bool failed = false;
  // Eager protocol: small host-memory sends are buffered inside the library
  // and complete immediately (like real MPI's eager path), so a blocking
  // small send never deadlocks against an out-of-order receiver.
  bool buffered = false;
  bool device = false;  // payload.is_device(), fixed at post
  int src = -1;
  int dst = -1;
  int tag = 0;
  sim::Time complete_at = 0;
  sim::Time post_time = 0;
  // Communicator epoch at post/start time: a revoke bumps the job epoch and
  // any still-unmatched record from an older epoch completes with kRevoked.
  std::uint64_t epoch = 0;
  // The payload's bytes, resolved when the record enters matching; null for
  // phantom buffers (timing only).
  std::byte* data = nullptr;
  int attempts = 1;
  std::uint64_t serial = 0;  // job-unique identity (for observers)
  Payload payload;
  std::vector<std::byte> staged;
  std::uint64_t starts = 0;
};

inline Request::Request(Record* rec) : rec_(rec) {
  if (rec_ != nullptr) ++rec_->refs;
}

inline Request::~Request() {
  if (rec_ != nullptr && --rec_->refs == 0) delete rec_;
}

/// The per-rank communicator handle (the world communicator; split() yields
/// sub-communicators whose ranks translate to world ranks internally).
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return static_cast<int>(members_.size()); }
  Job& job() { return *job_; }

  /// Node index this rank runs on (what hwloc/MPI would derive).
  int node() const { return job_->node_of_rank(world_rank()); }
  int world_rank() const { return members_[static_cast<std::size_t>(rank_)]; }
  /// World rank of any member (identity on the world communicator). Tag
  /// derivations that must be globally unique (aggregation headers under
  /// multi-tenancy) key off this instead of the sub-rank.
  int world_rank_of(int r) const { return members_.at(static_cast<std::size_t>(r)); }

  Request isend(const Payload& p, int dst, int tag);
  Request irecv(const Payload& p, int src, int tag);
  void send(const Payload& p, int dst, int tag);
  void recv(const Payload& p, int src, int tag);

  /// Persistent operations (MPI_Send_init / MPI_Recv_init / MPI_Start /
  /// MPI_Startall / MPI_Request_free). *_init creates a reusable Record but
  /// moves no data; each start() re-arms the same Record (same serial) and
  /// enters it into matching; wait()/wait_any() return it to the inactive
  /// state without invalidating the handle. wait() on an inactive persistent
  /// request returns immediately; start() on an active one throws (after
  /// notifying the observers; the checker lints it).
  Request send_init(const Payload& p, int dst, int tag);
  Request recv_init(const Payload& p, int src, int tag);
  void start(Request& r);
  /// Free a persistent handle. Freeing while active is linted by the checker;
  /// the in-flight operation still completes (deferred-free semantics).
  void request_free(Request& r);

  void wait(Request& r);
  /// MPI_Test: false while pending, else completes the request as wait does
  /// (a lost message throws kRetriesExhausted).
  bool test(Request& r);
  void waitall(std::vector<Request>& rs);

  /// MPI_Waitany: block until one of the valid requests completes, return
  /// its index, and invalidate it (REQUEST_NULL semantics). Returns -1 when
  /// no valid request remains. If several are complete, returns the one
  /// with the earliest completion time. Unlike wait it has no retry budget,
  /// so it never raises kTimeout (DESIGN.md §8 says why).
  int wait_any(std::vector<Request>& rs);

  void barrier();

  /// Gather `bytes` from every rank into recv (rank-major); simple
  /// setup-path collective (O(size) messages to root + bcast back).
  void allgather(const void* send, void* recv, std::size_t bytes);

  /// Split into sub-communicators by color; ranks ordered by (key, rank).
  Comm split(int color, int key) const;

  /// MPI_Comm_shrink analogue, made non-collective by the determinism of the
  /// fault oracle: every survivor locally derives the same surviving member
  /// list (ranks with no scripted terminal failure), in world-rank order.
  /// Only meaningful on survivors.
  Comm shrink() const;

  /// Job::reset on this communicator's matching engine (abort helper).
  void reset(Request& r) { job_->reset(r); }

  /// Virtual wall clock in seconds (MPI_Wtime).
  double wtime() const;

  /// The calling rank's CPU resource (for cost-model extensions).
  sim::Resource& cpu() { return job_->cpu(world_rank()); }

 private:
  friend class Job;
  Comm(Job* job, std::vector<int> members, int rank)
      : job_(job), members_(std::move(members)), rank_(rank) {}

  Job* job_ = nullptr;
  std::vector<int> members_;  // sub-rank -> world rank
  int rank_ = -1;             // my sub-rank
};

}  // namespace stencil::simpi
