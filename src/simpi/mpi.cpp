#include "simpi/mpi.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <stdexcept>

#include "core/tagspace.h"
#include "fault/fault.h"

namespace stencil::simpi {

namespace {

// Slots inside the reserved collective tag window (tagspace.h). Barrier
// dissemination rounds occupy slots [0, 32); allgather phases sit well away.
constexpr int kSlotBarrierRound0 = 0;
constexpr int kSlotGather = 100;
constexpr int kSlotBcast = 101;

int ceil_log2(int n) {
  int hops = 0;
  int v = 1;
  while (v < n) {
    v *= 2;
    ++hops;
  }
  return hops;
}

std::byte* payload_ptr(const Payload& p) {
  if (p.raw != nullptr) return static_cast<std::byte*>(p.raw);
  if (p.buf != nullptr && p.buf->mode() == vgpu::MemMode::kMaterialized) {
    return p.buf->data() + p.offset;
  }
  return nullptr;  // phantom: timing only
}

int peer_of(const Request::Record& rec) { return rec.is_send ? rec.dst : rec.src; }

// What a pending operation is waiting for, for the deadlock diagnostic.
std::string wait_detail(const Request::Record& rec) {
  return (rec.is_send ? "send dst=" + std::to_string(rec.dst)
                      : "recv src=" + std::to_string(rec.src)) +
         " tag=" + std::to_string(rec.tag);
}

// Virtual time the full retry schedule of rp can take: the initial timeout
// plus one timeout + backoff (cap and jitter included at their maximum) per
// retry. A waiter that outlives this budget knows no matching peer will
// ever arrive in time.
sim::Duration retry_budget(const fault::RetryPolicy& rp) {
  return rp.timeout * (rp.max_retries + 1) + rp.backoff_budget(rp.max_retries);
}

// Jitter salt identifying one (src, dst, tag) message stream: the retry
// schedule must be a pure function of the plan and the message, never of
// call order.
std::uint64_t retry_salt(const fault::Injector& inj, int src, int dst, int tag) {
  const std::uint64_t pair = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
                             static_cast<std::uint32_t>(dst);
  return fault::mix64(pair ^ fault::mix64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)) ^
                                          inj.plan().seed()));
}

MsgInfo msg_info(const Request::Record& rec) {
  MsgInfo m;
  m.serial = rec.serial;
  m.is_send = rec.is_send;
  m.src = rec.src;
  m.dst = rec.dst;
  m.tag = rec.tag;
  m.payload = &rec.payload;
  m.bytes = rec.payload.bytes;
  m.buffered = rec.buffered;
  m.persistent = rec.persistent;
  m.post_time = rec.post_time;
  return m;
}

}  // namespace

static_assert(offsetof(Request::Record, attempts) + sizeof(int) <= 64,
              "matching and wait fields must share the Record's first 64 bytes");

Job::Job(sim::Engine& eng, topo::Machine& machine, vgpu::Runtime& runtime, int ranks_per_node)
    : eng_(eng), machine_(machine), runtime_(runtime), ranks_per_node_(ranks_per_node) {
  if (ranks_per_node_ <= 0) throw std::invalid_argument("Job: ranks_per_node must be positive");
  if (machine_.gpus_per_node() % ranks_per_node_ != 0) {
    throw std::invalid_argument("Job: ranks_per_node must divide gpus_per_node");
  }
  world_size_ = ranks_per_node_ * machine_.num_nodes();
  cpu_.reserve(static_cast<std::size_t>(world_size_));
  rank_gates_.reserve(static_cast<std::size_t>(world_size_));
  for (int r = 0; r < world_size_; ++r) {
    cpu_.emplace_back("rank" + std::to_string(r) + ".cpu");
    rank_gates_.push_back(std::make_unique<sim::Gate>("rank" + std::to_string(r) + ".mpi"));
  }
  unmatched_sends_.resize(static_cast<std::size_t>(world_size_));
  unmatched_recvs_.resize(static_cast<std::size_t>(world_size_));
  barrier_gate_ = std::make_unique<sim::Gate>("barrier");
  retired_.resize(static_cast<std::size_t>(world_size_), false);
  drain_gate_ = std::make_unique<sim::Gate>("recover.drain");
}

void Job::exchange_begin(int rank, std::uint64_t seq) {
  for (JobObserver* o : observers_) o->on_exchange_begin(rank, seq, eng_.now());
}

void Job::exchange_complete(int rank, std::uint64_t seq, sim::Time began) {
  const sim::Time now = eng_.now();
  for (JobObserver* o : observers_) o->on_exchange_complete(rank, seq, now - began, now);
}

void Job::run(const std::function<void(Comm&)>& body) {
  std::vector<int> members(static_cast<std::size_t>(world_size_));
  for (int r = 0; r < world_size_; ++r) members[static_cast<std::size_t>(r)] = r;

  std::vector<std::function<void()>> bodies;
  std::vector<std::string> names;
  bodies.reserve(static_cast<std::size_t>(world_size_));
  for (int r = 0; r < world_size_; ++r) {
    bodies.push_back([this, r, members, &body] {
      Comm comm(this, members, r);
      body(comm);
    });
    names.push_back("rank" + std::to_string(r));
  }
  for (JobObserver* o : observers_) o->on_job_start(world_size_);
  eng_.run(std::move(bodies), std::move(names));
  for (JobObserver* o : observers_) o->on_job_end();
}

Request Job::make_record(bool is_send, int me, int peer, int tag, const Payload& p) {
  if (peer < 0 || peer >= world_size_) throw std::out_of_range("simpi: peer rank out of range");
  if (p.is_device() && !machine_.arch().cuda_aware_mpi) {
    throw std::runtime_error(
        "simpi: device pointer passed to MPI, but this platform is not CUDA-aware");
  }
  eng_.sleep_for(machine_.arch().cpu_issue);  // CPU cost of the MPI call

  Request r(new Request::Record);
  Request::Record& rec = *r.rec_;
  rec.serial = next_request_serial_++;
  rec.is_send = is_send;
  rec.src = is_send ? me : peer;
  rec.dst = is_send ? peer : me;
  rec.tag = tag;
  rec.payload = p;
  rec.device = p.is_device();
  rec.post_time = eng_.now();
  return r;
}

void Job::enqueue(const Request& r) {
  Request::Record& rec = *r.rec_;
  rec.epoch = comm_epoch_;
  rec.data = payload_ptr(rec.payload);
  if (rec.is_send && !rec.device && rec.payload.bytes <= kEagerLimit) {
    // Eager protocol: buffer the payload inside the library (re-staged on
    // every persistent start: the contents differ each iteration even though
    // the envelope is frozen); the send completes immediately and the data
    // moves when the receive matches.
    rec.buffered = true;
    rec.matched = true;
    rec.complete_at = rec.post_time;
    if (rec.data != nullptr && rec.payload.bytes > 0) {
      rec.staged.assign(rec.data, rec.data + rec.payload.bytes);
    }
  }
  if (!observers_.empty()) {
    const MsgInfo m = msg_info(rec);
    if (!rec.persistent) {
      for (JobObserver* o : observers_) o->on_post(m);
    }
    for (JobObserver* o : observers_) o->on_queued(m);  // before matching can consume it
  }
  // No queued pair was matchable before this post, so only the new record can
  // match, and at most once: with the oldest opposite record of its (src, tag)
  // (MPI non-overtaking per (src, tag)). A matched record never enters a queue.
  const std::size_t bucket = static_cast<std::size_t>(rec.dst);
  auto& opposite = rec.is_send ? unmatched_recvs_[bucket] : unmatched_sends_[bucket];
  const auto it = std::find_if(opposite.begin(), opposite.end(), [&](const Queued& q) {
    return q.src == rec.src && q.tag == rec.tag;
  });
  if (it == opposite.end()) {
    (rec.is_send ? unmatched_sends_[bucket] : unmatched_recvs_[bucket])
        .push_back(Queued{rec.src, rec.tag, r});
    return;
  }
  const Request other = std::move(it->req);
  opposite.erase(it);
  if (rec.is_send) {
    complete_match(rec, *other.rec_);
  } else {
    complete_match(*other.rec_, rec);
  }
}

Request Job::post(bool is_send, int me, int peer, int tag, const Payload& p) {
  Request r = make_record(is_send, me, peer, tag, p);
  enqueue(r);
  return r;
}

Request Job::init(bool is_send, int me, int peer, int tag, const Payload& p) {
  Request r = make_record(is_send, me, peer, tag, p);  // local call, no data motion
  r.rec_->persistent = true;
  const MsgInfo m = msg_info(*r.rec_);
  for (JobObserver* o : observers_) o->on_persistent_init(m);
  return r;  // nothing enters matching until start()
}

void Job::start(Request& r) {
  if (!r.valid()) throw std::logic_error("simpi: start on an invalid Request");
  auto& rec = *r.rec_;
  if (!rec.persistent) throw std::logic_error("simpi: start on a non-persistent request");
  // Notify before rejecting, so the checker can lint the double start.
  const MsgInfo m = msg_info(rec);
  for (JobObserver* o : observers_) o->on_persistent_start(m);
  if (rec.active) {
    throw std::logic_error("simpi: start on an already-active persistent request");
  }
  eng_.sleep_for(machine_.arch().cpu_issue);

  // Re-arm the same Record: identity (serial) is reused, per-iteration state
  // resets. This is the whole point of the persistent path — no new Record
  // allocation and no new observer identity per iteration.
  rec.matched = false;
  rec.complete_at = 0;
  rec.cancelled = false;
  rec.failed = false;
  rec.attempts = 1;
  rec.buffered = false;
  rec.staged.clear();
  rec.post_time = eng_.now();
  rec.active = true;
  ++rec.starts;
  enqueue(r);
}

void Job::request_free(Request& r) {
  if (!r.valid()) throw std::logic_error("simpi: request_free on an invalid Request");
  auto& rec = *r.rec_;
  const bool active = rec.persistent && rec.active;
  for (JobObserver* o : observers_) o->on_persistent_free(rec.serial, active);
  // Deferred-free semantics: an in-flight operation stays in the matching
  // queues and still completes/delivers; only the caller's handle dies.
  r = Request();
}

sim::Time Job::device_ready_barrier(const Request::Record& send, const Request::Record& recv,
                                    sim::Time ready) {
  // The profiled MPI implementation calls cudaDeviceSynchronize before its
  // internal copies, so the message cannot move until all prior work on the
  // involved devices has drained.
  if (send.device) {
    ready = std::max(ready, runtime_.device_frontier(send.payload.buf->owner()));
  }
  if (recv.device) {
    ready = std::max(ready, runtime_.device_frontier(recv.payload.buf->owner()));
  }
  return ready;
}

void Job::complete_match(Request::Record& send, Request::Record& recv) {
  const std::size_t bytes = send.payload.bytes;
  if (recv.payload.bytes < bytes) {
    for (JobObserver* o : observers_) o->on_truncation(msg_info(send), msg_info(recv));
    throw std::runtime_error("simpi: message truncation (recv buffer smaller than message)");
  }
  const int node_s = node_of_rank(send.src);
  const int node_r = node_of_rank(recv.dst);
  const bool same_node = node_s == node_r;
  const auto& arch = machine_.arch();
  const bool device = send.device || recv.device;
  // Report the resolution, then wake both endpoints.
  const auto resolve = [&](const Delivery& d) {
    if (!observers_.empty()) {
      const MsgInfo ms = msg_info(send);
      const MsgInfo mr = msg_info(recv);
      for (JobObserver* o : observers_) o->on_match(ms, mr, d);
    }
    rank_gates_[static_cast<std::size_t>(send.src)]->notify_all(eng_);
    rank_gates_[static_cast<std::size_t>(recv.dst)]->notify_all(eng_);
  };

  sim::Time ready = std::max(send.post_time, recv.post_time) +
                    (same_node ? arch.lat_mpi_intra : arch.lat_mpi_inter);

  // Fault injection: extra path delay, plus drop-and-retry. The schedule is
  // resolved analytically here (the engine is deterministic, so the retry
  // timeline is a pure function of the plan) rather than by re-posting.
  if (const fault::Injector* inj = machine_.fault_injector(); inj != nullptr && inj->active()) {
    ready += inj->message_delay(node_s, node_r, ready);
    const fault::RetryPolicy& rp = inj->retry_policy();
    const std::uint64_t salt = retry_salt(*inj, send.src, recv.dst, send.tag);
    int attempt = 0;
    bool delivered = true;
    while (inj->message_dropped(node_s, node_r, send.src, recv.dst, send.tag, attempt, ready)) {
      if (!rp.enabled() || attempt >= rp.max_retries) {
        delivered = false;
        break;
      }
      const sim::Time retry_at = ready + rp.timeout + rp.backoff_delay(attempt, salt);
      for (JobObserver* o : observers_) o->on_drop(msg_info(send), attempt + 1, {ready, retry_at});
      ready = retry_at;
      ++attempt;
    }
    send.attempts = recv.attempts = attempt + 1;
    if (!delivered) {
      // Every transmission was lost. The sender's last timeout expires and
      // both sides fail; wait() turns this into a TransportError. An eager
      // (buffered) send already completed at post time, like real MPI — only
      // the receiver observes the loss.
      const sim::Time fail_at = ready + (rp.enabled() ? rp.timeout : 0);
      if (!send.buffered) {
        send.matched = true;
        send.failed = true;
        send.complete_at = fail_at;
      }
      recv.matched = true;
      recv.failed = true;
      recv.complete_at = fail_at;
      resolve({false, same_node, device, node_s, node_r, recv.attempts, ready, {ready, fail_at}});
      return;
    }
  }

  const bool dev_s = send.device;
  const bool dev_r = recv.device;
  // Instant both endpoints were ready, before any resource queuing: the
  // watch measures span.end - wire_ready so queueing on shared wires counts
  // as observed cost.
  const sim::Time wire_ready = ready;
  sim::Span span;

  if (device) {
    // CUDA-aware path.
    const int sgpu = dev_s ? send.payload.buf->owner() : -1;
    const int rgpu = dev_r ? recv.payload.buf->owner() : -1;
    if (same_node) {
      // Intra-node, the library moves data over the GPU interconnect via
      // cudaIpc*, but maps the peer buffer on *every* message — the
      // overhead COLOCATED pays only once at setup (§IV-C). The mapping is
      // CPU work on the receiving rank, so many small messages serialize
      // behind one core.
      const sim::Span ipc = cpu(recv.dst).acquire_span(ready, arch.lat_ipc_setup);
      ready = ipc.end;
      if (dev_s && dev_r) {
        span = machine_.schedule_d2d(sgpu, rgpu, bytes, ready, machine_.peer_capable(sgpu, rgpu));
      } else if (dev_s) {
        span = machine_.schedule_d2h(sgpu, bytes, ready);
        const sim::Span hc = machine_.schedule_host_copy(
            cpu(recv.dst), bytes,
            machine_.cut_through_ready(span, sim::transfer_time(bytes, arch.bw_host_mem)));
        span = {span.start, hc.end};
      } else {
        const sim::Span hc = machine_.schedule_host_copy(cpu(recv.dst), bytes, ready);
        const sim::Span h2d = machine_.schedule_h2d(
            rgpu, bytes,
            machine_.cut_through_ready(
                hc, sim::transfer_time(bytes, arch.bw_nvlink_cpu_gpu * arch.eff_nvlink)));
        span = {hc.start, h2d.end};
      }
    } else {
      // Inter-node, the profiled implementation runs its internal copies on
      // the devices' *default streams* and brackets them with device
      // synchronization (§IV-D) — the overlap-killing behaviour behind the
      // Fig. 12c degradation. Modeled below via device_ready_barrier and
      // occupy_default_stream.
      ready = device_ready_barrier(send, recv, ready);
      sim::Time r = ready;
      sim::Time begin = 0;
      sim::Span prev{r, r};
      if (dev_s) {
        prev = machine_.schedule_d2h(sgpu, bytes, r);
        begin = prev.start;
      }
      const sim::Duration net_dur = sim::transfer_time(bytes, arch.bw_nic * arch.eff_nic);
      const sim::Span net = machine_.schedule_internode(
          node_s, node_r, bytes, dev_s ? machine_.cut_through_ready(prev, net_dur) : r);
      if (begin == 0) begin = net.start;
      prev = net;
      if (dev_r) {
        const sim::Duration h2d_dur =
            sim::transfer_time(bytes, arch.bw_nvlink_cpu_gpu * arch.eff_nvlink);
        prev = machine_.schedule_h2d(rgpu, bytes, machine_.cut_through_ready(prev, h2d_dur));
      }
      span = {begin, prev.end};
      if (dev_s) runtime_.occupy_default_stream(sgpu, span.end);
      if (dev_r) runtime_.occupy_default_stream(rgpu, span.end);
    }
  } else {
    // Host path.
    if (same_node) {
      // Shared-memory double copy: the sender's core copies into the shm
      // segment, the receiver's core copies out (large-message protocol of
      // a typical MPI). Two serial single-core copies are what make the
      // STAGED regime so expensive with few ranks per node (Fig. 12a).
      const sim::Span in = machine_.schedule_host_copy(cpu(send.src), bytes, ready);
      const sim::Span out = machine_.schedule_host_copy(cpu(recv.dst), bytes, in.end);
      span = {in.start, out.end};
    } else {
      span = machine_.schedule_internode(node_s, node_r, bytes, ready);
    }
  }

  // Move real payload bytes (skipped when either side is phantom).
  std::byte* dp = recv.data;
  const std::byte* sp =
      send.buffered ? (send.staged.empty() ? nullptr : send.staged.data()) : send.data;
  if (dp != nullptr && sp != nullptr && bytes > 0) std::memcpy(dp, sp, bytes);

  if (!send.buffered) {
    send.matched = true;
    send.complete_at = span.end;
  }
  recv.matched = true;
  recv.complete_at = span.end;

  resolve({true, same_node, device, node_s, node_r, send.attempts, wire_ready, span});
}

void Job::cancel_unmatched(Request::Record& rec) {
  auto& queue = rec.is_send ? unmatched_sends_[static_cast<std::size_t>(rec.dst)]
                            : unmatched_recvs_[static_cast<std::size_t>(rec.dst)];
  queue.erase(std::remove_if(queue.begin(), queue.end(),
                             [&](const Queued& q) { return q.req.rec_ == &rec; }),
              queue.end());
  rec.cancelled = true;
  for (JobObserver* o : observers_) o->on_request_cancel(rec.serial);
}

void Job::done(Request::Record& rec) {
  rec.active = false;  // persistent: back to inactive; handle stays valid
  for (JobObserver* o : observers_) o->on_request_done(rec.serial, eng_.now());
}

void Job::fail(TransportError::Code code, int peer, int tag, const std::string& what) {
  for (JobObserver* o : observers_) o->on_transport_error(what, eng_.now());
  throw TransportError(code, peer, tag, what);
}

void Job::wait(Request& r, int me) {
  if (!r.valid()) throw std::logic_error("simpi: wait on an invalid Request");
  auto& rec = *r.rec_;
  if (rec.persistent && !rec.active) return;  // MPI: wait on inactive is a no-op
  if (!rec.matched) {
    // The retry budget bounds an unmatched wait: a live peer that wanted to
    // match would have done so within it.
    sim::Time timeout_at = fault::kForever;
    if (const fault::Injector* inj = machine_.fault_injector();
        inj != nullptr && inj->retry_policy().enabled()) {
      timeout_at = std::max(eng_.now(), rec.post_time) + retry_budget(inj->retry_policy());
    }
    await_first(std::span<Request>(&r, 1), me, timeout_at, /*any=*/false);
  }
  finish(rec);
}

bool Job::test(Request& r) {
  if (!r.valid()) throw std::logic_error("simpi: test on an invalid Request");
  auto& rec = *r.rec_;
  if (rec.persistent && !rec.active) return true;  // inactive: trivially complete
  if (!rec.matched || rec.complete_at > eng_.now()) return false;
  finish(rec);
  return true;
}

int Job::wait_any(std::vector<Request>& rs, int me) {
  const int i = await_first(rs, me, fault::kForever, /*any=*/true);
  if (i < 0) return -1;
  const Request held = std::move(rs[static_cast<std::size_t>(i)]);
  finish(*held.rec_);
  return i;
}

int Job::await_first(std::span<Request> rs, int me, sim::Time timeout_at, bool any) {
  // Inactive persistent entries carry stale completion state from the
  // previous iteration; treat them like REQUEST_NULL here.
  const auto active = [](const Request::Record* rec) {
    return rec != nullptr && (!rec->persistent || rec->active);
  };
  const auto fail_entry = [&](Request::Record& rec, TransportError::Code code,
                              const std::string& why) {
    cancel_unmatched(rec);
    fail(code, peer_of(rec), rec.tag, "simpi: " + wait_detail(rec) + " " + why);
  };
  for (;;) {
    int best = -1;
    sim::Time best_t = 0;
    bool pending = false;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      const Request::Record* rec = rs[i].rec_;
      if (!active(rec)) continue;
      pending = true;
      if (rec->matched && (best < 0 || rec->complete_at < best_t)) {
        best = static_cast<int>(i);
        best_t = rec->complete_at;
      }
    }
    if (best >= 0 || !pending) return best;
    // Nothing can complete. A pending entry from a revoked epoch or toward a
    // dead peer never will; surface it instead of parking forever.
    sim::Time dead_at = fault::kForever;
    std::size_t dead = 0;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      Request::Record* rec = rs[i].rec_;
      if (!active(rec)) continue;
      if (rec->epoch < comm_epoch_) {
        fail_entry(*rec, TransportError::Code::kRevoked,
                   "revoked at t=" + sim::format_duration(eng_.now()) + " (communicator revoked)");
      }
      const sim::Time d = detected_at(peer_of(*rec), rec->post_time);
      if (d < dead_at) {
        dead_at = d;
        dead = i;
      }
    }
    sim::Gate& gate = *rank_gates_[static_cast<std::size_t>(me)];
    std::string detail = any ? "waitany" : wait_detail(*rs[0].rec_);
    const sim::Time deadline = std::min(timeout_at, dead_at);
    if (deadline == fault::kForever) {
      gate.wait(eng_, std::move(detail));
      continue;
    }
    if (gate.wait_until(eng_, deadline, std::move(detail))) continue;
    const bool peer_dead = eng_.now() >= dead_at;
    Request::Record& rec = *rs[peer_dead ? dead : 0].rec_;
    if (rec.matched) continue;  // an in-flight pre-death message still delivered
    const std::string now = sim::format_duration(eng_.now());
    if (peer_dead) {
      fail_entry(rec, TransportError::Code::kPeerDead,
                 "peer rank " + std::to_string(peer_of(rec)) + " died at t=" +
                     sim::format_duration(rank_fail_time(peer_of(rec))) + " (detected t=" + now +
                     ")");
    }
    fail_entry(rec, TransportError::Code::kTimeout,
               "timed out at t=" + now + " (no matching peer)");
  }
}

void Job::finish(Request::Record& rec) {
  eng_.sleep_until(rec.complete_at);
  done(rec);
  if (rec.failed) {
    fail(TransportError::Code::kRetriesExhausted, peer_of(rec), rec.tag,
         "simpi: " + wait_detail(rec) + " lost after " + std::to_string(rec.attempts) +
             " attempts (retries exhausted)");
  }
}

void Job::release_barrier() {
  barrier_arrived_ = 0;
  const auto& arch = machine_.arch();
  const sim::Duration lat = machine_.num_nodes() > 1 ? arch.lat_mpi_inter : arch.lat_mpi_intra;
  barrier_release_ = barrier_max_arrival_ + 2 * ceil_log2(live_count()) * lat;
  barrier_max_arrival_ = 0;
  ++barrier_generation_;
  barrier_gate_->notify_all(eng_);
}

void Job::barrier(int me) {
  (void)me;
  const std::uint64_t gen = barrier_generation_;
  for (JobObserver* o : observers_) o->on_barrier_arrive(gen);
  barrier_max_arrival_ = std::max(barrier_max_arrival_, eng_.now());
  // Collectives count to the live target: retired ranks are excluded, so
  // post-recovery barriers over the shrunk job complete normally.
  if (++barrier_arrived_ >= live_count()) {
    release_barrier();
    eng_.sleep_until(barrier_release_);
  } else {
    while (barrier_generation_ == gen) {
      // A scripted-but-unretired dead rank can never arrive; bound the wait
      // by the failure detector so the barrier raises kPeerDead instead of
      // deadlocking. (Once the rank is retired the target shrinks instead.)
      // Every waiter of every barrier runs this scan, so it is skipped when
      // no rank can die.
      sim::Time hazard = fault::kForever;
      int dead_rank = -1;
      const fault::Injector* inj = machine_.fault_injector();
      const int scan = inj != nullptr && inj->has_terminal_failures() ? world_size_ : 0;
      for (int r = 0; r < scan; ++r) {
        if (retired_[static_cast<std::size_t>(r)]) continue;
        const sim::Time d = detected_at(r, 0);
        if (d < hazard) {
          hazard = d;
          dead_rank = r;
        }
      }
      if (hazard == fault::kForever) {
        barrier_gate_->wait(eng_, "barrier");
        continue;
      }
      const bool notified = barrier_gate_->wait_until(eng_, hazard, "barrier");
      if (notified || barrier_generation_ != gen) continue;
      // Unwind our arrival so a later (post-retirement) barrier counts
      // cleanly, then surface the failure.
      --barrier_arrived_;
      fail(TransportError::Code::kPeerDead, dead_rank, /*tag=*/-1,
           "simpi: barrier with dead rank " + std::to_string(dead_rank) + " (died t=" +
               sim::format_duration(rank_fail_time(dead_rank)) +
               ", detected t=" + sim::format_duration(eng_.now()) + ")");
    }
    eng_.sleep_until(barrier_release_);
  }
  for (JobObserver* o : observers_) o->on_barrier_release(gen);
}

// --- ULFM-style failure semantics ------------------------------------------

sim::Time Job::rank_fail_time(int r) const {
  const fault::Injector* inj = machine_.fault_injector();
  if (inj == nullptr || !inj->has_terminal_failures()) return fault::kForever;
  sim::Time t = inj->node_fail_time(node_of_rank(r));
  const int gpn = machine_.gpus_per_node();
  const int gpr = gpn / ranks_per_node_;
  if (gpr > 0) {
    // The rank dies when its last GPU dies: it can no longer make progress.
    const int base = node_of_rank(r) * gpn + (r % ranks_per_node_) * gpr;
    sim::Time all_gpus = 0;
    for (int g = 0; g < gpr; ++g) {
      all_gpus = std::max(all_gpus, inj->gpu_fail_time(base + g));
    }
    t = std::min(t, all_gpus);
  }
  return t;
}

sim::Time Job::detected_at(int r, sim::Time since) const {
  const sim::Time t = rank_fail_time(r);
  if (t == fault::kForever) return fault::kForever;  // also: no injector
  return std::max(since, t) + machine_.fault_injector()->detect_latency();
}

void Job::channel_wait(sim::Gate& gate, int peer, int tag, const std::function<bool()>& ready,
                       const char* what) {
  while (!ready()) {
    const std::string detail = std::string(what) + " tag=" + std::to_string(tag);
    if (revoked_) {
      fail(TransportError::Code::kRevoked, peer, tag,
           detail + ": communicator revoked (recovery pending)");
    }
    const sim::Time deadline = detected_at(peer, 0);
    if (deadline == fault::kForever) {
      gate.wait(eng_, detail);
      continue;
    }
    if (eng_.now() >= deadline) {
      fail(TransportError::Code::kPeerDead, peer, tag,
           detail + ": peer rank " + std::to_string(peer) + " died");
    }
    gate.wait_until(eng_, deadline, detail);
  }
}

void Job::revoke() {
  if (revoked_) return;
  revoked_ = true;
  ++comm_epoch_;
  // Fresh incident, fresh drain ledger: acks left over from a previous
  // recovery must not let a dying rank depart before the survivors of
  // *this* incident have finished recovering.
  drain_acks_ = 0;
  for (JobObserver* o : observers_) o->on_revoke(comm_epoch_, eng_.now());
  for (auto& g : rank_gates_) g->notify_all(eng_);
  barrier_gate_->notify_all(eng_);
}

void Job::retire_rank(int r) {
  if (r < 0 || r >= world_size_) throw std::out_of_range("simpi: retire_rank out of range");
  if (retired_[static_cast<std::size_t>(r)]) return;
  retired_[static_cast<std::size_t>(r)] = true;
  ++retired_count_;
  // Purge every unmatched request the dead rank posted so nothing matches
  // against a ghost, and so the checker sees them resolved (cancelled).
  for (auto* queues : {&unmatched_sends_, &unmatched_recvs_}) {
    for (auto& q : *queues) {
      for (auto it = q.begin(); it != q.end();) {
        Request::Record& rec = *it->req.rec_;
        const int poster = rec.is_send ? rec.src : rec.dst;
        if (poster == r) {
          rec.cancelled = true;
          for (JobObserver* o : observers_) o->on_request_cancel(rec.serial);
          it = q.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  for (JobObserver* o : observers_) o->on_retire(r, eng_.now());
  // A barrier blocked only on the dead rank releases here, in the retiring
  // caller's context.
  if (barrier_arrived_ > 0 && barrier_arrived_ >= live_count()) {
    barrier_max_arrival_ = std::max(barrier_max_arrival_, eng_.now());
    release_barrier();
  }
  for (auto& g : rank_gates_) g->notify_all(eng_);
  barrier_gate_->notify_all(eng_);
  drain_gate_->notify_all(eng_);
}

void Job::await_drain(int me) {
  // A dying rank must first have been retired by its incident's recovery:
  // drain acks left over from an *earlier* incident can otherwise satisfy
  // the count before any survivor has even noticed this rank's death.
  while (!rank_retired(me) || drain_acks_ < live_count()) {
    drain_gate_->wait(eng_, "rank " + std::to_string(me) + " awaiting drain");
  }
}

void Job::release_drained(int me) {
  (void)me;
  ++drain_acks_;
  drain_gate_->notify_all(eng_);
}

void Job::reset(Request& r) {
  if (!r.valid()) return;
  auto& rec = *r.rec_;
  if (rec.persistent && !rec.active) return;  // nothing in flight
  if (!rec.matched) {
    if (!rec.cancelled) cancel_unmatched(rec);
    rec.active = false;
  } else {
    // Drain rather than abandon: sleeping to the completion instant keeps
    // later buffer reuse ordered after the modeled transfer, so the
    // happens-before checker stays clean. Failed completions do not throw
    // here — reset is the abort path.
    if (rec.complete_at > eng_.now()) eng_.sleep_until(rec.complete_at);
    done(rec);
  }
  if (!rec.persistent) r = Request();
}

// --- Comm ------------------------------------------------------------------

Request Comm::isend(const Payload& p, int dst, int tag) {
  return job_->post(true, world_rank(), members_[static_cast<std::size_t>(dst)], tag, p);
}

Request Comm::irecv(const Payload& p, int src, int tag) {
  return job_->post(false, world_rank(), members_[static_cast<std::size_t>(src)], tag, p);
}

void Comm::send(const Payload& p, int dst, int tag) {
  Request r = isend(p, dst, tag);
  wait(r);
}

void Comm::recv(const Payload& p, int src, int tag) {
  Request r = irecv(p, src, tag);
  wait(r);
}

Request Comm::send_init(const Payload& p, int dst, int tag) {
  return job_->init(true, world_rank(), members_[static_cast<std::size_t>(dst)], tag, p);
}

Request Comm::recv_init(const Payload& p, int src, int tag) {
  return job_->init(false, world_rank(), members_[static_cast<std::size_t>(src)], tag, p);
}

void Comm::start(Request& r) { job_->start(r); }

void Comm::request_free(Request& r) { job_->request_free(r); }

void Comm::wait(Request& r) { job_->wait(r, world_rank()); }

bool Comm::test(Request& r) { return job_->test(r); }

void Comm::waitall(std::vector<Request>& rs) {
  for (auto& r : rs) {
    if (r.valid()) wait(r);
  }
}

int Comm::wait_any(std::vector<Request>& rs) { return job_->wait_any(rs, world_rank()); }

void Comm::barrier() {
  // The world communicator (or its post-failure shrink, which is the whole
  // live set) uses the single counting barrier with fault-hazard detection.
  if (size() == job_->world_size() || size() == job_->live_count()) {
    job_->barrier(world_rank());
    return;
  }
  // Sub-communicator (tenant) barrier: log-round dissemination over the
  // members. Round k sends one eager byte to (rank + 2^k) mod n and receives
  // from (rank - 2^k) mod n; after ceil(log2(n)) rounds every rank has
  // transitively heard from every other, so none can leave before all have
  // arrived. Per-channel FIFO matching keeps back-to-back barriers on one
  // communicator from aliasing: a fast rank's round-k byte of the next
  // barrier queues behind its round-k byte of this one.
  const int n = size();
  if (n <= 1) return;
  std::byte token{};
  std::byte sink{};
  int round = 0;
  for (int hop = 1; hop < n; hop *= 2, ++round) {
    const int to = (rank() + hop) % n;
    const int from = (rank() - hop + n) % n;
    const int tag = tagspace::collective_tag(kSlotBarrierRound0 + round);
    Request s = isend(Payload::raw_host(&token, 1), to, tag);
    this->recv(Payload::raw_host(&sink, 1), from, tag);
    wait(s);
  }
}

void Comm::allgather(const void* send, void* recv, std::size_t bytes) {
  // Simple setup-path implementation: everyone sends to sub-rank 0, which
  // broadcasts the gathered vector back over point-to-point messages. Tags
  // live in the reserved collective window — the old ad-hoc -1001/-1002 sat
  // inside the colocated-setup span and could alias an IPC handshake.
  const int kTagGather = tagspace::collective_tag(kSlotGather);
  const int kTagBcast = tagspace::collective_tag(kSlotBcast);
  auto* out = static_cast<std::byte*>(recv);
  if (rank() == 0) {
    std::memcpy(out, send, bytes);
    for (int r = 1; r < size(); ++r) {
      this->recv(Payload::raw_host(out + static_cast<std::size_t>(r) * bytes, bytes), r, kTagGather);
    }
    std::vector<Request> reqs;
    reqs.reserve(static_cast<std::size_t>(size() - 1));
    for (int r = 1; r < size(); ++r) {
      reqs.push_back(isend(Payload::raw_host(out, bytes * static_cast<std::size_t>(size())), r, kTagBcast));
    }
    waitall(reqs);
  } else {
    this->send(Payload::raw_host(const_cast<void*>(send), bytes), 0, kTagGather);
    this->recv(Payload::raw_host(out, bytes * static_cast<std::size_t>(size())), 0, kTagBcast);
  }
}

Comm Comm::split(int color, int key) const {
  // Gather (color, key, world_rank) from everyone, then locally compute the
  // members of our color group ordered by (key, world_rank).
  struct Entry {
    int color, key, wrank;
  };
  Entry mine{color, key, world_rank()};
  std::vector<Entry> all(static_cast<std::size_t>(size()));
  const_cast<Comm*>(this)->allgather(&mine, all.data(), sizeof(Entry));
  std::vector<Entry> group;
  for (const auto& e : all) {
    if (e.color == color) group.push_back(e);
  }
  std::stable_sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.wrank < b.wrank;
  });
  std::vector<int> members;
  members.reserve(group.size());
  int my_sub = -1;
  for (std::size_t i = 0; i < group.size(); ++i) {
    members.push_back(group[i].wrank);
    if (group[i].wrank == world_rank()) my_sub = static_cast<int>(i);
  }
  return Comm(job_, std::move(members), my_sub);
}

Comm Comm::shrink() const {
  std::vector<int> members;
  members.reserve(members_.size());
  int my_sub = -1;
  for (const int wr : members_) {
    if (job_->rank_fail_time(wr) != fault::kForever) continue;
    if (wr == world_rank()) my_sub = static_cast<int>(members.size());
    members.push_back(wr);
  }
  return Comm(job_, std::move(members), my_sub);
}

double Comm::wtime() const { return sim::to_seconds(job_->engine().now()); }

}  // namespace stencil::simpi
