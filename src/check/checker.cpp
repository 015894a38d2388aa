#include "check/checker.h"

#include <algorithm>

#include "simpi/mpi.h"
#include "telemetry/telemetry.h"
#include "vgpu/runtime.h"

namespace stencil::check {

namespace {

std::string stream_desc(const vgpu::Stream& s) {
  return "gpu" + std::to_string(s.device) +
         (s.id == 0 ? std::string("/default") : "/s" + std::to_string(s.id));
}

template <class R>  // simpi::MsgInfo or Checker::RequestName
std::string req_desc(const R& m) {
  return std::string(m.persistent ? "persistent " : "") + (m.is_send ? "isend" : "irecv") + " r" +
         std::to_string(m.src) + "->r" + std::to_string(m.dst) + " tag=" + std::to_string(m.tag) +
         " (req#" + std::to_string(m.serial) + ")";
}

std::string edge_hint(const std::string& from, const std::string& to) {
  return "no happens-before edge from [" + from + "] to [" + to +
         "]: order them via an event (record_event + stream_wait_event / "
         "event_synchronize), a stream/device synchronize, or request completion";
}

}  // namespace

const std::string& Checker::Label::text() const {
  if (p_->text.empty()) p_->text = req_desc(p_->req);  // a request, named for the first time
  return p_->text;
}

Checker::HostState& Checker::host() {
  const int actor = eng_.actor_id();
  auto it = hosts_.find(actor);
  if (it == hosts_.end()) {
    HostState h;
    h.tid = new_tid();
    const std::string& name = eng_.actor_name();
    h.desc = name.empty() ? "actor" + std::to_string(actor) : name;
    h.clock.bump(h.tid);
    h.version = ++versions_;
    it = hosts_.emplace(actor, std::move(h)).first;
  }
  return it->second;
}

void Checker::log_hb(const std::string& from, const std::string& to, std::uint64_t msg) {
  if (hb_edges_.size() >= kMaxHbEdges) return;
  hb_edges_.push_back({from, to, eng_.now(), msg});
}

const std::string& Checker::mpi_name(int src, int dst) {
  const std::uint64_t key =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32 |
      static_cast<std::uint32_t>(dst);
  auto [it, fresh] = mpi_names_.try_emplace(key);
  if (fresh) it->second = "mpi.r" + std::to_string(src) + "->r" + std::to_string(dst);
  return it->second;
}

void Checker::add_finding(Finding f) {
  if (telemetry_ != nullptr) telemetry_->on_checker_finding(to_string(f.kind), f.at);
  report_.add(std::move(f));
}

Checker::StreamState& Checker::stream_state(const vgpu::Stream& s) {
  const StreamKey key{s.device, s.id};
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    StreamState st;
    st.tid = new_tid();
    st.device = s.device;
    st.name = stream_desc(s);
    st.desc = "stream " + st.name;
    it = streams_.emplace(key, std::move(st)).first;
  }
  return it->second;
}

const Checker::Label& Checker::op_label(StreamState& ss, const std::string& label) {
  for (const auto& [text, l] : ss.labels) {
    if (text == label) return l;
  }
  ss.labels.emplace_back(label, Label::make(label + " [" + ss.desc + "]", ss.desc));
  return ss.labels.back().second;
}

void Checker::fold(DeviceClocks& dc) {
  for (StreamState* ss : dc.unfolded) {
    if (ss->unfolded) dc.all.join(ss->clock);
    ss->unfolded = false;
  }
  dc.unfolded.clear();
}

void Checker::fold(StreamState& ss) {
  // Its entry stays on the device's list until the next full fold, which
  // skips it (or folds it again, idempotently, after a newer op).
  if (!ss.unfolded) return;
  devices_[ss.device].all.join(ss.clock);
  ss.unfolded = false;
}

void Checker::add_race(FindingKind kind, const AccessRec& prior, const AccessRec& cur) {
  const std::string key =
      std::string(to_string(kind)) + "|" + prior.label.text() + "|" + cur.label.text();
  if (!reported_.insert(key).second) return;
  Finding f;
  f.kind = kind;
  f.first = prior.label.text() + " @ t=" + sim::format_duration(prior.when);
  f.second = cur.label.text() + " @ t=" + sim::format_duration(cur.when);
  f.missing_edge = edge_hint(prior.label.thread(), cur.label.thread());
  f.at = eng_.now();
  add_finding(std::move(f));
}

void Checker::check_pair(const AccessRec& prior, bool prior_is_write, const AccessRec& cur,
                         const VClock& clock, bool cur_is_write) {
  if (!prior_is_write && !cur_is_write) return;  // read/read never races
  if (prior.at.ordered_before(clock)) return;
  add_race(prior_is_write && cur_is_write ? FindingKind::kWriteWriteRace
                                          : FindingKind::kReadWriteRace,
           prior, cur);
}

Checker::History* Checker::new_history() {
  if (free_histories_.empty()) {
    histories_.push_back(std::make_unique<History>());
    return histories_.back().get();
  }
  History* h = free_histories_.back();
  free_histories_.pop_back();
  return h;
}

void Checker::release(History* h) {
  if (--h->refs != 0) return;
  // Back to the free list, keeping the reads' capacity; drop the label
  // counts so labels die with their last live record.
  h->write = AccessRec{};
  h->reads.clear();
  free_histories_.push_back(h);
}

Checker::History* Checker::successor(History* prior, const AccessRec& rec, const VClock& clock,
                                     bool write) {
  History*& memo = prior == nullptr ? fresh_[write] : prior->next[write];
  if (memo != nullptr) return memo;
  History* h = new_history();
  if (prior == nullptr) {
    if (write) {
      h->write = rec;
    } else {
      h->reads.push_back(rec);
    }
  } else if (write) {
    if (prior->write.label) check_pair(prior->write, true, rec, clock, true);
    for (const AccessRec& r : prior->reads) check_pair(r, false, rec, clock, true);
    h->write = rec;
  } else {
    if (prior->write.label) check_pair(prior->write, true, rec, clock, false);
    h->write = prior->write;
    // Keep only reads not already ordered before this one (their causal
    // history is contained in rec's, so rec subsumes them for any future
    // write's race check).
    for (const AccessRec& r : prior->reads) {
      if (!r.at.ordered_before(clock)) h->reads.push_back(r);
    }
    h->reads.push_back(rec);
  }
  // The memo holds a count on the successor and on the prior, so neither is
  // freed (and its address reused) before the op ends.
  if (prior != nullptr && prior->next[!write] == nullptr) {  // prior's first memo entry
    retain(prior);
    memo_.push_back(prior);
  }
  retain(h);
  memo = h;
  return h;
}

void Checker::end_op() {
  for (History* h : memo_) {
    for (History*& n : h->next) {
      if (n != nullptr) release(std::exchange(n, nullptr));
    }
    release(h);
  }
  memo_.clear();
  for (History*& n : fresh_) {
    if (n != nullptr) release(std::exchange(n, nullptr));
  }
}

void Checker::record_accesses(std::span<const vgpu::MemAccess> accesses, const AccessRec& rec,
                              const VClock& clock) {
  const vgpu::Buffer* buf = nullptr;
  Shadow* segs = nullptr;
  Shadow::Pos it;
  std::size_t walked = 0;  // end of the previous access to *buf
  for (const vgpu::MemAccess& a : accesses) {
    if (a.buf == nullptr || a.bytes == 0) continue;
    const bool resume = a.buf == buf && a.offset >= walked;
    if (a.buf != buf) {
      buf = a.buf;
      segs = &shadow_[buf->id()];
    }
    it = record_access(*segs, it, resume, a, rec, clock);
    walked = a.offset + a.bytes;
  }
  end_op();
}

Checker::Shadow::Pos Checker::record_access(Shadow& segs, Shadow::Pos it, bool resume,
                                            const vgpu::MemAccess& a, const AccessRec& rec,
                                            const VClock& clock) {
  const std::size_t lo = a.offset;
  const std::size_t hi = a.offset + a.bytes;
  std::size_t cur = lo;

  // Find the first segment ending after lo. Accesses of one op usually come
  // in offset order (rows of a region), so seek on from where the previous
  // access left the walk: every segment before `it` ends at or before that
  // access's end. Otherwise search the whole shadow.
  it = resume ? segs.seek(it, lo) : segs.find(lo);
  // Insert [start, end) with history h just before `it`, which then points
  // at the new segment. The segment takes its own count on h.
  const auto insert = [&](std::size_t start, std::size_t end, History* h) {
    retain(h);
    it = segs.insert(it, {start, end, h});
  };
  while (cur < hi) {
    if (segs.at_end(it) || segs[it].start >= hi) {  // a gap up to hi
      insert(cur, hi, successor(nullptr, rec, clock, a.write));
      return segs.next(it);
    }
    const Shadow::Segment s = segs[it];
    if (s.start > cur) {  // a gap before the next segment
      insert(cur, s.start, successor(nullptr, rec, clock, a.write));
      cur = s.start;
      it = segs.next(it);
      continue;
    }
    if (s.start < cur) {  // split off the untouched left part
      segs[it].start = cur;
      insert(s.start, cur, s.value);
      it = segs.next(it);
      continue;
    }
    // s.start == cur: trim to the accessed range, then apply.
    if (s.end > hi) {
      segs[it].start = hi;
      insert(cur, hi, s.value);
    }
    Shadow::Segment& seg = segs[it];
    History* next = successor(seg.value, rec, clock, a.write);
    retain(next);
    release(std::exchange(seg.value, next));
    cur = seg.end;
    it = segs.next(it);
  }
  return it;
}

// --- vgpu::RuntimeObserver --------------------------------------------------

void Checker::on_op(const vgpu::OpInfo& op) {
  StreamState& ss = stream_state(*op.stream);
  DeviceClocks& dc = devices_[op.stream->device];
  HostState& h = host();
  // The op's clock is the stream's, joined in place with the issuing host's
  // and, for legacy default-stream ordering, the device's: the default
  // stream serializes behind every stream on the device; other streams
  // serialize behind prior default-stream work. Joins from a source that
  // has not changed since this stream last absorbed it are skipped.
  if (ss.host_seen != h.version) {
    ss.clock.join(h.clock);
    ss.host_seen = h.version;
  }
  if (op.stream->id == 0) {
    fold(dc);
    ss.clock.join(dc.all);
  } else if (ss.dflt_seen != dc.dflt_version) {
    ss.clock.join(dc.dflt);
    ss.dflt_seen = dc.dflt_version;
  }
  const std::uint64_t ep = ss.clock.bump(ss.tid);
  ss.last_label = op_label(ss, *op.label);
  if (op.accesses != nullptr) {
    record_accesses(*op.accesses, AccessRec{Epoch{ss.tid, ep}, ss.last_label, op.start},
                    ss.clock);
  }
  if (op.stream->id == 0) raise(dc.dflt, dc.dflt_version, ss.clock);
  if (!ss.unfolded) {
    ss.unfolded = true;
    dc.unfolded.push_back(&ss);
  }
}

void Checker::on_stream_create(const vgpu::Stream& s) { stream_state(s); }

void Checker::on_record_event(const vgpu::Event& ev, const vgpu::Stream& s) {
  // Re-recording overwrites: an event captures the stream frontier of its
  // most recent record, exactly like CUDA.
  EventState& es = events_[&ev];
  const StreamState& ss = stream_state(s);
  es.clock = ss.clock;
  es.src_desc = ss.name;
}

void Checker::on_stream_wait_event(const vgpu::Stream& s, const vgpu::Event& ev) {
  if (!ev.recorded) {
    Finding f;
    f.kind = FindingKind::kWaitUnrecordedEvent;
    f.first = "stream_wait_event on [" + stream_state(s).name + "]";
    f.second = "event was never recorded; the wait is a no-op and orders nothing";
    f.missing_edge = "record_event must happen-before the wait that consumes it";
    f.at = eng_.now();
    add_finding(std::move(f));
    return;
  }
  auto it = events_.find(&ev);
  if (it != events_.end()) {
    StreamState& ss = stream_state(s);
    fold(ss);  // the device saw only the stream's ops, not what it waits on
    ss.clock.join(it->second.clock);
    log_hb(it->second.src_desc, ss.name);
  }
}

void Checker::on_event_synchronize(const vgpu::Event& ev) {
  if (!ev.recorded) {
    Finding f;
    f.kind = FindingKind::kWaitUnrecordedEvent;
    f.first = "event_synchronize";
    f.second = "event was never recorded; the sync returns immediately and orders nothing";
    f.missing_edge = "record_event must happen-before the synchronize that consumes it";
    f.at = eng_.now();
    add_finding(std::move(f));
    return;
  }
  auto it = events_.find(&ev);
  if (it != events_.end()) {
    HostState& h = host();
    raise(h.clock, h.version, it->second.clock);
    log_hb(it->second.src_desc, h.desc);
  }
}

void Checker::on_event_query(const vgpu::Event& ev, bool complete) {
  // A successful query is a legitimate completion observation (polling):
  // the queried work happened-before everything the caller does next.
  if (!complete || !ev.recorded) return;
  auto it = events_.find(&ev);
  if (it != events_.end()) {
    HostState& h = host();
    raise(h.clock, h.version, it->second.clock);
    log_hb(it->second.src_desc, h.desc);
  }
}

void Checker::on_stream_synchronize(const vgpu::Stream& s) {
  HostState& h = host();
  const StreamState& ss = stream_state(s);
  raise(h.clock, h.version, ss.clock);
  log_hb(ss.name, h.desc);
}

void Checker::on_device_synchronize(int ggpu) {
  HostState& h = host();
  DeviceClocks& dc = devices_[ggpu];
  fold(dc);
  raise(h.clock, h.version, dc.all);
  if (dc.name.empty()) dc.name = "gpu" + std::to_string(ggpu);
  log_hb(dc.name, h.desc);
}

void Checker::on_stream_destroy(const vgpu::Stream& s) {
  StreamState& ss = stream_state(s);
  fold(devices_[s.device]);  // its ops stay in the device's history
  if (!ss.clock.leq(host().clock)) {
    Finding f;
    f.kind = FindingKind::kStreamDestroyedPending;
    f.first = "destroy_stream [" + ss.name + "]";
    f.second = "last unsynchronized op: " +
               (ss.last_label ? ss.last_label.text() : std::string());
    f.missing_edge = "synchronize the stream (or an event recorded after its last op) "
                     "before destroying it";
    f.at = eng_.now();
    add_finding(std::move(f));
  }
  streams_.erase({s.device, s.id});
}

void Checker::on_ipc_misuse(const vgpu::IpcMappedPtr& p, const std::string& what) {
  Finding f;
  f.kind = FindingKind::kStaleIpcMapping;
  f.first = what;
  f.second = "mapping to gpu" + std::to_string(p.device) +
             (p.closed ? " (closed by ipc_close_mem_handle)" : " (never opened)");
  f.missing_edge = "all copies through a mapping must happen-before its close";
  f.at = eng_.now();
  add_finding(std::move(f));
}

// --- simpi::JobObserver -----------------------------------------------------

void Checker::on_job_start(int world_size) {
  (void)world_size;
  // Engine actor ids are reused across Job::run calls and the previous
  // run's work is all complete before a new one starts: fence everything.
  for (auto& [g, dc] : devices_) fold(dc);
  VClock fence;
  for (const auto& [actor, h] : hosts_) fence.join(h.clock);
  for (const auto& [key, ss] : streams_) fence.join(ss.clock);
  for (const auto& [g, dc] : devices_) fence.join(dc.all);
  for (auto& [actor, h] : hosts_) raise(h.clock, h.version, fence);
  for (auto& [key, ss] : streams_) ss.clock.join(fence);
  for (auto& [g, dc] : devices_) {
    dc.all.join(fence);
    raise(dc.dflt, dc.dflt_version, fence);
  }
}

void Checker::on_job_end() { finish(); }

void Checker::on_post(const simpi::MsgInfo& m) {
  HostState& h = host();
  ReqState rs;
  // A tid this host retired is safe to reuse: its clock holds the retired
  // request's last epoch, so the bump below continues one sequential thread.
  if (h.free_tids.empty()) {
    rs.tid = new_tid();
  } else {
    rs.tid = h.free_tids.back();
    h.free_tids.pop_back();
  }
  rs.label = Label::request(m);
  rs.is_send = m.is_send;
  rs.src = m.src;
  rs.dst = m.dst;
  rs.tag = m.tag;
  rs.completion = h.clock;  // eager sends complete with just their post knowledge
  const std::uint64_t ep = rs.completion.bump(rs.tid);
  if (m.is_send && m.payload->buf != nullptr) {
    // MPI reads the send buffer between post and completion; record the
    // read at the request's own epoch so that an overwrite before MPI_Wait
    // races with it even though the host itself never touches the bytes.
    const vgpu::MemAccess read{m.payload->buf, m.payload->offset, m.payload->bytes, false};
    record_accesses({&read, 1}, AccessRec{Epoch{rs.tid, ep}, rs.label, eng_.now()},
                    rs.completion);
  }
  log_hb(h.desc, mpi_name(m.src, m.dst), m.serial);
  requests_.emplace(m.serial, std::move(rs));
}

void Checker::on_match(const simpi::MsgInfo& send, const simpi::MsgInfo& recv,
                       const simpi::Delivery& d) {
  auto sit = requests_.find(send.serial);
  auto rit = requests_.find(recv.serial);
  if (sit == requests_.end() || rit == requests_.end()) return;
  ReqState& ss = sit->second;
  ReqState& rr = rit->second;
  ss.resolved = rr.resolved = true;
  // A buffered send completed at post; once matched, nothing refers to it.
  const bool drop_send = ss.done && !ss.persistent;

  // The message's clock, built in place in the recv's completion.
  VClock& m = rr.completion;
  m.join(ss.completion);
  if (!d.delivered) {
    // Message lost (fault injection): both waits observe the failure but no
    // data moved, so there is no write access to record.
    if (!send.buffered) ss.completion = m;
    if (drop_send) requests_.erase(sit);
    return;
  }

  const bool dev_s = send.payload->is_device();
  const bool dev_r = recv.payload->is_device();
  const int sgpu = dev_s ? send.payload->buf->owner() : -1;
  const int rgpu = dev_r ? recv.payload->buf->owner() : -1;
  if (!d.same_node) {
    // Inter-node CUDA-aware path: the library brackets its copies with
    // device synchronization (device_ready_barrier), so the message
    // happens-after all prior work on the involved devices...
    for (const int g : {sgpu, rgpu}) {
      if (g < 0) continue;
      DeviceClocks& dc = devices_[g];
      fold(dc);
      m.join(dc.all);
    }
  }
  const std::uint64_t ep = m.bump(rr.tid);
  if (recv.payload->buf != nullptr) {
    const vgpu::MemAccess write{recv.payload->buf, recv.payload->offset, send.payload->bytes,
                                true};
    record_accesses({&write, 1}, AccessRec{Epoch{rr.tid, ep}, rr.label, eng_.now()}, m);
  }
  if (!send.buffered) ss.completion = m;
  if (drop_send) requests_.erase(sit);
  if (!d.same_node) {
    // ...and occupies the default streams: subsequent device ops on any
    // stream of the involved devices serialize behind the message.
    for (const int g : {sgpu, rgpu}) {
      if (g < 0) continue;
      DeviceClocks& dc = devices_[g];
      raise(dc.dflt, dc.dflt_version, m);
      dc.all.join(m);
    }
  }
  // Intra-node CUDA-aware messages move over cudaIpc with *no* stream
  // synchronization (the mapping cost is CPU work), so no device joins:
  // callers must order device payloads with the message themselves.
}

void Checker::on_truncation(const simpi::MsgInfo& send, const simpi::MsgInfo& recv) {
  Finding f;
  f.kind = FindingKind::kSizeMismatch;
  f.first = req_desc(send) + " sends " + std::to_string(send.payload->bytes) + "B";
  f.second = req_desc(recv) + " provides only " + std::to_string(recv.payload->bytes) + "B";
  f.missing_edge = "recv buffer must be at least the matched message size";
  f.at = eng_.now();
  add_finding(std::move(f));
}

void Checker::on_request_done(std::uint64_t serial, sim::Time) {
  auto it = requests_.find(serial);
  if (it == requests_.end()) return;
  ReqState& rs = it->second;
  HostState& h = host();
  raise(h.clock, h.version, rs.completion);
  if (rs.src >= 0) {
    log_hb(mpi_name(rs.src, rs.dst), h.desc, serial);
  }
  // Retire a non-persistent request's tid to this waiter. The completion it
  // just joined carries the request's last epoch (a send's tid only moves at
  // post, a recv's at its match, which precedes completion), so no later
  // event on the tid can be concurrent with the next request posted on it.
  if (!rs.persistent && !rs.done) h.free_tids.push_back(rs.tid);
  rs.done = true;
  if (!rs.persistent && rs.resolved) requests_.erase(it);
}

void Checker::on_request_cancel(std::uint64_t serial) {
  auto it = requests_.find(serial);
  if (it != requests_.end()) it->second.cancelled = true;
}

void Checker::on_transport_error(const std::string&, sim::Time) {
  // An actor that fails inside a barrier leaves it without a release.
  auto it = hosts_.find(eng_.actor_id());
  if (it != hosts_.end()) leave_barrier(it->second);
}

void Checker::on_barrier_arrive(std::uint64_t generation) {
  // Generations only advance, so no actor can arrive at an older one any
  // more: drop those that every arrival has left, even without a release
  // (all of them failed out).
  for (auto it = barriers_.begin(); it != barriers_.end() && it->first < generation;) {
    it = it->second.waiting == 0 ? barriers_.erase(it) : std::next(it);
  }
  HostState& h = host();
  BarrierState& b = barriers_[generation];
  if (b.name.empty()) b.name = "barrier#" + std::to_string(generation);
  b.clock.join(h.clock);
  ++b.waiting;
  h.barrier = generation;
}

void Checker::on_barrier_release(std::uint64_t generation) {
  HostState& h = host();
  auto it = barriers_.find(generation);
  if (it != barriers_.end()) {
    raise(h.clock, h.version, it->second.clock);
    it->second.released = true;
    log_hb(it->second.name, h.desc);
  } else {
    log_hb("barrier#" + std::to_string(generation), h.desc);
  }
  leave_barrier(h);
}

void Checker::leave_barrier(HostState& h) {
  if (!h.barrier) return;
  auto it = barriers_.find(*h.barrier);
  h.barrier.reset();
  if (it == barriers_.end()) return;
  // Once released, no actor can arrive at the generation any more.
  if (--it->second.waiting == 0 && it->second.released) barriers_.erase(it);
}

void Checker::on_persistent_init(const simpi::MsgInfo& m) {
  // Like on_post, but nothing is in flight yet: no send-buffer read is
  // recorded until the first start re-arms the request.
  ReqState rs;
  rs.label = Label::request(m);
  rs.tid = new_tid();
  rs.is_send = m.is_send;
  rs.persistent = true;
  rs.src = m.src;
  rs.dst = m.dst;
  rs.tag = m.tag;
  rs.completion = host().clock;
  requests_.emplace(m.serial, std::move(rs));
}

void Checker::on_persistent_start(const simpi::MsgInfo& m) {
  auto it = requests_.find(m.serial);
  if (it == requests_.end()) return;
  ReqState& rs = it->second;
  if (rs.starts > 0 && !rs.done && !rs.cancelled) {
    // Second start before the previous operation completed: MPI erroneous.
    Finding f;
    f.kind = FindingKind::kPersistentRestart;
    f.first = rs.label.text();
    f.second = "start #" + std::to_string(rs.starts + 1) + " while start #" +
               std::to_string(rs.starts) + " is still in flight";
    f.missing_edge = "the previous start must complete (wait/test/wait_any) before the next";
    f.at = eng_.now();
    add_finding(std::move(f));
    return;
  }
  // Re-arm: same tid (same reusable Record), fresh epoch. The send-buffer
  // read is re-recorded per start — the bytes differ every iteration even
  // though the envelope is frozen.
  rs.done = false;
  rs.resolved = false;
  ++rs.starts;
  rs.completion = host().clock;
  const std::uint64_t ep = rs.completion.bump(rs.tid);
  if (m.is_send && m.payload->buf != nullptr) {
    const vgpu::MemAccess read{m.payload->buf, m.payload->offset, m.payload->bytes, false};
    record_accesses({&read, 1}, AccessRec{Epoch{rs.tid, ep}, rs.label, eng_.now()},
                    rs.completion);
  }
}

void Checker::on_persistent_free(std::uint64_t serial, bool active) {
  auto it = requests_.find(serial);
  if (it == requests_.end()) return;
  ReqState& rs = it->second;
  rs.freed = true;
  if (active) {
    Finding f;
    f.kind = FindingKind::kPersistentFreedActive;
    f.first = rs.label.text();
    f.second = "freed while start #" + std::to_string(rs.starts) + " is still in flight";
    f.missing_edge = "complete the active operation before request_free";
    f.at = eng_.now();
    add_finding(std::move(f));
  }
}

// --- teardown lints ---------------------------------------------------------

void Checker::finish() {
  // Requests never completed by wait/test/wait_any. When an unmatched send
  // and recv connect the same pair of ranks with different tags, report the
  // likelier root cause (tag mismatch) instead of two leak findings.
  std::vector<const ReqState*> leaked;
  for (const auto& [serial, rs] : requests_) {
    if (rs.persistent) {
      // Inactive persistent requests (never started, or completed since the
      // last start) are a valid resting state, not leaks; only requests still
      // in flight at teardown are reported.
      if (rs.starts > 0 && !rs.done && !rs.cancelled) leaked.push_back(&rs);
      continue;
    }
    if (!rs.done && !rs.cancelled) leaked.push_back(&rs);
  }
  std::vector<bool> consumed(leaked.size(), false);
  for (std::size_t i = 0; i < leaked.size(); ++i) {
    if (consumed[i] || leaked[i]->resolved || !leaked[i]->is_send) continue;
    for (std::size_t j = 0; j < leaked.size(); ++j) {
      if (consumed[j] || leaked[j]->resolved || leaked[j]->is_send) continue;
      if (leaked[i]->src == leaked[j]->src && leaked[i]->dst == leaked[j]->dst &&
          leaked[i]->tag != leaked[j]->tag) {
        Finding f;
        f.kind = FindingKind::kTagMismatch;
        f.first = leaked[i]->label.text();
        f.second = leaked[j]->label.text();
        f.missing_edge = "tags must match for the pair to rendezvous";
        f.at = eng_.now();
        add_finding(std::move(f));
        consumed[i] = consumed[j] = true;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < leaked.size(); ++i) {
    if (consumed[i]) continue;
    Finding f;
    f.kind = FindingKind::kRequestNeverWaited;
    f.first = leaked[i]->label.text();
    f.second = leaked[i]->resolved ? "completed but never waited (request leak)"
                                   : "never matched and never waited";
    f.missing_edge = "every request must reach wait/test/wait_any before teardown";
    f.at = eng_.now();
    add_finding(std::move(f));
  }
  requests_.clear();

  // Streams whose last op no host actor ever observed completing.
  VClock all_hosts;
  for (const auto& [actor, h] : hosts_) all_hosts.join(h.clock);
  std::map<StreamKey, const StreamState*> by_key;  // report in (device, id) order
  for (const auto& [key, ss] : streams_) by_key.emplace(key, &ss);
  for (const auto& [key, ssp] : by_key) {
    const StreamState& ss = *ssp;
    if (ss.clock.leq(all_hosts)) continue;
    Finding f;
    f.kind = FindingKind::kStreamDestroyedPending;
    f.first = "[" + ss.desc + "] has unsynchronized work at teardown";
    f.second = "last unsynchronized op: " +
               (ss.last_label ? ss.last_label.text() : std::string());
    f.missing_edge = "synchronize the stream before the job ends";
    f.at = eng_.now();
    add_finding(std::move(f));
  }
  events_.clear();
  barriers_.clear();
  for (auto& [actor, h] : hosts_) h.barrier.reset();
}

}  // namespace stencil::check
