#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "simtime/time.h"

namespace stencil::sim {

class Gate;

/// Thrown out of sleep/wait calls in secondary actors when the simulation is
/// shutting down because another actor failed (or a deadlock was detected).
/// Actor bodies should let it propagate.
class SimulationAborted : public std::runtime_error {
 public:
  explicit SimulationAborted(const std::string& what) : std::runtime_error(what) {}
};

/// One actor stuck in a deadlock: which gate it is parked on, the
/// caller-supplied reason (e.g. "recv src=1 tag=7"), and when it blocked.
struct BlockedActorInfo {
  std::string actor;
  std::string resource;  // gate name
  std::string detail;    // what the actor was waiting for, if it said
  Time blocked_at = 0;
};

/// Structured diagnostic built when every live actor is gate-blocked and no
/// timed wakeup exists. Carried by DeadlockError and handed to the watchdog.
struct DeadlockReport {
  Time at = 0;
  std::vector<BlockedActorInfo> actors;
  std::string to_string() const;
};

/// Thrown (from the scheduling actor) when every live actor is blocked on a
/// Gate and no timed wakeup exists: virtual time can never advance again.
/// report() identifies each blocked actor, the gate it waits on, and the
/// per-actor detail string (simpi fills in the peer rank and tag).
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(DeadlockReport rep);
  const DeadlockReport& report() const { return *report_; }

 private:
  std::shared_ptr<const DeadlockReport> report_;  // shared: exceptions copy
};

/// Deterministic discrete-event virtual-time engine.
///
/// Each *actor* (e.g. a simulated MPI rank) is a fiber with its own stack,
/// and all of them run on the OS thread that called run(): when the running
/// actor blocks (sleep_until, Gate wait, or finishing), it selects the next
/// actor and switches straight to it. Selection is by (wake_time, admission
/// sequence), so a given program produces a bit-identical schedule on every
/// run. A sleep_for(d) wakeup joins a FIFO lane for d (yield and gate
/// wakes: the lane for 0), and a wakeup at an absolute time joins a binary
/// heap, so the fixed costs that make up most sleeps are queued and picked
/// in O(1), deadlines in O(log N) in the number of actors. A switch is a
/// few register moves with no syscall.
///
/// Virtual time is global and monotonically non-decreasing. Code executed by
/// an actor between engine calls takes zero virtual time; model CPU cost by
/// calling sleep_for() explicitly.
class Engine {
 public:
  Engine() = default;
  ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Run one actor per body, to completion. Returns once all actors finish.
  /// If any actor throws, the remaining actors are unwound (their pending
  /// engine calls throw SimulationAborted) and the first exception rethrows
  /// here. May be called repeatedly; virtual time continues from where the
  /// previous run() left off.
  void run(std::vector<std::function<void()>> bodies,
           std::vector<std::string> names = {});

  /// Current virtual time. Valid from actor bodies and between run() calls.
  Time now() const { return now_; }

  /// Index of the calling actor within the bodies vector. Must be called
  /// from an actor body.
  int actor_id() const;

  /// Name of the calling actor (empty if none was given).
  const std::string& actor_name() const;

  /// Block the calling actor for d nanoseconds of virtual time (d <= 0 is a
  /// no-op that does not reschedule).
  void sleep_for(Duration d);

  /// Block the calling actor until virtual time t. If t <= now(), returns
  /// immediately without rescheduling.
  void sleep_until(Time t);

  /// Let other actors runnable at the current virtual time run, resuming
  /// after they have each had a turn.
  void yield();

  /// Engine driving the calling actor, or nullptr outside actor bodies.
  static Engine* current();

  /// Number of switches from one actor to another so far (scheduling cost).
  std::uint64_t context_switches() const { return context_switches_; }

  /// Number of scheduling decisions made so far: every time the engine
  /// picked the next actor to run, including same-actor fast paths that
  /// avoid a switch. The discrete-event analogue of "events processed".
  std::uint64_t events_processed() const { return events_processed_; }

  /// Largest run-queue depth seen at any scheduling decision: how many
  /// actors held a timed wakeup when the engine picked the next one. A
  /// throughput/pressure signal — deep queues mean many actors contend for
  /// each virtual instant.
  std::size_t max_run_queue_depth() const { return max_run_queue_depth_; }

  /// Events per *virtual* second of progress (0 before time advances).
  /// Derived from deterministic state only, so identical runs report
  /// identical throughput — unlike any wall-clock rate.
  double events_per_virtual_second() const {
    return now_ > 0 ? static_cast<double>(events_processed_) /
                          (static_cast<double>(now_) * 1e-9)
                    : 0.0;
  }

  /// Observer invoked with the diagnostic just before a detected deadlock
  /// aborts the simulation. Runs on the detecting actor's stack: it must
  /// only inspect/copy the report, never call back into the engine.
  void set_watchdog(std::function<void(const DeadlockReport&)> cb) {
    watchdog_ = std::move(cb);
  }

 private:
  friend class Gate;

  enum class State {
    kRunning,      // the one actor executing
    kTimed,        // wake at wake_time
    kGateBlocked,  // waiting on a Gate, no wakeup time
    kDone,
  };

  // An actor's execution context, or run()'s caller's, while switched out.
  struct Fiber {
    void* sp = nullptr;  // saved stack pointer; its registers sit just above
    const void* stack_bottom = nullptr;  // its stack's lowest usable address
    std::size_t stack_size = 0;
    void* fake_stack = nullptr;  // AddressSanitizer's per-fiber state
    void* eh[2] = {};  // its __cxa_eh_globals: caught exceptions, uncaught count
    // Make a fresh actor fiber that enters fiber_main() on this stack.
    void start(void* bottom);
  };

  // Field order is access order: what a pick and a switch read comes first.
  struct Actor {
    State state = State::kTimed;
    int id = 0;
    Time wake_time = 0;
    std::uint64_t seq = 0;  // admission order for same-time tie-breaks
    // The lane the pending wakeup joins: sleep_for's d, 0 for yield and
    // gate wakes, kHeap for an absolute time.
    Duration lane = kHeap;
    Fiber fiber;
    std::function<void()> body;
    std::string name;
    Gate* gate = nullptr;   // which gate, when kGateBlocked (diagnostics)
    bool gate_notified = false;  // wait_until: woken by notify, not timeout
    std::string block_detail;    // caller-supplied reason for the block
    Time blocked_at = 0;
  };

  // Actor::lane of a wakeup at an absolute time, which only the heap orders.
  static constexpr Duration kHeap = -1;
  // Lanes beside the heap: enough for the distinct fixed costs one job
  // sleeps at a time (its CPU issue cost, yields and gate wakes).
  static constexpr std::size_t kLanes = 4;

  // A run-queue entry: `actor` wakes at `wake_time`, unless it has been
  // rescheduled since (its seq moved on) or is no longer kTimed. Such a
  // stale entry is skipped when it reaches the top.
  struct Wakeup {
    Time wake_time;
    std::uint64_t seq;
    Actor* actor;
    // std::greater over this makes the std heap functions a min-heap.
    bool operator>(const Wakeup& o) const {
      return std::tie(wake_time, seq) > std::tie(o.wake_time, o.seq);
    }
  };

  // The wakeups of sleep_for(d) for one d, in push order. Pushes come at a
  // non-decreasing now() with fresh seqs, so push order is key order, and
  // the head is the lane's first wakeup. A lane entry is never stale: only
  // a notified wait_until leaves a second entry, and its deadline sits in
  // the heap. So an actor has at most one lane entry, and a ring of one slot
  // per actor never fills. An empty lane takes the next d that finds no
  // lane of its own.
  struct Lane {
    Duration d = 0;
    std::size_t head = 0;
    std::size_t size = 0;
    std::vector<Wakeup> ring;
    const Wakeup& front() const { return ring[head]; }
  };

  static void fiber_main();
  // Suspend `from` and resume `to` (run()'s caller if null); from_done: never resumed.
  void switch_to(Fiber& from, Actor* to, bool from_done);
  // Move the calling actor to `state`, switch to the next actor, and return
  // once the calling actor is picked again. For kTimed, the caller has set
  // its wake_time, a fresh seq and its lane.
  void block_and_reschedule(Actor& self, State state);
  // Set the calling actor's wakeup, which joins `lane`, and block until it.
  void sleep(Actor& self, Time t, Duration lane);
  // Make a waiting actor kTimed at now() behind every actor queued for now(),
  // and queue it.
  void wake(Actor& a);
  // Queue a's wakeup in the lane for a.lane, or in the heap when a.lane is
  // kHeap or no lane is free for it.
  void push(Actor& a);
  // The first entry over the heap top and the lane heads; `from` is its
  // lane, or null for the heap top. Null when nothing is queued.
  const Wakeup* first(Lane*& from);
  // Pop entries up to the first live one and return its actor; nullptr once
  // the queue runs dry.
  Actor* pop_live();
  // Next to run: the next pick or, once shut down, a blocked actor to unwind.
  Actor* successor(Actor* blocking);
  // Pick the next runnable actor (min wake_time, then min seq) and mark it
  // running; advances virtual time. Returns nullptr when no actor can run.
  // `blocking` is the calling actor when it has just become kTimed, else
  // null. It is not in the queue yet: it competes with the first
  // queued entry directly, and is queued only when it loses.
  Actor* pick_next(Actor* blocking);
  void begin_shutdown(std::exception_ptr err);
  // Build the diagnostic over gate-blocked actors, feed the watchdog, and
  // begin shutdown with a DeadlockError.
  void report_deadlock();
  Actor& current_actor() const;

  std::vector<std::unique_ptr<Actor>> actors_;
  std::vector<Wakeup> queue_;  // min-heap on (wake_time, seq), lazily pruned
  std::array<Lane, kLanes> lanes_;
  std::size_t timed_ = 0;      // actors in kTimed: the run-queue depth
  Fiber main_;  // run()'s caller while the actors run
  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t context_switches_ = 0;
  std::uint64_t events_processed_ = 0;
  std::size_t max_run_queue_depth_ = 0;
  int live_actors_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
  std::function<void(const DeadlockReport&)> watchdog_;
};

/// Condition-variable-like wakeup channel bound to an Engine.
///
/// A waiting actor blocks with no scheduled wake time; it becomes runnable
/// (at the notifier's current virtual time) when another actor calls
/// notify_all(). As with std::condition_variable, callers re-check their
/// predicate in a loop:
///
///   while (!pred()) gate.wait(eng);
class Gate {
 public:
  explicit Gate(std::string name = {}) : name_(std::move(name)) {}

  /// Block the calling actor until the next notify_all(). The engine
  /// reports a deadlock if every live actor ends up gate-blocked. `detail`
  /// feeds the deadlock diagnostic (what this wait is for).
  void wait(Engine& eng, std::string detail = {});

  /// Block until notify_all() or virtual time `deadline`, whichever comes
  /// first. Returns true when notified, false on timeout. A timed waiter
  /// always has a scheduled wakeup, so it can never deadlock the engine.
  bool wait_until(Engine& eng, Time deadline, std::string detail = {});

  /// Make all actors currently waiting on this gate runnable at now().
  void notify_all(Engine& eng);

  const std::string& name() const { return name_; }

 private:
  friend class Engine;
  std::string name_;
  std::vector<Engine::Actor*> waiters_;
};

}  // namespace stencil::sim
