#include "simtime/engine.h"

#include <cxxabi.h>
#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <system_error>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

namespace stencil::sim {

namespace {
struct TlsBinding {
  Engine* engine = nullptr;
  int actor_id = -1;
};
thread_local TlsBinding tls;

// Usable stack of one actor: 30x the deepest one measured (8.5 KiB, a
// rank of the recovery drill, across every test, bench and drill).
constexpr std::size_t kStackBytes = std::size_t{256} << 10;
// PROT_NONE region below each stack, so an overflow faults instead of
// running into the neighbouring stack. A multiple of every page size.
constexpr std::size_t kGuardBytes = std::size_t{64} << 10;
}  // namespace

std::string DeadlockReport::to_string() const {
  std::ostringstream oss;
  oss << "simulation deadlock at t=" << format_duration(at) << ":";
  for (const auto& b : actors) {
    oss << " [" << (b.actor.empty() ? "actor" : b.actor) << " <- gate '" << b.resource << "'";
    if (!b.detail.empty()) oss << " (" << b.detail << ")";
    oss << " since t=" << format_duration(b.blocked_at) << "]";
  }
  return oss.str();
}

DeadlockError::DeadlockError(DeadlockReport rep)
    : std::runtime_error(rep.to_string()),
      report_(std::make_shared<const DeadlockReport>(std::move(rep))) {}

Engine* Engine::current() { return tls.engine; }

int Engine::actor_id() const { return current_actor().id; }

const std::string& Engine::actor_name() const { return current_actor().name; }

Engine::Actor& Engine::current_actor() const {
  if (tls.engine != this || tls.actor_id < 0) {
    throw std::logic_error("Engine call outside of an actor body");
  }
  return *actors_[static_cast<std::size_t>(tls.actor_id)];
}

void Engine::run(std::vector<std::function<void()>> bodies, std::vector<std::string> names) {
  if (bodies.empty()) return;
  if (tls.engine != nullptr) {
    throw std::logic_error("Engine::run() may not be called from inside an actor");
  }

  // One mapping holds every actor's stack, each above its guard.
  const std::size_t slot = kGuardBytes + kStackBytes;
  const std::size_t bytes = slot * bodies.size();
  void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (map == MAP_FAILED) throw std::system_error(errno, std::generic_category(), "actor stacks");
  const std::shared_ptr<void> stacks(map, [bytes](void* p) { munmap(p, bytes); });

  shutdown_ = false;
  actors_.clear();
  actors_.reserve(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    auto a = std::make_unique<Actor>();
    a->body = std::move(bodies[i]);
    a->name = i < names.size() ? std::move(names[i]) : std::string{};
    a->id = static_cast<int>(i);
    a->wake_time = now_;
    a->seq = next_seq_++;
    char* guard = static_cast<char*>(map) + i * slot;
    if (mprotect(guard, kGuardBytes, PROT_NONE) != 0) {
      throw std::system_error(errno, std::generic_category(), "actor stack guard");
    }
    a->fiber.start(guard + kGuardBytes);
    actors_.push_back(std::move(a));
  }
  live_actors_ = static_cast<int>(actors_.size());

  // Switch to the first actor; the last one to finish switches back here.
  main_.stack_size = 0;  // learned on entry to the first fiber
  tls.engine = this;
  switch_to(main_, pick_next(), false);
  tls.engine = nullptr;

  if (first_error_) std::rethrow_exception(std::exchange(first_error_, nullptr));
}

// Not inline in run(): getcontext() may return twice as far as the compiler
// knows, which puts the caller's locals at risk.
void Engine::Fiber::start(void* bottom) {
  stack_bottom = bottom;
  stack_size = kStackBytes;
  getcontext(&ctx);
  ctx.uc_stack.ss_sp = bottom;
  ctx.uc_stack.ss_size = kStackBytes;
  makecontext(&ctx, &Engine::fiber_main, 0);
}

void Engine::fiber_main() {
  Engine& eng = *tls.engine;
  Actor& self = eng.current_actor();
#if defined(__SANITIZE_ADDRESS__)
  const bool from_run = eng.main_.stack_size == 0;  // then learn run()'s stack
  __sanitizer_finish_switch_fiber(nullptr, from_run ? &eng.main_.stack_bottom : nullptr,
                                  from_run ? &eng.main_.stack_size : nullptr);
#endif
  self.state = State::kRunning;
  if (!eng.shutdown_) {
    try {
      self.body();
    } catch (const SimulationAborted&) {
      // Unwinding due to another actor's failure; not a new error.
    } catch (...) {
      eng.begin_shutdown(std::current_exception());
    }
  }
  // This frame is never unwound, so nothing that owns a resource may be
  // alive from here on.
  self.state = State::kDone;
  --eng.live_actors_;
  eng.switch_to(self.fiber, eng.live_actors_ == 0 ? nullptr : eng.successor(), true);
}

void Engine::switch_to(Fiber& from, Actor* to, [[maybe_unused]] bool from_done) {
  Fiber& dest = to != nullptr ? to->fiber : main_;
  if (to != nullptr && !shutdown_) ++context_switches_;  // not unwinding
  tls.actor_id = to != nullptr ? to->id : -1;
  void* eh_globals = abi::__cxa_get_globals();
  std::memcpy(from.eh, eh_globals, sizeof from.eh);
  std::memcpy(eh_globals, dest.eh, sizeof dest.eh);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(from_done ? nullptr : &from.fake_stack, dest.stack_bottom,
                                 dest.stack_size);
#endif
  swapcontext(&from.ctx, &dest.ctx);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(from.fake_stack, nullptr, nullptr);
#endif
}

void Engine::sleep_for(Duration d) {
  if (d <= 0) return;
  sleep_until(now_ + d);
}

void Engine::sleep_until(Time t) {
  Actor& self = current_actor();
  if (shutdown_) throw SimulationAborted("simulation aborted during sleep");
  if (t <= now_) return;
  self.wake_time = t;
  self.seq = next_seq_++;
  block_and_reschedule(self, State::kTimed);
}

void Engine::yield() {
  Actor& self = current_actor();
  if (shutdown_) throw SimulationAborted("simulation aborted during yield");
  self.wake_time = now_;
  self.seq = next_seq_++;  // go to the back of the same-time queue
  block_and_reschedule(self, State::kTimed);
}

void Engine::block_and_reschedule(Actor& self, State state) {
  self.state = state;
  Actor* next = successor();
  if (next != &self) switch_to(self.fiber, next, false);  // else the fast path
  self.state = State::kRunning;
  if (shutdown_) throw SimulationAborted("simulation aborted while blocked");
}

Engine::Actor* Engine::successor() {
  if (!shutdown_) {
    if (Actor* next = pick_next()) return next;
    // Every remaining actor is gate-blocked: they can never wake.
    report_deadlock();
  }
  for (const auto& a : actors_) {
    if (a->state == State::kTimed || a->state == State::kGateBlocked) return a.get();
  }
  return nullptr;
}

Engine::Actor* Engine::pick_next() {
  Actor* best = nullptr;
  std::size_t queued = 0;
  for (const auto& a : actors_) {
    if (a->state != State::kTimed) continue;
    ++queued;
    if (best == nullptr || a->wake_time < best->wake_time ||
        (a->wake_time == best->wake_time && a->seq < best->seq)) {
      best = a.get();
    }
  }
  if (best != nullptr) {
    ++events_processed_;
    if (queued > max_run_queue_depth_) max_run_queue_depth_ = queued;
    if (best->wake_time > now_) now_ = best->wake_time;
  }
  return best;
}

void Engine::report_deadlock() {
  DeadlockReport rep;
  rep.at = now_;
  for (const auto& a : actors_) {
    if (a->state != State::kGateBlocked) continue;
    rep.actors.push_back(BlockedActorInfo{a->name.empty() ? "actor" : a->name,
                                          a->gate != nullptr ? a->gate->name() : "?",
                                          a->block_detail, a->blocked_at});
  }
  if (watchdog_) watchdog_(rep);
  begin_shutdown(std::make_exception_ptr(DeadlockError(std::move(rep))));
}

void Engine::begin_shutdown(std::exception_ptr err) {
  // successor() then resumes each blocked actor to unwind (SimulationAborted).
  if (!first_error_) first_error_ = std::move(err);
  shutdown_ = true;
}

void Engine::set_block_detail(std::string detail) {
  current_actor().block_detail = std::move(detail);
}

void Gate::wait(Engine& eng, std::string detail) {
  Engine::Actor& self = eng.current_actor();
  if (eng.shutdown_) throw SimulationAborted("simulation aborted during gate wait");
  self.gate = this;
  if (!detail.empty()) self.block_detail = std::move(detail);
  self.blocked_at = eng.now_;
  waiters_.push_back(&self);
  eng.block_and_reschedule(self, Engine::State::kGateBlocked);
  self.gate = nullptr;
  // NOTE: notify_all() removes us from waiters_; if we are unwinding due to
  // shutdown we may still be registered, which is harmless.
}

bool Gate::wait_until(Engine& eng, Time deadline, std::string detail) {
  Engine::Actor& self = eng.current_actor();
  if (eng.shutdown_) throw SimulationAborted("simulation aborted during gate wait");
  if (deadline <= eng.now_) return false;  // already expired; caller re-checks
  self.gate = this;
  if (!detail.empty()) self.block_detail = std::move(detail);
  self.blocked_at = eng.now_;
  self.gate_notified = false;
  self.wake_time = deadline;
  self.seq = eng.next_seq_++;
  waiters_.push_back(&self);
  // Timed, not gate-blocked: the deadline guarantees a wakeup, so this
  // waiter never participates in a deadlock.
  eng.block_and_reschedule(self, Engine::State::kTimed);
  const bool notified = self.gate_notified;
  if (!notified) {
    waiters_.erase(std::remove(waiters_.begin(), waiters_.end(), &self), waiters_.end());
  }
  self.gate = nullptr;
  return notified;
}

void Gate::notify_all(Engine& eng) {
  eng.current_actor();  // only an actor may notify
  for (Engine::Actor* a : waiters_) {
    if (a->state == Engine::State::kGateBlocked || a->state == Engine::State::kTimed) {
      a->state = Engine::State::kTimed;
      a->wake_time = eng.now_;
      a->seq = eng.next_seq_++;
      a->gate_notified = true;
    }
  }
  waiters_.clear();
}

}  // namespace stencil::sim
