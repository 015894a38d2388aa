#include "simtime/engine.h"

#include <cxxabi.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(__x86_64__) || !defined(__ELF__)
#error "port stencil_sim_switch and Engine::Fiber::start (simtime/engine.cpp) to this ABI"
#endif

// The context switch, for the x86-64 System V ABI. It pushes the registers
// a callee must preserve (rbx, rbp, r12-r15, the MXCSR and the x87 control
// word) onto the running stack, stores the stack pointer in *save_sp, loads
// load_sp, and pops the same registers from that stack; its `ret` resumes
// the other fiber. Unlike swapcontext it leaves the signal mask alone, so a
// switch makes no syscall. The stack-pointer value is 16-byte aligned and
// its layout is SwitchFrame.
//
// A new fiber's first frame returns into stencil_sim_fiber_entry, which
// calls the function in rbx on the aligned stack top and never returns.
// Its undefined return address ends unwinds and backtraces there.
extern "C" {
void stencil_sim_switch(void** save_sp, void* load_sp);
void stencil_sim_fiber_entry();
}

asm(R"(
  .pushsection .text
  .globl stencil_sim_switch
  .hidden stencil_sim_switch
  .type stencil_sim_switch, @function
  .p2align 4
stencil_sim_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size stencil_sim_switch, .-stencil_sim_switch

  .globl stencil_sim_fiber_entry
  .hidden stencil_sim_fiber_entry
  .type stencil_sim_fiber_entry, @function
  .p2align 4
stencil_sim_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  callq *%rbx
  ud2
  .cfi_endproc
  .size stencil_sim_fiber_entry, .-stencil_sim_fiber_entry
  .popsection
)");

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

// A switched-out fiber's stack at its saved sp, lowest address first, as
// stencil_sim_switch pushes and pops it.
struct SwitchFrame {
  std::uint32_t mxcsr;
  std::uint16_t x87_cw;
  std::uint16_t pad;
  std::uint64_t r15, r14, r13, r12, rbx, rbp;
  void (*ret)();
};
static_assert(sizeof(SwitchFrame) % 16 == 0, "keeps the saved sp 16-byte aligned");

// Whether the kernel enforces a CET shadow stack on this thread. The
// switch swaps rsp but not the shadow stack, so the first `ret` into
// another fiber would fault. The codes are Linux's ARCH_SHSTK_STATUS and
// ARCH_SHSTK_SHSTK (asm/prctl.h, which older headers lack); kernels
// without shadow-stack support reject the call, meaning none is active.
bool shadow_stack_active() {
  constexpr int kArchShstkStatus = 0x5005;
  constexpr unsigned long kArchShstkShstk = 1;
  unsigned long features = 0;
  return syscall(SYS_arch_prctl, kArchShstkStatus, &features) == 0 &&
         (features & kArchShstkShstk) != 0;
}
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
  if (shadow_stack_active()) {
    throw std::runtime_error(
        "Engine::run(): a CET shadow stack is active on this thread; the fiber switch keeps "
        "none per fiber, so build the program with -fcf-protection=none (or disable it with "
        "GLIBC_TUNABLES=glibc.cpu.x86_shstk=off)");
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
  queue_.clear();
  for (Lane& l : lanes_) {
    l.head = 0;
    l.size = 0;
    l.ring.resize(bodies.size());
  }
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
    push(*a);
    actors_.push_back(std::move(a));
  }
  live_actors_ = static_cast<int>(actors_.size());
  timed_ = actors_.size();

  // Switch to the first actor; the last one to finish switches back here.
  main_.stack_size = 0;  // learned on entry to the first fiber
  tls.engine = this;
  switch_to(main_, pick_next(nullptr), false);
  tls.engine = nullptr;

  if (first_error_) std::rethrow_exception(std::exchange(first_error_, nullptr));
}

void Engine::Fiber::start(void* bottom) {
  stack_bottom = bottom;
  stack_size = kStackBytes;
  // The frame a switch into this fiber pops: the FP control state of run()'s
  // caller, rbp = 0 to end frame-pointer chains, and fiber_main() in rbx for
  // the entry trampoline it returns into.
  auto* f = new (static_cast<char*>(bottom) + kStackBytes - sizeof(SwitchFrame)) SwitchFrame{};
  asm("stmxcsr %0\n\tfnstcw %1" : "=m"(f->mxcsr), "=m"(f->x87_cw));
  f->rbx = reinterpret_cast<std::uint64_t>(&Engine::fiber_main);
  f->ret = &stencil_sim_fiber_entry;
  sp = f;
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
  eng.switch_to(self.fiber, eng.live_actors_ == 0 ? nullptr : eng.successor(nullptr), true);
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
  stencil_sim_switch(&from.sp, dest.sp);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(from.fake_stack, nullptr, nullptr);
#endif
}

void Engine::sleep_for(Duration d) {
  if (d <= 0) return;
  Actor& self = current_actor();
  if (shutdown_) throw SimulationAborted("simulation aborted during sleep");
  sleep(self, now_ + d, d);
}

void Engine::sleep_until(Time t) {
  Actor& self = current_actor();
  if (shutdown_) throw SimulationAborted("simulation aborted during sleep");
  if (t <= now_) return;
  sleep(self, t, kHeap);
}

void Engine::yield() {
  Actor& self = current_actor();
  if (shutdown_) throw SimulationAborted("simulation aborted during yield");
  sleep(self, now_, 0);  // a fresh seq: the back of the same-time queue
}

void Engine::sleep(Actor& self, Time t, Duration lane) {
  self.wake_time = t;
  self.seq = next_seq_++;
  self.lane = lane;
  block_and_reschedule(self, State::kTimed);
}

void Engine::block_and_reschedule(Actor& self, State state) {
  self.state = state;
  if (state == State::kTimed) ++timed_;
  Actor* next = successor(state == State::kTimed ? &self : nullptr);
  if (next != &self) switch_to(self.fiber, next, false);  // else the fast path
  self.state = State::kRunning;
  if (shutdown_) throw SimulationAborted("simulation aborted while blocked");
}

void Engine::wake(Actor& a) {
  if (a.state != State::kTimed) ++timed_;
  a.state = State::kTimed;
  a.wake_time = now_;
  a.seq = next_seq_++;
  a.lane = 0;
  push(a);
}

void Engine::push(Actor& a) {
  const Wakeup w{a.wake_time, a.seq, &a};
  if (a.lane != kHeap) {
    Lane* lane = nullptr;
    for (Lane& l : lanes_) {
      if (l.size == 0) {
        if (lane == nullptr) lane = &l;
      } else if (l.d == a.lane) {
        lane = &l;
        break;
      }
    }
    if (lane != nullptr) {
      if (lane->size == 0) lane->d = a.lane;
      std::size_t tail = lane->head + lane->size++;
      if (tail >= lane->ring.size()) tail -= lane->ring.size();
      lane->ring[tail] = w;
      return;
    }
  }
  queue_.push_back(w);
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
}

Engine::Actor* Engine::successor(Actor* blocking) {
  if (!shutdown_) {
    if (Actor* next = pick_next(blocking)) return next;
    // Every remaining actor is gate-blocked: they can never wake.
    report_deadlock();
  }
  for (const auto& a : actors_) {
    if (a->state == State::kTimed || a->state == State::kGateBlocked) return a.get();
  }
  return nullptr;
}

const Engine::Wakeup* Engine::first(Lane*& from) {
  const Wakeup* best = queue_.empty() ? nullptr : &queue_.front();
  from = nullptr;
  for (Lane& l : lanes_) {
    if (l.size != 0 && (best == nullptr || *best > l.front())) {
      best = &l.front();
      from = &l;
    }
  }
  return best;
}

Engine::Actor* Engine::pop_live() {
  Lane* lane = nullptr;
  while (const Wakeup* next = first(lane)) {
    const Wakeup top = *next;
    if (lane != nullptr) {
      if (++lane->head == lane->ring.size()) lane->head = 0;
      --lane->size;
      return top.actor;  // never stale
    }
    std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
    queue_.pop_back();
    // A stale entry's actor was rescheduled since, or is no longer waiting.
    if (top.actor->state == State::kTimed && top.actor->seq == top.seq) return top.actor;
  }
  return nullptr;
}

Engine::Actor* Engine::pick_next(Actor* blocking) {
  // The first entry, live or stale, wakes no later than any live one, and
  // the blocking actor's seq is the newest. So the blocking actor goes next
  // when it wakes strictly before that entry; it then never touches the
  // queue, which keeps a lone actor's sleeps cheap.
  Actor* best = blocking;
  Lane* lane = nullptr;
  const Wakeup* next = blocking != nullptr ? first(lane) : nullptr;
  if (blocking == nullptr || (next != nullptr && next->wake_time <= blocking->wake_time)) {
    if (blocking != nullptr) push(*blocking);
    best = pop_live();
    if (best == nullptr) return nullptr;
  }
  ++events_processed_;
  max_run_queue_depth_ = std::max(max_run_queue_depth_, timed_);
  --timed_;
  best->state = State::kRunning;
  if (best->wake_time > now_) now_ = best->wake_time;
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
  self.lane = Engine::kHeap;
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
      eng.wake(*a);
      a->gate_notified = true;
    }
  }
  waiters_.clear();
}

}  // namespace stencil::sim
