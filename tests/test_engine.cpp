#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cfenv>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "simtime/engine.h"

namespace sim = stencil::sim;

TEST(Engine, SingleActorAdvancesTime) {
  sim::Engine eng;
  sim::Time seen = -1;
  eng.run({[&] {
    EXPECT_EQ(sim::Engine::current()->now(), 0);
    sim::Engine::current()->sleep_for(100);
    seen = sim::Engine::current()->now();
  }});
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(eng.now(), 100);
}

TEST(Engine, SleepUntilPastIsNoop) {
  sim::Engine eng;
  eng.run({[&] {
    auto* e = sim::Engine::current();
    e->sleep_for(50);
    e->sleep_until(10);  // already past
    EXPECT_EQ(e->now(), 50);
  }});
}

TEST(Engine, NegativeOrZeroSleepIsNoop) {
  sim::Engine eng;
  eng.run({[&] {
    auto* e = sim::Engine::current();
    e->sleep_for(0);
    e->sleep_for(-5);
    EXPECT_EQ(e->now(), 0);
  }});
}

TEST(Engine, TwoActorsInterleaveDeterministically) {
  sim::Engine eng;
  std::vector<std::string> log;
  eng.run({[&] {
             auto* e = sim::Engine::current();
             log.push_back("a0@" + std::to_string(e->now()));
             e->sleep_for(10);
             log.push_back("a0@" + std::to_string(e->now()));
             e->sleep_for(20);  // wakes at 30
             log.push_back("a0@" + std::to_string(e->now()));
           },
           [&] {
             auto* e = sim::Engine::current();
             log.push_back("a1@" + std::to_string(e->now()));
             e->sleep_for(15);
             log.push_back("a1@" + std::to_string(e->now()));
           }});
  const std::vector<std::string> expect = {"a0@0", "a1@0", "a0@10", "a1@15", "a0@30"};
  EXPECT_EQ(log, expect);
}

TEST(Engine, SameWakeTimeBreaksTiesByAdmissionOrder) {
  sim::Engine eng;
  std::vector<int> order;
  std::vector<std::function<void()>> bodies;
  for (int i = 0; i < 5; ++i) {
    bodies.push_back([&order, i] {
      sim::Engine::current()->sleep_until(100);
      order.push_back(i);
    });
  }
  eng.run(std::move(bodies));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, YieldRotatesSameTimeActors) {
  sim::Engine eng;
  std::vector<int> order;
  eng.run({[&] {
             order.push_back(0);
             sim::Engine::current()->yield();
             order.push_back(0);
           },
           [&] {
             order.push_back(1);
             sim::Engine::current()->yield();
             order.push_back(1);
           }});
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1}));
}

TEST(Engine, ActorIdAndName) {
  sim::Engine eng;
  eng.run({[&] {
             EXPECT_EQ(sim::Engine::current()->actor_id(), 0);
             EXPECT_EQ(sim::Engine::current()->actor_name(), "alpha");
           },
           [&] {
             EXPECT_EQ(sim::Engine::current()->actor_id(), 1);
             EXPECT_EQ(sim::Engine::current()->actor_name(), "beta");
           }},
          {"alpha", "beta"});
}

TEST(Engine, TimeContinuesAcrossRuns) {
  sim::Engine eng;
  eng.run({[] { sim::Engine::current()->sleep_for(42); }});
  EXPECT_EQ(eng.now(), 42);
  eng.run({[] {
    EXPECT_EQ(sim::Engine::current()->now(), 42);
    sim::Engine::current()->sleep_for(8);
  }});
  EXPECT_EQ(eng.now(), 50);
}

TEST(Engine, ExceptionInActorPropagatesToRun) {
  sim::Engine eng;
  EXPECT_THROW(eng.run({[] { throw std::runtime_error("boom"); }}), std::runtime_error);
}

TEST(Engine, ExceptionAbortsOtherActors) {
  sim::Engine eng;
  bool other_finished_normally = false;
  try {
    eng.run({[] {
               sim::Engine::current()->sleep_for(10);
               throw std::runtime_error("boom");
             },
             [&] {
               sim::Engine::current()->sleep_for(1000000);
               other_finished_normally = true;
             }});
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_FALSE(other_finished_normally);
}

TEST(Engine, GateWaitAndNotify) {
  sim::Engine eng;
  sim::Gate gate("test");
  bool flag = false;
  std::vector<std::string> log;
  eng.run({[&] {
             auto* e = sim::Engine::current();
             while (!flag) gate.wait(*e);
             log.push_back("woke@" + std::to_string(e->now()));
           },
           [&] {
             auto* e = sim::Engine::current();
             e->sleep_for(500);
             flag = true;
             gate.notify_all(*e);
           }});
  EXPECT_EQ(log, (std::vector<std::string>{"woke@500"}));
}

TEST(Engine, GateDeadlockDetected) {
  sim::Engine eng;
  sim::Gate gate("never");
  EXPECT_THROW(eng.run({[&] { gate.wait(*sim::Engine::current()); }}), sim::DeadlockError);
}

TEST(Engine, GateDeadlockAmongSeveralActors) {
  sim::Engine eng;
  sim::Gate gate("never");
  EXPECT_THROW(eng.run({[&] { gate.wait(*sim::Engine::current()); },
                        [&] { gate.wait(*sim::Engine::current()); },
                        [&] { sim::Engine::current()->sleep_for(5); }}),
               sim::DeadlockError);
  // Unwinding the blocked actors is not scheduling: it adds no events or
  // switches.
  EXPECT_EQ(eng.events_processed(), 4u);
  EXPECT_EQ(eng.context_switches(), 3u);
  EXPECT_EQ(eng.max_run_queue_depth(), 3u);
}

TEST(Engine, CallsOutsideActorThrow) {
  sim::Engine eng;
  EXPECT_THROW(eng.actor_id(), std::logic_error);
  EXPECT_THROW(eng.sleep_for(5), std::logic_error);
}

TEST(Engine, StaleWakeupIsSkipped) {
  // The notified wait_until leaves its t=1000 deadline queued; that entry is
  // stale once the actor sleeps again, and must not wake it early.
  sim::Engine eng;
  sim::Gate gate("stale");
  std::vector<std::string> log;
  eng.run({[&] {
             auto* e = sim::Engine::current();
             const bool notified = gate.wait_until(*e, 1000);
             log.push_back("a" + std::to_string(notified) + "@" + std::to_string(e->now()));
             e->sleep_until(2000);
             log.push_back("a@" + std::to_string(e->now()));
           },
           [&] {
             auto* e = sim::Engine::current();
             e->sleep_until(10);
             gate.notify_all(*e);
             e->sleep_until(1500);
             log.push_back("b@" + std::to_string(e->now()));
           }});
  EXPECT_EQ(log, (std::vector<std::string>{"a1@10", "b@1500", "a@2000"}));
  EXPECT_EQ(eng.events_processed(), 6u);
  EXPECT_EQ(eng.context_switches(), 5u);
  EXPECT_EQ(eng.max_run_queue_depth(), 2u);
}

TEST(Engine, FloatingPointEnvironmentIsPerActor) {
  // The rounding mode lives in the x87 control word (fegetround) and the
  // MXCSR (SSE arithmetic); each actor keeps its own across switches.
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest = one / three;
  sim::Engine eng;
  eng.run({[&] {
             ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
             sim::Engine::current()->yield();
             EXPECT_EQ(std::fegetround(), FE_UPWARD);
             EXPECT_GT(one / three, nearest);
           },
           [&] {
             EXPECT_EQ(std::fegetround(), FE_TONEAREST);
             EXPECT_EQ(one / three, nearest);
             sim::Engine::current()->yield();
             EXPECT_EQ(std::fegetround(), FE_TONEAREST);
           }});
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(one / three, nearest);
}

namespace {
struct Schedule {
  std::vector<std::string> log;
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  std::size_t depth = 0;
};

// `n` actors, each sleeping five pseudo-random steps and logging its wakes.
Schedule many_actor_schedule(int n) {
  sim::Engine eng;
  Schedule s;
  std::vector<std::function<void()>> bodies;
  for (int i = 0; i < n; ++i) {
    bodies.push_back([&s, i] {
      auto* e = sim::Engine::current();
      for (int k = 0; k < 5; ++k) {
        e->sleep_for((i * 7 + k * 13) % 29 + 1);
        s.log.push_back(std::to_string(i) + ":" + std::to_string(e->now()));
      }
    });
  }
  eng.run(std::move(bodies));
  s.events = eng.events_processed();
  s.switches = eng.context_switches();
  s.depth = eng.max_run_queue_depth();
  return s;
}

std::uint64_t fnv1a(const std::vector<std::string>& lines) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& line : lines) {
    for (const char c : line + "\n") {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  return h;
}
}  // namespace

TEST(Engine, ManyActorsDeterministicSchedule) {
  // Run the same 50-actor program twice and require identical logs.
  const Schedule a = many_actor_schedule(50);
  const Schedule b = many_actor_schedule(50);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(fnv1a(a.log), 0x055360d126b4ca2bull);
  // The scheduler counters feed the sim_* telemetry gauges.
  for (const Schedule* s : {&a, &b}) {
    EXPECT_EQ(s->events, 300u);
    EXPECT_EQ(s->switches, 300u);
    EXPECT_EQ(s->depth, 50u);
  }
}

TEST(Engine, ManyActorsDeterministicSchedule2048) {
  // Past paper scale (Fig. 12b's 1536 ranks): the log and counters are
  // the values a linear scan over every actor produces.
  const Schedule s = many_actor_schedule(2048);
  ASSERT_EQ(s.log.size(), 10240u);
  EXPECT_EQ(s.log.front(), "0:1");
  EXPECT_EQ(s.log.back(), "2034:101");
  EXPECT_EQ(fnv1a(s.log), 0xf796b6f80d1d1c31ull);
  EXPECT_EQ(s.events, 12288u);
  EXPECT_EQ(s.switches, 12288u);
  EXPECT_EQ(s.depth, 2048u);
}

namespace {
// 63 workers take seeded random steps over every way to block: sleep_for
// over seven durations (more than the engine has lanes), sleep_until (on
// multiples of 10, so heap deadlines tie with lane wakeups), yield, Gate
// waits and wait_until, notified or timed out. Actor 0 notifies every gate
// each 7 ns until the workers finish, so no plain wait is left hanging. It
// gives up at a virtual-time limit the program never reaches, so an engine
// that starves the workers fails the test (with a deadlock) instead of
// looping.
Schedule mixed_schedule(sim::Engine& eng) {
  constexpr int kActors = 64;
  constexpr sim::Duration kDurations[] = {1, 2, 3, 5, 8, 13, 21};
  Schedule s;
  std::array<sim::Gate, 3> gates;
  int finished = 0;
  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {
    auto* e = sim::Engine::current();
    const sim::Time limit = e->now() + 100 * sim::kMicrosecond;
    while (finished < kActors - 1 && e->now() < limit) {
      e->sleep_for(7);
      for (auto& g : gates) g.notify_all(*e);
    }
  });
  for (int i = 1; i < kActors; ++i) {
    bodies.push_back([&, i] {
      auto* e = sim::Engine::current();
      std::uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i);
      for (int k = 0; k < 40; ++k) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const auto r = static_cast<int>(x >> 33);
        const int arg = (r >> 4) % 97;
        std::string step;
        switch (r % 10) {
          case 0: case 1: case 2: case 3:
            e->sleep_for(kDurations[arg % 7]);
            step = "s";
            break;
          case 4:
            e->sleep_until((e->now() / 10 + 1 + arg % 4) * 10);
            step = "u";
            break;
          case 5:
            e->yield();
            step = "y";
            break;
          case 6:
            gates[static_cast<std::size_t>(arg % 3)].wait(*e);
            step = "w";
            break;
          case 7:
            step = gates[static_cast<std::size_t>(arg % 3)].wait_until(*e, e->now() + 1 + arg % 12)
                       ? "n"
                       : "t";
            break;
          default:
            gates[static_cast<std::size_t>(arg % 3)].notify_all(*e);
            step = "x";
            break;
        }
        s.log.push_back(std::to_string(i) + step + std::to_string(e->now()));
      }
      ++finished;
    });
  }
  eng.run(std::move(bodies));
  s.events = eng.events_processed();
  s.switches = eng.context_switches();
  s.depth = eng.max_run_queue_depth();
  return s;
}
}  // namespace

TEST(Engine, LanesKeepHeapOrder) {
  // Pinned to the schedule of the engine that kept every wakeup in one
  // heap: the FIFO lanes beside it must change no pick. The second run on
  // the same engine checks that the lanes start over with each run().
  sim::Engine eng;
  const Schedule a = mixed_schedule(eng);
  const Schedule b = mixed_schedule(eng);
  ASSERT_EQ(a.log.size(), 63u * 40u);
  EXPECT_EQ(fnv1a(a.log), 0xa48f8db806365b25ull);
  EXPECT_EQ(fnv1a(b.log), 0x1a8a4d828bbddcf8ull);
  // The counters run on across runs.
  EXPECT_EQ(a.events, 2124u);
  EXPECT_EQ(a.switches, 2086u);
  EXPECT_EQ(a.depth, 64u);
  EXPECT_EQ(b.events, 4248u);
  EXPECT_EQ(b.switches, 4165u);
  EXPECT_EQ(b.depth, 64u);
}

TEST(Engine, ContextSwitchFastPath) {
  // A single actor sleeping repeatedly should not need switches beyond the
  // initial one.
  sim::Engine eng;
  eng.run({[] {
    for (int i = 0; i < 100; ++i) sim::Engine::current()->sleep_for(10);
  }});
  EXPECT_LE(eng.context_switches(), 2u);
}

TEST(Engine, CatchBlocksSurviveInterleavedSwitches) {
  // Actors block inside catch blocks, as recovering ranks do; each must
  // keep its own caught exception across the others' throws and catches.
  sim::Engine eng;
  int checked = 0;
  std::vector<std::function<void()>> bodies;
  for (int i = 0; i < 3; ++i) {
    bodies.push_back([&checked, i] {
      const std::string mine = "actor " + std::to_string(i);
      try {
        throw std::runtime_error(mine);
      } catch (const std::runtime_error&) {
        sim::Engine::current()->sleep_for(10 * (3 - i));  // leave in reverse order
        EXPECT_EQ(std::uncaught_exceptions(), 0);
        try {
          throw;
        } catch (const std::runtime_error& again) {
          EXPECT_EQ(again.what(), mine);
          ++checked;
        }
      }
      EXPECT_EQ(std::current_exception(), nullptr);
    });
  }
  eng.run(std::move(bodies));
  EXPECT_EQ(checked, 3);
}

// Recurses `depth` frames. Each frame hands its buffer to the next, so the
// compiler can neither reuse a frame nor turn the recursion into a loop.
int recurse(const volatile char* caller, long depth) {
  volatile char frame[1024];
  frame[0] = caller[0];
  return depth == 0 ? frame[0] : recurse(frame, depth - 1) + frame[0];
}

TEST(EngineDeathTest, ActorStackOverflowHitsGuardPage) {
  EXPECT_DEATH(
      {
        sim::Engine eng;
        const volatile char seed = 1;
        eng.run({[] { sim::Engine::current()->sleep_for(1); },
                 [&] { recurse(&seed, 1L << 30); }});
      },
      "");
}

TEST(TimeFormat, Units) {
  EXPECT_EQ(sim::format_duration(500), "500 ns");
  EXPECT_EQ(sim::format_duration(1500), "1.500 us");
  EXPECT_EQ(sim::format_duration(2500000), "2.500 ms");
  EXPECT_EQ(sim::format_duration(3 * sim::kSecond), "3.000 s");
}

TEST(TimeFormat, TransferTime) {
  // 1 GiB at 1 GiB/s = 1 s.
  EXPECT_EQ(sim::transfer_time(1ull << 30, 1.0), sim::kSecond);
  // Zero bandwidth means free (used for disabled links).
  EXPECT_EQ(sim::transfer_time(12345, 0.0), 0);
}
