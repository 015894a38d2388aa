#include <gtest/gtest.h>

#include <atomic>
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

TEST(Engine, ManyActorsDeterministicSchedule) {
  // Run the same 50-actor program twice and require identical logs.
  auto run_once = [] {
    sim::Engine eng;
    std::vector<std::string> log;
    std::vector<std::function<void()>> bodies;
    for (int i = 0; i < 50; ++i) {
      bodies.push_back([&log, i] {
        auto* e = sim::Engine::current();
        for (int k = 0; k < 5; ++k) {
          e->sleep_for((i * 7 + k * 13) % 29 + 1);
          log.push_back(std::to_string(i) + ":" + std::to_string(e->now()));
        }
      });
    }
    eng.run(std::move(bodies));
    // The scheduler counters feed the sim_* telemetry gauges.
    EXPECT_EQ(eng.events_processed(), 300u);
    EXPECT_EQ(eng.context_switches(), 300u);
    EXPECT_EQ(eng.max_run_queue_depth(), 50u);
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
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
