// Wall-clock microbenchmarks (google-benchmark) of the substrate itself:
// engine scheduling overhead, resource math, QAP solvers, pack/unpack
// kernels, and a small end-to-end exchange. These measure the *simulator's*
// real cost (the other bench binaries report simulated/virtual time).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "check/checker.h"
#include "common.h"
#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "core/local_domain.h"
#include "core/partition.h"
#include "core/placement.h"
#include "qap/qap.h"
#include "simpi/mpi.h"
#include "simtime/engine.h"
#include "simtime/resource.h"
#include "topo/archetype.h"
#include "watch/watch.h"

namespace sim = stencil::sim;

static void BM_EngineSleepFastPath(benchmark::State& state) {
  sim::Engine eng;
  for (auto _ : state) {
    state.PauseTiming();
    state.ResumeTiming();
    eng.run({[&] {
      for (int i = 0; i < 1000; ++i) sim::Engine::current()->sleep_for(10);
    }});
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineSleepFastPath);

static void BM_EngineTokenHandoff(benchmark::State& state) {
  const int actors = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    std::vector<std::function<void()>> bodies;
    for (int i = 0; i < actors; ++i) {
      bodies.push_back([] {
        for (int k = 0; k < 100; ++k) sim::Engine::current()->yield();
      });
    }
    eng.run(std::move(bodies));
  }
  state.SetItemsProcessed(state.iterations() * actors * 100);
}
BENCHMARK(BM_EngineTokenHandoff)->Arg(2)->Arg(12)->Arg(48)->Arg(384);

// Every actor pays the same fixed cost in lockstep, as ranks do for each
// MPI call and stream issue (sleep_for(cpu_issue)): the pattern behind most
// of weak64's events.
static void BM_EngineFixedSleep(benchmark::State& state) {
  const int actors = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    std::vector<std::function<void()>> bodies;
    for (int i = 0; i < actors; ++i) {
      bodies.push_back([] {
        for (int k = 0; k < 1000; ++k) sim::Engine::current()->sleep_for(5000);
      });
    }
    eng.run(std::move(bodies));
  }
  state.SetItemsProcessed(state.iterations() * actors * 1000);
}
BENCHMARK(BM_EngineFixedSleep)->Arg(384);

static void BM_ResourceAcquire(benchmark::State& state) {
  sim::Resource r;
  sim::Time t = 0;
  for (auto _ : state) {
    t = r.acquire(t, 10);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_ResourceAcquire);

static void BM_QapExhaustive6(benchmark::State& state) {
  stencil::HierarchicalPartition hp({1440, 1452, 700}, 1, 6);
  stencil::Placement p(hp, stencil::topo::summit(), 3, 16, stencil::Neighborhood::kFull,
                       stencil::PlacementStrategy::kTrivial);
  const auto w = p.node_flow(0);
  const auto& d = p.distance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(stencil::qap::solve_exhaustive(w, d));
  }
}
BENCHMARK(BM_QapExhaustive6);

static void BM_QapGreedy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  stencil::qap::SquareMatrix w(n), d(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      w.at(i, j) = static_cast<double>((i * 31 + j * 17) % 97);
      d.at(i, j) = 1.0 + static_cast<double>((i * 13 + j * 7) % 11);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stencil::qap::solve_greedy_2swap(w, d));
  }
}
BENCHMARK(BM_QapGreedy)->Arg(6)->Arg(16)->Arg(32);

static void BM_PackRegion(benchmark::State& state) {
  const std::int64_t edge = state.range(0);
  sim::Engine eng;
  stencil::topo::Machine machine(stencil::topo::summit(), 1);
  stencil::vgpu::Runtime rt(eng, machine);
  eng.run({[&] {
    std::vector<stencil::Quantity> qs{{"a", 4}, {"b", 4}};
    stencil::LocalDomain ld(rt, 0, {0, 0, 0}, {0, 0, 0}, {edge, edge, edge}, 3, qs);
    const stencil::Region3 face = stencil::interior_slab(ld.size(), {1, 0, 0}, 3);
    auto buf = rt.alloc_device(0, ld.region_bytes(face));
    for (auto _ : state) {
      ld.pack_region(buf, face);
      benchmark::DoNotOptimize(buf);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(ld.region_bytes(face)));
  }});
}
BENCHMARK(BM_PackRegion)->Arg(64)->Arg(128);

static void BM_FullExchangeSimulated(benchmark::State& state) {
  // Real seconds needed to *simulate* one single-node 6-rank exchange.
  // Arg(1) attaches a stencil::watch, so the delta between the two rows is
  // the watch's whole hot-path overhead (acceptance: under 2%).
  const bool watched = state.range(0) != 0;
  for (auto _ : state) {
    stencil::watch::Watch live;
    stencil::Cluster cluster(stencil::topo::summit(), 1, 6);
    cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
    if (watched) cluster.set_watch(&live);
    cluster.run([&](stencil::RankCtx& ctx) {
      stencil::DistributedDomain dd(ctx, {512, 512, 512});
      dd.set_radius(3);
      dd.add_data<float>("q");
      dd.realize();
      dd.exchange();
    });
  }
}
BENCHMARK(BM_FullExchangeSimulated)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("watch")
    ->Unit(benchmark::kMillisecond);

static void BM_CheckedExchange(benchmark::State& state) {
  // Real seconds to simulate a 2-node x 2-rank materialized job, 48x32x8,
  // radius 2, two quantities: realize() plus five exchanges over all four
  // methods. Arg(1) attaches a check::Checker, so the delta between the two
  // rows is the happens-before checker's whole overhead. Counters split it:
  // setup_ms is realize() plus the first exchange (what a fresh cluster
  // pays before it is warm), steady_ms the mean of exchanges 2-5.
  using Clock = std::chrono::steady_clock;
  const bool checked = state.range(0) != 0;
  constexpr int kSteady = 4;
  double setup_ms = 0.0, steady_ms = 0.0;
  for (auto _ : state) {
    stencil::Cluster cluster(stencil::topo::summit(), 2, 2);
    stencil::check::Checker chk(cluster.engine());
    if (checked) cluster.set_checker(&chk);
    const auto t0 = Clock::now();
    Clock::time_point warm, done;
    cluster.run([&](stencil::RankCtx& ctx) {
      stencil::DistributedDomain dd(ctx, {48, 32, 8});
      dd.set_radius(2);
      dd.add_data<float>("a");
      dd.add_data<float>("b");
      dd.realize();
      dd.exchange();
      ctx.comm.barrier();  // every rank is through the first exchange
      if (ctx.comm.rank() == 0) warm = Clock::now();
      for (int i = 0; i < kSteady; ++i) dd.exchange();
      ctx.comm.barrier();
      if (ctx.comm.rank() == 0) done = Clock::now();
    });
    setup_ms += std::chrono::duration<double, std::milli>(warm - t0).count();
    steady_ms += std::chrono::duration<double, std::milli>(done - warm).count() / kSteady;
    if (checked && !chk.report().clean()) state.SkipWithError("checker findings");
  }
  state.counters["setup_ms"] = benchmark::Counter(setup_ms, benchmark::Counter::kAvgIterations);
  state.counters["steady_ms"] = benchmark::Counter(steady_ms, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CheckedExchange)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("checker")
    ->Unit(benchmark::kMillisecond);

static void BM_SteadyEagerExchange(benchmark::State& state) {
  // Real seconds per steady eager exchange of an 8-node x 6-rank phantom
  // job on the weak-scaling shape (round(750 * cbrt(GPUs)) per axis,
  // radius 3, four quantities). Only the exchanges after a warm-up one
  // are timed, so the row is the host cost of the exchange layer per
  // exchange, without realize() or the first exchange's set-up.
  using Clock = std::chrono::steady_clock;
  constexpr int kSteady = 4;
  const auto e = static_cast<std::int64_t>(std::round(750.0 * std::cbrt(48.0)));
  for (auto _ : state) {
    stencil::Cluster cluster(stencil::topo::summit(), 8, 6);
    cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
    Clock::time_point warm, done;
    cluster.run([&](stencil::RankCtx& ctx) {
      stencil::DistributedDomain dd(ctx, {e, e, e});
      dd.set_radius(3);
      for (const char* q : {"a", "b", "c", "d"}) dd.add_data<float>(q);
      dd.realize();
      dd.exchange();
      ctx.comm.barrier();  // every rank is through the warm-up exchange
      if (ctx.comm.rank() == 0) warm = Clock::now();
      for (int i = 0; i < kSteady; ++i) dd.exchange();
      ctx.comm.barrier();
      if (ctx.comm.rank() == 0) done = Clock::now();
    });
    state.SetIterationTime(std::chrono::duration<double>(done - warm).count() / kSteady);
  }
}
BENCHMARK(BM_SteadyEagerExchange)->UseManualTime()->Unit(benchmark::kMillisecond);

static void BM_SimpiMessageRate(benchmark::State& state) {
  // Real seconds per message through simpi alone, on Arg ranks (6 per
  // node): each round, every rank posts irecvs from 26 neighbours, then
  // its 26 isends, then drains the recvs with wait_any and the sends with
  // waitall. Payloads are phantom pinned host buffers above the eager
  // limit, so each message takes the rendezvous path of a STAGED halo
  // transfer and no bytes move. Rounds scale so one iteration is about
  // 40k messages whatever the job size.
  namespace simpi = stencil::simpi;
  using Clock = std::chrono::steady_clock;
  constexpr int kNeighbours = 26;
  constexpr std::size_t kBytes = 4 * simpi::Job::kEagerLimit;
  const int ranks = static_cast<int>(state.range(0));
  const int rounds = std::max(4, 40000 / (ranks * kNeighbours));
  for (auto _ : state) {
    sim::Engine eng;
    stencil::topo::Machine machine(stencil::topo::summit(), ranks / 6);
    stencil::vgpu::Runtime rt(eng, machine);
    rt.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
    simpi::Job job(eng, machine, rt, 6);
    Clock::time_point start, done;
    job.run([&](simpi::Comm& comm) {
      const int me = comm.rank();
      const int n = comm.size();
      stencil::vgpu::Buffer buf = rt.alloc_pinned_host(comm.node(), kBytes);
      const simpi::Payload payload = simpi::Payload::of(buf, 0, kBytes);
      std::vector<simpi::Request> recvs;
      std::vector<simpi::Request> sends;
      comm.barrier();
      if (me == 0) start = Clock::now();
      for (int round = 0; round < rounds; ++round) {
        // Neighbour k sends to me + 1 + k with tag k, so I hear tag k from
        // me - 1 - k.
        for (int k = 0; k < kNeighbours; ++k) {
          recvs.push_back(comm.irecv(payload, ((me - 1 - k) % n + n) % n, k));
        }
        for (int k = 0; k < kNeighbours; ++k) {
          sends.push_back(comm.isend(payload, (me + 1 + k) % n, k));
        }
        while (comm.wait_any(recvs) >= 0) {
        }
        comm.waitall(sends);
        recvs.clear();
        sends.clear();
      }
      comm.barrier();
      if (me == 0) done = Clock::now();
    });
    const double messages = static_cast<double>(ranks) * kNeighbours * rounds;
    state.SetIterationTime(std::chrono::duration<double>(done - start).count() / messages);
  }
}
// Manual time is per message, so a time-based stop would run hundreds of
// thousands of jobs: fix the iteration count instead.
BENCHMARK(BM_SimpiMessageRate)
    ->Arg(6)
    ->Arg(384)
    ->ArgName("ranks")
    ->Iterations(10)
    ->UseManualTime()
    ->Unit(benchmark::kNanosecond);

static void BM_PlanAdmission(benchmark::State& state) {
  // Real seconds to set up a persistent job of Arg ranks, 6 per node: the
  // cluster, realize() and the first exchange, which compiles every rank's
  // plan and admits it. Admission verifies the job once per key, then each
  // rank checks only its own transfers, so this grows with the job, not
  // with ranks x job.
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    stencil::Cluster cluster(stencil::topo::summit(), ranks / 6, 6);
    cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
    cluster.run([&](stencil::RankCtx& ctx) {
      stencil::DistributedDomain dd(ctx, {512, 512, 512});
      dd.add_data<float>("q");
      dd.set_persistent(true);
      dd.realize();
      dd.exchange();
    });
  }
}
BENCHMARK(BM_PlanAdmission)
    ->Arg(48)
    ->Arg(192)
    ->ArgName("ranks")
    ->Unit(benchmark::kMillisecond);

namespace {

/// Console output as usual, but keep every run so --json can re-emit the
/// wall-clock numbers in the repo-wide bench-v1 schema (real ms per
/// iteration; these rows measure the simulator itself, not virtual time).
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  std::vector<Run> runs;
  void ReportRuns(const std::vector<Run>& report) override {
    runs.insert(runs.end(), report.begin(), report.end());
    ConsoleReporter::ReportRuns(report);
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  const bool emit_json = stencil::bench::parse_json_flag(argc, argv, "micro", &json_path);
  // Strip --json before google-benchmark sees (and rejects) it.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json", 6) != 0) args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) return 1;

  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  if (emit_json) {
    stencil::bench::BenchJson json("micro");
    for (const auto& r : reporter.runs) {
      if (r.error_occurred) continue;
      const double iters = r.iterations > 0 ? static_cast<double>(r.iterations) : 1.0;
      const double ms = r.real_accumulated_time / iters * 1e3;
      const auto add = [&](const std::string& name, double value_ms) {
        stencil::bench::MeasureResult res;
        res.max_avg_ms = res.median_ms = res.p95_ms = value_ms;
        res.iter_ms = {value_ms};
        json.add(name, "wallclock", stencil::bench::ExchangeConfig{}, res);
      };
      add(r.benchmark_name(), ms);
      // Millisecond counters (BM_CheckedExchange's set-up/steady split) get
      // rows of their own, named <benchmark>/<counter>.
      for (const auto& [name, counter] : r.counters) {
        if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0) {
          add(r.benchmark_name() + "/" + name, counter.value);
        }
      }
    }
    std::string err;
    if (!json.write(json_path, &err)) {
      std::fprintf(stderr, "bench_micro: %s\n", err.c_str());
      return 1;
    }
    std::printf("%zu rows written to %s\n", json.rows(), json_path.c_str());
  }
  benchmark::Shutdown();
  return 0;
}
