// Recovery economics (stencil::recover): what buddy checkpointing costs
// when nothing fails, and what a mid-run GPU loss costs when it does.
//
// Table 1 sweeps the checkpoint cadence over a healthy run and reports the
// per-iteration exchange+checkpoint cost against the cadence-0 baseline --
// the steady-state insurance premium. Table 2 kills one GPU mid-run at each
// cadence and reports the virtual-time MTTR (detect -> retire -> re-place
// -> restore -> resume) plus the iterations of work rolled back to the
// restore floor -- the deductible. Tighter cadence raises the premium and
// lowers the deductible; the tables put numbers on that trade.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common.h"
#include "fault/fault.h"
#include "recover/recover.h"
#include "topo/archetype.h"

using namespace stencil::bench;
namespace fault = stencil::fault;
namespace recover = stencil::recover;
namespace sim = stencil::sim;

namespace {

// One GPU per rank so a dead GPU means a dead rank -- the shape the
// recovery ladder shrinks around.
ExchangeConfig recovery_config() {
  ExchangeConfig cfg;
  cfg.arch = stencil::topo::pcie_box(2);
  cfg.nodes = 2;
  cfg.ranks_per_node = 2;
  // Small enough that a full checkpoint generation commits in ~1 ms of
  // virtual time: the MTTR drill needs a committed floor before the fault.
  cfg.domain = weak_scaling_domain(4, 96);
  cfg.quantities = 2;
  cfg.iterations = 8;
  return cfg;
}

void realize_domain(stencil::DistributedDomain& dd, const ExchangeConfig& cfg) {
  dd.set_radius(cfg.radius);
  for (int q = 0; q < cfg.quantities; ++q) dd.add_data<float>("q" + std::to_string(q));
  dd.set_methods(cfg.flags);
  dd.set_placement(cfg.strategy);
  dd.realize();
}

struct CadenceCost {
  MeasureResult lat;
  std::uint64_t checkpoints = 0;
};

// Healthy run: per iteration, barrier, wtime, checkpoint-if-due + exchange,
// wtime. The cadence-0 row is the plain exchange baseline.
CadenceCost measure_cadence(const ExchangeConfig& cfg, std::int64_t cadence) {
  stencil::Cluster cluster(cfg.arch, cfg.nodes, cfg.ranks_per_node);
  cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
  const auto ranks = static_cast<std::size_t>(cfg.nodes) * cfg.ranks_per_node;
  const auto iters = static_cast<std::size_t>(cfg.iterations);
  std::vector<std::vector<double>> per(iters, std::vector<double>(ranks, 0.0));
  CadenceCost r;

  cluster.run([&](stencil::RankCtx& ctx) {
    stencil::DistributedDomain dd(ctx, cfg.domain);
    realize_domain(dd, cfg);
    recover::RecoveryManager rm(ctx, dd, cadence);
    ctx.comm.barrier();
    dd.exchange();  // warm-up
    for (int it = 0; it < cfg.iterations; ++it) {
      ctx.comm.barrier();
      const double t0 = ctx.comm.wtime();
      rm.maybe_checkpoint(it);
      dd.exchange();
      per[static_cast<std::size_t>(it)][static_cast<std::size_t>(ctx.rank())] =
          (ctx.comm.wtime() - t0) * 1e3;
    }
    if (ctx.rank() == 0) r.checkpoints = rm.stats().checkpoints;
  });
  r.lat = reduce_latency(per);
  return r;
}

struct MttrResult {
  double mttr_ms = 0.0;          // failure instant -> survivors resumed
  std::int64_t floor = -1;       // iteration restored to
  std::int64_t at_iter = 0;      // iteration the incident interrupted
  int survivors = 0;
  int casualties = 0;
};

// Wounded run: iterations paced so the fault lands mid-run, then the full
// ladder -- classify, shrink, re-place, restore, replay from the floor.
MttrResult measure_mttr(const ExchangeConfig& cfg, std::int64_t cadence, int kill_gpu,
                        sim::Time t_fault, std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.set_seed(seed);
  plan.fail_gpu(t_fault, kill_gpu);
  fault::Injector inj(plan);
  stencil::Cluster cluster(cfg.arch, cfg.nodes, cfg.ranks_per_node);
  cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
  cluster.set_fault_injector(&inj);
  const sim::Time slice = 2 * t_fault / (cfg.iterations > 0 ? cfg.iterations : 1);
  MttrResult r;

  cluster.run([&](stencil::RankCtx& ctx) {
    stencil::DistributedDomain dd(ctx, cfg.domain);
    realize_domain(dd, cfg);
    recover::RecoveryManager rm(ctx, dd, cadence);
    std::int64_t it = 0, trip = 0;
    while (it < cfg.iterations) {
      try {
        ctx.engine().sleep_until(slice * trip);
        ++trip;
        rm.maybe_checkpoint(it);
        dd.exchange();
        ++it;
      } catch (const std::exception& e) {
        const auto ev = recover::classify(e, ctx.comm.job(), ctx.rank(), ctx.engine().now());
        if (ev.kind == recover::FailureKind::kNone) throw;
        const std::int64_t back = rm.recover(ev, it);
        if (back == recover::RecoveryManager::kRankGone) {
          ++r.casualties;
          return;
        }
        r.at_iter = it;
        it = back;
      }
    }
    ++r.survivors;
    const auto& st = rm.stats();
    if (st.recoveries > 0) {
      r.mttr_ms = static_cast<double>(st.last_mttr) / 1e6;
      r.floor = st.last_floor;
    }
  });
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  BenchJson json("recovery");
  const bool emit_json = parse_json_flag(argc, argv, "recovery", &json_path);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(positional_int(argc, argv, /*fallback=*/1));
  const ExchangeConfig cfg = recovery_config();
  const std::vector<std::int64_t> cadences = {0, 8, 4, 2};

  std::printf("Recovery economics: %s, %d ranks, seed %llu\n\n", cfg.label().c_str(),
              cfg.nodes * cfg.ranks_per_node, static_cast<unsigned long long>(seed));

  std::printf("checkpoint cadence overhead (healthy run, per-iteration ms):\n");
  double baseline = 0.0;
  for (const std::int64_t c : cadences) {
    const CadenceCost r = measure_cadence(cfg, c);
    if (c == 0) baseline = r.lat.max_avg_ms;
    const double over =
        baseline > 0.0 ? (r.lat.max_avg_ms / baseline - 1.0) * 100.0 : 0.0;
    std::printf("  cadence %-2lld  per-iter %8.3f ms  checkpoints %2llu  overhead %+7.1f%%\n",
                static_cast<long long>(c), r.lat.max_avg_ms,
                static_cast<unsigned long long>(r.checkpoints), over);
    if (emit_json) json.add(cfg.label(), "cadence-" + std::to_string(c), cfg, r.lat);
  }

  std::printf("\nmid-run GPU loss (kill gpu1 at t=5 ms, virtual-time MTTR):\n");
  const sim::Time t_fault = sim::from_seconds(0.005);
  for (const std::int64_t c : cadences) {
    if (c == 0) continue;  // no checkpoint, no restore floor to measure
    const MttrResult r = measure_mttr(cfg, c, /*kill_gpu=*/1, t_fault, seed);
    if (r.survivors + r.casualties != cfg.nodes * cfg.ranks_per_node || r.casualties == 0 ||
        r.floor < 0) {
      std::fprintf(stderr,
                   "bench_recovery: cadence %lld drill failed (survivors %d, casualties %d, "
                   "floor %lld, seed %llu)\n",
                   static_cast<long long>(c), r.survivors, r.casualties,
                   static_cast<long long>(r.floor), static_cast<unsigned long long>(seed));
      return 1;
    }
    const double replay = static_cast<double>(r.at_iter - r.floor);
    std::printf("  cadence %-2lld  mttr %8.3f ms  floor %2lld  replay %2.0f iters\n",
                static_cast<long long>(c), r.mttr_ms, static_cast<long long>(r.floor),
                replay);
    if (emit_json) {
      json.add(cfg.label() + "/mttr", "cadence-" + std::to_string(c),
               cfg, scalar_result(r.mttr_ms));
      json.add(cfg.label() + "/replay-iters", "cadence-" + std::to_string(c),
               cfg, scalar_result(replay));
    }
  }

  if (emit_json) {
    std::string err;
    if (!json.write(json_path, &err)) {
      std::fprintf(stderr, "bench_recovery: %s\n", err.c_str());
      return 1;
    }
    std::printf("\n%zu rows written to %s\n", json.rows(), json_path.c_str());
  }
  return 0;
}
