// Multi-tenant scheduling benchmark (DESIGN.md §15 + §16): three concurrent
// stencil jobs admitted onto one 4-node machine under each placement
// policy. Reports, per policy:
//
//   - aggregate exchange throughput (moved bytes over the wave makespan),
//   - per-tenant p95 exchange latency and the solo-baseline p95 of the same
//     job re-run alone on the identical slice,
//   - interference (co-run p95 / solo p95 - 1), the *online* interference
//     the attached stencil::watch estimated live (no solo re-run needed),
//     and critical-path blame per tenant (dtrace + telemetry::CriticalPath).
//
// Expected shape: kNodeAware isolates each tenant on its own node slice and
// achieves the lowest worst-tenant interference; kSpread fans every tenant
// across every NIC and pays the most. The bench exits non-zero if node-aware
// placement loses that comparison, if the online estimate disagrees with the
// post-hoc number beyond tolerance, or if live-cost placement under a
// degraded NIC loses to static placement — CI runs all three as acceptance
// checks.
//
// bench_multitenant [tenants] [--json[=PATH]]   (bench-v1 JSON rows:
// label = placement policy, variant = tenant name)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "common.h"
#include "fault/fault.h"
#include "sched/sched.h"
#include "watch/watch.h"

using namespace stencil::bench;
namespace sched = stencil::sched;
namespace topo = stencil::topo;
namespace fault = stencil::fault;
namespace watch = stencil::watch;

int main(int argc, char** argv) {
  const int tenants = positional_int(argc, argv, 3);
  if (tenants < 1 || tenants > 4) {
    std::fprintf(stderr, "bench_multitenant: tenants must be 1..4 (4-node machine)\n");
    return 2;
  }
  std::string json_path;
  BenchJson json("multitenant");
  const bool emit_json = parse_json_flag(argc, argv, "multitenant", &json_path);

  std::printf("multi-tenant scheduling: %d tenants x 4 GPUs, 4 nodes x 6 ranks\n", tenants);
  std::printf("96^3 per tenant, radius 2, 4 DP quantities, 5 iterations\n\n");

  struct PolicyRow {
    const char* name;
    sched::PlacePolicy place;
  };
  const std::vector<PolicyRow> policies = {
      {"packed", sched::PlacePolicy::kPacked},
      {"spread", sched::PlacePolicy::kSpread},
      {"node-aware", sched::PlacePolicy::kNodeAware},
  };

  double aware_worst = 0.0;
  double other_best_worst = 1e300;
  int agree_failures = 0;
  for (const auto& pol : policies) {
    stencil::Cluster cluster(topo::summit(), 4, 6);
    cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
    watch::Watch live;
    cluster.set_watch(&live);
    sched::Scheduler::Options opt;
    opt.place = pol.place;
    opt.solo_baseline = true;
    opt.blame = true;
    sched::Scheduler scheduler(cluster, opt);
    for (int t = 0; t < tenants; ++t) {
      sched::JobSpec s;
      s.name = "tenant" + std::to_string(t);
      s.user = "bench";
      s.gpus = 4;
      s.domain = {96, 96, 96};
      s.radius = 2;
      s.quantities = 4;
      s.elem_size = 8;
      s.iterations = 5;
      s.methods = stencil::MethodFlags::kStaged | stencil::MethodFlags::kColocated |
                  stencil::MethodFlags::kPeer | stencil::MethodFlags::kKernel;
      scheduler.submit(s);
    }
    const sched::RunReport rep = scheduler.run();

    std::printf("== %s: %d wave(s), makespan %.3f ms, aggregate %.2f GB/s ==\n", pol.name,
                rep.waves, rep.makespan_ms, rep.aggregate_gb_s);
    double worst = 0.0;
    for (const auto& t : rep.tenants) {
      std::printf("  %-8s nodes=%zu  p95=%8.3f ms  solo=%8.3f ms  interference=%+6.1f%%"
                  "  online=%+6.1f%%  blame=%8.3f ms\n",
                  t.name.c_str(), t.nodes.size(), t.p95_ms, t.solo_p95_ms,
                  t.interference * 100.0, t.online_interference * 100.0, t.blame_ms);
      if (t.interference > worst) worst = t.interference;
      // The live estimate must agree with the post-hoc solo-baseline number
      // at steady state: within 25% relative error, with a small absolute
      // floor for tenants whose interference is essentially zero (isolated
      // slices have nothing to measure).
      const double tol = std::max(0.25 * std::abs(t.interference), 0.05);
      if (std::abs(t.online_interference - t.interference) > tol) {
        std::fprintf(stderr,
                     "bench_multitenant: %s/%s online interference %.4f disagrees with "
                     "post-hoc %.4f (tolerance %.4f)\n",
                     pol.name, t.name.c_str(), t.online_interference, t.interference, tol);
        ++agree_failures;
      }
      if (emit_json) {
        ExchangeConfig cfg;
        cfg.nodes = t.vnodes;
        cfg.ranks_per_node = t.vnodes > 0 ? t.ranks / t.vnodes : t.ranks;
        cfg.domain = {96, 96, 96};
        cfg.radius = 2;
        cfg.quantities = 4;
        cfg.iterations = static_cast<int>(t.iter_ms.size());
        MeasureResult r;
        r.iter_ms = t.iter_ms;
        r.median_ms = t.median_ms;
        r.p95_ms = t.p95_ms;
        r.max_avg_ms = t.iter_ms.empty()
                           ? 0.0
                           : std::accumulate(t.iter_ms.begin(), t.iter_ms.end(), 0.0) /
                                 static_cast<double>(t.iter_ms.size());
        json.add(pol.name, t.name, cfg, r);
      }
    }
    std::printf("  worst-tenant interference: %+.1f%%  (cross-tenant verify findings: %zu)\n\n",
                worst * 100.0, rep.verify_findings);
    if (rep.verify_findings != 0) {
      std::fprintf(stderr, "bench_multitenant: cross-tenant verify found collisions\n");
      return 1;
    }
    if (pol.place == sched::PlacePolicy::kNodeAware) {
      aware_worst = worst;
    } else if (worst < other_best_worst) {
      other_best_worst = worst;
    }
  }

  if (tenants > 1 && aware_worst > other_best_worst + 1e-9) {
    std::fprintf(stderr,
                 "bench_multitenant: node-aware placement did not minimize interference "
                 "(%.4f vs best other %.4f)\n",
                 aware_worst, other_best_worst);
    return 1;
  }
  std::printf("node-aware worst-tenant interference %.4f <= best other policy %.4f\n",
              aware_worst, tenants > 1 ? other_best_worst : 0.0);
  if (agree_failures != 0) {
    std::fprintf(stderr, "bench_multitenant: %d online-vs-posthoc disagreement(s)\n",
                 agree_failures);
    return 1;
  }

  // --- live link-cost feedback under a degraded NIC ------------------------
  // Node 0's NIC runs at 25% from t=0. A whole-machine calibration job
  // runs first, then one 12-rank job is placed node-aware. With no watch
  // attached (static costs) node choice ties by id and lands on the degraded
  // node 0; with a watch attached, the calibration teaches it every wire's
  // cost (its wave end publishes the factors) and placement routes around
  // node 0.
  std::printf("\n== degraded-link placement (node 0 NIC at 25%%) ==\n");
  const auto degraded_run = [&](bool live_costs) {
    fault::FaultPlan plan;
    plan.degrade_link(0, fault::LinkClass::kNic, 0, -1, 0.25);
    plan.degrade_link(0, fault::LinkClass::kNic, -1, 0, 0.25);
    fault::Injector inj(plan);
    stencil::Cluster cluster(topo::summit(), 4, 6);
    cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
    cluster.set_fault_injector(&inj);
    watch::Watch live;
    if (live_costs) cluster.set_watch(&live);
    sched::Scheduler::Options opt;
    opt.place = sched::PlacePolicy::kNodeAware;
    sched::Scheduler scheduler(cluster, opt);
    sched::JobSpec calib;
    calib.name = "calibrate";
    calib.user = "bench";
    calib.gpus = 24;
    calib.domain = {96, 96, 96};
    calib.radius = 2;
    calib.quantities = 1;
    calib.elem_size = 8;
    calib.iterations = 2;
    scheduler.submit(calib);
    scheduler.run();

    sched::JobSpec j;
    j.name = "measured";
    j.user = "bench";
    j.gpus = 12;
    j.domain = {96, 96, 96};
    j.radius = 2;
    j.quantities = 4;
    j.elem_size = 8;
    j.iterations = 5;
    scheduler.submit(j);
    return scheduler.run();
  };
  const sched::RunReport stat_rep = degraded_run(false);
  const sched::RunReport live_rep = degraded_run(true);
  const auto nodes_str = [](const std::vector<int>& ns) {
    std::string s;
    for (const int n : ns) s += (s.empty() ? "n" : ",n") + std::to_string(n);
    return s;
  };
  std::printf("  static costs: nodes=%-9s aggregate %.2f GB/s\n",
              nodes_str(stat_rep.tenants.front().nodes).c_str(), stat_rep.aggregate_gb_s);
  std::printf("  live costs:   nodes=%-9s aggregate %.2f GB/s\n",
              nodes_str(live_rep.tenants.front().nodes).c_str(), live_rep.aggregate_gb_s);
  if (live_rep.aggregate_gb_s + 1e-9 < stat_rep.aggregate_gb_s) {
    std::fprintf(stderr,
                 "bench_multitenant: live-cost node-aware placement (%.3f GB/s) lost to "
                 "static placement (%.3f GB/s) under a degraded link\n",
                 live_rep.aggregate_gb_s, stat_rep.aggregate_gb_s);
    return 1;
  }
  if (emit_json) {
    ExchangeConfig cfg;
    cfg.nodes = 2;
    cfg.ranks_per_node = 6;
    cfg.domain = {96, 96, 96};
    cfg.radius = 2;
    cfg.quantities = 4;
    cfg.iterations = 5;
    for (const auto* rr : {&stat_rep, &live_rep}) {
      const sched::TenantReport& t = rr->tenants.front();
      MeasureResult r;
      r.iter_ms = t.iter_ms;
      r.median_ms = t.median_ms;
      r.p95_ms = t.p95_ms;
      r.max_avg_ms = t.iter_ms.empty()
                         ? 0.0
                         : std::accumulate(t.iter_ms.begin(), t.iter_ms.end(), 0.0) /
                               static_cast<double>(t.iter_ms.size());
      json.add("degraded-link", rr == &stat_rep ? "static-costs" : "live-costs", cfg, r);
    }
  }

  if (emit_json) {
    std::string err;
    if (!json.write(json_path, &err)) {
      std::fprintf(stderr, "bench_multitenant: %s\n", err.c_str());
      return 1;
    }
    std::printf("%zu rows written to %s\n", json.rows(), json_path.c_str());
  }
  return 0;
}
