// The drill's explain subcommand: decision provenance and what-if
// (DESIGN.md §17).
//
// Attaches one stencil::explain ledger to a sequence of seeded faulty runs
// and shows that every scored pipeline decision left a record saying what
// was chosen, what lost, and by how much:
//
//   1. a multi-tenant scheduler run on a machine with a degraded NIC
//      (partition, placement, specialization, aggregation, plan compile,
//      sched admission incl. one hard reject, sched placement);
//   2. a capability drill that revokes peer access and CUDA-aware MPI
//      mid-run (fault-driven demotions);
//   3. an elastic-recovery incident that kills a GPU mid-run (recovery
//      ladder steps);
//   4. the what-if engine: predict the healthy-link exchange latency of a
//      degraded run from the watch's lane observations — checked against an
//      actual healthy re-run — and re-score a recorded placement under a
//      perturbed distance matrix.
//
// Scenarios 1-3 run twice, with and without the ledger attached, and the
// drill byte-compares the artifacts: provenance must be pure bookkeeping.
//
//   drill explain                            # run everything, print summary
//   drill explain --report [PATH]            # full human-readable decision log
//   drill explain --json EXPLAIN_drill.json  # explain-v1 export
//   drill explain --expect                   # CI self-checks, exit 1 on failure
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "drill.h"
#include "explain/explain.h"
#include "sched/sched.h"
#include "watch/watch.h"

namespace stencil::drill {

namespace {

void fmt(std::ostringstream& os, const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  os << buf;
}

// --- scenario 1: multi-tenant scheduling on a degraded machine --------------

/// Three tenants plus one impossible job on a 4-node machine whose node-0
/// NIC runs at half speed from t=0. Returns a deterministic artifact string
/// (tenant reports + watch-v1 snapshot) for the attached/detached
/// byte-compare.
std::string run_multitenant(explain::Ledger* led) {
  std::ostringstream art;
  watch::Watch live;
  fault::FaultPlan plan;
  plan.degrade_link(0, fault::LinkClass::kNic, 0, -1, 0.5);
  plan.degrade_link(0, fault::LinkClass::kNic, -1, 0, 0.5);
  fault::Injector inj(plan);
  Cluster cluster(topo::summit(), 4, 2);
  cluster.set_mem_mode(vgpu::MemMode::kPhantom);
  cluster.set_watch(&live);
  cluster.set_fault_injector(&inj);
  if (led != nullptr) cluster.set_explain(led);

  sched::Scheduler::Options opt;
  opt.place = sched::PlacePolicy::kNodeAware;
  sched::Scheduler sch(cluster, opt);

  const struct {
    const char* name;
    const char* user;
    int gpus;
    Dim3 domain;
    int radius;
  } mix[3] = {
      {"alpha", "ana", 6, Dim3{48, 48, 48}, 1},
      {"bravo", "bo", 6, Dim3{40, 40, 40}, 2},
      {"charlie", "ana", 3, Dim3{36, 36, 36}, 1},
  };
  for (const auto& m : mix) {
    sched::JobSpec s;
    s.name = m.name;
    s.user = m.user;
    s.gpus = m.gpus;
    s.domain = m.domain;
    s.radius = m.radius;
    s.iterations = 3;
    sch.submit(s);
  }
  // A job no machine state can ever satisfy: rejected at submit, which is
  // itself a scored admission decision (reject vs the machine's capacity).
  sched::JobSpec big;
  big.name = "goliath";
  big.user = "eve";
  big.gpus = 1000;
  const int gid = sch.submit(big);
  art << "goliath: " << sched::to_string(sch.state(gid)) << "\n";

  const sched::RunReport rep = sch.run();
  for (const auto& t : rep.tenants) {
    art << t.name << " wave=" << t.wave << " nodes=" << t.nodes.size() << " ranks=" << t.ranks;
    fmt(art, " p95=%.6f ms", t.p95_ms);
    art << " internode=" << t.internode_bytes << "\n";
  }
  art << "waves=" << rep.waves;
  fmt(art, " makespan=%.6f ms\n", rep.makespan_ms);
  live.publish();
  live.write_snapshot_json(art);
  return art.str();
}

// --- scenario 2: fault-driven demotions -------------------------------------

/// Specialize with every capability available (peer, CUDA-aware MPI), then
/// revoke both mid-run: the next exchange fails down rung by rung, and each
/// demotion is a recorded decision. Artifact = final method histogram.
std::string run_demotion(explain::Ledger* led) {
  std::ostringstream art;
  const sim::Time t_fault = sim::from_seconds(0.25);
  fault::FaultPlan plan;
  plan.disable_cuda_aware(t_fault);
  plan.revoke_peer(t_fault, -1, -1);
  fault::Injector inj(plan);
  Cluster cluster(topo::summit(), 2, 2);
  cluster.set_mem_mode(vgpu::MemMode::kPhantom);
  cluster.set_fault_injector(&inj);
  if (led != nullptr) cluster.set_explain(led);

  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, Dim3{48, 48, 48});
    dd.set_radius(1);
    dd.add_data<float>("q0");
    dd.set_methods(MethodFlags::kAll | MethodFlags::kCudaAwareMpi);
    dd.realize();
    for (int it = 0; it < 2; ++it) {
      ctx.comm.barrier();
      dd.exchange();
    }
    ctx.engine().sleep_until(t_fault + sim::kMicrosecond);
    ctx.comm.barrier();
    for (int it = 0; it < 2; ++it) {
      ctx.comm.barrier();
      dd.exchange();
    }
    if (ctx.rank() == 0) {
      art << "methods after revocation:";
      for (const auto& [m, nb] : dd.method_bytes_histogram())
        art << " " << to_string(m) << "=" << nb.first;
      art << "\n";
    }
  });
  return art.str();
}

// --- scenario 3: recovery-ladder incident -----------------------------------

/// Kill one GPU (= one rank on a pcie box) mid-run; survivors walk the §13
/// ladder — die on the casualty, retire + shrink + rollback on the rest —
/// and every rung taken is a recorded decision.
std::string run_recover(explain::Ledger* led) {
  std::ostringstream art;
  const sim::Time t_fault = sim::from_seconds(0.5);
  fault::FaultPlan plan;
  plan.fail_gpu(t_fault, 1);
  fault::Injector inj(plan);
  Cluster cluster(topo::pcie_box(2), 2, 2);
  cluster.set_mem_mode(vgpu::MemMode::kPhantom);
  cluster.set_fault_injector(&inj);
  if (led != nullptr) cluster.set_explain(led);

  int survivors = 0, casualties = 0;
  recover::RecoveryStats agg;
  constexpr std::int64_t kTotal = 6;
  const sim::Time slice = t_fault / 3;  // fault lands around iteration 3

  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, Dim3{32, 32, 32});
    dd.set_radius(1);
    dd.add_data<float>("q0");
    dd.realize();
    const auto stats =
        run_recovering(ctx, dd, /*cadence=*/2, kTotal, slice, [&] { dd.exchange(); });
    if (!stats) {
      ++casualties;
      return;
    }
    ++survivors;
    if (stats->recoveries > agg.recoveries) agg = *stats;
  });
  art << "recover: survivors=" << survivors << " casualties=" << casualties
      << " recoveries=" << agg.recoveries << " floor=" << agg.last_floor
      << " retired=" << agg.ranks_retired << "\n";
  return art.str();
}

// --- scenario 4a: what-if vs an actual healthy re-run -----------------------

/// One timed exchange phase; returns the mean per-exchange latency in ms
/// (rank-0 wall of each barrier-bracketed exchange, in virtual time).
double timed_phase(Cluster& cluster, int iters) {
  double sum_ms = 0.0;
  cluster.run([&](RankCtx& ctx) {
    // One rank per node, one quantity and remote aggregation give a single
    // inter-node message per exchange direction — the regime the linear
    // what-if model assumes (no queueing on the shared NIC, wire serial with
    // the plan).
    DistributedDomain dd(ctx, Dim3{96, 96, 96});
    dd.set_radius(1);
    dd.add_data<float>("q0");
    dd.set_remote_aggregation(true);
    dd.realize();
    for (int it = 0; it < iters; ++it) {
      ctx.comm.barrier();
      const double t0 = ctx.comm.wtime();
      dd.exchange();
      ctx.comm.barrier();
      if (ctx.rank() == 0) sum_ms += (ctx.comm.wtime() - t0) * 1e3;
    }
  });
  return sum_ms / iters;
}

struct WhatIfOutcome {
  double observed_ms = 0.0;   ///< degraded run, measured
  double predicted_ms = 0.0;  ///< what-if engine's healthy estimate
  double actual_ms = 0.0;     ///< healthy re-run, measured
};

WhatIfOutcome run_whatif_healthy(int iters) {
  WhatIfOutcome out;

  // Degraded machine: calibrate healthy floors first (so the watch can
  // price the degradation), then throttle the NIC and measure.
  {
    watch::Watch live;
    Cluster cluster(topo::summit(), 2, 1);
    cluster.set_mem_mode(vgpu::MemMode::kPhantom);
    cluster.set_watch(&live);
    timed_phase(cluster, iters);  // healthy calibration
    live.clear_window();

    fault::FaultPlan plan;
    const sim::Time now = cluster.engine().now();
    plan.degrade_link(now, fault::LinkClass::kNic, 0, -1, 0.02);
    plan.degrade_link(now, fault::LinkClass::kNic, -1, 0, 0.02);
    fault::Injector inj(plan);
    cluster.set_fault_injector(&inj);
    out.observed_ms = timed_phase(cluster, iters);

    std::vector<explain::LaneObservation> lanes;
    for (int s = 0; s < live.num_nodes(); ++s) {
      for (int d = 0; d < live.num_nodes(); ++d) {
        if (s == d) continue;
        for (int c = 0; c < watch::kWireClasses; ++c) {
          const auto wc = static_cast<watch::WireClass>(c);
          const double ns = live.lane_window_actual_ns(s, d, wc);
          if (ns <= 0.0) continue;
          lanes.push_back({s, d, ns, live.live_link_cost_factor(s, d)});
        }
      }
    }
    out.predicted_ms = explain::predict_healthy_exchange_ms(
        out.observed_ms, static_cast<std::uint64_t>(iters), lanes);
  }

  // The ground truth: the same second phase on a machine that never
  // degraded (same calibration phase first, so virtual state matches).
  {
    Cluster cluster(topo::summit(), 2, 1);
    cluster.set_mem_mode(vgpu::MemMode::kPhantom);
    timed_phase(cluster, iters);
    out.actual_ms = timed_phase(cluster, iters);
  }
  return out;
}

// --- self-check plumbing ----------------------------------------------------

struct Check {
  int failures = 0;
  void operator()(bool ok, const std::string& what) {
    std::printf("  %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++failures;
  }
};

}  // namespace

int run_explain(const cli::Options& opt) {
  const std::string tool = opt.tool();
  explain::Ledger ledger(4096);

  std::printf("%s: scenario 1 — multi-tenant on a degraded machine\n", tool.c_str());
  const std::string mt_attached = run_multitenant(&ledger);
  std::printf("%s: scenario 2 — capability revocation demotions\n", tool.c_str());
  const std::string dm_attached = run_demotion(&ledger);
  std::printf("%s: scenario 3 — recovery-ladder incident\n", tool.c_str());
  const std::string rc_attached = run_recover(&ledger);
  std::printf("%s", rc_attached.c_str());

  std::printf("%s: scenario 1-3 detached re-runs (byte-identity)\n", tool.c_str());
  const std::string mt_detached = run_multitenant(nullptr);
  const std::string dm_detached = run_demotion(nullptr);
  const std::string rc_detached = run_recover(nullptr);

  std::printf("%s: scenario 4 — what-if analysis\n", tool.c_str());
  const WhatIfOutcome wi = run_whatif_healthy(/*iters=*/4);
  const double err = wi.actual_ms > 0.0 ? std::abs(wi.predicted_ms - wi.actual_ms) / wi.actual_ms
                                        : 1.0;
  std::printf("  degraded %.4f ms/exchange, predicted healthy %.4f ms, actual healthy %.4f ms "
              "(error %.1f%%)\n",
              wi.observed_ms, wi.predicted_ms, wi.actual_ms, err * 100.0);

  // Placement re-scoring: the first placement record whose chosen option
  // was the solver's argmin, re-scored under (a) the identity perturbation
  // (must agree with the recorded objective bit-exactly) and (b) a heavy
  // asymmetric degradation of GPU 0's links.
  const explain::DecisionRecord* prec = nullptr;
  for (const auto& r : ledger.records()) {
    if (r.kind == explain::DecisionKind::kPlacement && r.evidence != nullptr &&
        r.score_delta() >= 0.0) {
      prec = &r;
      break;
    }
  }
  bool rescore_identity_ok = false;
  if (prec != nullptr) {
    const auto same = explain::rescore_placement(*prec, [](int, int) { return 1.0; });
    rescore_identity_ok = !same.flipped && same.chosen_cost == prec->chosen_score;
    const auto hit = explain::rescore_placement(
        *prec, [](int i, int j) { return i == 0 || j == 0 ? 8.0 : 1.0; });
    std::printf("  placement #%llu under 8x cost on GPU 0 links: winner %s (delta %.4g)\n",
                static_cast<unsigned long long>(prec->id), hit.winner.c_str(), hit.delta);
  }

  std::printf("\nprovenance: %llu decisions recorded\n",
              static_cast<unsigned long long>(ledger.total_recorded()));
  for (int k = 0; k < explain::kDecisionKinds; ++k) {
    const auto kind = static_cast<explain::DecisionKind>(k);
    if (ledger.recorded_of(kind) == 0) continue;
    std::printf("  %-16s x%llu\n", to_string(kind),
                static_cast<unsigned long long>(ledger.recorded_of(kind)));
  }
  if (opt.report) {
    std::ostringstream rep;
    ledger.write_report(rep);
    if (opt.report_path.empty()) {
      std::printf("\n");
      std::fputs(rep.str().c_str(), stdout);
    } else {
      std::ofstream os(opt.report_path);
      os << rep.str();
      std::printf("decision report written to %s\n", opt.report_path.c_str());
    }
  }
  if (!opt.json.empty()) {
    std::ofstream os(opt.json);
    ledger.write_json(os, "drill");
    std::printf("explain-v1 document written to %s\n", opt.json.c_str());
  }

  if (opt.expect.empty()) return 0;

  // --- self-checks ----------------------------------------------------------
  std::printf("\nself-checks:\n");
  Check check;
  using K = explain::DecisionKind;
  check(ledger.recorded_of(K::kPartition) >= 1, "partition decisions recorded");
  check(ledger.recorded_of(K::kPlacement) >= 1, "placement decisions recorded");
  check(ledger.recorded_of(K::kSpecialization) >= 1, "specialization decisions recorded");
  check(ledger.recorded_of(K::kDemotion) >= 1, "fault demotions recorded");
  check(ledger.recorded_of(K::kPlanCompile) >= 1, "plan compiles recorded");
  check(ledger.recorded_of(K::kSchedAdmission) >= 4,
        "admission verdicts recorded (3 admits + 1 reject)");
  check(ledger.recorded_of(K::kSchedPlacement) >= 3, "sched placements recorded");
  check(ledger.recorded_of(K::kRecoverStep) >= 2, "recovery ladder steps recorded");

  bool reject_seen = false;
  bool complete = true;
  for (const auto& r : ledger.records()) {
    if (r.kind == K::kSchedAdmission && r.chosen.rfind("reject", 0) == 0) reject_seen = true;
    const bool must_justify = r.kind == K::kDemotion || r.kind == K::kPlacement ||
                              r.kind == K::kSchedAdmission || r.kind == K::kSchedPlacement ||
                              r.kind == K::kRecoverStep || r.kind == K::kPartition ||
                              r.kind == K::kSpecialization || r.kind == K::kPlanCompile;
    if (must_justify && (r.chosen.empty() || r.rejected.empty())) {
      std::printf("  incomplete record #%llu (%s %s)\n",
                  static_cast<unsigned long long>(r.id), to_string(r.kind), r.subject.c_str());
      complete = false;
    }
  }
  check(reject_seen, "the impossible job's rejection is on the record");
  check(complete, "every decision names its chosen option and a rejected alternative");

  check(mt_attached == mt_detached, "multi-tenant artifacts byte-identical when detached");
  check(dm_attached == dm_detached, "demotion artifacts byte-identical when detached");
  check(rc_attached == rc_detached, "recovery artifacts byte-identical when detached");

  check(prec != nullptr, "a placement record carries re-scorable evidence");
  check(rescore_identity_ok, "identity what-if reproduces the recorded objective");
  check(wi.observed_ms > wi.actual_ms, "degraded run measurably slower than healthy");
  {
    char line[128];
    std::snprintf(line, sizeof(line), "what-if healthy prediction within %.0f%% (error %.1f%%)",
                  opt.tolerance * 100.0, err * 100.0);
    check(err <= opt.tolerance, line);
  }

  return expect_status(opt, {{"clean",
                              {check.failures == 0, "all self-checks passed",
                               std::to_string(check.failures) + " self-check(s) failed"}}});
}

}  // namespace stencil::drill
