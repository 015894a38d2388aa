// The drill's correctness-under-stress subcommands: check, fault, tenant.
//
//   drill check --nodes 2 --rpn 2 --domain 48 --iters 3
//   drill check --drill all --methods all,ca   # checked fault demotion
//   drill check --seed-race                    # plant a race, see it caught
//   drill fault --drill peer --nodes 1 --rpn 2 --domain 64 --iters 2
//   drill fault --recover --kill-gpu 1 --nodes 2 --rpn 2 --domain 32
//   drill tenant --seed 1 --check
#include <atomic>
#include <cstdio>
#include <iostream>

#include "check/checker.h"
#include "drill.h"
#include "sched/sched.h"
#include "trace/recorder.h"

namespace stencil::drill {

namespace {

void print_histogram(const char* when, const std::map<Method, std::pair<int, std::size_t>>& h) {
  std::printf("  methods %s:", when);
  for (const auto& [m, nb] : h) std::printf(" %s=%d", to_string(m), nb.first);
  std::printf("\n");
}

void print_fault_lane(const trace::Recorder& rec) {
  std::printf("fault lane:\n");
  for (const auto& r : rec.records()) {
    if (r.lane != "fault") continue;
    std::printf("  t=%-12s %s\n", sim::format_duration(r.start).c_str(), r.label.c_str());
  }
}

// Survive a scripted terminal failure: checkpoint on a cadence, exchange,
// recover through the §13 ladder when the fault lands, and keep checking
// halos bit-exactly on the survivors.
int run_recover_drill(const cli::Options& opt) {
  const sim::Time t_fault = sim::from_seconds(opt.fault_at);
  const auto nq = static_cast<std::size_t>(opt.quantities);
  const int world = opt.nodes * opt.rpn;

  fault::FaultPlan plan;
  plan.set_seed(opt.seed);
  if (opt.kill_gpu >= 0) plan.fail_gpu(t_fault, opt.kill_gpu);
  if (opt.kill_node >= 0) plan.fail_node(t_fault, opt.kill_node);

  fault::Injector inj(plan);
  trace::Recorder rec;
  inj.set_recorder(&rec);
  Cluster cluster(opt.arch, opt.nodes, opt.rpn);  // pcie box, one GPU per rank
  cluster.set_recorder(&rec);
  cluster.set_fault_injector(&inj);

  std::printf("%s: recover drill, %dn/%dr, domain %s, cadence %d, fault at t=%s\n",
              opt.tool().c_str(), opt.nodes, opt.rpn, opt.domain.str().c_str(), opt.cadence,
              sim::format_duration(t_fault).c_str());

  std::int64_t failures = 0;
  int survivors = 0, casualties = 0;
  recover::RecoveryStats agg;
  const std::int64_t total = 2 * static_cast<std::int64_t>(opt.iters);
  // Pace iterations so the fault lands mid-run: trip i starts no earlier
  // than i * (t_fault / iters), putting the failure around trip `iters`.
  const sim::Time slice = t_fault / opt.iters;

  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, opt.domain);
    configure(dd, opt);
    dd.realize();
    const auto stats = run_recovering(ctx, dd, opt.cadence, total, slice, [&] {
      fill_interior(dd, nq);
      dd.exchange();
      failures += halo_mismatches(dd, nq);
    });
    if (!stats) {
      ++casualties;
      return;
    }
    ++survivors;
    if (stats->recoveries > agg.recoveries) agg = *stats;
  });

  print_fault_lane(rec);
  std::printf("survivors %d, casualties %d, recoveries %llu, restore floor %lld, "
              "mttr %s, halo errors %lld\n",
              survivors, casualties, static_cast<unsigned long long>(agg.recoveries),
              static_cast<long long>(agg.last_floor), sim::format_duration(agg.last_mttr).c_str(),
              static_cast<long long>(failures));
  if (failures != 0 || casualties == 0 || survivors + casualties != world ||
      agg.recoveries == 0) {
    std::fprintf(stderr, "%s: recovery drill failed\n", opt.tool().c_str());
    return 1;
  }
  std::printf("survived the incident; all survivor halos bit-exact.\n");
  return 0;
}

}  // namespace

// check: run a fully-checked halo exchange and print the happens-before
// report. A check::Checker observes every runtime op, event edge, and MPI
// request of the run and rebuilds the happens-before order; any unordered
// conflicting access or API misuse becomes a finding. Exits 1 on findings
// (or, with --seed-race, on the planted race *not* being caught), and on
// any halo mismatch.
int run_check(const cli::Options& opt) {
  const auto nq = static_cast<std::size_t>(opt.quantities);
  const sim::Time t_fault = sim::from_seconds(opt.fault_at);
  const fault::Injector inj(drill_plan(opt.drill, t_fault));

  Cluster cluster(opt.arch, opt.nodes, opt.rpn);
  check::Checker checker(cluster.engine());
  cluster.set_checker(&checker);
  if (inj.active()) cluster.set_fault_injector(&inj);

  std::printf("%s: %dn/%dr, domain %s, methods %s, drill %s%s\n", opt.tool().c_str(), opt.nodes,
              opt.rpn, opt.domain.str().c_str(), opt.methods_name.c_str(), opt.drill.c_str(),
              opt.seed_race ? ", seeded race" : "");
  std::int64_t halo_errors = 0;
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, opt.domain);
    configure(dd, opt);
    dd.realize();

    auto epoch = [&] {
      for (int it = 0; it < opt.iters; ++it) {
        fill_interior(dd, nq);
        ctx.comm.barrier();
        if (opt.seed_race && it == 0) {
          // Deliberate bug: overlap a "compute" kernel that touches the
          // whole field (halo included) with the in-flight exchange. The
          // checker must name it in a race finding.
          dd.exchange_start();
          dd.for_each_subdomain([&](LocalDomain& ld) {
            vgpu::AccessList acc;
            const std::size_t bytes =
                static_cast<std::size_t>(ld.storage().volume()) * sizeof(float);
            acc.push_back({&ld.data(0), 0, bytes, true});
            ctx.rt.launch_kernel(ld.compute_stream(), bytes, "seeded compute", [] {}, acc);
          });
          dd.exchange_finish();
          dd.compute_synchronize();
        } else {
          dd.exchange();
        }
        ctx.comm.barrier();
        halo_errors += halo_mismatches(dd, nq);
      }
    };
    epoch();
    if (inj.active()) {
      ctx.engine().sleep_until(t_fault + sim::kMicrosecond);
      ctx.comm.barrier();
      epoch();
    }
  });

  std::printf("report: %s\n", checker.report().summary().c_str());
  if (!checker.report().clean()) checker.report().write(std::cout);
  if (halo_errors != 0) {
    std::fprintf(stderr, "%s: %lld halo mismatches\n", opt.tool().c_str(),
                 static_cast<long long>(halo_errors));
    return 1;
  }
  if (opt.seed_race) {
    bool named = false;
    for (const auto& f : checker.report().findings()) {
      named = named || f.first.find("seeded compute") != std::string::npos ||
              f.second.find("seeded compute") != std::string::npos;
    }
    if (!named) {
      std::fprintf(stderr, "%s: seeded race was NOT detected\n", opt.tool().c_str());
      return 1;
    }
    std::printf("seeded race detected, as it should be.\n");
    return 0;
  }
  if (!checker.report().clean()) return 1;
  std::printf("exchange is race-free under the happens-before checker.\n");
  return 0;
}

// fault: script a mid-run fault against a live halo-exchange job and watch
// the library degrade instead of hanging. The drill fills every subdomain
// with coordinate-coded values, runs `iters` healthy exchanges, fires the
// scripted fault, then runs `iters` more, checking halos bit-exactly after
// every exchange. It prints the method histogram before/after (the §III-C
// demotions) and the "fault" trace lane. --recover instead kills a GPU or
// node and survives it (see run_recover_drill).
int run_fault(const cli::Options& opt) {
  if (opt.recover) return run_recover_drill(opt);
  const sim::Time t_fault = sim::from_seconds(opt.fault_at);
  const auto nq = static_cast<std::size_t>(opt.quantities);

  fault::FaultPlan plan = drill_plan(opt.drill, t_fault);
  plan.set_seed(opt.seed);
  fault::Injector inj(plan);
  trace::Recorder rec;
  inj.set_recorder(&rec);
  Cluster cluster(opt.arch, opt.nodes, opt.rpn);
  cluster.set_recorder(&rec);
  cluster.set_fault_injector(&inj);

  std::printf("%s: %s drill, %dn/%dr, domain %s, fault at t=%s\n", opt.tool().c_str(),
              opt.drill.c_str(), opt.nodes, opt.rpn, opt.domain.str().c_str(),
              sim::format_duration(t_fault).c_str());
  std::int64_t failures = 0;
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, opt.domain);
    configure(dd, opt);
    dd.set_methods(MethodFlags::kAll |
                   (opt.drill == "cuda" ? MethodFlags::kCudaAwareMpi : MethodFlags::kNone));
    dd.realize();
    if (ctx.rank() == 0) print_histogram("before", dd.method_bytes_histogram());

    auto epoch = [&](const char* tag) {
      for (int it = 0; it < opt.iters; ++it) {
        fill_interior(dd, nq);
        ctx.comm.barrier();
        const double t0 = ctx.comm.wtime();
        dd.exchange();
        ctx.comm.barrier();
        const std::int64_t bad = halo_mismatches(dd, nq);
        failures += bad;
        if (ctx.rank() == 0) {
          std::printf("  %s exchange %d: %.3f ms, halo errors: %lld\n", tag, it,
                      (ctx.comm.wtime() - t0) * 1e3, static_cast<long long>(bad));
        }
      }
    };
    epoch("healthy");
    ctx.engine().sleep_until(t_fault + sim::kMicrosecond);
    ctx.comm.barrier();
    epoch("degraded");
    if (ctx.rank() == 0) print_histogram("after", dd.method_bytes_histogram());
  });

  print_fault_lane(rec);
  if (opt.gantt) {
    std::printf("\n");
    rec.write_gantt(std::cout);
  }
  if (failures != 0) {
    std::fprintf(stderr, "%s: %lld halo mismatches\n", opt.tool().c_str(),
                 static_cast<long long>(failures));
    return 1;
  }
  std::printf("all halos bit-exact across the fault.\n");
  return 0;
}

// tenant: end-to-end multi-tenant correctness drill (DESIGN.md §15). Admits
// three tenants with seed-varied shapes onto one 4-node machine with REAL
// memory, fills every grid with the analytic oracle, runs the scheduled
// co-tenant wave plus per-tenant solo baselines, and checks after the last
// exchange of every run that each halo cell holds the exact wrapped
// neighbor value. Because both the co-run and the solo re-runs must match
// the same analytic picture, passing means the co-tenant exchange is
// bit-exact vs running alone. The cross-tenant static verifier runs on
// every wave; --check also attaches the happens-before checker to all
// tenants at once. Exits 1 on any bad halo cell, checker or verify finding,
// or rejected job.
int run_tenant(const cli::Options& opt) {
  const auto mod = [&](int k) { return static_cast<int>(opt.seed % static_cast<unsigned>(k)); };
  Cluster cluster(opt.arch, opt.nodes, opt.rpn);
  check::Checker checker(cluster.engine());
  if (opt.check) cluster.set_checker(&checker);
  sched::Scheduler::Options sopt;
  sopt.place = opt.policy;
  sopt.solo_baseline = true;  // solo re-runs repeat the fill + halo verify
  sched::Scheduler scheduler(cluster, sopt);

  // Seed-varied tenant mix: sizes, radii, and quantities rotate with the
  // seed so different seeds exercise different shapes and windows. Only q0
  // is filled and checked.
  std::atomic<std::int64_t> bad{0};
  std::atomic<int> verified{0};
  struct Mix {
    int gpus, radius, quantities;
    Dim3 domain;
  };
  const Mix mixes[3] = {
      {8, 1 + mod(2), 1, Dim3{48 + 8 * mod(3), 48, 48}},
      {4, 2 - mod(2), 2, Dim3{40, 40 + 8 * mod(2), 40}},
      {6, 1, 1, Dim3{36, 36, 36 + 4 * mod(4)}},
  };
  for (int t = 0; t < 3; ++t) {
    sched::JobSpec s;
    s.name = "job" + std::string(1, static_cast<char>('A' + t));
    s.user = "drill";
    s.gpus = mixes[t].gpus;
    s.domain = mixes[t].domain;
    s.radius = mixes[t].radius;
    s.quantities = mixes[t].quantities;
    s.iterations = opt.iters;
    s.prologue = [](DistributedDomain& dd) { fill_interior(dd, 1); };
    s.epilogue = [&bad, &verified](DistributedDomain& dd) {
      bad += halo_mismatches(dd, 1);
      ++verified;
    };
    const int id = scheduler.submit(s);
    if (scheduler.state(id) == sched::JobState::kRejected) {
      std::fprintf(stderr, "%s: %s rejected: %s\n", opt.tool().c_str(), s.name.c_str(),
                   scheduler.reject_reason(id).c_str());
      return 1;
    }
  }

  const sched::RunReport rep = scheduler.run();
  for (const auto& t : rep.tenants) {
    std::printf("%s  user=%s wave=%d nodes=%zu ranks=%d  p95=%.3f ms solo=%.3f ms "
                "interference=%+.1f%%\n",
                t.name.c_str(), t.user.c_str(), t.wave, t.nodes.size(), t.ranks, t.p95_ms,
                t.solo_p95_ms, t.interference * 100.0);
  }
  std::printf("seed %llu, policy %s: %d tenant runs verified, %lld bad halo cells, "
              "%zu verify findings\n",
              static_cast<unsigned long long>(opt.seed), to_string(opt.policy), verified.load(),
              static_cast<long long>(bad.load()), rep.verify_findings);

  bool ok = bad.load() == 0 && rep.verify_findings == 0 && rep.tenants.size() == 3;
  for (const auto& d : rep.verify_details) std::fprintf(stderr, "  verify: %s\n", d.c_str());
  if (opt.check && !checker.report().clean()) {
    std::fprintf(stderr, "%s\n", checker.report().summary().c_str());
    ok = false;
  }
  std::printf("%s\n", ok ? "PASS: co-tenant halos bit-exact vs solo, all plans admitted"
                         : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace stencil::drill
