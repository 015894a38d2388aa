// drill: the command-line tool for the library's end-to-end scenarios.
// Each subcommand runs one; every flag comes from the shared table in
// common_cli.cpp, and `drill <subcommand> --help` lists the ones it takes.
//
//   drill explore --nodes 2 --rpn 2 --domain 256 --csv   # what does it cost?
//   drill plan --domain 1440,1452,700 --nodes 2 --rpn 6  # and why?
//   drill verify --nodes 2 --rpn 2 --domain 96 --json verdicts.json
//
// Exit status: 0 on success, 1 when a self-check fails (halo mismatch,
// checker or verifier findings, an unmet --expect), 2 on bad usage.
//
// This file holds the parts the subcommands share and the three that
// explore one exchange configuration: explore, plan and verify.
#include "drill.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/exchange.h"
#include "plan/plan.h"
#include "verify/verify.h"

namespace stencil::drill {

namespace {

float halo_value(Dim3 g, std::size_t q) {
  return static_cast<float>(g.x + 131 * g.y + 131 * 131 * g.z) +
         static_cast<float>(q) * 4.0e6f;
}

}  // namespace

void fill_interior(DistributedDomain& dd, std::size_t nq) {
  dd.for_each_subdomain([&](LocalDomain& ld) {
    for (std::size_t q = 0; q < nq; ++q) {
      auto v = ld.view<float>(q);
      const Dim3 o = ld.origin();
      for (std::int64_t z = 0; z < ld.size().z; ++z)
        for (std::int64_t y = 0; y < ld.size().y; ++y)
          for (std::int64_t x = 0; x < ld.size().x; ++x)
            v(x, y, z) = halo_value({o.x + x, o.y + y, o.z + z}, q);
    }
  });
}

std::int64_t halo_mismatches(DistributedDomain& dd, std::size_t nq) {
  std::int64_t bad = 0;
  const int r = dd.radius().max();
  dd.for_each_subdomain([&](LocalDomain& ld) {
    const Dim3 sz = ld.size();
    const Dim3 o = ld.origin();
    for (std::size_t q = 0; q < nq; ++q) {
      auto v = ld.view<float>(q);
      for (std::int64_t z = -r; z < sz.z + r; ++z)
        for (std::int64_t y = -r; y < sz.y + r; ++y)
          for (std::int64_t x = -r; x < sz.x + r; ++x) {
            if (Dim3{x, y, z}.inside(sz)) continue;
            const Dim3 g = Dim3{o.x + x, o.y + y, o.z + z}.wrap(dd.domain());
            bad += v(x, y, z) != halo_value(g, q);
          }
    }
  });
  return bad;
}

void configure(DistributedDomain& dd, const cli::Options& opt) {
  dd.set_radius(opt.radius);
  for (int q = 0; q < opt.quantities; ++q) dd.add_data<float>("q" + std::to_string(q));
  dd.set_methods(opt.methods);
  dd.set_placement(opt.placement);
  dd.set_boundary(opt.boundary);
  dd.set_pack_mode(opt.pack);
  dd.set_remote_aggregation(opt.aggregate);
  dd.set_persistent(opt.persistent);
}

fault::FaultPlan drill_plan(const std::string& drill, sim::Time t) {
  fault::FaultPlan plan;
  const bool all = drill == "all";
  if (all || drill == "peer") plan.revoke_peer(t, -1, -1);
  if (all || drill == "ipc") plan.invalidate_ipc(t);
  if (all || drill == "nic") plan.degrade_link(t, fault::LinkClass::kNic, -1, -1, 0.25);
  if (all || drill == "cuda") plan.disable_cuda_aware(t);
  return plan;
}

std::optional<recover::RecoveryStats> run_recovering(RankCtx& ctx, DistributedDomain& dd,
                                                     std::int64_t cadence, std::int64_t total,
                                                     sim::Time slice,
                                                     const std::function<void()>& step) {
  recover::RecoveryManager rm(ctx, dd, cadence);
  std::int64_t it = 0, trip = 0;
  while (it < total) {
    try {
      ctx.engine().sleep_until(slice * trip);
      ++trip;
      rm.maybe_checkpoint(it);
      step();
      ++it;
    } catch (const std::exception& e) {
      const auto ev = recover::classify(e, ctx.comm.job(), ctx.rank(), ctx.engine().now());
      if (ev.kind == recover::FailureKind::kNone) throw;
      const std::int64_t back = rm.recover(ev, it);
      if (back == recover::RecoveryManager::kRankGone) return std::nullopt;
      it = back;
    }
  }
  return rm.stats();
}

bool emit_trace(const cli::Options& opt, const dtrace::Collector& c) {
  std::string err;
  if (!cli::write_trace_outputs(c, opt.trace, &err)) {
    std::fprintf(stderr, "%s: %s\n", opt.tool().c_str(), err.c_str());
    return false;
  }
  if (!opt.trace.out.empty()) {
    std::printf("merged chrome trace written to %s (open in Perfetto)\n", opt.trace.out.c_str());
  }
  if (!opt.trace.merge.empty()) {
    std::printf("per-rank trace documents written to %s.rank*.json\n", opt.trace.merge.c_str());
  }
  return true;
}

int expect_status(const cli::Options& opt, const std::map<std::string, Outcome>& outcomes) {
  if (opt.expect.empty()) return 0;
  const Outcome& o = outcomes.at(opt.expect);  // the parser admits only listed outcomes
  if (!o.met) {
    std::fprintf(stderr, "%s: %s\n", opt.tool().c_str(), o.fail.c_str());
    return 1;
  }
  std::printf("%s\n", o.ok.c_str());
  return 0;
}

namespace {

struct RunResult {
  Dim3 node_extent, gpu_extent, global_extent, subdomain_size;
  // Per-method (transfer count, payload bytes) over rank 0's transfer
  // table: right after realize(), and after the last exchange (with any
  // runtime demotions).
  std::map<Method, std::pair<int, std::size_t>> rank0_methods;
  std::map<Method, std::pair<int, std::size_t>> rank0_method_bytes;
  // With --persistent: rank 0's compiled plans and cache counters.
  std::string rank0_plan_dump;
  std::string rank0_plan_stats;
  double exchange_ms = 0.0;
};

// One warm-up and opt.iters measured exchanges in phantom memory; the
// exchange time is the slowest rank's average.
RunResult run_config(const cli::Options& opt) {
  RunResult out;
  Cluster cluster(opt.arch, opt.nodes, opt.rpn);
  cluster.set_mem_mode(vgpu::MemMode::kPhantom);
  std::vector<double> per_rank(static_cast<std::size_t>(opt.nodes) * opt.rpn, 0.0);

  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, opt.domain);
    configure(dd, opt);
    dd.realize();

    if (ctx.rank() == 0) {
      const auto& hp = dd.placement().partition();
      out.node_extent = hp.node_extent();
      out.gpu_extent = hp.gpu_extent();
      out.global_extent = hp.global_extent();
      out.subdomain_size = hp.subdomain_size({0, 0, 0});
      out.rank0_methods = dd.method_bytes_histogram();
    }

    ctx.comm.barrier();
    dd.exchange();  // warm-up
    double total = 0.0;
    for (int it = 0; it < opt.iters; ++it) {
      ctx.comm.barrier();
      const double t0 = ctx.comm.wtime();
      dd.exchange();
      total += ctx.comm.wtime() - t0;
    }
    per_rank[static_cast<std::size_t>(ctx.rank())] = total / opt.iters;

    if (ctx.rank() == 0) {
      out.rank0_method_bytes = dd.method_bytes_histogram();
      if (opt.persistent) {
        std::ostringstream os;
        for (const auto& p : dd.plan_cache().entries()) p->describe(os);
        out.rank0_plan_dump = os.str();
        out.rank0_plan_stats = dd.plan_stats().str();
      }
    }
  });

  out.exchange_ms = *std::max_element(per_rank.begin(), per_rank.end()) * 1e3;
  return out;
}

}  // namespace

// explore: run any exchange configuration without writing code — "what
// would this domain cost on that machine with those methods?".
int run_explore(const cli::Options& opt) {
  const auto r = run_config(opt);

  if (opt.csv) {
    std::printf("arch,nodes,rpn,domain,radius,quantities,methods,placement,boundary,pack,"
                "aggregate,persistent,exchange_ms\n");
    std::printf("%s,%d,%d,%lldx%lldx%lld,%d,%d,%s,%s,%s,%s,%d,%d,%.6f\n", opt.arch_name.c_str(),
                opt.nodes, opt.rpn, static_cast<long long>(opt.domain.x),
                static_cast<long long>(opt.domain.y), static_cast<long long>(opt.domain.z),
                opt.radius, opt.quantities, opt.methods_name.c_str(), opt.placement_name.c_str(),
                to_string(opt.boundary), to_string(opt.pack), opt.aggregate ? 1 : 0,
                opt.persistent ? 1 : 0, r.exchange_ms);
    return 0;
  }

  std::printf("configuration: %s, %dn/%dr/%dg, domain %s, radius %d, %d quantities\n",
              opt.arch_name.c_str(), opt.nodes, opt.rpn, opt.arch.gpus_per_node(),
              opt.domain.str().c_str(), opt.radius, opt.quantities);
  std::printf("  methods=%s placement=%s boundary=%s pack=%s aggregate=%s persistent=%s\n",
              opt.methods_name.c_str(), opt.placement_name.c_str(), to_string(opt.boundary),
              to_string(opt.pack), opt.aggregate ? "on" : "off", opt.persistent ? "on" : "off");
  std::printf("partition: %s nodes x %s GPUs -> %s subdomains of ~%s\n",
              r.node_extent.str().c_str(), r.gpu_extent.str().c_str(),
              r.global_extent.str().c_str(), r.subdomain_size.str().c_str());
  std::printf("rank 0 transfers:");
  for (const auto& [m, nb] : r.rank0_methods) std::printf(" %s x%d", to_string(m), nb.first);
  std::printf("\nexchange time (max over ranks, avg of %d): %.3f ms (simulated)\n", opt.iters,
              r.exchange_ms);
  return 0;
}

// plan: introspect the three-phase setup — what the partitioner decided,
// which subdomain landed on which GPU and why (flow matrix, QAP cost per
// strategy), how every transfer was specialized (counts and payload bytes
// from the *realized* plan, after any runtime demotions), and, with
// --persistent, the compiled exchange plans and their counters.
int run_plan(const cli::Options& opt) {
  std::size_t bytes_per_point = static_cast<std::size_t>(opt.quantities) * 4;
  HierarchicalPartition hp(opt.domain, opt.nodes, opt.arch.gpus_per_node());

  std::printf("== partition ==\n");
  std::printf("domain %s over %d nodes x %d GPUs\n", opt.domain.str().c_str(), opt.nodes,
              opt.arch.gpus_per_node());
  std::printf("node index space %s, GPU index space %s, global %s\n",
              hp.node_extent().str().c_str(), hp.gpu_extent().str().c_str(),
              hp.global_extent().str().c_str());
  std::printf("subdomain [0,0,0]: size %s origin %s\n",
              hp.subdomain_size({0, 0, 0}).str().c_str(),
              hp.subdomain_origin({0, 0, 0}).str().c_str());
  std::printf("inter-node exchange volume (radius %d): %lld points (%.1f%% of total)\n",
              opt.radius, static_cast<long long>(hp.internode_exchange_volume(opt.radius)),
              100.0 * static_cast<double>(hp.internode_exchange_volume(opt.radius)) /
                  static_cast<double>(hp.total_exchange_volume(opt.radius)));

  std::printf("\n== placement (node 0) ==\n");
  Placement placement(hp, opt.arch, opt.radius, bytes_per_point, Neighborhood::kFull,
                      opt.placement, opt.boundary);
  const auto w = placement.node_flow(0);
  std::printf("flow matrix (MiB moved per exchange between subdomains):\n");
  for (int i = 0; i < w.n(); ++i) {
    std::printf("  s%-2d", i);
    for (int j = 0; j < w.n(); ++j) std::printf(" %8.1f", w.at(i, j) / (1 << 20));
    std::printf("\n");
  }
  std::printf("assignment (subdomain -> local GPU) under each strategy, with QAP cost:\n");
  for (const auto strat : {PlacementStrategy::kNodeAware, PlacementStrategy::kMeasured,
                           PlacementStrategy::kTrivial, PlacementStrategy::kWorst}) {
    Placement p(hp, opt.arch, opt.radius, bytes_per_point, Neighborhood::kFull, strat,
                opt.boundary);
    std::printf("  %-11s cost %.4g  map:", to_string(strat), p.total_cost());
    for (std::int64_t s = 0; s < hp.gpu_extent().volume(); ++s) {
      const Dim3 gidx = hp.global_index({0, 0, 0}, Dim3::from_linear(s, hp.gpu_extent()));
      std::printf(" s%lld->g%d", static_cast<long long>(s), p.local_gpu_of(gidx));
    }
    std::printf("\n");
  }

  std::printf("\n== specialization ==\n");
  const auto plan =
      ExchangePlan::full(placement, opt.rpn, opt.methods, Neighborhood::kFull, opt.boundary);
  std::printf("%zu transfers total:\n", plan.transfers().size());
  for (const auto& [m, n] : plan.method_histogram()) {
    std::printf("  %-16s x%d\n", to_string(m), n);
  }
  std::size_t internode = 0;
  for (const auto& t : plan.transfers()) {
    if (t.src_gpu / opt.arch.gpus_per_node() != t.dst_gpu / opt.arch.gpus_per_node()) {
      ++internode;
    }
  }
  std::printf("  (%zu cross node boundaries)\n", internode);

  // The static plan above is what realize() *chooses*; the realized transfer
  // set is what rank 0 actually runs, with per-method payload bytes.
  const auto r = run_config(opt);
  std::printf("\n== realized transfers (rank 0) ==\n");
  for (const auto& [m, cb] : r.rank0_method_bytes) {
    std::printf("  %-16s x%-3d %10zu B per exchange\n", to_string(m), cb.first, cb.second);
  }
  if (opt.persistent) {
    std::printf("\n== compiled plans (rank 0) ==\n%s  %s\n", r.rank0_plan_dump.c_str(),
                r.rank0_plan_stats.c_str());
  }
  return 0;
}

// verify: compile the persistent exchange plans for a configuration and run
// the static exchange-protocol verifier (src/verify) over every cached plan
// — send/recv matching, deadlock freedom, tag hygiene, buffer hazards —
// with zero message execution beyond the planning exchanges themselves.
// --json FILE writes one deterministic JSON array (schema verify-v1, one
// object per plan, no timestamps). Exit 1 when any finding fires.
int run_verify(const cli::Options& opt) {
  struct Verdict {
    std::string key, json, text;
    bool clean = true;
    std::size_t ops = 0;
    double micros = 0.0;
  };
  std::vector<Verdict> verdicts;
  Cluster cluster(opt.arch, opt.nodes, opt.rpn);
  cluster.set_mem_mode(vgpu::MemMode::kPhantom);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, opt.domain);
    configure(dd, opt);
    dd.set_persistent(true);  // plans only exist for persistent exchanges
    dd.realize();

    // Compile the full-set plan plus one selective subset per quantity, the
    // configurations a production loop typically cycles through.
    ctx.comm.barrier();
    dd.exchange();
    for (int q = 0; q < opt.quantities; ++q) dd.exchange({static_cast<std::size_t>(q)});
    ctx.comm.barrier();

    if (ctx.rank() != 0) return;
    for (const auto& p : dd.plan_cache().entries()) {
      Verdict v;
      v.key = p->key.str();
      const auto t0 = std::chrono::steady_clock::now();
      const verify::ExchangeModel m = dd.verify_model(*p);
      const verify::Report rep = verify::verify(m);
      const auto t1 = std::chrono::steady_clock::now();
      v.micros = std::chrono::duration<double, std::micro>(t1 - t0).count();
      for (const auto& rp : m.ranks) v.ops += rp.ops.size();
      v.clean = rep.clean();
      std::ostringstream js, txt;
      rep.write_json(js, v.key);
      rep.write(txt);
      v.json = js.str();
      v.text = txt.str();
      verdicts.push_back(std::move(v));
    }
  });

  std::printf("== %s: %s, %d node(s) x %d rank(s), methods %s%s ==\n", opt.tool().c_str(),
              opt.domain.str().c_str(), opt.nodes, opt.rpn, opt.methods_name.c_str(),
              opt.aggregate ? ", aggregated" : "");
  bool all_clean = true;
  for (const Verdict& v : verdicts) {
    // Host wall time of the verifier itself (not simulated time); stays out
    // of the JSON so artifacts are byte-stable across runs.
    std::printf("plan { %s }: %s  [%zu modeled op(s), %.0f us]\n", v.key.c_str(),
                v.clean ? "clean" : "FINDINGS", v.ops, v.micros);
    if (!v.clean) {
      std::fputs(v.text.c_str(), stdout);
      all_clean = false;
    }
  }
  std::printf("%zu plan(s) verified, %s\n", verdicts.size(),
              all_clean ? "all clean" : "findings present");

  if (!opt.json.empty()) {
    std::ofstream os(opt.json);
    if (!os) {
      std::fprintf(stderr, "%s: cannot write %s\n", opt.tool().c_str(), opt.json.c_str());
      return 2;
    }
    os << "[";
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      if (i != 0) os << ",";
      os << verdicts[i].json;
    }
    os << "]\n";
    std::printf("verdicts written to %s\n", opt.json.c_str());
  }
  return all_clean ? 0 : 1;
}

}  // namespace stencil::drill

int main(int argc, char** argv) {
  namespace cli = stencil::cli;
  namespace drill = stencil::drill;
  if (argc < 2 || std::string(argv[1]) == "--help") {
    cli::print_usage(0);
    return argc < 2 ? 2 : 0;
  }
  cli::Options opt;
  std::string err;
  if (!cli::parse({argv + 1, argv + argc}, &opt, &err)) {
    std::fprintf(stderr, "drill: %s\n", err.c_str());
    return 2;
  }
  if (opt.help) {
    cli::print_usage(opt.sub);
    return 0;
  }
  switch (opt.sub) {
    case cli::kExplore: return drill::run_explore(opt);
    case cli::kPlan: return drill::run_plan(opt);
    case cli::kVerify: return drill::run_verify(opt);
    case cli::kCheck: return drill::run_check(opt);
    case cli::kFault: return drill::run_fault(opt);
    case cli::kTenant: return drill::run_tenant(opt);
    case cli::kTelemetry: return drill::run_telemetry(opt);
    case cli::kTrace: return drill::run_trace(opt);
    case cli::kWatch: return drill::run_watch(opt);
    case cli::kExplain: return drill::run_explain(opt);
  }
  return 2;
}
