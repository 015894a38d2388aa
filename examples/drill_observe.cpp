// The drill's observability subcommands: telemetry, trace, watch.
//
//   drill telemetry --arch dgx --nodes 1 --rpn 2 --metrics m.prom --json r.json
//   drill trace --trace-out merged.json --trace-merge doc --expect clean
//   drill trace --straggler 3 --rel-slack 1.05 --slack-us 20 --expect straggler
//   drill watch --degrade --expect congestion --json watch.json --metrics watch.prom
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "check/checker.h"
#include "drill.h"
#include "dtrace/progress.h"
#include "telemetry/critical_path.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "trace/recorder.h"
#include "watch/watch.h"

namespace stencil::drill {

namespace {

// Round-trip the per-rank documents through the offline merger and confirm
// the rebuilt collector renders the same merged timeline byte for byte.
bool verify_offline_merge(const cli::Options& opt, const dtrace::Collector& direct) {
  std::vector<std::string> docs;
  for (int r = -1; r <= direct.max_rank(); ++r) {
    const std::string path = opt.trace.merge +
                             (r < 0 ? std::string(".shared") : ".rank" + std::to_string(r)) +
                             ".json";
    std::ifstream f(path);
    if (!f) {
      std::fprintf(stderr, "%s: cannot re-read %s\n", opt.tool().c_str(), path.c_str());
      return false;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    docs.push_back(ss.str());
  }
  const dtrace::Collector rebuilt = dtrace::Collector::merge(docs);
  std::ostringstream a, b;
  direct.write_chrome_trace(a);
  rebuilt.write_chrome_trace(b);
  return a.str() == b.str();
}

}  // namespace

// telemetry: run an end-to-end halo exchange under full telemetry and print
// what the observability layer sees — per-method message/byte tables, the
// critical chain through one recorded exchange with per-hop durations,
// overlap efficiency, and the bottleneck-lane ranking (DESIGN.md §11).
//
// Three configurations run back to back so all five methods appear: the
// default flag set (staged | colocated | peer), a CUDA-aware set that
// specializes inter-node transfers to cuda-aware-mpi, and a single-rank
// shape whose self-wrapping decomposition exercises kernel. Each config
// checks its halos bit-exactly against the analytic fill — telemetry is
// pure bookkeeping and must not perturb the exchange. The run is also
// checked: the happens-before edges the checker derives feed the
// critical-path analyzer, and the recorded exchange runs under a
// dtrace::Collector so message edges (flow arrows) join the analysis and
// --trace-out / --trace-merge emit the causal trace (DESIGN.md §12).
// Exits 1 on halo mismatch or checker findings.
int run_telemetry(const cli::Options& opt) {
  struct Config {
    const char* name;
    MethodFlags flags;
    int nodes = 0;  // 0: use the --nodes/--rpn shape
    int rpn = 0;
  };
  const Config configs[] = {
      {"all", MethodFlags::kAll},
      {"cuda-aware", MethodFlags::kAllCudaAware | MethodFlags::kStaged},
      {"self", MethodFlags::kAll, 1, 1},
  };
  const auto nq = static_cast<std::size_t>(opt.quantities);

  std::printf("%s: preset %s, %dn/%dr, domain %s, radius %d, %d quantities\n", opt.tool().c_str(),
              opt.arch_name.c_str(), opt.nodes, opt.rpn, opt.domain.str().c_str(), opt.radius,
              opt.quantities);

  telemetry::MetricsRegistry merged;  // every config's cluster sink
  std::int64_t halo_errors = 0;
  int findings = 0;
  telemetry::Analysis last_analysis;
  dtrace::Collector trace_out;  // the "all" config's trace: the one that crosses ranks

  for (const Config& cfg : configs) {
    // A platform without CUDA-aware MPI has no cuda-aware config to run.
    if (any(cfg.flags & MethodFlags::kCudaAwareMpi) && !opt.arch.cuda_aware_mpi) continue;
    Cluster cluster(opt.arch, cfg.nodes ? cfg.nodes : opt.nodes, cfg.rpn ? cfg.rpn : opt.rpn);
    check::Checker checker(cluster.engine());
    cluster.set_checker(&checker);
    telemetry::Telemetry tel;  // substrate and every rank's domain
    cluster.set_telemetry(&tel);
    dtrace::Collector rec;

    std::map<Method, std::pair<int, std::size_t>> xfer_set;  // rank 0's realized transfers

    cluster.run([&](RankCtx& ctx) {
      DistributedDomain dd(ctx, opt.domain);
      configure(dd, opt);
      dd.set_methods(cfg.flags);
      dd.realize();
      if (ctx.rank() == 0) xfer_set = dd.method_bytes_histogram();

      // Warm-up exchange (allocation and IPC setup out of the trace), then
      // record exactly one eager exchange for the critical-path analysis.
      fill_interior(dd, nq);
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      halo_errors += halo_mismatches(dd, nq);

      if (ctx.rank() == 0) cluster.set_collector(&rec);
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      if (ctx.rank() == 0) cluster.set_recorder(nullptr);
      halo_errors += halo_mismatches(dd, nq);

      // Persistent lane: compile the plan, then replay it, so the plan
      // compile/hit/replay counters show up in the merged report.
      dd.set_persistent(true);
      dd.exchange();
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      halo_errors += halo_mismatches(dd, nq);
    });
    merged.merge(tel.metrics());
    if (!checker.report().clean()) {
      ++findings;
      checker.report().write(std::cerr);
    }

    std::printf("\n=== config %s ===\n", cfg.name);
    std::printf("realized transfer set (rank 0):\n");
    std::printf("  %-16s %10s %14s\n", "method", "transfers", "bytes");
    for (const auto& [m, cb] : xfer_set)
      std::printf("  %-16s %10d %14zu\n", to_string(m), cb.first, cb.second);

    telemetry::CriticalPath cp(rec.records());
    const std::size_t msg_edges = cp.add_flow_edges(rec.flows());
    const std::size_t attached = cp.add_hb_edges(checker.hb_edges());
    const telemetry::Analysis an = cp.analyze();
    std::printf(
        "critical path over one recorded exchange (%zu spans, %zu message edges, "
        "%zu hb edges attached):\n",
        rec.records().size(), msg_edges, attached);
    std::printf("%s", an.str(5).c_str());
    last_analysis = an;
    if (std::string(cfg.name) == "all") trace_out = rec;
  }

  std::printf("\n=== merged telemetry (all ranks, all configs) ===\n");
  std::printf("  %-16s %10s %14s\n", "method", "messages", "bytes");
  for (const char* m : {"kernel", "peer", "colocated", "cuda-aware-mpi", "staged"}) {
    const std::string label = std::string("{method=\"") + m + "\"}";
    const std::uint64_t msgs = merged.counter_value("exchange_messages_total" + label);
    const std::uint64_t bytes = merged.counter_value("exchange_bytes_total" + label);
    std::printf("  %-16s %10llu %14llu\n", m, static_cast<unsigned long long>(msgs),
                static_cast<unsigned long long>(bytes));
  }
  const auto& lat = merged.histogram("exchange_latency_ns");
  std::printf("exchanges: %llu total, latency mean %s (min %s, max %s)\n",
              static_cast<unsigned long long>(merged.counter_value("exchanges_total")),
              sim::format_duration(static_cast<sim::Duration>(lat.mean())).c_str(),
              sim::format_duration(static_cast<sim::Duration>(lat.min())).c_str(),
              sim::format_duration(static_cast<sim::Duration>(lat.max())).c_str());
  std::printf("plan: %llu compiles, %llu hits, %llu replays\n",
              static_cast<unsigned long long>(merged.counter_value("plan_compiles_total")),
              static_cast<unsigned long long>(merged.counter_value("plan_hits_total")),
              static_cast<unsigned long long>(merged.counter_value("plan_replays_total")));
  std::printf("substrate: %llu GPU ops (%llu B), %llu MPI messages (%llu B)\n",
              static_cast<unsigned long long>(merged.counter_value("vgpu_ops_total")),
              static_cast<unsigned long long>(merged.counter_value("vgpu_bytes_total")),
              static_cast<unsigned long long>(merged.counter_value("mpi_messages_total")),
              static_cast<unsigned long long>(merged.counter_value("mpi_bytes_total")));

  if (!opt.metrics.empty()) {
    std::ofstream os(opt.metrics);
    telemetry::write_prometheus(os, merged);
    std::printf("Prometheus exposition written to %s\n", opt.metrics.c_str());
  }
  if (!opt.json.empty()) {
    std::ofstream os(opt.json);
    telemetry::write_report_json(os, merged, last_analysis);
    std::printf("JSON report written to %s\n", opt.json.c_str());
  }
  if (!emit_trace(opt, trace_out)) return 2;

  if (halo_errors != 0) {
    std::fprintf(stderr, "%s: %lld halo mismatches\n", opt.tool().c_str(),
                 static_cast<long long>(halo_errors));
    return 1;
  }
  if (findings != 0) {
    std::fprintf(stderr, "%s: checker reported findings\n", opt.tool().c_str());
    return 1;
  }
  std::printf("halos bit-exact under telemetry; checker clean.\n");
  return 0;
}

// trace: run a halo exchange under the causal distributed tracer (DESIGN.md
// §12) and explore what it sees — one merged cross-rank timeline with flow
// arrows along every message, a critical path that follows those message
// edges across rank boundaries with per-rank blame, and a live progress
// monitor that flags stragglers against its virtual-time slack.
//
// The default shape is two Summit-like nodes trimmed to one GPU per socket
// (2 nodes x 2 GPUs, one GPU per rank) so every lane fits on a screen while
// still exercising inter-node MPI, same-node IPC, and pack kernels.
// --straggler G scales GPU G's kernel throughput down by --factor; the
// ProgressMonitor compares per-rank exchange durations against the median
// and fires when a rank exceeds relative-slack x median AND the absolute
// slack floor. --expect straggler|clean turns the outcome into the exit
// status so CI can pin both the true-positive and the false-positive case.
int run_trace(const cli::Options& opt) {
  std::printf("%s: %dn/%dr (%d GPUs), domain %s, radius %d, %d iters%s\n", opt.tool().c_str(),
              opt.nodes, opt.rpn, opt.nodes * opt.arch.gpus_per_node(), opt.domain.str().c_str(),
              opt.radius, opt.iters, opt.persistent ? ", persistent" : "");

  Cluster cluster(opt.arch, opt.nodes, opt.rpn);
  cluster.set_mem_mode(vgpu::MemMode::kPhantom);

  fault::FaultPlan plan;
  if (opt.straggler >= 0) {
    plan.slow_device(0, opt.straggler, opt.factor);
    std::printf("injected: GPU %d kernel throughput x%.3g from t=0\n", opt.straggler, opt.factor);
  }
  fault::Injector inj(plan);
  if (inj.active()) cluster.set_fault_injector(&inj);

  telemetry::Telemetry tel;
  cluster.set_telemetry(&tel);
  dtrace::Collector col;
  cluster.set_collector(&col);
  dtrace::ProgressMonitor mon;
  mon.set_slack(static_cast<sim::Duration>(opt.slack_us * 1000.0));
  mon.set_relative_slack(opt.rel_slack);
  cluster.set_progress_monitor(&mon);

  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, opt.domain);
    configure(dd, opt);
    dd.realize();
    for (int it = 0; it < opt.iters; ++it) {
      ctx.comm.barrier();
      dd.exchange();
    }
    ctx.comm.barrier();
  });
  mon.finish(cluster.engine().now());

  std::printf("\n=== progress monitor (%llu exchanges, slack %s, %.2gx median) ===\n%s",
              static_cast<unsigned long long>(mon.exchanges_seen()),
              sim::format_duration(mon.slack()).c_str(), mon.relative_slack(),
              mon.str().c_str());

  telemetry::CriticalPath cp(col.records());
  const std::size_t msg_edges = cp.add_flow_edges(col.flows());
  const telemetry::Analysis an = cp.analyze();
  std::printf("\n=== critical path (%zu spans, %zu message edges, %d rank crossings) ===\n%s",
              col.records().size(), msg_edges, an.rank_crossings, an.str(8).c_str());

  if (opt.trace.any()) {
    std::printf("\n");
    if (!emit_trace(opt, col)) return 2;
    if (!opt.trace.merge.empty()) {
      if (!verify_offline_merge(opt, col)) {
        std::fprintf(stderr, "%s: offline merge does not match direct trace\n",
                     opt.tool().c_str());
        return 1;
      }
      std::printf("offline merge round-trip: identical to the direct merged trace\n");
    }
  }

  const int slow_rank = opt.straggler / cluster.gpus_per_rank();
  bool hit = false;
  for (const auto& alert : mon.alerts()) hit |= alert.rank == slow_rank;
  return expect_status(
      opt, {{"straggler",
             {hit, "\nexpected straggler flagged: OK",
              "expected a straggler alert for rank " + std::to_string(slow_rank)}},
            {"clean",
             {mon.clean(), "\nexpected clean run: OK",
              "expected a clean run, got " + std::to_string(mon.alerts().size()) +
                  " alert(s)"}}});
}

// watch: live monitoring quickstart (DESIGN.md §16). Attaches a
// stencil::watch to a 2-node cluster, runs a healthy calibration phase so
// the watch learns every wire's floor cost, then (with --degrade) re-runs
// the same exchange with node 0's NIC throttled. The watch notices each
// message's per-byte wire cost stretching past the learned floor and opens
// a congested-link incident — complete with the FlightRecorder tail
// captured at open time and an instant event in the chrome trace. The
// report prints the lane table, the live per-node cost factors placement
// would consult, and every incident. --expect clean wants no incident at
// all, --expect congestion at least one congested-link incident.
int run_watch(const cli::Options& opt) {
  trace::Recorder rec;
  telemetry::Telemetry tel;
  watch::Watch live;
  Cluster cluster(opt.arch, opt.nodes, opt.rpn);
  cluster.set_mem_mode(vgpu::MemMode::kPhantom);
  cluster.set_recorder(&rec);
  cluster.set_telemetry(&tel);
  cluster.set_watch(&live);

  // One exchange phase: every rank realizes the same domain and runs
  // `iters` halo exchanges.
  const auto run_phase = [&] {
    cluster.run([&](RankCtx& ctx) {
      DistributedDomain dd(ctx, opt.domain);
      configure(dd, opt);
      dd.realize();
      for (int it = 0; it < opt.iters; ++it) {
        ctx.comm.barrier();
        dd.exchange();
      }
    });
  };

  std::printf("%s: %d nodes x %d ranks, %s floats, %d iters/phase\n", opt.tool().c_str(),
              opt.nodes, opt.rpn, opt.domain.str().c_str(), opt.iters);

  // Phase 1 — healthy calibration: the watch learns per-lane floors and the
  // published cost factors settle at 1.
  run_phase();
  live.publish();
  // Roll the measurement window so phase 2's cost factors come from phase
  // 2's own floors — a mid-life degradation is invisible to lifetime minima.
  live.clear_window();
  std::printf("calibrated: %llu messages, %llu exchange completions, publish epoch %llu\n",
              static_cast<unsigned long long>(live.messages()),
              static_cast<unsigned long long>(live.exchanges()),
              static_cast<unsigned long long>(live.publish_epoch()));

  // Phase 2 — optionally throttle node 0's NIC (both directions) and run
  // the same traffic again. Per-message occupancy now stretches past the
  // learned floor and the congestion detector opens an incident.
  fault::FaultPlan plan;
  if (opt.degrade) {
    plan.degrade_link(0, fault::LinkClass::kNic, 0, -1, opt.factor);
    plan.degrade_link(0, fault::LinkClass::kNic, -1, 0, opt.factor);
  }
  const fault::Injector inj(plan);
  if (opt.degrade) {
    cluster.set_fault_injector(&inj);
    std::printf("\nphase 2: node 0 NIC throttled to %.0f%% of nominal\n", opt.factor * 100.0);
  } else {
    std::printf("\nphase 2: healthy re-run\n");
  }
  run_phase();
  live.publish();

  std::printf("\nlanes (per (src, dst, wire class)):\n");
  std::printf("  %-4s %-4s %-11s %8s %12s %12s %8s\n", "src", "dst", "class", "msgs", "bytes",
              "GB/s", "stretch");
  for (int s = 0; s < live.num_nodes(); ++s) {
    for (int d = 0; d < live.num_nodes(); ++d) {
      for (int c = 0; c < watch::kWireClasses; ++c) {
        const auto wc = static_cast<watch::WireClass>(c);
        const double bw = live.lane_bandwidth(s, d, wc);
        if (bw <= 0.0) continue;
        std::printf("  n%-3d n%-3d %-11s %8llu %12llu %12.2f %+7.1f%%\n", s, d,
                    watch::to_string(wc),
                    static_cast<unsigned long long>(live.lane_messages(s, d, wc)),
                    static_cast<unsigned long long>(live.lane_bytes(s, d, wc)), bw / 1e9,
                    live.lane_window_stretch(s, d, wc) * 100.0);
      }
    }
  }
  std::printf("\nlive node cost factors:");
  for (int n = 0; n < live.num_nodes(); ++n)
    std::printf("  n%d=%.2f", n, live.live_node_cost_factor(n));
  std::printf("\nexchange p95 (window): %.3f ms\n", live.exchange_p95_ms());

  std::printf("\nincidents (%llu opened, %d open):\n",
              static_cast<unsigned long long>(live.incidents_opened()), live.open_incidents());
  for (const auto& inc : live.incidents()) {
    std::printf("  [%s] %s  severity %.2f  opened %lld ns%s\n", watch::to_string(inc.kind),
                inc.subject.c_str(), inc.severity, static_cast<long long>(inc.opened),
                inc.closed != 0 ? " (closed)" : "");
    std::printf("      %s\n", inc.detail.c_str());
    if (!inc.flight_tail.empty()) {
      std::printf("      flight tail: %zu bytes captured\n", inc.flight_tail.size());
    }
  }
  if (live.incidents().empty()) std::printf("  (none)\n");

  if (!opt.json.empty()) {
    std::ofstream os(opt.json);
    live.write_snapshot_json(os);
    std::printf("\nwatch-v1 snapshot written to %s\n", opt.json.c_str());
  }
  if (!opt.metrics.empty()) {
    telemetry::MetricsRegistry reg;
    live.export_metrics(reg);
    std::ofstream os(opt.metrics);
    telemetry::write_prometheus(os, reg);
    std::printf("prometheus metrics written to %s\n", opt.metrics.c_str());
  }

  return expect_status(
      opt, {{"clean",
             {live.incidents_opened() == 0, "\nself-check: clean as expected",
              "expected a clean run but " + std::to_string(live.incidents_opened()) +
                  " incident(s) opened"}},
            {"congestion",
             {live.incidents_of(watch::Incident::Kind::kCongestedLink) != 0,
              "\nself-check: congestion detected as expected",
              "expected a congested-link incident, saw none"}}});
}

}  // namespace stencil::drill
