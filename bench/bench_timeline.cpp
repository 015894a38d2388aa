// Reproduces Fig. 9: the timeline of overlapped exchange operations for a
// 512^3-per-GPU subdomain with four SP quantities, one node, two MPI ranks
// each driving two GPUs. Emits an ASCII Gantt chart (one lane per
// CPU/GPU/link resource), a CSV with every operation span, a JSON telemetry
// report, and one chrome trace: one process per rank, flow arrows along
// every message and IPC handshake (DESIGN.md §12), critical-path span args
// and the telemetry counters. The recording runs under one
// dtrace::Collector across both the eager exchange and the planned
// (persistent) replay, so the trace shows the replay's message contexts too.
//
//   bench_timeline [--trace-out FILE] [--trace-merge PREFIX]
//
// The trace defaults to bench_timeline.json (CI uploads it).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common.h"
#include "common_cli.h"
#include "dtrace/collector.h"
#include "telemetry/telemetry.h"

using namespace stencil::bench;
namespace cli = stencil::cli;
namespace dtrace = stencil::dtrace;
namespace sim = stencil::sim;
namespace telemetry = stencil::telemetry;

int main(int argc, char** argv) {
  cli::TraceOptions topt;
  for (int i = 1; i < argc; ++i) {
    std::string err;
    if (cli::parse_trace_flag(argc, argv, &i, &topt, &err)) {
      if (!err.empty()) {
        std::fprintf(stderr, "bench_timeline: %s\n", err.c_str());
        return 2;
      }
      continue;
    }
    if (std::string(argv[i]) == "--help") {
      std::printf("usage: bench_timeline [options]\n");
      cli::print_trace_usage();
      return 0;
    }
    std::fprintf(stderr, "bench_timeline: unknown flag '%s' (try --help)\n", argv[i]);
    return 2;
  }
  if (topt.out.empty()) topt.out = "bench_timeline.json";

  // A Summit-flavored node with 2 GPUs per socket so that 2 ranks x 2 GPUs
  // matches the paper's Fig. 9 setup (4 GPUs total).
  stencil::topo::NodeArchetype arch = stencil::topo::summit();
  arch.gpus_per_socket = 2;

  stencil::Cluster cluster(arch, /*nodes=*/1, /*ranks_per_node=*/2);
  cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
  dtrace::Collector rec;  // causal: one global timeline, eager + planned
  telemetry::Telemetry tel;  // substrate and both ranks' domains
  cluster.set_telemetry(&tel);
  sim::Time eager0 = 0, eager1 = 0, plan0 = 0, plan1 = 0;

  cluster.run([&](stencil::RankCtx& ctx) {
    stencil::DistributedDomain dd(ctx, weak_scaling_domain(4, 512));  // ~512^3 per GPU
    dd.set_radius(3);
    for (int q = 0; q < 4; ++q) dd.add_data<float>("q" + std::to_string(q));
    dd.set_methods(stencil::MethodFlags::kAll);
    dd.realize();

    // Warm up (setup effects out), then record exactly one eager exchange.
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();
    if (ctx.rank() == 0) {
      cluster.set_collector(&rec);
      eager0 = ctx.engine().now();
    }
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();
    if (ctx.rank() == 0) {
      cluster.set_recorder(nullptr);
      eager1 = ctx.engine().now();
    }

    // Planned lane: compile the exchange plan (unrecorded), then record one
    // replay. In the trace the per-op "issue" spans of the eager exchange
    // collapse into a handful of "graph launch" spans.
    ctx.comm.barrier();
    dd.set_persistent(true);
    dd.exchange();  // compiles the plan
    ctx.comm.barrier();
    if (ctx.rank() == 0) {
      cluster.set_collector(&rec);
      plan0 = ctx.engine().now();
    }
    ctx.comm.barrier();
    dd.exchange();  // planned replay
    ctx.comm.barrier();
    if (ctx.rank() == 0) {
      cluster.set_recorder(nullptr);
      plan1 = ctx.engine().now();
    }
  });

  std::printf("Fig. 9 reproduction: one overlapped exchange, 1 node / 2 ranks / 4 GPUs,\n");
  std::printf("~512^3 points per GPU, radius 3, 4 SP quantities.\n");
  std::printf("Recorded twice: eager, then a planned (persistent) replay.\n\n");
  rec.write_gantt(std::cout, eager0, eager1, 110);
  std::printf("\n(planned replay)\n");
  rec.write_gantt(std::cout, plan0, plan1, 110);

  // Critical-path analysis over both recorded exchanges — which spans gate
  // the makespan, how much was overlapped, and (via the message edges) where
  // the chain crosses ranks. The shadow-memory checker stays off here: at
  // 512^3 per GPU its per-byte-range history dwarfs the trace itself.
  telemetry::CriticalPath cp(rec.records());
  const std::size_t msg_edges = cp.add_flow_edges(rec.flows());
  const telemetry::Analysis an = cp.analyze();
  std::printf("\ncritical path of the recorded exchanges (%zu spans, %zu message edges):\n",
              rec.records().size(), msg_edges);
  std::printf("%s", an.str(5).c_str());

  std::ofstream csv("bench_timeline.csv");
  rec.write_csv(csv);
  std::ofstream report("bench_timeline_report.json");
  telemetry::write_report_json(report, tel.metrics(), an);

  std::string err;
  if (!cli::write_trace_outputs(rec, topt, &err, &tel.metrics(), &an)) {
    std::fprintf(stderr, "bench_timeline: %s\n", err.c_str());
    return 1;
  }
  std::printf("\n%zu operation spans written to bench_timeline.csv;\n"
              "telemetry + critical-path report in bench_timeline_report.json;\n"
              "chrome trace (ranks, message arrows, critical path, counters) in %s\n"
              "(open in Perfetto)\n",
              rec.records().size(), topt.out.c_str());
  return 0;
}
