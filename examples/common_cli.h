#pragma once

// The drill's command line: one flag table shared by every subcommand, with
// per-subcommand defaults and validation, plus the trace-output flags that
// bench_timeline also uses.

#include <cstdint>
#include <string>
#include <vector>

#include "core/distributed_domain.h"
#include "dtrace/collector.h"
#include "sched/sched.h"
#include "topo/archetype.h"

namespace stencil::cli {

/// Shared distributed-tracing flags, consumed by the drill's telemetry and
/// trace subcommands and by bench_timeline so every tool spells them the same:
///   --trace-out FILE      merged chrome trace (one process per rank, flow
///                         arrows along every message) — open in Perfetto
///   --trace-merge PREFIX  per-rank JSON documents PREFIX.rankN.json (plus
///                         PREFIX.shared.json for unattributed lanes), the
///                         offline-merge workflow of dtrace::Collector::merge
struct TraceOptions {
  std::string out;
  std::string merge;
  bool any() const { return !out.empty() || !merge.empty(); }
};

/// Recognizes one trace flag at argv[*i], consuming its value. Returns true
/// when the flag was recognized (check *err afterwards: a recognized flag
/// with a missing value sets it); false when argv[*i] is not a trace flag.
bool parse_trace_flag(int argc, char** argv, int* i, TraceOptions* t, std::string* err);

/// The usage lines for the trace flags (tools append them to their help).
void print_trace_usage();

/// Writes the collector's outputs as requested: the chrome trace to t.out
/// (enriched with `counters` and the `critical` chain when given, see
/// dtrace::Collector::write_chrome_trace), per-rank documents to t.merge.
/// False on I/O failure (*err set).
bool write_trace_outputs(const dtrace::Collector& c, const TraceOptions& t, std::string* err,
                         const telemetry::MetricsRegistry* counters = nullptr,
                         const telemetry::Analysis* critical = nullptr);

/// The drill's subcommands, as bits so a flag can list the ones taking it.
enum Sub : unsigned {
  kExplore = 1u << 0,    ///< what would this configuration cost?
  kPlan = 1u << 1,       ///< partition, placement and specialization report
  kVerify = 1u << 2,     ///< static verification of the compiled plans
  kCheck = 1u << 3,      ///< happens-before checked exchange
  kFault = 1u << 4,      ///< scripted mid-run faults and elastic recovery
  kTenant = 1u << 5,     ///< multi-tenant correctness drill
  kTelemetry = 1u << 6,  ///< telemetry pipeline and critical path
  kTrace = 1u << 7,      ///< causal trace and straggler monitor
  kWatch = 1u << 8,      ///< live congestion monitoring
  kExplain = 1u << 9,    ///< decision provenance and what-if
};

/// Everything any subcommand reads from the command line. defaults(sub)
/// fills the subcommand's own defaults; a flag the subcommand does not take
/// is rejected by parse(), so a field it does not read keeps its default.
struct Options {
  Sub sub = kExplore;
  const char* name = "explore";
  bool help = false;

  // Machine, shape and library configuration.
  std::string arch_name = "summit";
  topo::NodeArchetype arch = topo::summit();
  int nodes = 1;
  int rpn = 6;
  Dim3 domain{1363, 1363, 1363};
  int radius = 3;
  int quantities = 4;
  int iters = 3;
  std::string methods_name = "all";
  MethodFlags methods = MethodFlags::kAll;
  std::string placement_name = "aware";
  PlacementStrategy placement = PlacementStrategy::kNodeAware;
  Boundary boundary = Boundary::kPeriodic;
  PackMode pack = PackMode::kKernel;
  bool aggregate = false;
  bool persistent = false;

  // Outputs.
  bool csv = false;
  std::string json;     ///< --json FILE
  std::string metrics;  ///< --metrics FILE: Prometheus exposition
  bool report = false;  ///< --report [FILE]
  std::string report_path;
  TraceOptions trace;
  std::string expect;  ///< --expect [OUTCOME]; a bare --expect means clean

  // Faults and drills.
  std::string drill = "none";  ///< --drill none|peer|ipc|nic|cuda|all
  double fault_at = 1.0;       ///< seconds of virtual time
  std::uint64_t seed = 0;
  bool seed_race = false;
  bool gantt = false;  ///< --trace: print the recorded timeline
  bool recover = false;
  int kill_gpu = -1;
  int kill_node = -1;
  int cadence = 2;
  int straggler = -1;
  double factor = 1.0;
  double slack_us = 50.0;
  double rel_slack = 2.0;
  bool degrade = false;
  double tolerance = 0.15;
  bool check = false;
  sched::PlacePolicy policy = sched::PlacePolicy::kNodeAware;

  /// "drill <subcommand>", the prefix of the drill's messages.
  std::string tool() const { return std::string("drill ") + name; }
};

/// The defaults of one subcommand.
Options defaults(Sub sub);

/// Parses `args` = {subcommand, flags...}. Integers must be whole strings;
/// counts must be positive; --rpn must divide the GPUs per node; fault
/// targets must name a GPU or node of the cluster. False with *err naming
/// the flag on bad input; opt->help is set for --help.
bool parse(const std::vector<std::string>& args, Options* opt, std::string* err);

/// Usage of one subcommand (sub != 0) or the subcommand list (sub == 0).
void print_usage(unsigned sub);

}  // namespace stencil::cli
