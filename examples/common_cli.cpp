#include "common_cli.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

namespace stencil::cli {

bool parse_trace_flag(int argc, char** argv, int* i, TraceOptions* t, std::string* err) {
  const std::string a = argv[*i];
  if (a != "--trace-out" && a != "--trace-merge") return false;
  if (*i + 1 >= argc) {
    *err = "missing value for " + a;
    return true;
  }
  const std::string v = argv[++*i];
  (a == "--trace-out" ? t->out : t->merge) = v;
  return true;
}

bool write_trace_outputs(const dtrace::Collector& c, const TraceOptions& t, std::string* err,
                         const telemetry::MetricsRegistry* counters,
                         const telemetry::Analysis* critical) {
  if (!t.out.empty()) {
    std::ofstream f(t.out);
    if (!f) {
      *err = "cannot open " + t.out;
      return false;
    }
    c.write_chrome_trace(f, counters, critical);
  }
  if (!t.merge.empty()) {
    for (int r = -1; r <= c.max_rank(); ++r) {
      const std::string path =
          t.merge + (r < 0 ? std::string(".shared") : ".rank" + std::to_string(r)) + ".json";
      std::ofstream f(path);
      if (!f) {
        *err = "cannot open " + path;
        return false;
      }
      c.write_rank_json(f, r);
    }
  }
  return true;
}

namespace {

struct Subcommand {
  const char* name;
  Sub sub;
  const char* summary;
};

constexpr Subcommand kSubcommands[] = {
    {"explore", kExplore, "run one exchange configuration and report what it costs"},
    {"plan", kPlan, "report partition, placement and specialization decisions"},
    {"verify", kVerify, "statically verify every compiled exchange plan"},
    {"check", kCheck, "run a happens-before checked exchange"},
    {"fault", kFault, "fire scripted faults mid-run, or kill a GPU or node with --recover"},
    {"tenant", kTenant, "run three co-tenant jobs and check their halos against solo runs"},
    {"telemetry", kTelemetry, "telemetry tables and critical path across all methods"},
    {"trace", kTrace, "causal cross-rank trace and straggler monitor"},
    {"watch", kWatch, "live monitoring of a healthy or NIC-throttled run"},
    {"explain", kExplain, "decision provenance and what-if self-checks"},
};

constexpr unsigned kConfigTools = kExplore | kPlan | kVerify;
constexpr unsigned kShaped = kConfigTools | kCheck | kFault | kTelemetry | kTrace | kWatch;
constexpr unsigned kEverySub = (kExplain << 1) - 1;

// A setter stores a flag's value. It returns nullptr on success, else what
// the flag wants; "" means one of the values its placeholder lists.
using Setter = const char* (*)(Options&, const std::string&);

struct Flag {
  const char* name;
  const char* value;  ///< usage placeholder; nullptr: a switch; "[..]": optional
  unsigned subs;      ///< subcommands that take the flag
  Setter set;
  const char* help;
};

template <typename T>
bool whole(const std::string& v, T* out) {
  const char* end = v.data() + v.size();
  const auto [p, ec] = std::from_chars(v.data(), end, *out);
  return ec == std::errc() && p == end;
}

std::vector<std::string> split(const std::string& v) {
  std::vector<std::string> parts;
  for (std::size_t start = 0;;) {
    const std::size_t comma = v.find(',', start);
    parts.push_back(v.substr(start, comma - start));
    if (comma == std::string::npos) return parts;
    start = comma + 1;
  }
}

template <auto M>
const char* on(Options& o, const std::string&) {
  o.*M = true;
  return nullptr;
}

template <auto M>
const char* text(Options& o, const std::string& v) {
  o.*M = v;
  return nullptr;
}

template <auto M>
const char* count(Options& o, const std::string& v) {
  int n = 0;
  if (!whole(v, &n) || n < 1) return "a positive integer";
  o.*M = n;
  return nullptr;
}

template <auto M>
const char* id(Options& o, const std::string& v) {
  int n = 0;
  if (!whole(v, &n) || n < 0) return "a non-negative integer";
  o.*M = n;
  return nullptr;
}

template <auto M, bool kPositive = false>
const char* real(Options& o, const std::string& v) {
  double x = 0.0;
  if (!whole(v, &x) || !std::isfinite(x) || x < 0.0 || (kPositive && x == 0.0)) {
    return kPositive ? "a positive number" : "a non-negative number";
  }
  o.*M = x;
  return nullptr;
}

template <typename T, std::size_t N>
bool pick(const std::string& v, const std::pair<const char*, T> (&choices)[N], T* out) {
  for (const auto& [name, value] : choices) {
    if (v == name) {
      *out = value;
      return true;
    }
  }
  return false;
}

const char* set_arch(Options& o, const std::string& v) {
  static const std::pair<const char*, topo::NodeArchetype (*)()> k[] = {
      {"summit", [] { return topo::summit(); }},
      {"dgx", [] { return topo::dgx_like(); }},
      {"pcie", [] { return topo::pcie_box(); }},
  };
  topo::NodeArchetype (*make)() = nullptr;
  if (!pick(v, k, &make)) return "";
  o.arch = make();
  o.arch_name = v;
  return nullptr;
}

const char* set_domain(Options& o, const std::string& v) {
  std::vector<std::int64_t> e;
  for (const std::string& part : split(v)) {
    std::int64_t x = 0;
    if (!whole(part, &x) || x < 1) return "X or X,Y,Z with positive extents";
    e.push_back(x);
  }
  if (e.size() == 1) {
    o.domain = {e[0], e[0], e[0]};
  } else if (e.size() == 3) {
    o.domain = {e[0], e[1], e[2]};
  } else {
    return "X or X,Y,Z with positive extents";
  }
  return nullptr;
}

const char* set_methods(Options& o, const std::string& v) {
  static const std::pair<const char*, MethodFlags> k[] = {
      {"staged", MethodFlags::kStaged},       {"ca", MethodFlags::kCudaAwareMpi},
      {"colocated", MethodFlags::kColocated}, {"peer", MethodFlags::kPeer},
      {"kernel", MethodFlags::kKernel},       {"all", MethodFlags::kAll},
      {"allca", MethodFlags::kAllCudaAware},
  };
  MethodFlags set = MethodFlags::kNone;
  for (const std::string& part : split(v)) {
    MethodFlags m = MethodFlags::kNone;
    if (!pick(part, k, &m)) {
      return "a comma-separated list of staged|ca|colocated|peer|kernel|all|allca";
    }
    set = set | m;
  }
  o.methods = set;
  o.methods_name = v;
  return nullptr;
}

const char* set_placement(Options& o, const std::string& v) {
  static const std::pair<const char*, PlacementStrategy> k[] = {
      {"aware", PlacementStrategy::kNodeAware},
      {"measured", PlacementStrategy::kMeasured},
      {"trivial", PlacementStrategy::kTrivial},
      {"worst", PlacementStrategy::kWorst},
  };
  if (!pick(v, k, &o.placement)) return "";
  o.placement_name = v;
  return nullptr;
}

const char* set_boundary(Options& o, const std::string& v) {
  static const std::pair<const char*, Boundary> k[] = {{"periodic", Boundary::kPeriodic},
                                                       {"fixed", Boundary::kFixed}};
  return pick(v, k, &o.boundary) ? nullptr : "";
}

const char* set_pack(Options& o, const std::string& v) {
  static const std::pair<const char*, PackMode> k[] = {
      {"kernel", PackMode::kKernel}, {"3d", PackMode::kMemcpy3D}, {"auto", PackMode::kAuto}};
  return pick(v, k, &o.pack) ? nullptr : "";
}

const char* set_policy(Options& o, const std::string& v) {
  static const std::pair<const char*, sched::PlacePolicy> k[] = {
      {"packed", sched::PlacePolicy::kPacked},
      {"spread", sched::PlacePolicy::kSpread},
      {"aware", sched::PlacePolicy::kNodeAware},
  };
  return pick(v, k, &o.policy) ? nullptr : "";
}

const char* set_drill(Options& o, const std::string& v) {
  for (const char* d : {"none", "peer", "ipc", "nic", "cuda", "all"}) {
    if (v == d) {
      o.drill = v;
      return nullptr;
    }
  }
  return "";
}

const char* set_expect(Options& o, const std::string& v) {
  o.expect = v.empty() ? "clean" : v;
  if (o.expect == "clean" || (o.sub == kTrace && o.expect == "straggler") ||
      (o.sub == kWatch && o.expect == "congestion")) {
    return nullptr;
  }
  return o.sub == kTrace ? "clean or straggler" : o.sub == kWatch ? "clean or congestion" : "clean";
}

const char* set_seed(Options& o, const std::string& v) {
  return whole(v, &o.seed) ? nullptr : "a non-negative integer";
}

const char* set_trace_out(Options& o, const std::string& v) {
  o.trace.out = v;
  return nullptr;
}

const char* set_trace_merge(Options& o, const std::string& v) {
  o.trace.merge = v;
  return nullptr;
}

const char* set_report(Options& o, const std::string& v) {
  o.report = true;
  o.report_path = v;
  return nullptr;
}

constexpr Flag kFlags[] = {
    {"--help", nullptr, kEverySub, on<&Options::help>, "show this help"},
    {"--arch", "summit|dgx|pcie", kConfigTools | kTelemetry, set_arch, "node archetype"},
    {"--nodes", "N", kShaped, count<&Options::nodes>, "number of nodes"},
    {"--rpn", "N", kShaped, count<&Options::rpn>, "ranks per node; must divide the GPUs per node"},
    {"--domain", "X[,Y,Z]", kShaped, set_domain, "grid extents (X alone: a cube)"},
    {"--radius", "R", kShaped & ~kWatch, count<&Options::radius>, "halo width"},
    {"--quantities", "N", kConfigTools | kTelemetry | kTrace, count<&Options::quantities>,
     "float quantities per grid point"},
    {"--iters", "N", (kShaped & ~kTelemetry) | kTenant, count<&Options::iters>,
     "exchanges per phase"},
    {"--methods", "LIST", kConfigTools | kCheck, set_methods,
     "allowed methods, comma-separated: staged,ca,colocated,peer,kernel;\n"
     "all = staged,colocated,peer,kernel; allca = ca,colocated,peer,kernel"},
    {"--placement", "aware|measured|trivial|worst", kConfigTools, set_placement,
     "subdomain-to-GPU placement"},
    {"--boundary", "periodic|fixed", kConfigTools, set_boundary, "domain boundary"},
    {"--pack", "kernel|3d|auto", kConfigTools, set_pack, "how PEER transfers move halos"},
    {"--aggregate", nullptr, kConfigTools, on<&Options::aggregate>,
     "aggregate STAGED messages per node pair"},
    {"--persistent", nullptr, kConfigTools | kTrace, on<&Options::persistent>,
     "planned exchanges: compile once, replay"},
    {"--csv", nullptr, kConfigTools, on<&Options::csv>, "one CSV row instead of prose"},
    {"--json", "FILE", kVerify | kTelemetry | kWatch | kExplain, text<&Options::json>,
     "write the JSON document"},
    {"--metrics", "FILE", kTelemetry | kWatch, text<&Options::metrics>,
     "write the Prometheus exposition"},
    {"--trace-out", "FILE", kTelemetry | kTrace, set_trace_out,
     "merged chrome trace with cross-rank flow arrows"},
    {"--trace-merge", "PREFIX", kTelemetry | kTrace, set_trace_merge,
     "per-rank trace documents PREFIX.rankN.json"},
    {"--report", "[FILE]", kExplain, set_report, "decision log, to FILE or stdout"},
    {"--expect", "[OUTCOME]", kTrace | kWatch | kExplain, set_expect,
     "exit 1 unless OUTCOME is seen: clean (default),\n"
     "straggler (trace) or congestion (watch)"},
    {"--drill", "none|peer|ipc|nic|cuda|all", kCheck | kFault, set_drill,
     "capability faults fired at --fault-at"},
    {"--fault-at", "SECONDS", kCheck | kFault, real<&Options::fault_at>,
     "virtual time of the fault"},
    {"--seed", "N", kFault | kTenant, set_seed, "fault-plan or tenant-mix seed"},
    {"--seed-race", nullptr, kCheck, on<&Options::seed_race>,
     "plant a race the checker must catch"},
    {"--trace", nullptr, kFault, on<&Options::gantt>, "print the recorded timeline"},
    {"--recover", nullptr, kFault, on<&Options::recover>,
     "kill a GPU or node and recover (pcie box, one GPU per rank)"},
    {"--kill-gpu", "GPU", kFault, id<&Options::kill_gpu>, "GPU to kill at --fault-at"},
    {"--kill-node", "NODE", kFault, id<&Options::kill_node>, "node to kill at --fault-at"},
    {"--cadence", "K", kFault, count<&Options::cadence>, "checkpoint every K iterations"},
    {"--straggler", "GPU", kTrace, id<&Options::straggler>, "slow this GPU's kernels"},
    {"--factor", "F", kTrace | kWatch, real<&Options::factor, true>,
     "throughput of the slowed GPU or the throttled NIC"},
    {"--slack-us", "US", kTrace, real<&Options::slack_us>, "straggler monitor absolute slack"},
    {"--rel-slack", "X", kTrace, real<&Options::rel_slack, true>,
     "straggler monitor slack as a multiple of the median"},
    {"--degrade", nullptr, kWatch, on<&Options::degrade>, "throttle node 0's NIC in phase 2"},
    {"--tolerance", "F", kExplain, real<&Options::tolerance>, "what-if accuracy bound"},
    {"--policy", "packed|spread|aware", kTenant, set_policy, "tenant placement policy"},
    {"--check", nullptr, kTenant, on<&Options::check>, "attach the happens-before checker"},
};

void print_flag(const Flag& f) {
  const std::string lhs =
      std::string(f.name) + (f.value != nullptr ? std::string(" ") + f.value : "");
  std::string help = f.help;
  for (std::size_t nl = help.find('\n'); nl != std::string::npos; nl = help.find('\n', nl + 1)) {
    help.insert(nl + 1, 38, ' ');
  }
  std::printf("  %-35s %s\n", lhs.c_str(), help.c_str());
}

// Applies the flag at args[*i], consuming its value if it takes one.
bool take_flag(const Subcommand& sc, const std::vector<std::string>& args, std::size_t* i,
               Options* opt, std::string* err) {
  const std::string& a = args[*i];
  const Flag* f = nullptr;
  for (const Flag& c : kFlags) {
    if (a == c.name && (c.subs & sc.sub) != 0) f = &c;
  }
  if (f == nullptr) {
    *err = "unknown flag '" + a + "' (try drill " + sc.name + " --help)";
    return false;
  }
  std::string v;
  if (f->value != nullptr) {
    const bool optional = f->value[0] == '[';
    if (*i + 1 < args.size() && !(optional && args[*i + 1].rfind('-', 0) == 0)) {
      v = args[++*i];
    } else if (!optional) {
      *err = a + " needs a value";
      return false;
    }
  }
  if (const char* want = f->set(*opt, v)) {
    const std::string wanted = *want != '\0' ? want : "one of " + std::string(f->value);
    *err = a + " wants " + wanted + ", got '" + v + "'";
    return false;
  }
  return true;
}

// Cross-flag rules, checked once every flag is in.
bool validate(Options* o, std::string* err) {
  if (o->recover || o->kill_gpu >= 0 || o->kill_node >= 0) {
    if (o->kill_gpu < 0 && o->kill_node < 0) {
      *err = "--recover needs --kill-gpu or --kill-node";
      return false;
    }
    // One GPU per rank so a dead GPU means a dead rank: the shape the
    // recovery ladder shrinks around.
    o->recover = true;
    o->arch = topo::pcie_box(o->rpn);
  }
  const int gpn = o->arch.gpus_per_node();
  if (gpn % o->rpn != 0) {
    *err = "--rpn " + std::to_string(o->rpn) + " must divide the " + std::to_string(gpn) +
           " GPUs per node";
    return false;
  }
  const auto out_of_range = [&](const char* flag, int id, std::int64_t n, const char* what) {
    *err = std::string(flag) + " " + std::to_string(id) + " is out of range: the cluster has " +
           std::to_string(n) + " " + what;
    return false;
  };
  const std::int64_t gpus = std::int64_t{o->nodes} * gpn;
  if (o->kill_gpu >= gpus) return out_of_range("--kill-gpu", o->kill_gpu, gpus, "GPUs");
  if (o->straggler >= gpus) return out_of_range("--straggler", o->straggler, gpus, "GPUs");
  if (o->kill_node >= o->nodes) return out_of_range("--kill-node", o->kill_node, o->nodes, "nodes");
  if (!any(o->methods & (MethodFlags::kStaged | MethodFlags::kCudaAwareMpi))) {
    *err = "--methods needs staged or ca to reach other ranks";
    return false;
  }
  if (any(o->methods & MethodFlags::kCudaAwareMpi) && !o->arch.cuda_aware_mpi) {
    *err = "--methods ca needs an --arch with CUDA-aware MPI";
    return false;
  }
  if (o->sub == kWatch && o->nodes < 2) {
    *err = "--nodes must be at least 2: watch throttles a NIC between nodes";
    return false;
  }
  return true;
}

}  // namespace

void print_trace_usage() {
  for (const Flag& f : kFlags) {
    if (std::string(f.name).rfind("--trace-", 0) == 0) print_flag(f);
  }
}

Options defaults(Sub sub) {
  Options o;
  o.sub = sub;
  for (const Subcommand& s : kSubcommands) {
    if (s.sub == sub) o.name = s.name;
  }
  switch (sub) {
    case kExplore:
    case kPlan:
    case kVerify:
    case kExplain:
      break;  // the Options member defaults
    case kCheck:
      o.rpn = 2;
      o.domain = {48, 48, 48};
      o.radius = 1;
      o.quantities = 2;
      o.iters = 2;
      break;
    case kFault:
      o.rpn = 2;
      o.domain = {64, 64, 64};
      o.radius = 1;
      o.quantities = 2;
      o.iters = 2;
      o.drill = "all";
      o.seed = 0x5eed;
      break;
    case kTenant:
      o.nodes = 4;
      o.iters = 2;
      break;
    case kTelemetry:
      o.nodes = 2;
      o.rpn = 2;
      o.domain = {48, 48, 48};
      o.radius = 1;
      o.quantities = 2;
      break;
    case kTrace:
      // Summit sockets with one V100 each: a 2-GPU node keeps the timeline small.
      o.arch.gpus_per_socket = 1;
      o.nodes = 2;
      o.rpn = 2;
      o.domain = {48, 48, 48};
      o.radius = 1;
      o.quantities = 2;
      o.factor = 0.001;
      break;
    case kWatch:
      // 96^3 keeps the internode faces above the congestion detector's
      // min-bytes vote gate (small messages are latency-dominated and silent).
      o.nodes = 2;
      o.rpn = 2;
      o.domain = {96, 96, 96};
      o.radius = 1;
      o.quantities = 1;
      o.iters = 4;
      o.factor = 0.1;
      break;
  }
  return o;
}

bool parse(const std::vector<std::string>& args, Options* opt, std::string* err) {
  const Subcommand* sc = nullptr;
  for (const Subcommand& s : kSubcommands) {
    if (!args.empty() && args[0] == s.name) sc = &s;
  }
  if (sc == nullptr) {
    *err = args.empty() ? "missing subcommand" : "unknown subcommand '" + args[0] + "'";
    return false;
  }
  *opt = defaults(sc->sub);
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (!take_flag(*sc, args, &i, opt, err)) return false;
    if (opt->help) return true;
  }
  return validate(opt, err);
}

void print_usage(unsigned sub) {
  if (sub == 0) {
    std::printf("usage: drill <subcommand> [flags]  (drill <subcommand> --help lists its flags)\n");
    for (const Subcommand& s : kSubcommands) std::printf("  %-10s %s\n", s.name, s.summary);
    return;
  }
  for (const Subcommand& s : kSubcommands) {
    if (s.sub == sub) std::printf("usage: drill %s [flags]\n%s\n", s.name, s.summary);
  }
  for (const Flag& f : kFlags) {
    if ((f.subs & sub) != 0) print_flag(f);
  }
}

}  // namespace stencil::cli
