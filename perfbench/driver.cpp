// perfbench driver: runs one workload of the repository benchmark on the
// library's public API and prints its metrics.
//
//   perfbench_driver --workload weak64|planned32|observed-materialized
//                    --seed N --seconds S --trace 0|1
//                    [--trace-out FILE] [--state-dir DIR]
//
// Every metric is printed as "metric <name> = <value> <unit>"; the last line
// of stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// perfbench/README.md defines every workload and metric.
//
// The driver is one thread. Cluster::run starts one OS thread per rank, but
// the engine runs exactly one of them at a time and hands its token over
// under a mutex, so the records the rank bodies below share need no lock of
// their own. The two threads of ReferenceHandoff run only while their
// caller waits for them.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "check/checker.h"
#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "core/local_domain.h"
#include "core/region.h"
#include "dtrace/collector.h"
#include "dtrace/progress.h"
#include "explain/explain.h"
#include "simtime/engine.h"
#include "telemetry/critical_path.h"
#include "telemetry/telemetry.h"
#include "topo/archetype.h"
#include "watch/watch.h"

using namespace stencil;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Highest whole percentile p with at least ten samples above its
// nearest-rank value (the benchmark's tail rule). Returns {p, value};
// p = 0 when there are fewer than eleven samples.
std::pair<int, double> tail_percentile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::int64_t>(v.size());
  for (int p = 99; p >= 1; --p) {
    const auto rank = static_cast<std::int64_t>(std::ceil(p * static_cast<double>(n) / 100.0));
    if (rank >= 1 && n - rank >= 10) return {p, v[static_cast<std::size_t>(rank - 1)]};
  }
  return {0, v.empty() ? 0.0 : v.front()};
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Every timed loop runs at least this many exchanges; the §IV-A figure is
// taken over its first kExchangeMsIters, as exchange_explorer does, and
// counts over its first kCountWindow.
constexpr int kExchangeMsIters = 3;
constexpr int kCountWindow = 2;
constexpr int kMinIters = 3;

// ---------------------------------------------------------------------------
// Reference handoff: the host's speed at the work that dominates the
// program's wall time.
//
// On a shared host the wall time of identical exchanges wanders by up to
// half, over seconds and over whole runs, as neighbours load the machine.
// Thread handoffs through the kernel suffer most; a compute loop on the same
// CPU holds within 5%. So right after each timed exchange, and around each
// set-up, the driver times kRefHandoffs handoffs between two threads of its
// own, built like the engine's (one mutex, a condition variable and a token
// per thread), and scales the measured wall to a host on which one such
// handoff takes kRefHandoffUs. The reference shares no code with the
// library, so every change to the program still moves the scaled figures.

constexpr int kRefHandoffs = 1000;
constexpr double kRefHandoffUs = 2.0;

class ReferenceHandoff {
 public:
  ReferenceHandoff() {
    for (int i = 0; i < 2; ++i) threads_[i] = std::thread([this, i] { body(i); });
  }
  ~ReferenceHandoff() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
      token_[0] = token_[1] = true;
    }
    cv_[0].notify_one();
    cv_[1].notify_one();
    for (auto& t : threads_) t.join();
  }

  // Wall microseconds per handoff over kRefHandoffs handoffs.
  double measure_us() {
    const auto t0 = Clock::now();
    std::unique_lock<std::mutex> lk(mu_);
    left_ = kRefHandoffs;
    token_[0] = true;
    cv_[0].notify_one();
    done_.wait(lk, [&] { return left_ == 0; });
    return seconds_between(t0, Clock::now()) * 1e6 / kRefHandoffs;
  }

 private:
  void body(int i) {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_[i].wait(lk, [&] { return token_[i]; });
      token_[i] = false;
      if (stop_) return;
      if (--left_ == 0) {
        done_.notify_one();
        continue;
      }
      token_[1 - i] = true;
      cv_[1 - i].notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_[2], done_;
  bool token_[2] = {false, false};
  bool stop_ = false;
  int left_ = 0;
  std::thread threads_[2];
};

// Started on first use, by the driver thread, so its two threads inherit
// the driver's CPU and scheduling policy.
ReferenceHandoff& reference_handoff() {
  static ReferenceHandoff ref;
  return ref;
}

// `seconds` of wall scaled to the reference host.
double scaled(double seconds, double ref_us) { return seconds * kRefHandoffUs / ref_us; }

// ---------------------------------------------------------------------------
// Workloads and their seeded inputs.

struct Workload {
  std::string name;
  int nodes = 1;
  int rpn = 1;
  Dim3 domain;
  int radius = 1;
  int quantities = 1;
  bool persistent = false;
  bool materialized = false;
  bool observers = false;
  int iters_per_cluster = 0;  // > 0: fresh cluster after this many timed exchanges
  std::uint64_t field_seed = 0;  // halo reference field (materialized only)

  int ranks() const { return nodes * rpn; }
};

// Seed 0 gives the shapes in README.md. Any other seed moves each domain
// axis by a whole number of cells within 1% of its length and picks
// another reference field.
std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "weak64") {
    w.nodes = 64;
    w.rpn = 6;
    // §IV-D weak scaling: round(750 * cbrt(GPUs)) per axis, 384 GPUs.
    const auto e = static_cast<std::int64_t>(std::round(750.0 * std::cbrt(384.0)));
    w.domain = {e, e, e};
    w.radius = 3;
    w.quantities = 4;
  } else if (name == "planned32") {
    w.nodes = 32;
    w.rpn = 6;
    w.domain = {512, 512, 512};
    w.radius = 1;
    w.quantities = 1;
    w.persistent = true;
  } else if (name == "observed-materialized") {
    w.nodes = 2;
    w.rpn = 2;
    // check::Checker's vector clocks grow with every message a cluster
    // sends, so each cluster runs three timed exchanges on a domain a
    // quarter of 192x128x32 per axis; rank 0's transfer set is the same.
    w.domain = {48, 32, 8};
    w.radius = 2;
    w.quantities = 2;
    w.materialized = true;
    w.observers = true;
    w.iters_per_cluster = kMinIters;
  } else {
    return std::nullopt;
  }
  std::uint64_t s = splitmix(seed);
  if (seed != 0) {
    for (std::int64_t* axis : {&w.domain.x, &w.domain.y, &w.domain.z}) {
      const std::int64_t m = *axis / 100;
      s = splitmix(s);
      *axis += static_cast<std::int64_t>(s % static_cast<std::uint64_t>(2 * m + 1)) - m;
    }
  }
  w.field_seed = splitmix(s ^ 0x5EEDF1E1Dull);
  return w;
}

float ref_value(std::uint64_t seed, Dim3 g, std::size_t q) {
  const std::uint64_t key = static_cast<std::uint64_t>(g.x) |
                            (static_cast<std::uint64_t>(g.y) << 21) |
                            (static_cast<std::uint64_t>(g.z) << 42);
  const std::uint64_t h = splitmix(seed ^ splitmix(key + 0x100000000ull * q));
  return static_cast<float>(h >> 40) * (1.0f / 16777216.0f);  // exact, in [0, 1)
}

constexpr float kPoison = -1.0f;  // never a reference value

// Visit every halo cell (storage minus interior) of one subdomain.
template <typename F>
void for_each_halo_cell(const LocalDomain& ld, F&& f) {
  const Dim3 sz = ld.size();
  const Radius& r = ld.radius();
  for (std::int64_t z = -r.neg(2); z < sz.z + r.pos(2); ++z) {
    for (std::int64_t y = -r.neg(1); y < sz.y + r.pos(1); ++y) {
      const bool inner_row = z >= 0 && z < sz.z && y >= 0 && y < sz.y;
      for (std::int64_t x = -r.neg(0); x < sz.x + r.pos(0); ++x) {
        if (inner_row && x == 0) x = sz.x;  // skip the interior run of this row
        if (x >= sz.x + r.pos(0)) break;
        f(x, y, z);
      }
    }
  }
}

void fill_interior(DistributedDomain& dd, const Workload& w) {
  dd.for_each_subdomain([&](LocalDomain& ld) {
    const Dim3 o = ld.origin();
    for (std::size_t q = 0; q < ld.num_quantities(); ++q) {
      auto v = ld.view<float>(q);
      for (std::int64_t z = 0; z < ld.size().z; ++z)
        for (std::int64_t y = 0; y < ld.size().y; ++y)
          for (std::int64_t x = 0; x < ld.size().x; ++x)
            v(x, y, z) = ref_value(w.field_seed, {o.x + x, o.y + y, o.z + z}, q);
    }
  });
}

void poison_halos(DistributedDomain& dd) {
  dd.for_each_subdomain([&](LocalDomain& ld) {
    for (std::size_t q = 0; q < ld.num_quantities(); ++q) {
      auto v = ld.view<float>(q);
      for_each_halo_cell(ld, [&](std::int64_t x, std::int64_t y, std::int64_t z) {
        v(x, y, z) = kPoison;
      });
    }
  });
}

// Halo cells that differ bit for bit from the periodic reference.
std::int64_t halo_mismatches(DistributedDomain& dd, const Workload& w) {
  std::int64_t bad = 0;
  dd.for_each_subdomain([&](LocalDomain& ld) {
    const Dim3 o = ld.origin();
    for (std::size_t q = 0; q < ld.num_quantities(); ++q) {
      auto v = ld.view<float>(q);
      for_each_halo_cell(ld, [&](std::int64_t x, std::int64_t y, std::int64_t z) {
        const Dim3 g = Dim3{o.x + x, o.y + y, o.z + z}.wrap(w.domain);
        const float want = ref_value(w.field_seed, g, q);
        bad += std::memcmp(&v(x, y, z), &want, sizeof(float)) != 0;
      });
    }
  });
  return bad;
}

// ---------------------------------------------------------------------------
// Spans around the benchmark's calls into each layer, kept in memory and
// written as a chrome trace when the run ends.

struct SpanRec {
  const char* name;
  int rank;  // -1: the driver thread
  std::int64_t iter;
  double t0_us;
  double t1_us;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), origin_(Clock::now()) {}
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }
  void add(const char* name, int rank, std::int64_t iter, double t0_us, double t1_us) {
    if (on_) spans_.push_back({name, rank, iter, t0_us, t1_us});
  }
  std::size_t size() const { return spans_.size(); }

  bool write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f, "
                    "\"dur\": %.3f, \"args\": {\"iter\": %lld}}",
                    i == 0 ? "" : ",", s.name, s.rank + 1, s.t0_us, s.t1_us - s.t0_us,
                    static_cast<long long>(s.iter));
      os << buf;
    }
    os << "\n]}\n";
    return os.good();
  }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<SpanRec> spans_;
};

// Times `fn` as one driver-thread span.
template <typename F>
auto timed_span(SpanLog& log, const char* name, F&& fn) {
  const double t0 = log.now_us();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    log.add(name, -1, -1, t0, log.now_us());
  } else {
    auto r = fn();
    log.add(name, -1, -1, t0, log.now_us());
    return r;
  }
}

// ---------------------------------------------------------------------------
// One cluster: set up, timed loops, optional critical-path exchange.

struct ObserverSet {
  bool check = false;
  bool telemetry = false;
  bool dtrace = false;
  bool progress = false;
  bool watch = false;
  bool explain = false;
};

struct RunPlan {
  double loop_s = 0.0;     // wall budget of the timed loop
  int max_iters = 0;       // > 0: the loop runs exactly this many exchanges
  bool traced = false;     // spans and counter snapshots in the timed loop
  bool critical = false;   // one more exchange under a dtrace::Collector
  bool per_layer = false;  // cold placement and verify_plan calibration
  ObserverSet obs;
};

// Engine, substrate and observer counters, read when the first rank leaves
// the barrier in front of an exchange.
struct Snap {
  std::uint64_t events = 0, switches = 0, ops = 0, graphs = 0;
  std::uint64_t msgs_intra = 0, msgs_inter = 0, mpi_bytes = 0, retries = 0, vgpu_bytes = 0;
  std::uint64_t flight = 0, watch_msgs = 0;
};

struct IterRecord {
  bool go = false;
  bool started = false;
  Clock::time_point first_leave{};
  Clock::time_point last_done{};
  double barrier_wait_v = 0.0;  // virtual seconds, max over ranks
  Snap snap;
  std::uint64_t spans = 0, flows = 0;  // dtrace records over this iteration
  bool halo_bad = false;               // some rank's halos missed the reference
  int done = 0;                        // ranks returned from exchange_finish()
  double ref_us = 0.0;                 // reference handoff, right after the exchange
};

struct Loop {
  Clock::time_point deadline{};
  std::deque<IterRecord> iters;  // deque: references survive push_back

  // Wall per timed exchange, as measured, or scaled to the reference host.
  std::vector<double> wall_ms(bool scale) const {
    std::vector<double> out;
    for (const auto& it : iters) {
      if (!it.go || it.ref_us <= 0.0) continue;
      const double s = seconds_between(it.first_leave, it.last_done);
      out.push_back((scale ? scaled(s, it.ref_us) : s) * 1e3);
    }
    return out;
  }
  int count() const {
    int n = 0;
    for (const auto& it : iters) n += it.go ? 1 : 0;
    return n;
  }
};

// Job-wide wall window: opened by the first rank to leave a barrier,
// closed by the last rank to return.
struct Window {
  bool opened = false;
  Clock::time_point begin{}, end{};
  void open() {
    if (!opened) {
      opened = true;
      begin = Clock::now();
    }
  }
  void close() { end = std::max(end, Clock::now()); }
  double seconds() const { return seconds_between(begin, end); }
};

struct RunResult {
  double setup_s = 0.0;       // as measured
  double setup_ref_us = 0.0;  // reference handoff around the set-up
  double placement_ms = 0.0;
  Window realize, warmup;
  Loop loop;
  double exchange_ms = 0.0;
  double issue_virtual_ms = 0.0;
  double finish_virtual_ms = 0.0;
  double barrier_wait_virtual_ms = 0.0;
  std::map<Method, std::pair<int, std::size_t>> rank0_methods;
  Dim3 rank0_subdomain;
  plan::PlanStats plan_sum;
  std::uint64_t buffers_steady = 0;
  std::uint64_t max_run_queue_depth = 0;
  double verify_plan_ms = 0.0;
  bool verify_clean = true;
  std::int64_t halo_bad = 0;
  std::uint64_t failed_exchanges = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t check_findings = 0;
  std::uint64_t explain_records = 0;
  std::optional<telemetry::Analysis> analysis;
  std::string error;
};

Snap snapshot(Cluster& c, const watch::Watch* w) {
  Snap s;
  s.events = c.engine().events_processed();
  s.switches = c.engine().context_switches();
  s.ops = c.runtime().ops_issued();
  s.graphs = c.runtime().graphs_launched();
  if (const telemetry::Telemetry* t = c.telemetry(); t != nullptr) {
    const auto& m = t->metrics();
    s.msgs_intra = m.counter_value("mpi_messages_intra_node_total");
    s.msgs_inter = m.counter_value("mpi_messages_inter_node_total");
    s.mpi_bytes = m.counter_value("mpi_bytes_total");
    s.retries = m.counter_value("mpi_retries_total");
    s.vgpu_bytes = m.counter_value("vgpu_bytes_total");
    s.flight = t->flight().total_logged();
  }
  if (w != nullptr) s.watch_msgs = w->messages();
  return s;
}

RunResult run_workload(const Workload& w, const RunPlan& plan, SpanLog& log) {
  RunResult res;
  const int ranks = w.ranks();

  const double ref_before = reference_handoff().measure_us();
  const auto t_construct = Clock::now();
  const double span_t0 = log.now_us();
  Cluster cluster(topo::summit(), w.nodes, w.rpn);
  cluster.set_mem_mode(w.materialized ? vgpu::MemMode::kMaterialized : vgpu::MemMode::kPhantom);
  log.add("Cluster()", -1, -1, span_t0, log.now_us());

  // Observers, attached in the order Cluster's cross-wiring expects.
  std::unique_ptr<check::Checker> checker;
  telemetry::Telemetry tel;
  dtrace::Collector collector;
  dtrace::ProgressMonitor monitor;
  watch::Watch watch;
  explain::Ledger ledger;
  const ObserverSet& o = plan.obs;
  if (o.telemetry) cluster.set_telemetry(&tel);
  if (o.check) {
    checker = std::make_unique<check::Checker>(cluster.engine());
    cluster.set_checker(checker.get());
  }
  if (o.dtrace) cluster.set_collector(&collector);
  if (o.watch) cluster.set_watch(&watch);
  if (o.progress) cluster.set_progress_monitor(&monitor);
  if (o.explain) cluster.set_explain(&ledger);
  telemetry::Telemetry trace_tel;  // counters for the traced loop

  if (plan.per_layer) {
    // Cold placement, made before realize(); realize() then hits the cache.
    const auto p0 = Clock::now();
    timed_span(log, "Cluster::placement_cached", [&] {
      return cluster.placement_cached(w.domain, Radius(w.radius),
                                      static_cast<std::size_t>(w.quantities) * sizeof(float),
                                      Neighborhood::kFull, PlacementStrategy::kNodeAware);
    });
    res.placement_ms = seconds_between(p0, Clock::now()) * 1e3;
  }

  std::vector<double> v_exch(static_cast<std::size_t>(ranks), 0.0);
  std::vector<double> v_issue(static_cast<std::size_t>(ranks), 0.0);
  std::vector<double> v_finish(static_cast<std::size_t>(ranks), 0.0);
  std::vector<plan::PlanStats> plan_at_window(static_cast<std::size_t>(ranks));
  std::vector<double> verify_samples;
  Clock::time_point setup_done{};
  bool warm_failed = false;

  // Rank 0 decides, before entering the barrier, whether exchange k runs;
  // every rank reads the decision after the barrier.
  auto decide = [&](Loop& L, int k) {
    if (k == 0) L.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                std::chrono::duration<double>(plan.loop_s));
    L.iters.emplace_back();
    IterRecord& it = L.iters.back();
    it.go = plan.max_iters > 0 ? k < plan.max_iters
                               : k < kMinIters || Clock::now() < L.deadline;
    if (o.dtrace) {
      // Bound the collector's memory: it keeps one iteration of records.
      if (k > 0) {
        L.iters[static_cast<std::size_t>(k - 1)].spans = collector.records().size();
        L.iters[static_cast<std::size_t>(k - 1)].flows = collector.flows().size();
      }
      collector.clear();
    }
    if (checker) checker->clear_hb_edges();
  };

  try {
    cluster.run([&](RankCtx& ctx) {
      const int r = ctx.rank();
      const auto ur = static_cast<std::size_t>(r);
      DistributedDomain dd(ctx, w.domain);
      dd.set_radius(w.radius);
      for (int q = 0; q < w.quantities; ++q) dd.add_data<float>("q" + std::to_string(q));
      dd.set_methods(MethodFlags::kAll);
      dd.set_persistent(w.persistent);

      ctx.comm.barrier();
      res.realize.open();
      double s0 = log.now_us();
      dd.realize();
      log.add("realize", r, -1, s0, log.now_us());
      res.realize.close();
      if (r == 0) {
        res.rank0_methods = dd.method_bytes_histogram();
        res.rank0_subdomain = dd.subdomain(0).size();
      }
      if (w.materialized) {
        fill_interior(dd, w);
        poison_halos(dd);
      }

      ctx.comm.barrier();
      res.warmup.open();
      s0 = log.now_us();
      dd.exchange();  // untimed first exchange: plan compile + admission when persistent
      log.add("warmup exchange", r, -1, s0, log.now_us());
      res.warmup.close();
      setup_done = std::max(setup_done, Clock::now());
      if (w.materialized) {
        ctx.comm.barrier();
        const std::int64_t bad = halo_mismatches(dd, w);
        res.halo_bad += bad;
        warm_failed = warm_failed || bad != 0;
      }

      if (r == 0 && plan.per_layer && !dd.plan_cache().entries().empty()) {
        const plan::CompiledPlan& p = *dd.plan_cache().entries().front();
        for (int rep = 0; rep < 3; ++rep) {
          const auto t0 = Clock::now();
          s0 = log.now_us();
          const verify::Report rep_v = dd.verify_plan(p);
          log.add("DistributedDomain::verify_plan", r, rep, s0, log.now_us());
          verify_samples.push_back(seconds_between(t0, Clock::now()) * 1e3);
          res.verify_clean = res.verify_clean && rep_v.clean();
        }
      }

      const std::uint64_t buffers0 = ctx.rt.buffers_allocated();
      Loop& L = res.loop;
      for (int k = 0;; ++k) {
        const auto uk = static_cast<std::size_t>(k);
        if (w.materialized) poison_halos(dd);
        if (r == 0) {
          if (plan.traced && k == 0 && cluster.telemetry() == nullptr) {
            cluster.set_telemetry(&trace_tel);
          }
          decide(L, k);
        }
        const double v_arrive = ctx.comm.wtime();
        const double b0 = log.now_us();
        ctx.comm.barrier();
        IterRecord& it = L.iters[uk];
        if (!it.go) break;
        if (!it.started) {
          it.started = true;
          it.first_leave = Clock::now();
          if (plan.traced) it.snap = snapshot(cluster, o.watch ? &watch : nullptr);
        }
        const double v0 = ctx.comm.wtime();
        it.barrier_wait_v = std::max(it.barrier_wait_v, v0 - v_arrive);
        const double e0 = log.now_us();
        dd.exchange_start();
        const double v1 = ctx.comm.wtime();
        const double e1 = log.now_us();
        dd.exchange_finish();
        const double v2 = ctx.comm.wtime();
        it.last_done = std::max(it.last_done, Clock::now());
        if (plan.traced) {
          const double e2 = log.now_us();
          log.add("barrier", r, k, b0, e0);
          log.add("exchange_start", r, k, e0, e1);
          log.add("exchange_finish", r, k, e1, e2);
        }
        if (++it.done == ranks) it.ref_us = reference_handoff().measure_us();
        if (k == kCountWindow - 1) plan_at_window[ur] = dd.plan_stats();
        if (k < kExchangeMsIters) {
          v_exch[ur] += v2 - v0;
          v_issue[ur] += v1 - v0;
          v_finish[ur] += v2 - v1;
        }
        if (w.materialized) {
          ctx.comm.barrier();
          const std::int64_t bad = halo_mismatches(dd, w);
          res.halo_bad += bad;
          it.halo_bad = it.halo_bad || bad != 0;
        }
      }
      if (r == 0) res.buffers_steady = ctx.rt.buffers_allocated() - buffers0;

      if (plan.critical) {
        // The slowest rank's last exchange, recorded by a causal collector.
        if (r == 0) {
          collector.clear();
          if (!o.dtrace) cluster.set_collector(&collector);
        }
        ctx.comm.barrier();
        const double c0 = log.now_us();
        dd.exchange();
        log.add("exchange (collector attached)", r, -1, c0, log.now_us());
        ctx.comm.barrier();
        if (r == 0 && !o.dtrace) cluster.set_recorder(nullptr);
      }
    });
  } catch (const std::exception& e) {
    res.error = e.what();
  }
  res.setup_s = seconds_between(t_construct, setup_done);
  res.setup_ref_us = res.loop.iters.empty() || res.loop.iters[0].ref_us <= 0.0
                         ? ref_before
                         : 0.5 * (ref_before + res.loop.iters[0].ref_us);
  res.exchanges = static_cast<std::uint64_t>(1 + res.loop.count() + (plan.critical ? 1 : 0));
  res.failed_exchanges = warm_failed ? 1 : 0;
  for (const IterRecord& it : res.loop.iters) res.failed_exchanges += it.halo_bad ? 1 : 0;
  if (!res.error.empty()) ++res.failed_exchanges;

  auto max_mean_ms = [](const std::vector<double>& v) {
    return *std::max_element(v.begin(), v.end()) / kExchangeMsIters * 1e3;
  };
  res.exchange_ms = max_mean_ms(v_exch);
  res.issue_virtual_ms = max_mean_ms(v_issue);
  res.finish_virtual_ms = max_mean_ms(v_finish);
  double bw = 0.0;
  for (int k = 0; k < kExchangeMsIters && k < static_cast<int>(res.loop.iters.size()); ++k) {
    bw += res.loop.iters[static_cast<std::size_t>(k)].barrier_wait_v;
  }
  res.barrier_wait_virtual_ms = bw / kExchangeMsIters * 1e3;
  for (const auto& ps : plan_at_window) {
    res.plan_sum.compiles += ps.compiles;
    res.plan_sum.hits += ps.hits;
    res.plan_sum.replays += ps.replays;
    res.plan_sum.verifications += ps.verifications;
  }
  res.max_run_queue_depth = cluster.engine().max_run_queue_depth();
  res.verify_plan_ms = median(verify_samples);
  if (checker) res.check_findings = checker->report().findings().size();
  res.explain_records = ledger.total_recorded();
  if (o.progress) monitor.finish(cluster.engine().now());
  if (plan.critical && res.error.empty()) {
    telemetry::CriticalPath cp(collector.records());
    cp.add_flow_edges(collector.flows());
    res.analysis = timed_span(log, "CriticalPath::analyze", [&] { return cp.analyze(); });
  }
  return res;
}

// ---------------------------------------------------------------------------
// Critical-path phases.

enum Phase { kHostIssue, kPack, kD2H, kWireIntra, kWireInter, kH2D, kUnpack, kWait, kPhases };
constexpr const char* kPhaseNames[kPhases] = {"host_issue", "pack",  "d2h",    "wire_intra",
                                               "wire_inter", "h2d", "unpack", "wait"};

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// Lane spellings come from the recorders: "rankN.cpu"/"rankN.mpi" (host),
// "gpuG.kernel|d2h|h2d" (device), "gpuA->gpuB" (peer/IPC copies, on-node)
// and "mpi.rS->rD" (a message's wire span).
Phase classify(const telemetry::Hop& h, int rpn) {
  const std::string& lane = h.lane;
  int src = 0, dst = 0;
  if (std::sscanf(lane.c_str(), "mpi.r%d->r%d", &src, &dst) == 2) {
    return src / rpn == dst / rpn ? kWireIntra : kWireInter;
  }
  if (lane.rfind("gpu", 0) == 0) {
    if (lane.find("->") != std::string::npos) return kWireIntra;
    if (ends_with(lane, ".d2h")) return kD2H;
    if (ends_with(lane, ".h2d")) return kH2D;
    if (h.label.rfind("unpack", 0) == 0) return kUnpack;
    return kPack;  // pack, self-exchange and same-device copies
  }
  return kHostIssue;
}

// Splits [t0, t1] along the chain: busy time of each hop to its phase, gaps
// to kWait. The parts sum to the makespan by construction; the caller
// checks it anyway, which catches a chain that leaves the window.
std::vector<sim::Duration> phases_of(const telemetry::Analysis& an, int rpn) {
  std::vector<sim::Duration> out(kPhases, 0);
  sim::Time cursor = an.t0;
  for (const auto& h : an.chain) {
    if (h.start > cursor) out[kWait] += h.start - cursor;
    const sim::Time b = std::max(h.start, cursor);
    if (h.end > b) out[classify(h, rpn)] += h.end - b;
    cursor = std::max(cursor, h.end);
  }
  if (an.t1 > cursor) out[kWait] += an.t1 - cursor;
  return out;
}

// ---------------------------------------------------------------------------
// Outside-in calibrations.

// Wall time per engine handoff: `actors` actors that only yield.
double calibrate_handoff_us(int actors, SpanLog& log) {
  const int yields = std::max(20, 60000 / actors);
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    sim::Engine eng;
    std::vector<std::function<void()>> bodies;
    for (int a = 0; a < actors; ++a) {
      bodies.emplace_back([&eng, yields] {
        for (int i = 0; i < yields; ++i) eng.yield();
      });
    }
    const auto t0 = Clock::now();
    timed_span(log, "Engine::run", [&] { eng.run(std::move(bodies)); });
    const double us = seconds_between(t0, Clock::now()) * 1e6;
    samples.push_back(us / static_cast<double>(std::max<std::uint64_t>(1, eng.context_switches())));
  }
  return median(samples);
}

// LocalDomain::pack_region on the +z face slab of rank 0's first subdomain.
// The domain is 2r deep in z, so the slab has the full subdomain's row and
// plane strides without allocating the whole subdomain.
double calibrate_pack_gbps(const Workload& w, Dim3 sz, std::size_t* slab_bytes, SpanLog& log) {
  sim::Engine eng;
  topo::Machine machine(topo::summit(), 1);
  vgpu::Runtime rt(eng, machine);
  rt.set_mem_mode(vgpu::MemMode::kMaterialized);
  std::vector<Quantity> qs;
  for (int q = 0; q < w.quantities; ++q) qs.push_back({"q" + std::to_string(q), sizeof(float)});
  const Dim3 thin{sz.x, sz.y, 2 * static_cast<std::int64_t>(w.radius)};
  LocalDomain ld(rt, 0, {0, 0, 0}, {0, 0, 0}, thin, Radius(w.radius), qs);
  for (std::size_t q = 0; q < qs.size(); ++q) {
    std::memset(ld.data(q).data(), 1, ld.data(q).size());
  }
  const Region3 slab = interior_slab(thin, {0, 0, 1}, Radius(w.radius));
  *slab_bytes = ld.region_bytes(slab);
  vgpu::Buffer dst = rt.alloc_device(0, *slab_bytes);
  // Each sample packs the slab `batch` times, about 1 MiB of payload.
  const std::size_t batch =
      std::max<std::size_t>(1, (1u << 20) / std::max<std::size_t>(1, *slab_bytes));
  std::vector<double> samples;
  const auto stop = Clock::now() + std::chrono::milliseconds(300);
  while (samples.size() < 5 || Clock::now() < stop) {
    const auto t0 = Clock::now();
    timed_span(log, "LocalDomain::pack_region", [&] {
      for (std::size_t i = 0; i < batch; ++i) ld.pack_region(dst, slab);
    });
    samples.push_back(static_cast<double>(*slab_bytes * batch) /
                      seconds_between(t0, Clock::now()) / 1e9);
  }
  return median(samples);
}

std::size_t llc_bytes() {
  long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return static_cast<std::size_t>(v);
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (f >> s && !s.empty()) {
    std::size_t n = std::strtoull(s.c_str(), nullptr, 10);
    if (s.back() == 'K') n <<= 10;
    if (s.back() == 'M') n <<= 20;
    return n;
  }
  return 32u << 20;
}

// Copy bandwidth (bytes read + bytes written per second) of arrays at
// least four times the last-level cache.
double calibrate_stream_gbps(std::size_t* array_bytes, SpanLog& log) {
  *array_bytes = std::max<std::size_t>(4 * llc_bytes(), 64u << 20);
  std::vector<char> src(*array_bytes, 1), dst(*array_bytes, 0);
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    src[static_cast<std::size_t>(rep)] = static_cast<char>(rep);
    const auto t0 = Clock::now();
    timed_span(log, "memcpy", [&] { std::memcpy(dst.data(), src.data(), *array_bytes); });
    samples.push_back(2.0 * static_cast<double>(*array_bytes) / seconds_between(t0, Clock::now()) /
                      1e9);
  }
  if (dst[3] != src[3]) return 0.0;
  return median(samples);
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

class MetricReport {
 public:
  void add(std::string name, double value, std::string unit, std::string note = {}) {
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  void print_lines() const {
    for (const auto& m : metrics_) {
      std::printf("metric %-36s = %.17g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.note.empty() ? "" : "  # ", m.note.c_str());
    }
  }
  void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
  }
  // Name=value lines of the deterministic metrics (for the repeat check).
  std::string deterministic(const std::vector<std::string>& names) const {
    std::ostringstream os;
    for (const auto& m : metrics_) {
      if (std::find(names.begin(), names.end(), m.name) == names.end()) continue;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      os << m.name << "=" << buf << "\n";
    }
    return os.str();
  }

 private:
  std::vector<Metric> metrics_;
};

// Every deterministic figure must repeat exactly across runs of one
// binary: the first run of a (binary, workload, seed, mode) stores them,
// later runs compare. Returns false on a mismatch.
bool repeat_check(const std::string& exe, const std::string& dir, const std::string& key,
                  const std::string& values) {
  if (dir.empty()) return true;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const auto size = std::filesystem::file_size(exe, ec);
  std::string stamp = "unknown";
  if (!ec) {
    const auto mtime = std::filesystem::last_write_time(exe, ec).time_since_epoch().count();
    stamp = std::to_string(size) + "-" + std::to_string(mtime);
  }
  const std::string path = dir + "/repeat-" + key + ".txt";
  const std::string body = "binary=" + stamp + "\n" + values;
  std::ifstream in(path);
  if (in) {
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string prev = ss.str();
    if (prev.rfind("binary=" + stamp + "\n", 0) == 0) {
      if (prev != body) {
        std::fprintf(stderr, "perfbench: deterministic figures differ from %s\n", path.c_str());
        return false;
      }
      return true;
    }
  }
  std::ofstream out(path);
  out << body;
  return true;
}

struct Args {
  std::string exe;  // argv[0], whose size and time stamp key the repeat check
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  std::string state_dir;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", f.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (f == "--workload") a->workload = v;
    else if (f == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (f == "--seconds") a->seconds = std::atof(v);
    else if (f == "--trace") a->trace = std::atoi(v);
    else if (f == "--trace-out") a->trace_out = v;
    else if (f == "--state-dir") a->state_dir = v;
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", f.c_str());
      return false;
    }
  }
  return a->seconds > 0.0 && (a->trace == 0 || a->trace == 1);
}

std::string method_note(const std::map<Method, std::pair<int, std::size_t>>& h) {
  std::string s = "rank 0:";
  for (const auto& [m, cb] : h) {
    s += std::string(" ") + to_string(m) + " x" + std::to_string(cb.first);
  }
  return s;
}

// Runs and failures over every cluster a run sets up.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t findings = 0;
  bool correct = true;

  void add(const RunResult& r) {
    findings += r.check_findings;
    if (!r.error.empty()) std::fprintf(stderr, "perfbench: %s\n", r.error.c_str());
    attempted += r.exchanges;
    failed += r.failed_exchanges;
    correct = correct && r.error.empty() && r.halo_bad == 0 && r.check_findings == 0 &&
              r.verify_clean;
  }
};

// Fresh clusters, one after another: three sharing `budget_s`, or, for a
// workload bounded to `iters_per_cluster` exchanges per cluster, as many
// as the budget allows (at least three).
std::vector<RunResult> run_clusters(const Workload& w, RunPlan plan, double budget_s,
                                    SpanLog& log, Tally& tally) {
  std::vector<RunResult> out;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(budget_s));
  plan.loop_s = budget_s / 3;
  plan.max_iters = w.iters_per_cluster;
  while (out.size() < 3 || (w.iters_per_cluster > 0 && Clock::now() < deadline)) {
    out.push_back(run_workload(w, plan, log));
    tally.add(out.back());
  }
  return out;
}

ObserverSet all_observers(const Workload& w) {
  return w.observers ? ObserverSet{true, true, true, true, true, true} : ObserverSet{};
}

// End-to-end run: fresh clusters in turn, each set up, warmed and timed.
int run_end_to_end(const Workload& w, const Args& a) {
  SpanLog log(false);
  Tally tally;
  RunPlan plan;
  plan.obs = all_observers(w);
  const std::vector<RunResult> runs = run_clusters(w, plan, a.seconds, log, tally);
  std::vector<double> setups, setups_raw, walls, walls_raw, refs;
  for (const RunResult& r : runs) {
    setups.push_back(scaled(r.setup_s, r.setup_ref_us));
    setups_raw.push_back(r.setup_s);
    const auto wm = r.loop.wall_ms(true), wm_raw = r.loop.wall_ms(false);
    walls.insert(walls.end(), wm.begin(), wm.end());
    walls_raw.insert(walls_raw.end(), wm_raw.begin(), wm_raw.end());
    for (const IterRecord& it : r.loop.iters) {
      if (it.ref_us > 0.0) refs.push_back(it.ref_us);
    }
    // The §IV-A figure and the transfer set are deterministic: every fresh
    // cluster must agree with the first.
    tally.correct = tally.correct && r.exchange_ms == runs.front().exchange_ms &&
                    r.rank0_methods == runs.front().rank0_methods;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const auto [tail_p, tail_v] = tail_percentile(walls);
  const auto [raw_tail_p, raw_tail_v] = tail_percentile(walls_raw);
  const std::string n_x = std::to_string(walls.size()) + " exchanges";

  std::printf("workload %s seed %llu: %dn x %dr (%d ranks), domain %s, radius %d, %d quantities,"
              " %s\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed), w.nodes, w.rpn, w.ranks(),
              w.domain.str().c_str(), w.radius, w.quantities,
              method_note(runs.front().rank0_methods).c_str());
  MetricReport rep;
  rep.add("exchange_ms", runs.front().exchange_ms, "ms_virtual",
          "max over ranks of the mean over 3 exchanges");
  rep.add("wall_ms_per_exchange", median(walls), "ms", "scaled, median of " + n_x);
  rep.add("wall_ms_per_exchange_tail", tail_v, "ms",
          "scaled, p" + std::to_string(tail_p) + " of " + n_x);
  rep.add("setup_s", median(setups), "s",
          "scaled, median of " + std::to_string(setups.size()) + " setups");
  rep.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
  rep.print_lines();
  // Shown beside the scaled figures, not reported.
  std::printf("metric %-36s = %.17g us  # median of %zu; scale = %g us / this\n",
              "reference_handoff_us", median(refs), refs.size(), kRefHandoffUs);
  std::printf("metric %-36s = %.17g ms  # as measured, median of %s\n",
              "wall_ms_per_exchange_measured", median(walls_raw), n_x.c_str());
  std::printf("metric %-36s = %.17g ms  # as measured, p%d of %s\n",
              "wall_ms_per_exchange_tail_measured", raw_tail_v, raw_tail_p, n_x.c_str());
  std::printf("metric %-36s = %.17g s  # as measured, median of %zu setups\n",
              "setup_s_measured", median(setups_raw), setups_raw.size());
  std::printf("metric %-36s = %.17g failed/attempted  # %llu of %llu exchanges\n", "failure_rate",
              static_cast<double>(tally.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, tally.attempted)),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  const std::string key = w.name + "-seed" + std::to_string(a.seed) + "-e2e";
  bool correct = repeat_check(a.exe, a.state_dir, key, rep.deterministic({"exchange_ms"})) &&
                 tally.correct && tally.failed == 0;
  rep.print_json(correct, tally.attempted, tally.failed);
  return correct ? 0 : 1;
}

Snap window_delta(const Loop& L) {
  Snap d;
  if (L.iters.size() <= static_cast<std::size_t>(kCountWindow)) return d;
  const Snap& s0 = L.iters[0].snap;
  const Snap& s1 = L.iters[kCountWindow].snap;
  d.events = s1.events - s0.events;
  d.switches = s1.switches - s0.switches;
  d.ops = s1.ops - s0.ops;
  d.graphs = s1.graphs - s0.graphs;
  d.msgs_intra = s1.msgs_intra - s0.msgs_intra;
  d.msgs_inter = s1.msgs_inter - s0.msgs_inter;
  d.mpi_bytes = s1.mpi_bytes - s0.mpi_bytes;
  d.retries = s1.retries - s0.retries;
  d.vgpu_bytes = s1.vgpu_bytes - s0.vgpu_bytes;
  d.flight = s1.flight - s0.flight;
  d.watch_msgs = s1.watch_msgs - s0.watch_msgs;
  return d;
}

// Traced run: an untraced cluster (set-up probes, the §IV-A figure), a
// traced cluster (spans, counters, the critical-path exchange), more of
// both for a bounded workload, calibrations and, for the observed
// workload, leave-one-out clusters per observer.
int run_per_layer(const Workload& w, const Args& a) {
  SpanLog log(true);
  Tally tally;
  const bool bounded = w.iters_per_cluster > 0;

  RunPlan up;
  up.loop_s = a.seconds / 2;
  up.max_iters = w.iters_per_cluster;
  up.per_layer = true;
  up.obs = all_observers(w);
  RunPlan tp = up;
  tp.per_layer = false;
  tp.traced = true;
  tp.critical = true;
  const auto t_start = Clock::now();
  const RunResult r = run_workload(w, up, log);
  tally.add(r);
  const RunResult rt = run_workload(w, tp, log);
  tally.add(rt);
  std::vector<double> walls_u = r.loop.wall_ms(true), walls_t = rt.loop.wall_ms(true);
  std::vector<double> walls_u_raw = r.loop.wall_ms(false);
  up.per_layer = false;
  tp.critical = false;
  while (bounded && seconds_between(t_start, Clock::now()) < a.seconds) {
    for (const RunPlan* p : {&up, &tp}) {
      const RunResult more = run_workload(w, *p, log);
      tally.add(more);
      const auto wm = more.loop.wall_ms(true);
      auto& dst = p->traced ? walls_t : walls_u;
      dst.insert(dst.end(), wm.begin(), wm.end());
      if (!p->traced) {
        const auto raw = more.loop.wall_ms(false);
        walls_u_raw.insert(walls_u_raw.end(), raw.begin(), raw.end());
      }
    }
  }

  const double handoff_us = calibrate_handoff_us(w.ranks(), log);
  std::size_t slab_bytes = 0, array_bytes = 0;
  const double pack_gbps = calibrate_pack_gbps(w, r.rank0_subdomain, &slab_bytes, log);
  const double stream_gbps = calibrate_stream_gbps(&array_bytes, log);

  const double wall_u = median(walls_u);
  const double wall_t = median(walls_t);
  const double wall_u_raw = median(walls_u_raw);
  const Snap d = window_delta(rt.loop);
  const auto per_x = [](std::uint64_t v) { return static_cast<double>(v) / kCountWindow; };

  // Leave-one-out observer overheads. Each round runs one cluster with
  // every observer and one without each observer, back to back; the
  // overhead is the median over rounds of the per-round difference, so
  // slow drift in machine speed cancels.
  std::vector<std::string> obs_names = {"check", "telemetry", "dtrace", "dtrace.progress", "watch",
                                        "explain"};
  std::vector<double> overhead(obs_names.size(), 0.0);
  if (w.observers) {
    std::vector<std::vector<double>> deltas(obs_names.size());
    const auto loo_start = Clock::now();
    for (int round = 0; round < 3 || seconds_between(loo_start, Clock::now()) < a.seconds;
         ++round) {
      double all = 0.0;
      for (std::size_t c = 0; c <= obs_names.size(); ++c) {
        RunPlan p;
        p.max_iters = w.iters_per_cluster;
        p.obs = all_observers(w);
        bool* drop[] = {&p.obs.check, &p.obs.telemetry, &p.obs.dtrace, &p.obs.progress,
                        &p.obs.watch, &p.obs.explain};
        if (c > 0) *drop[c - 1] = false;
        SpanLog quiet(false);
        const RunResult lr = run_workload(w, p, quiet);
        tally.add(lr);
        const double m = median(lr.loop.wall_ms(true));
        if (c == 0) all = m;
        else deltas[c - 1].push_back(all - m);
      }
    }
    for (std::size_t i = 0; i < obs_names.size(); ++i) overhead[i] = median(deltas[i]);
  }

  std::vector<sim::Duration> ph(kPhases, 0);
  double overlap = 0.0, makespan_ms = 0.0;
  if (rt.analysis) {
    ph = phases_of(*rt.analysis, w.rpn);
    sim::Duration sum = 0;
    for (auto v : ph) sum += v;
    tally.correct = tally.correct && sum == rt.analysis->makespan;
    if (sum != rt.analysis->makespan) {
      std::fprintf(stderr, "perfbench: critical-path phases sum to %lld ns, makespan %lld ns\n",
                   static_cast<long long>(sum), static_cast<long long>(rt.analysis->makespan));
    }
    overlap = rt.analysis->overlap_efficiency;
    makespan_ms = static_cast<double>(rt.analysis->makespan) / 1e6;
  } else {
    tally.correct = false;
  }

  std::printf("workload %s seed %llu (traced): %dn x %dr (%d ranks), domain %s, %s\n",
              w.name.c_str(),
              static_cast<unsigned long long>(a.seed), w.nodes, w.rpn, w.ranks(),
              w.domain.str().c_str(), method_note(r.rank0_methods).c_str());
  std::printf("untraced wall %.3f ms/exchange (scaled; %.3f measured) over %d, traced %.3f ms over"
              " %d, exchange_ms %.6f\n",
              wall_u, wall_u_raw,
              static_cast<int>(walls_u.size()), wall_t, static_cast<int>(walls_t.size()),
              r.exchange_ms);
  const bool plans = w.persistent;
  const std::string na = "not exercised by this workload";
  const double switches_px = per_x(d.switches);
  auto count = [&](const std::string& m) {
    auto f = r.rank0_methods.find(m == "kernel"      ? Method::kKernel
                                  : m == "peer"      ? Method::kPeer
                                  : m == "colocated" ? Method::kColocated
                                                     : Method::kStaged);
    return f == r.rank0_methods.end() ? 0.0 : static_cast<double>(f->second.first);
  };
  double halo_bytes = 0.0;
  for (const auto& [m, cb] : r.rank0_methods) halo_bytes += static_cast<double>(cb.second);

  MetricReport rep;
  rep.add("simtime.events_per_exchange", per_x(d.events), "count");
  rep.add("simtime.switches_per_exchange", switches_px, "count");
  rep.add("simtime.max_run_queue_depth", static_cast<double>(r.max_run_queue_depth), "count");
  rep.add("simtime.handoff_us", handoff_us, "us",
          std::to_string(w.ranks()) + " yielding actors, Engine::run");
  rep.add("simtime.engine_share", switches_px * handoff_us / (wall_u_raw * 1e3), "ratio",
          "base: untraced wall " + std::to_string(wall_u_raw) + " ms/exchange as measured");
  rep.add("core.placement_ms", r.placement_ms, "ms", "cold Cluster::placement_cached");
  rep.add("core.realize_s", r.realize.seconds(), "s");
  rep.add("core.warmup_exchange_s", r.warmup.seconds(), "s");
  rep.add("core.issue_virtual_ms", r.issue_virtual_ms, "ms_virtual", "slowest rank");
  rep.add("core.finish_virtual_ms", r.finish_virtual_ms, "ms_virtual", "slowest rank");
  for (const char* m : {"kernel", "peer", "colocated", "staged"}) {
    rep.add(std::string("core.transfers.") + m, count(m), "count", "rank 0");
  }
  rep.add("core.halo_bytes", halo_bytes, "B", "rank 0 payload per exchange");
  const std::string pw = "setup + " + std::to_string(kCountWindow) + " exchanges, all ranks";
  rep.add("plan.compiles", static_cast<double>(r.plan_sum.compiles), "count", plans ? pw : na);
  rep.add("plan.hits", static_cast<double>(r.plan_sum.hits), "count", plans ? pw : na);
  rep.add("plan.replays", static_cast<double>(r.plan_sum.replays), "count", plans ? pw : na);
  rep.add("plan.verifications", static_cast<double>(r.plan_sum.verifications), "count",
          plans ? pw : na);
  rep.add("verify.plan_ms", r.verify_plan_ms, "ms", plans ? "rank 0's plan, median of 3" : na);
  rep.add("verify.admission_share",
          plans ? w.ranks() * r.verify_plan_ms / (r.warmup.seconds() * 1e3) : 0.0, "ratio",
          plans ? "base: warm-up exchange " + std::to_string(r.warmup.seconds()) + " s" : na);
  rep.add("simpi.msgs_intra_per_exchange", per_x(d.msgs_intra), "count");
  rep.add("simpi.msgs_inter_per_exchange", per_x(d.msgs_inter), "count");
  rep.add("simpi.bytes_per_exchange", per_x(d.mpi_bytes), "B");
  rep.add("simpi.retries", static_cast<double>(d.retries), "count");
  rep.add("simpi.barrier_wait_virtual_ms", r.barrier_wait_virtual_ms, "ms_virtual",
          "max over ranks, mean of 3");
  rep.add("vgpu.ops_per_exchange", per_x(d.ops), "count");
  rep.add("vgpu.graph_launches_per_exchange", per_x(d.graphs), "count");
  rep.add("vgpu.buffers_allocated_steady", static_cast<double>(r.buffers_steady), "count",
          "over all timed exchanges");
  rep.add("vgpu.bytes_per_exchange", per_x(d.vgpu_bytes), "B", "computed from op sizes");
  rep.add("vgpu.pack_gbps", pack_gbps, "GB/s",
          "+z face slab " + std::to_string(slab_bytes) + " B of " + r.rank0_subdomain.str());
  rep.add("mem.stream_gbps", stream_gbps, "GB/s",
          "copy of two " + std::to_string(array_bytes >> 20) + " MiB arrays, LLC " +
              std::to_string(llc_bytes() >> 20) + " MiB");
  rep.add("check.findings", static_cast<double>(tally.findings), "count",
          w.observers ? "all clusters of this run" : na);
  for (std::size_t i = 0; i < obs_names.size(); ++i) {
    rep.add(obs_names[i] + ".overhead_ms", overhead[i], "ms",
            w.observers ? "leave-one-out wall delta" : na);
  }
  double spans = 0, flows = 0;
  if (w.observers && !rt.loop.iters.empty()) {
    spans = static_cast<double>(rt.loop.iters[0].spans);
    flows = static_cast<double>(rt.loop.iters[0].flows);
  }
  rep.add("dtrace.spans_per_exchange", spans, "count", w.observers ? "" : na);
  rep.add("dtrace.flows_per_exchange", flows, "count", w.observers ? "" : na);
  rep.add("telemetry.flight_events_per_exchange", w.observers ? per_x(d.flight) : 0.0, "count",
          w.observers ? "" : na);
  rep.add("watch.messages_per_exchange", per_x(d.watch_msgs), "count", w.observers ? "" : na);
  rep.add("explain.records", static_cast<double>(r.explain_records), "count",
          w.observers ? "" : na);
  for (int p = 0; p < kPhases; ++p) {
    rep.add(std::string("critical.") + kPhaseNames[p] + "_ms", static_cast<double>(ph[p]) / 1e6,
            "ms_virtual", "of makespan " + std::to_string(makespan_ms) + " ms");
  }
  rep.add("critical.overlap_efficiency", overlap, "ratio");
  rep.add("trace.overhead", wall_t / wall_u - 1.0, "ratio",
          "traced " + std::to_string(wall_t) + " ms / untraced " + std::to_string(wall_u) + " ms");
  rep.print_lines();

  std::vector<std::string> det = {"core.issue_virtual_ms", "core.finish_virtual_ms",
                                  "simtime.events_per_exchange", "simtime.switches_per_exchange",
                                  "simtime.max_run_queue_depth", "plan.compiles", "plan.hits",
                                  "plan.replays", "plan.verifications",
                                  "simpi.msgs_intra_per_exchange", "simpi.msgs_inter_per_exchange",
                                  "simpi.bytes_per_exchange", "simpi.barrier_wait_virtual_ms",
                                  "vgpu.ops_per_exchange", "vgpu.graph_launches_per_exchange",
                                  "vgpu.bytes_per_exchange", "dtrace.spans_per_exchange",
                                  "dtrace.flows_per_exchange", "critical.overlap_efficiency"};
  for (int p = 0; p < kPhases; ++p) {
    det.push_back(std::string("critical.") + kPhaseNames[p] + "_ms");
  }
  const std::string key = w.name + "-seed" + std::to_string(a.seed) + "-trace";
  bool correct = repeat_check(a.exe, a.state_dir, key, rep.deterministic(det)) && tally.correct;

  if (!a.trace_out.empty()) {
    if (log.write(a.trace_out)) {
      std::printf("%zu spans written to %s\n", log.size(), a.trace_out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_out.c_str());
    }
  }
  correct = correct && tally.failed == 0;
  rep.print_json(correct, tally.attempted, tally.failed);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  a.exe = argv[0];
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--state-dir DIR]\n");
    return 2;
  }
  const auto w = make_workload(a.workload, a.seed);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  // One actor thread runs at a time, so one malloc arena serves them all
  // without contention. Freed memory stays in the heap, so each fresh
  // cluster a run sets up reuses pages instead of faulting them in again;
  // page-fault and unmap cost otherwise moved wall times by a quarter
  // between runs.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  // The engine runs one actor thread at a time, so one CPU loses no
  // parallelism; pinning turns every token handoff into a same-CPU switch
  // instead of a cross-CPU wakeup, whose cost varies most from run to run.
  // The last allowed CPU is taken: CPU 0 usually serves more interrupts.
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
      if (!CPU_ISSET(c, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      sched_setaffinity(0, sizeof one, &one);
      break;
    }
  }
  // Batch scheduling, inherited by every rank thread: a woken thread no
  // longer preempts its waker, which still holds the engine mutex and is
  // about to block. Each handoff is then one switch, not two or three, and
  // how many there are no longer depends on the scheduler's timing.
  sched_param batch{};
  sched_setscheduler(0, SCHED_BATCH, &batch);
  return a.trace == 1 ? run_per_layer(*w, a) : run_end_to_end(*w, a);
}
