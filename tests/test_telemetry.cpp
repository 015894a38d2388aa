#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "plan/plan.h"
#include "simtime/engine.h"
#include "telemetry/critical_path.h"
#include "telemetry/export.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "topo/archetype.h"
#include "trace/recorder.h"

using namespace stencil;
namespace telemetry = stencil::telemetry;
using telemetry::CriticalPath;
using telemetry::EventKind;
using telemetry::FlightRecorder;
using telemetry::Histogram;
using telemetry::MetricsRegistry;
using telemetry::Telemetry;
using trace::OpRecord;

namespace {

/// Minimal recursive-descent JSON validator: enough to reject any malformed
/// exporter output (unbalanced braces, bad escapes, trailing junk) without
/// needing a JSON library.
struct JsonParser {
  const std::string& s;
  std::size_t i = 0;
  explicit JsonParser(const std::string& text) : s(text) {}

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool lit(const char* t) {
    const std::size_t n = std::strlen(t);
    if (s.compare(i, n, t) != 0) return false;
    i += n;
    return true;
  }
  bool string_() {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (static_cast<unsigned char>(s[i]) < 0x20) return false;  // raw control char
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return false;
      }
      ++i;
    }
    if (i >= s.size()) return false;
    ++i;
    return true;
  }
  bool number() {
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    bool digits = false;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' || s[i] == 'e' ||
            s[i] == 'E' || s[i] == '+' || s[i] == '-')) {
      digits = digits || std::isdigit(static_cast<unsigned char>(s[i]));
      ++i;
    }
    return digits && i > start;
  }
  bool object() {
    ++i;  // '{'
    ws();
    if (i < s.size() && s[i] == '}') {
      ++i;
      return true;
    }
    for (;;) {
      ws();
      if (!string_()) return false;
      ws();
      if (i >= s.size() || s[i] != ':') return false;
      ++i;
      if (!value()) return false;
      ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      if (i < s.size() && s[i] == '}') {
        ++i;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++i;  // '['
    ws();
    if (i < s.size() && s[i] == ']') {
      ++i;
      return true;
    }
    for (;;) {
      if (!value()) return false;
      ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      if (i < s.size() && s[i] == ']') {
        ++i;
        return true;
      }
      return false;
    }
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    switch (s[i]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }
};

bool json_valid(const std::string& text) {
  JsonParser p(text);
  if (!p.value()) return false;
  p.ws();
  return p.i == text.size();
}

OpRecord span(const char* lane, const char* label, sim::Time start, sim::Time end) {
  return OpRecord{lane, label, start, end};
}

}  // namespace

// --- metrics -----------------------------------------------------------------

TEST(Metrics, CounterAddsAndUntouchedReadsZero) {
  MetricsRegistry reg;
  reg.counter("a_total").add();
  reg.counter("a_total").add(41);
  EXPECT_EQ(reg.counter_value("a_total"), 42u);
  EXPECT_EQ(reg.counter_value("never_touched"), 0u);
  EXPECT_EQ(reg.counters().count("never_touched"), 0u);  // did not intern
}

TEST(Metrics, GaugeLastWriteWins) {
  MetricsRegistry reg;
  reg.gauge("g").set(1.5);
  reg.gauge("g").set(-3.0);
  EXPECT_DOUBLE_EQ(reg.gauges().at("g").value, -3.0);
}

TEST(Metrics, HistogramBucketIndexKnownValues) {
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 0);
  EXPECT_EQ(Histogram::bucket_index(2), 1);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 2);
  EXPECT_EQ(Histogram::bucket_index(5), 3);
  EXPECT_EQ(Histogram::bucket_index(1023), 10);
  EXPECT_EQ(Histogram::bucket_index(1024), 10);
  EXPECT_EQ(Histogram::bucket_index(1025), 11);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<std::uint64_t>::max()), 63);
}

TEST(Metrics, HistogramBucketBounds) {
  EXPECT_EQ(Histogram::bucket_bound(0), 1u);
  EXPECT_EQ(Histogram::bucket_bound(1), 2u);
  EXPECT_EQ(Histogram::bucket_bound(10), 1024u);
  EXPECT_EQ(Histogram::bucket_bound(63), std::numeric_limits<std::uint64_t>::max());
}

TEST(Metrics, HistogramStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.used_buckets(), 0);
  h.observe(0);
  h.observe(3);
  h.observe(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1003u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.mean(), 1003.0 / 3.0, 1e-9);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(10), 1u);
  EXPECT_EQ(h.used_buckets(), 11);
}

TEST(Metrics, HistogramMerge) {
  Histogram a, b;
  a.observe(2);
  b.observe(7);
  b.observe(1);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 10u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 7u);
  Histogram empty;
  a.merge(empty);  // merging an empty histogram must not disturb min/max
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 1u);
}

TEST(Metrics, RegistryMergeFoldsAllThreeKinds) {
  MetricsRegistry a, b;
  a.counter("c").add(1);
  b.counter("c").add(2);
  b.counter("only_b").add(5);
  a.gauge("g").set(1.0);
  b.gauge("g").set(9.0);
  a.histogram("h").observe(4);
  b.histogram("h").observe(100);
  a.merge(b);
  EXPECT_EQ(a.counter_value("c"), 3u);
  EXPECT_EQ(a.counter_value("only_b"), 5u);
  EXPECT_DOUBLE_EQ(a.gauges().at("g").value, 9.0);
  EXPECT_EQ(a.histograms().at("h").count(), 2u);
}

TEST(Metrics, IterationOrderIsLexicographic) {
  MetricsRegistry reg;
  reg.counter("zebra").add();
  reg.counter("alpha").add();
  reg.counter("mid").add();
  std::vector<std::string> names;
  for (const auto& [name, c] : reg.counters()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zebra"}));
}

TEST(Metrics, SplitMetricNameHandlesLabels) {
  auto [base, labels] = telemetry::split_metric_name("exchange_bytes_total{method=\"staged\"}");
  EXPECT_EQ(base, "exchange_bytes_total");
  EXPECT_EQ(labels, "method=\"staged\"");
  auto [plain, none] = telemetry::split_metric_name("exchanges_total");
  EXPECT_EQ(plain, "exchanges_total");
  EXPECT_EQ(none, "");
}

// --- flight recorder ---------------------------------------------------------

TEST(FlightRecorderTest, RingEvictsOldest) {
  FlightRecorder fr(4);
  for (int i = 0; i < 10; ++i)
    fr.log(EventKind::kNote, i * sim::kMicrosecond, "lane", "e" + std::to_string(i));
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.capacity(), 4u);
  EXPECT_EQ(fr.total_logged(), 10u);
  const auto tail = fr.tail(4);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().detail, "e6");  // oldest surviving
  EXPECT_EQ(tail.back().detail, "e9");
}

TEST(FlightRecorderTest, TailClampsAndOrdersOldestFirst) {
  FlightRecorder fr(8);
  fr.log(EventKind::kNote, 1, "l", "first");
  fr.log(EventKind::kNote, 2, "l", "second");
  EXPECT_EQ(fr.tail(100).size(), 2u);
  const auto t = fr.tail(1);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].detail, "second");
}

TEST(FlightRecorderTest, StampsCurrentExchangeSeq) {
  FlightRecorder fr;
  fr.log(EventKind::kNote, 0, "l", "before");
  fr.set_exchange_seq(7);
  fr.log(EventKind::kNote, 1, "l", "after");
  const auto t = fr.tail(2);
  EXPECT_EQ(t[0].exchange_seq, 0u);
  EXPECT_EQ(t[1].exchange_seq, 7u);
}

TEST(FlightRecorderTest, DumpTailFormat) {
  FlightRecorder fr(2);
  std::ostringstream empty;
  fr.dump_tail(empty, 4);
  EXPECT_NE(empty.str().find("flight recorder empty"), std::string::npos);

  fr.set_exchange_seq(3);
  fr.log(EventKind::kGpuOp, 1250 * sim::kMicrosecond, "gpu0.d2h", "pack +x", 4096);
  fr.log(EventKind::kMpiMatch, 1300 * sim::kMicrosecond, "mpi.r0->r1", "tag=42", 512);
  fr.log(EventKind::kDemote, 1400 * sim::kMicrosecond, "fault", "tag=9 peer->staged");
  std::ostringstream os;
  fr.dump_tail(os, 8);
  const std::string s = os.str();
  EXPECT_NE(s.find("[seq 3]"), std::string::npos) << s;
  EXPECT_NE(s.find("mpi-match"), std::string::npos) << s;
  EXPECT_NE(s.find("demote"), std::string::npos) << s;
  EXPECT_NE(s.find("tag=9 peer->staged"), std::string::npos) << s;
  EXPECT_NE(s.find("earlier event(s)"), std::string::npos) << s;  // one was evicted
  EXPECT_EQ(s.find("pack +x"), std::string::npos) << s;           // ... that one
}

TEST(FlightRecorderTest, SustainedChurnKeepsTailOrderedAndBounded) {
  // Incident-style churn: many exchanges, several events per exchange, far
  // more than the ring holds. The ring must stay bounded, evict strictly
  // oldest-first, and tail()/dump_tail() must report the survivors in log
  // order with the evicted count right.
  constexpr std::size_t kCap = 8;
  FlightRecorder fr(kCap);
  std::uint64_t logged = 0;
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    fr.set_exchange_seq(seq);
    for (int e = 0; e < 3; ++e) {
      fr.log(e == 2 ? EventKind::kDemote : EventKind::kMpiMatch,
             static_cast<sim::Time>(logged) * sim::kMicrosecond, "mpi.r0->r1",
             "e" + std::to_string(logged), 64);
      ++logged;
    }
  }
  EXPECT_EQ(fr.size(), kCap);
  EXPECT_EQ(fr.total_logged(), logged);

  const auto t = fr.tail(kCap);
  ASSERT_EQ(t.size(), kCap);
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Survivors are exactly the last kCap logs, oldest first...
    EXPECT_EQ(t[i].detail, "e" + std::to_string(logged - kCap + i));
    // ... monotone in time and exchange seq.
    if (i > 0) {
      EXPECT_GE(t[i].at, t[i - 1].at);
      EXPECT_GE(t[i].exchange_seq, t[i - 1].exchange_seq);
    }
  }
  EXPECT_EQ(t.back().exchange_seq, 99u);

  std::ostringstream os;
  fr.dump_tail(os, 4);  // ask for less than the ring holds
  const std::string s = os.str();
  EXPECT_NE(s.find(std::to_string(logged - 4) + " earlier event(s)"), std::string::npos) << s;
  // The four youngest survive, in order.
  std::size_t prev = 0;
  for (std::uint64_t i = logged - 4; i < logged; ++i) {
    const auto pos = s.find("e" + std::to_string(i));
    ASSERT_NE(pos, std::string::npos) << s;
    EXPECT_GT(pos, prev) << s;
    prev = pos;
  }
  EXPECT_EQ(s.find("e" + std::to_string(logged - 5)), std::string::npos) << s;
}

TEST(FlightRecorderTest, ZeroCapacityClampsToOne) {
  FlightRecorder fr(0);
  fr.log(EventKind::kNote, 0, "l", "only");
  EXPECT_EQ(fr.capacity(), 1u);
  EXPECT_EQ(fr.size(), 1u);
}

// --- telemetry facade --------------------------------------------------------

namespace {

// The substrates feed Telemetry through its observer callbacks; these build
// the event records a Runtime / Job would pass.
void gpu_op(Telemetry& tel, const std::string& lane, const std::string& label,
            std::uint64_t bytes, sim::Time start, sim::Time end) {
  vgpu::OpInfo op;
  op.lane = &lane;
  op.label = op.trace_label = &label;
  op.bytes = bytes;
  op.start = start;
  op.end = end;
  tel.on_op(op);
}

simpi::MsgInfo msg(int src, int dst, int tag, std::size_t bytes, bool is_send, sim::Time at) {
  simpi::MsgInfo m;
  m.is_send = is_send;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.bytes = bytes;
  m.post_time = at;
  return m;
}

void match(Telemetry& tel, int src, int dst, int tag, std::size_t bytes, int attempts,
           bool same_node, sim::Time at, bool delivered = true) {
  simpi::Delivery d;
  d.delivered = delivered;
  d.same_node = same_node;
  d.attempts = attempts;
  d.span = {at, at};
  tel.on_match(msg(src, dst, tag, bytes, true, at), msg(src, dst, tag, bytes, false, at), d);
}

}  // namespace

TEST(TelemetryFacade, GpuOpsFeedPackUnpackHistograms) {
  Telemetry tel;
  gpu_op(tel, "gpu0.kernel", "pack +x", 1024, 0, 100);
  gpu_op(tel, "gpu0.kernel", "unpack +x", 1024, 100, 350);
  gpu_op(tel, "gpu0.d2h", "memcpy 1KiB", 1024, 350, 400);
  const auto& m = tel.metrics();
  EXPECT_EQ(m.counter_value("vgpu_ops_total"), 3u);
  EXPECT_EQ(m.counter_value("vgpu_bytes_total"), 3072u);
  EXPECT_EQ(m.histograms().at("vgpu_pack_ns").count(), 1u);
  EXPECT_EQ(m.histograms().at("vgpu_pack_ns").sum(), 100u);
  EXPECT_EQ(m.histograms().at("vgpu_unpack_ns").count(), 1u);
  EXPECT_EQ(m.histograms().at("vgpu_unpack_ns").sum(), 250u);
  EXPECT_EQ(tel.flight().size(), 3u);
}

TEST(TelemetryFacade, MpiHooksCount) {
  Telemetry tel;
  tel.on_post(msg(0, 1, 5, 512, /*is_send=*/true, 10));
  tel.on_post(msg(0, 1, 5, 512, /*is_send=*/false, 10));
  tel.on_drop(msg(0, 1, 5, 512, true, 10), /*attempt=*/1, {20, 30});
  match(tel, 0, 1, 5, 512, /*attempts=*/2, /*same_node=*/false, 30);
  match(tel, 2, 3, 6, 256, /*attempts=*/1, /*same_node=*/true, 40);
  match(tel, 4, 5, 7, 0, /*attempts=*/3, /*same_node=*/false, 50, /*delivered=*/false);
  const auto& m = tel.metrics();
  EXPECT_EQ(m.counter_value("mpi_sends_posted_total"), 1u);
  EXPECT_EQ(m.counter_value("mpi_recvs_posted_total"), 1u);
  EXPECT_EQ(m.counter_value("mpi_messages_total"), 2u);
  EXPECT_EQ(m.counter_value("mpi_bytes_total"), 768u);
  EXPECT_EQ(m.counter_value("mpi_messages_inter_node_total"), 1u);
  EXPECT_EQ(m.counter_value("mpi_messages_intra_node_total"), 1u);
  EXPECT_EQ(m.counter_value("mpi_retries_total"), 1u);
  EXPECT_EQ(m.counter_value("mpi_drops_total"), 1u);
  EXPECT_EQ(m.counter_value("mpi_messages_lost_total"), 1u);
  EXPECT_EQ(m.histograms().at("mpi_message_bytes").count(), 2u);
}

TEST(TelemetryFacade, TransportErrorCapturesDump) {
  Telemetry tel;
  tel.on_post(msg(0, 1, 9, 64, true, 5));
  EXPECT_EQ(tel.last_dump(), "");
  tel.on_transport_error("wait timed out after 2 s", 100);
  EXPECT_EQ(tel.metrics().counter_value("mpi_transport_errors_total"), 1u);
  const std::string dump = tel.last_dump();
  EXPECT_NE(dump.find("TransportError: wait timed out"), std::string::npos) << dump;
  EXPECT_NE(dump.find("flight recorder"), std::string::npos) << dump;
  EXPECT_NE(dump.find("isend tag=9"), std::string::npos) << dump;
}

TEST(TelemetryFacade, PlanEventCounters) {
  Telemetry tel;
  tel.on_plan_event("compile");
  tel.on_plan_event("hit");
  tel.on_plan_event("hit");
  tel.on_plan_event("replay");
  EXPECT_EQ(tel.metrics().counter_value("plan_compiles_total"), 1u);
  EXPECT_EQ(tel.metrics().counter_value("plan_hits_total"), 2u);
  EXPECT_EQ(tel.metrics().counter_value("plan_replays_total"), 1u);
}

TEST(TelemetryFacade, ExchangeHooksAndDemotion) {
  // Exchange boundaries reach the sink as the job's heartbeats: attach it
  // to a cluster and drive them the way DistributedDomain does.
  Cluster cluster(topo::summit(), 1, 1);
  Telemetry tel;
  cluster.set_telemetry(&tel);
  cluster.run([&](RankCtx& ctx) {
    ctx.comm.job().exchange_begin(0, 1);
    ctx.engine().sleep_until(100);
    tel.on_exchange_end(0, 1, "staged", 4, 4096, 100);
    ctx.comm.job().exchange_complete(0, 1, 0);
    tel.on_demotion(7, "peer", "staged", 100);
  });
  const auto& m = tel.metrics();
  EXPECT_EQ(m.counter_value("exchanges_total"), 1u);
  EXPECT_EQ(m.counter_value("exchange_messages_total{method=\"staged\"}"), 4u);
  EXPECT_EQ(m.counter_value("exchange_bytes_total{method=\"staged\"}"), 4096u);
  EXPECT_EQ(m.counter_value("fault_demotions_total"), 1u);
  EXPECT_EQ(m.histograms().at("exchange_latency_ns").count(), 1u);
  EXPECT_EQ(m.histograms().at("exchange_latency_ns").sum(), 100u);
  // The flight ring saw start, end, and demotion, stamped with the seq;
  // the exchange events name their rank.
  const auto t = tel.flight().tail(8);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].kind, EventKind::kExchangeStart);
  EXPECT_EQ(t[0].exchange_seq, 1u);
  EXPECT_EQ(t[0].lane, "rank0");
  EXPECT_EQ(t[1].kind, EventKind::kExchangeEnd);
  EXPECT_EQ(t[1].detail, "#1 staged");
  EXPECT_EQ(t[2].exchange_seq, 1u);
  EXPECT_EQ(t[2].detail, "tag=7 peer->staged");
}

TEST(TelemetryFacade, DeadlockDumpEndToEnd) {
  sim::Engine eng;
  sim::Gate gate("stuck-gate");
  Telemetry tel;
  tel.flight().log(EventKind::kNote, 0, "exchange", "about to hang");
  tel.install_deadlock_dump(eng, 16);
  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] { gate.wait(eng, "token that never comes"); });
  EXPECT_THROW(eng.run(std::move(bodies), {"waiter"}), sim::DeadlockError);
  const std::string dump = tel.last_dump();
  EXPECT_NE(dump.find("waiter"), std::string::npos) << dump;
  EXPECT_NE(dump.find("stuck-gate"), std::string::npos) << dump;
  EXPECT_NE(dump.find("flight recorder"), std::string::npos) << dump;
  EXPECT_NE(dump.find("about to hang"), std::string::npos) << dump;
}

// --- critical path -----------------------------------------------------------

TEST(CriticalPathTest, KnownChainFullyBusy) {
  CriticalPath cp({span("a", "A", 0, 10), span("b", "B", 10, 30), span("c", "C", 30, 35)});
  cp.add_edge(0, 1);
  cp.add_edge(1, 2);
  const auto an = cp.analyze();
  EXPECT_EQ(an.makespan, 35);
  ASSERT_EQ(an.chain.size(), 3u);
  EXPECT_EQ(an.chain[0].label, "A");
  EXPECT_EQ(an.chain[1].label, "B");
  EXPECT_EQ(an.chain[2].label, "C");
  EXPECT_EQ(an.critical_busy, 35);
  EXPECT_EQ(an.critical_wait, 0);
  EXPECT_DOUBLE_EQ(an.overlap_efficiency, 1.0);
}

TEST(CriticalPathTest, WaitGapsLowerOverlapEfficiency) {
  CriticalPath cp({span("a", "A", 0, 10), span("b", "B", 15, 30)});
  cp.add_edge(0, 1);
  const auto an = cp.analyze();
  EXPECT_EQ(an.makespan, 30);
  ASSERT_EQ(an.chain.size(), 2u);
  EXPECT_EQ(an.chain[1].wait, 5);
  EXPECT_EQ(an.critical_busy, 25);
  EXPECT_EQ(an.critical_wait, 5);
  EXPECT_NEAR(an.overlap_efficiency, 25.0 / 30.0, 1e-12);
}

TEST(CriticalPathTest, LaneStatsReportSlack) {
  CriticalPath cp({span("busy", "long", 0, 90), span("idle", "short", 0, 10)});
  const auto an = cp.analyze();
  ASSERT_EQ(an.lanes.size(), 2u);
  EXPECT_EQ(an.lanes[0].lane, "busy");  // sorted by busy descending
  EXPECT_EQ(an.lanes[0].busy, 90);
  EXPECT_EQ(an.lanes[0].slack, 0);
  EXPECT_EQ(an.lanes[1].lane, "idle");
  EXPECT_EQ(an.lanes[1].slack, 80);
  const auto top = an.top_bottlenecks(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].lane, "busy");
}

TEST(CriticalPathTest, ExplicitEdgeWinsEndTies) {
  // Both "a" and "b" end at 10; only the explicit edge names the real trigger.
  CriticalPath cp({span("a", "A", 0, 10), span("b", "B", 0, 10), span("c", "C", 10, 20)});
  cp.add_edge(1, 2);
  const auto an = cp.analyze();
  ASSERT_EQ(an.chain.size(), 2u);
  EXPECT_EQ(an.chain[0].label, "B");
}

TEST(CriticalPathTest, LaneFifoChainsWithoutExplicitEdges) {
  CriticalPath cp({span("l", "first", 0, 10), span("l", "second", 20, 30)});
  const auto an = cp.analyze();
  ASSERT_EQ(an.chain.size(), 2u);
  EXPECT_EQ(an.chain[0].label, "first");
  EXPECT_EQ(an.chain[1].wait, 10);
}

TEST(CriticalPathTest, ContradictedEdgesAreIgnored) {
  CriticalPath cp({span("a", "A", 0, 10), span("b", "B", 5, 8)});
  cp.add_edge(0, 1);   // A ends after B starts: not a real dependency
  cp.add_edge(0, 0);   // self
  cp.add_edge(7, 1);   // out of range
  EXPECT_EQ(cp.edge_count(), 0u);
}

TEST(CriticalPathTest, LaneMatchesCheckerDescriptions) {
  EXPECT_TRUE(CriticalPath::lane_matches("gpu0/default", "gpu0.kernel"));
  EXPECT_TRUE(CriticalPath::lane_matches("gpu2/s1", "gpu2->gpu3"));
  EXPECT_TRUE(CriticalPath::lane_matches("rank0", "rank0.cpu"));
  EXPECT_FALSE(CriticalPath::lane_matches("gpu1/default", "gpu0.kernel"));
  EXPECT_FALSE(CriticalPath::lane_matches("gpu1/default", "gpu10.kernel"));
}

TEST(CriticalPathTest, HbEdgesBridgeToSpans) {
  CriticalPath cp({span("gpu0.kernel", "pack", 0, 10), span("gpu1.kernel", "unpack", 20, 30)});
  std::vector<telemetry::HbEdge> edges;
  edges.push_back({"gpu0/default", "gpu1/s1", 15});
  edges.push_back({"gpu7/default", "gpu9/s1", 15});  // matches nothing
  EXPECT_EQ(cp.add_hb_edges(edges), 1u);
  const auto an = cp.analyze();
  ASSERT_EQ(an.chain.size(), 2u);
  EXPECT_EQ(an.chain[0].lane, "gpu0.kernel");
  EXPECT_EQ(an.chain[1].lane, "gpu1.kernel");
}

TEST(CriticalPathTest, EmptySpansProduceEmptyAnalysis) {
  CriticalPath cp({});
  const auto an = cp.analyze();
  EXPECT_EQ(an.makespan, 0);
  EXPECT_TRUE(an.chain.empty());
  EXPECT_TRUE(an.lanes.empty());
  EXPECT_DOUBLE_EQ(an.overlap_efficiency, 0.0);
  EXPECT_NE(an.str().find("critical path"), std::string::npos);
}

TEST(CriticalPathTest, OverlappedBeatsSerialized) {
  // Overlapped: three lanes busy concurrently, chain is wall-to-wall busy.
  CriticalPath overlapped(
      {span("l1", "work", 0, 30), span("l2", "work", 0, 28), span("l3", "tail", 30, 40)});
  // Serialized: same work, but every span waits for the previous to finish.
  CriticalPath serialized(
      {span("l1", "work", 0, 10), span("l2", "work", 20, 30), span("l3", "tail", 40, 50)});
  const double eff_overlapped = overlapped.analyze().overlap_efficiency;
  const double eff_serialized = serialized.analyze().overlap_efficiency;
  EXPECT_DOUBLE_EQ(eff_overlapped, 1.0);
  EXPECT_NEAR(eff_serialized, 30.0 / 50.0, 1e-12);
  EXPECT_GT(eff_overlapped, eff_serialized);
}

TEST(CriticalPathTest, StrReportsHopsAndBottlenecks) {
  CriticalPath cp({span("gpu0.d2h", "memcpy", 0, 10), span("mpi.r0->r1", "msg", 10, 50)});
  cp.add_edge(0, 1);
  const std::string s = cp.analyze().str(3);
  EXPECT_NE(s.find("overlap efficiency"), std::string::npos) << s;
  EXPECT_NE(s.find("memcpy"), std::string::npos) << s;
  EXPECT_NE(s.find("bottleneck lanes"), std::string::npos) << s;
  EXPECT_NE(s.find("mpi.r0->r1"), std::string::npos) << s;
}

// --- exporters ---------------------------------------------------------------

TEST(Exporters, PrometheusTextIsWellFormed) {
  MetricsRegistry reg;
  reg.counter("exchange_bytes_total{method=\"staged\"}").add(4096);
  reg.counter("exchange_bytes_total{method=\"peer\"}").add(128);
  reg.gauge("plan_stats_hits").set(3);
  reg.histogram("exchange_latency_ns").observe(900);
  reg.histogram("exchange_latency_ns").observe(1100);
  reg.set_help("exchange_bytes_total", "Halo bytes moved, by method.");
  std::ostringstream os;
  telemetry::write_prometheus(os, reg);
  const std::string s = os.str();
  // One HELP + TYPE pair per base name, even with two labeled series, with
  // HELP immediately before TYPE and both before the first sample.
  EXPECT_NE(s.find("# HELP exchange_bytes_total Halo bytes moved, by method."), std::string::npos)
      << s;
  EXPECT_EQ(s.find("# HELP exchange_bytes_total"), s.rfind("# HELP exchange_bytes_total"));
  EXPECT_NE(s.find("# TYPE exchange_bytes_total counter"), std::string::npos) << s;
  EXPECT_EQ(s.find("# TYPE exchange_bytes_total counter"),
            s.rfind("# TYPE exchange_bytes_total counter"));
  EXPECT_LT(s.find("# HELP exchange_bytes_total"), s.find("# TYPE exchange_bytes_total counter"));
  EXPECT_LT(s.find("# TYPE exchange_bytes_total counter"), s.find("exchange_bytes_total{"));
  // Undocumented metrics still get a generated HELP line (promtool parses
  // help-free metrics, but a uniform format keeps scrapers simple).
  EXPECT_NE(s.find("# HELP plan_stats_hits "), std::string::npos) << s;
  EXPECT_NE(s.find("# HELP exchange_latency_ns "), std::string::npos) << s;
  EXPECT_NE(s.find("exchange_bytes_total{method=\"staged\"} 4096"), std::string::npos) << s;
  EXPECT_NE(s.find("# TYPE plan_stats_hits gauge"), std::string::npos) << s;
  EXPECT_NE(s.find("# TYPE exchange_latency_ns histogram"), std::string::npos) << s;
  // Cumulative buckets: the le="1024" bucket holds one sample, +Inf both.
  EXPECT_NE(s.find("exchange_latency_ns_bucket{le=\"1024\"} 1"), std::string::npos) << s;
  EXPECT_NE(s.find("exchange_latency_ns_bucket{le=\"+Inf\"} 2"), std::string::npos) << s;
  EXPECT_NE(s.find("exchange_latency_ns_sum 2000"), std::string::npos) << s;
  EXPECT_NE(s.find("exchange_latency_ns_count 2"), std::string::npos) << s;
  // Every non-comment line is `name{labels} value` or `name value`.
  std::istringstream is(s);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(space, 0u) << line;
  }
}

TEST(Exporters, MetricsJsonIsValid) {
  MetricsRegistry reg;
  reg.counter("with\"quote").add(1);  // name escaping must hold
  reg.gauge("g").set(0.25);
  reg.histogram("h").observe(5);
  std::ostringstream os;
  telemetry::write_metrics_json(os, reg);
  EXPECT_TRUE(json_valid(os.str())) << os.str();
  EXPECT_NE(os.str().find("\"counters\""), std::string::npos);
  std::ostringstream empty;
  telemetry::write_metrics_json(empty, MetricsRegistry{});
  EXPECT_TRUE(json_valid(empty.str())) << empty.str();
}

TEST(Exporters, ChromeTraceIsValidAndEnriched) {
  std::vector<OpRecord> spans_v = {span("gpu0.d2h", "memcpy \"8B\"", 0, 10),
                                   span("mpi.r0->r1", "msg\ntag=1", 10, 50)};
  CriticalPath cp(spans_v);
  cp.add_edge(0, 1);
  const auto an = cp.analyze();
  MetricsRegistry reg;
  reg.counter("exchanges_total").add(2);
  std::ostringstream os;
  telemetry::write_chrome_trace(os, spans_v, &reg, &an);
  const std::string s = os.str();
  EXPECT_TRUE(json_valid(s)) << s;
  EXPECT_NE(s.find("thread_name"), std::string::npos);
  EXPECT_NE(s.find("\"ph\": \"C\""), std::string::npos);      // counter event
  EXPECT_NE(s.find("\"critical\": true"), std::string::npos);  // chain membership arg
  EXPECT_NE(s.find("exchanges_total"), std::string::npos);

  std::ostringstream empty;
  telemetry::write_chrome_trace(empty, {});
  EXPECT_TRUE(json_valid(empty.str())) << empty.str();
}

TEST(Exporters, ReportJsonCombinesMetricsAndCriticalPath) {
  MetricsRegistry reg;
  reg.counter("exchanges_total").add(1);
  CriticalPath cp({span("a", "A", 0, 10), span("b", "B", 10, 30)});
  cp.add_edge(0, 1);
  std::ostringstream os;
  telemetry::write_report_json(os, reg, cp.analyze());
  const std::string s = os.str();
  EXPECT_TRUE(json_valid(s)) << s;
  EXPECT_NE(s.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(s.find("\"makespan_ns\""), std::string::npos);
  EXPECT_NE(s.find("\"overlap_efficiency\""), std::string::npos);
  EXPECT_NE(s.find("\"chain\""), std::string::npos);
  EXPECT_NE(s.find("\"lanes\""), std::string::npos);
}

// --- end-to-end through the domain ------------------------------------------
//
// A domain keeps no telemetry of its own: everything below reads the one
// sink attached to the cluster.

namespace {

constexpr std::size_t kQ = 1;

void run_small_domain(Cluster& cluster, int exchanges, bool persistent,
                      std::function<void(DistributedDomain&)> inspect) {
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {24, 24, 24});
    dd.set_radius(1);
    for (std::size_t q = 0; q < kQ; ++q) dd.add_data<float>("q" + std::to_string(q));
    dd.set_methods(MethodFlags::kAll);
    dd.realize();
    if (persistent) dd.set_persistent(true);
    for (int i = 0; i < exchanges; ++i) {
      dd.exchange();
      ctx.comm.barrier();
    }
    inspect(dd);
  });
}

// Transfers each method sends per exchange, summed over every rank.
using SendsPerMethod = std::map<Method, std::uint64_t>;
void count_sends(const DistributedDomain& dd, int rank, SendsPerMethod& sends) {
  for (const Transfer& t : dd.transfers()) {
    if (t.src_rank == rank) ++sends[t.method];
  }
}

}  // namespace

TEST(DomainTelemetry, CountsExchangesAndLatency) {
  Cluster cluster(topo::summit(), 1, 1);
  Telemetry tel;
  cluster.set_telemetry(&tel);
  run_small_domain(cluster, 3, false, [](DistributedDomain&) {});
  const auto& m = tel.metrics();
  EXPECT_EQ(m.counter_value("exchanges_total"), 3u);
  const auto& lat = m.histograms().at("exchange_latency_ns");
  EXPECT_EQ(lat.count(), 3u);
  EXPECT_GT(lat.sum(), 0u);
  EXPECT_FALSE(tel.flight().empty());
}

TEST(DomainTelemetry, RevokedExchangeStartIsATransportError) {
  // exchange_start aborts into recovery on a revoked job through Job::fail,
  // the one transport-error exit, so the sink counts every rank's abort.
  Cluster cluster(topo::summit(), 2, 2);
  Telemetry tel;
  cluster.set_telemetry(&tel);
  int revoked = 0;
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {24, 24, 24});
    dd.set_radius(1);
    dd.add_data<float>("q0");
    dd.realize();
    ctx.comm.barrier();
    ctx.comm.job().revoke();
    try {
      dd.exchange_start();
    } catch (const simpi::TransportError& e) {
      if (e.code() == simpi::TransportError::Code::kRevoked) ++revoked;
    }
  });
  EXPECT_EQ(revoked, 4);
  EXPECT_EQ(tel.metrics().counter_value("mpi_transport_errors_total"), 4u);
  EXPECT_NE(tel.last_dump().find("exchange_start: communicator revoked"), std::string::npos)
      << tel.last_dump();
}

TEST(DomainTelemetry, PerMethodCountersMatchMethodBytesHistogram) {
  Cluster cluster(topo::summit(), 1, 1);
  Telemetry tel;
  cluster.set_telemetry(&tel);
  std::map<Method, std::pair<int, std::size_t>> hist;
  std::size_t transfers = 0;
  run_small_domain(cluster, 2, false, [&](DistributedDomain& dd) {
    hist = dd.method_bytes_histogram();
    transfers = dd.transfers().size();
  });
  // Satellite: method_bytes_histogram reflects the realized transfer set.
  EXPECT_FALSE(hist.empty());
  std::size_t hist_transfers = 0, hist_bytes = 0;
  const auto& reg = tel.metrics();
  for (const auto& [m, cb] : hist) {
    EXPECT_GT(cb.first, 0);
    EXPECT_GT(cb.second, 0u);
    hist_transfers += static_cast<std::size_t>(cb.first);
    hist_bytes += cb.second;
    // One rank sends every transfer of this method once per exchange, so
    // the per-method telemetry counters are exactly 2x the realized set.
    const std::string label = std::string("{method=\"") + to_string(m) + "\"}";
    EXPECT_EQ(reg.counter_value("exchange_messages_total" + label),
              2u * static_cast<std::uint64_t>(cb.first));
    EXPECT_EQ(reg.counter_value("exchange_bytes_total" + label), 2u * cb.second);
  }
  EXPECT_EQ(hist_transfers, transfers);
  EXPECT_GT(hist_bytes, 0u);
}

TEST(DomainTelemetry, PlanStatsCountersAndExport) {
  Cluster cluster(topo::summit(), 1, 1);
  Telemetry tel;
  cluster.set_telemetry(&tel);
  run_small_domain(cluster, 2, true, [&](DistributedDomain& dd) {
    // The PlanStats counters behind `drill plan`.
    const plan::PlanStats& ps = dd.plan_stats();
    EXPECT_EQ(ps.compiles, 1u);
    EXPECT_EQ(ps.hits, 1u);
    EXPECT_EQ(ps.replays, 2u);
    EXPECT_EQ(ps.invalidations, 0u);
    EXPECT_NE(ps.str().find("compiles=1"), std::string::npos);
  });
  const auto& m = tel.metrics();
  EXPECT_EQ(m.counter_value("plan_compiles_total"), 1u);
  EXPECT_EQ(m.counter_value("plan_hits_total"), 1u);
  EXPECT_EQ(m.counter_value("plan_replays_total"), 2u);
}

TEST(DomainTelemetry, ClusterWideTelemetryCapturesSubstrate) {
  Cluster cluster(topo::summit(), 2, 1);
  Telemetry tel;
  cluster.set_telemetry(&tel);
  run_small_domain(cluster, 1, false, [](DistributedDomain&) {});
  const auto& m = tel.metrics();
  EXPECT_GT(m.counter_value("vgpu_ops_total"), 0u);
  EXPECT_GT(m.counter_value("vgpu_bytes_total"), 0u);
  EXPECT_GT(m.histograms().at("vgpu_pack_ns").count(), 0u);
  EXPECT_GT(m.histograms().at("vgpu_unpack_ns").count(), 0u);
  // Two nodes: the staged path crosses MPI.
  EXPECT_GT(m.counter_value("mpi_messages_total"), 0u);
  EXPECT_GT(m.counter_value("mpi_bytes_total"), 0u);
  EXPECT_GT(m.counter_value("mpi_sends_posted_total"), 0u);
  EXPECT_EQ(m.counter_value("mpi_messages_lost_total"), 0u);
}

TEST(DomainTelemetry, ClusterSinkSeesEveryRank) {
  constexpr int kExchanges = 3;
  Cluster cluster(topo::summit(), 2, 1);
  Telemetry tel;
  cluster.set_telemetry(&tel);
  SendsPerMethod sends;
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {24, 24, 24});
    dd.add_data<float>("q0");
    dd.set_methods(MethodFlags::kAll);
    dd.realize();
    for (int i = 0; i < kExchanges; ++i) dd.exchange();
    count_sends(dd, ctx.rank(), sends);
  });
  const int ranks = cluster.job().world_size();
  ASSERT_EQ(ranks, 2);
  const auto& m = tel.metrics();
  EXPECT_EQ(m.counter_value("exchanges_total"), static_cast<std::uint64_t>(ranks * kExchanges));
  EXPECT_EQ(m.histograms().at("exchange_latency_ns").count(),
            static_cast<std::uint64_t>(ranks * kExchanges));
  ASSERT_FALSE(sends.empty());
  std::uint64_t messages = 0;
  for (const auto& [method, n] : sends) {
    const std::string label = std::string("{method=\"") + to_string(method) + "\"}";
    EXPECT_EQ(m.counter_value("exchange_messages_total" + label), kExchanges * n) << label;
    messages += kExchanges * n;
  }
  EXPECT_EQ(m.histograms().at("exchange_message_bytes").count(), messages);
}

TEST(DomainTelemetry, FlightEventsCarryExchangeSeq) {
  Cluster cluster(topo::summit(), 2, 1);
  Telemetry tel(1u << 16);  // large enough that nothing is evicted
  cluster.set_telemetry(&tel);
  std::uint64_t before = 0, after = 0;
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {24, 24, 24});
    dd.add_data<float>("q0");
    dd.set_methods(MethodFlags::kAll);
    dd.realize();
    dd.exchange();
    ctx.comm.barrier();
    if (ctx.rank() == 0) before = tel.flight().total_logged();
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();
    if (ctx.rank() == 0) after = tel.flight().total_logged();
  });
  ASSERT_LT(before, after);
  ASSERT_EQ(tel.flight().total_logged(), tel.flight().size());
  const auto all = tel.flight().tail(tel.flight().size());
  std::size_t gpu_ops = 0;
  std::set<std::string> started;
  for (std::uint64_t i = before; i < after; ++i) {
    const auto& ev = all[static_cast<std::size_t>(i)];
    if (ev.kind == EventKind::kExchangeStart) started.insert(ev.lane);
    if (ev.kind != EventKind::kGpuOp) continue;
    ++gpu_ops;
    EXPECT_EQ(ev.exchange_seq, 2u) << ev.lane << " " << ev.detail;
  }
  EXPECT_GT(gpu_ops, 0u);
  EXPECT_EQ(started, (std::set<std::string>{"rank0", "rank1"}));
}

TEST(DomainTelemetry, DetachedDomainKeepsNothing) {
  Cluster cluster(topo::summit(), 2, 1);
  Telemetry tel;
  SendsPerMethod sends;
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {24, 24, 24});
    dd.add_data<float>("q0");
    dd.set_methods(MethodFlags::kAll);
    dd.realize();
    dd.exchange();
    ctx.comm.barrier();
    if (ctx.rank() == 0) cluster.set_telemetry(&tel);
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();
    dd.exchange();
    count_sends(dd, ctx.rank(), sends);
  });
  const auto& m = tel.metrics();
  EXPECT_EQ(m.counter_value("exchanges_total"), 4u);  // 2 ranks x exchanges 2 and 3
  EXPECT_EQ(m.histograms().at("exchange_latency_ns").count(), 4u);
  for (const auto& [method, n] : sends) {
    const std::string label = std::string("{method=\"") + to_string(method) + "\"}";
    EXPECT_EQ(m.counter_value("exchange_messages_total" + label), 2 * n) << label;
  }
  // realize() and exchange 1 ran detached: no early events.
  for (const auto& ev : tel.flight().tail(tel.flight().size())) {
    EXPECT_GE(ev.exchange_seq, 2u) << to_string(ev.kind) << " " << ev.lane;
  }
}

// --- registry edge cases -----------------------------------------------------

TEST(RegistryMerge, DisjointNamesUnionAndCollidingNamesFold) {
  MetricsRegistry a, b;
  a.counter("only_a_total").add(3);
  a.counter("shared_total{method=\"staged\"}").add(5);
  a.gauge("shared_gauge").set(1.0);
  a.histogram("shared_ns").observe(8);
  b.counter("only_b_total").add(7);
  b.counter("shared_total{method=\"staged\"}").add(11);
  // Same base name, different label set: a distinct series, not a collision.
  b.counter("shared_total{method=\"peer\"}").add(2);
  b.gauge("shared_gauge").set(4.0);
  b.histogram("shared_ns").observe(8);
  b.histogram("shared_ns").observe(1024);

  a.merge(b);
  EXPECT_EQ(a.counter_value("only_a_total"), 3u);
  EXPECT_EQ(a.counter_value("only_b_total"), 7u);
  EXPECT_EQ(a.counter_value("shared_total{method=\"staged\"}"), 16u);  // adds
  EXPECT_EQ(a.counter_value("shared_total{method=\"peer\"}"), 2u);
  EXPECT_DOUBLE_EQ(a.gauges().at("shared_gauge").value, 4.0);  // last write wins
  const Histogram& h = a.histograms().at("shared_ns");
  EXPECT_EQ(h.count(), 3u);  // bucketwise fold
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(8)), 2u);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(1024)), 1u);
  EXPECT_EQ(h.sum(), 8u + 8u + 1024u);
}

TEST(Exporters, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("findings_total{kind=\"say \"hi\" now\"}").add(1);
  reg.counter("paths_total{path=\"a\\b\"}").add(2);
  reg.gauge("msg_gauge{note=\"line1\nline2\"}").set(3.0);
  std::ostringstream os;
  telemetry::write_prometheus(os, reg);
  const std::string out = os.str();
  // Exposition-format label values must escape quotes, backslashes, and
  // newlines — and the output must stay one series per line.
  EXPECT_NE(out.find("findings_total{kind=\"say \\\"hi\\\" now\"} 1"), std::string::npos)
      << out;
  EXPECT_NE(out.find("paths_total{path=\"a\\\\b\"} 2"), std::string::npos) << out;
  EXPECT_NE(out.find("msg_gauge{note=\"line1\\nline2\"} 3"), std::string::npos) << out;
}

TEST(Exporters, PrometheusHelpTextEscapesAndMerges) {
  MetricsRegistry reg;
  reg.counter("odd_total").add(1);
  reg.set_help("odd_total", "path c:\\tmp\nsecond line");
  std::ostringstream os;
  telemetry::write_prometheus(os, reg);
  // HELP values escape backslash and newline so the line stays one line.
  EXPECT_NE(os.str().find("# HELP odd_total path c:\\\\tmp\\nsecond line\n"), std::string::npos)
      << os.str();

  // merge(): first registration wins when two registries document one base.
  MetricsRegistry a, b;
  a.counter("x_total").add(1);
  a.set_help("x_total", "from a");
  b.counter("x_total").add(2);
  b.set_help("x_total", "from b");
  b.set_help("y_total", "only b");
  a.merge(b);
  EXPECT_EQ(a.help_texts().at("x_total"), "from a");
  EXPECT_EQ(a.help_texts().at("y_total"), "only b");
  a.clear();
  EXPECT_TRUE(a.help_texts().empty());
}

TEST(HistogramBuckets, PowerOfTwoBoundaries) {
  // Bucket i holds 2^(i-1) < v <= 2^i; bucket 0 holds {0, 1}.
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 0);
  EXPECT_EQ(Histogram::bucket_index(2), 1);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 2);
  EXPECT_EQ(Histogram::bucket_index(1024), 10);      // exactly 2^10
  EXPECT_EQ(Histogram::bucket_index(1025), 11);      // one past the bound
  EXPECT_EQ(Histogram::bucket_index((1ull << 63)), 63);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<std::uint64_t>::max()), 63);
  EXPECT_EQ(Histogram::bucket_bound(0), 1u);
  EXPECT_EQ(Histogram::bucket_bound(10), 1024u);
  // Top bucket bound saturates instead of overflowing.
  EXPECT_EQ(Histogram::bucket_bound(63), std::numeric_limits<std::uint64_t>::max());

  Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(63), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.used_buckets(), 64);
}

// --- engine throughput gauges ------------------------------------------------

TEST(EngineTelemetry, RecordEngineExportsDeterministicThroughputGauges) {
  const auto run_once = [] {
    Telemetry tel;
    Cluster cluster(topo::summit(), 1, 2);
    cluster.set_mem_mode(vgpu::MemMode::kPhantom);
    cluster.set_telemetry(&tel);
    cluster.run([](RankCtx& ctx) {
      for (int i = 0; i < 4; ++i) {
        ctx.engine().sleep_for(1000);
        ctx.comm.barrier();
      }
    });
    const auto& g = tel.metrics().gauges();
    struct Snap {
      double events, rate, depth, switches;
    };
    return Snap{g.at("sim_events_processed").value,
                g.at("sim_events_per_virtual_second").value,
                g.at("sim_max_run_queue_depth").value, g.at("sim_context_switches").value};
  };
  const auto a = run_once();
  EXPECT_GT(a.events, 0.0);
  EXPECT_GT(a.rate, 0.0);
  EXPECT_GE(a.depth, 1.0);
  EXPECT_LE(a.depth, 2.0);  // two actors on this shape
  EXPECT_GT(a.switches, 0.0);
  // Virtual-time derived: a second identical run exports identical numbers.
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.rate, b.rate);
  EXPECT_DOUBLE_EQ(a.depth, b.depth);
  EXPECT_DOUBLE_EQ(a.switches, b.switches);
}
