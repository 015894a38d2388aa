// Distributed tracing (src/dtrace, DESIGN.md §12): context propagation
// across every exchange method, deterministic cross-rank merging, the
// offline per-rank-file workflow, message edges in the critical path, and
// the progress/stall monitor's detection thresholds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "dtrace/collector.h"
#include "dtrace/progress.h"
#include "fault/fault.h"
#include "simtime/time.h"
#include "telemetry/critical_path.h"
#include "telemetry/flight_recorder.h"
#include "topo/archetype.h"

using namespace stencil;
namespace dtrace = stencil::dtrace;
namespace fault = stencil::fault;
namespace telemetry = stencil::telemetry;
using dtrace::Collector;
using dtrace::ProgressMonitor;
using trace::FlowEdge;
using trace::OpRecord;

namespace {

/// Minimal recursive-descent JSON validator (same approach as
/// test_telemetry): enough to reject unbalanced structure, bad escapes, or
/// trailing junk without a JSON library.
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
      if (static_cast<unsigned char>(s[i]) < 0x20) return false;
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
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
                            s[i] == 'e' || s[i] == 'E' || s[i] == '+' || s[i] == '-')) {
      ++i;
    }
    return i > start;
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    if (s[i] == '"') return string_();
    if (s[i] == '{') return object();
    if (s[i] == '[') return array();
    if (lit("true") || lit("false") || lit("null")) return true;
    return number();
  }
  bool object() {
    if (s[i] != '{') return false;
    ++i;
    ws();
    if (i < s.size() && s[i] == '}') return ++i, true;
    while (true) {
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
      break;
    }
    if (i >= s.size() || s[i] != '}') return false;
    ++i;
    return true;
  }
  bool array() {
    if (s[i] != '[') return false;
    ++i;
    ws();
    if (i < s.size() && s[i] == ']') return ++i, true;
    while (true) {
      if (!value()) return false;
      ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    if (i >= s.size() || s[i] != ']') return false;
    ++i;
    return true;
  }
  bool parse() {
    if (!value()) return false;
    ws();
    return i == s.size();
  }
};

bool valid_json(const std::string& text) { return JsonParser(text).parse(); }

topo::NodeArchetype small_node() {
  topo::NodeArchetype arch = topo::summit();
  arch.gpus_per_socket = 1;  // 2 sockets -> 2 GPUs per node
  return arch;
}

struct RunOpts {
  int nodes = 2;
  int ranks_per_node = 2;
  MethodFlags flags = MethodFlags::kAll;
  bool persistent = false;
  int iters = 2;
  std::int64_t edge = 32;
  int quantities = 1;
};

/// Runs `iters` recorded exchanges on a small cluster under `col`. With
/// persistent=true the plan-compiling first exchange runs unrecorded, so
/// the collector sees only persistent replays (start + graph launch).
void run_collected(Collector* col, const RunOpts& o, const fault::Injector* inj = nullptr,
                   sim::Time t_fault = 0) {
  Cluster cluster(small_node(), o.nodes, o.ranks_per_node);
  cluster.set_mem_mode(vgpu::MemMode::kPhantom);
  if (inj != nullptr) cluster.set_fault_injector(inj);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {o.edge, o.edge, o.edge});
    dd.set_radius(1);
    for (int q = 0; q < o.quantities; ++q) dd.add_data<float>("q" + std::to_string(q));
    dd.set_methods(o.flags);
    dd.set_persistent(o.persistent);
    dd.realize();
    if (o.persistent) {
      ctx.comm.barrier();
      dd.exchange();  // compiles the plan, unrecorded
    }
    ctx.comm.barrier();
    if (ctx.rank() == 0) cluster.set_collector(col);
    ctx.comm.barrier();
    for (int it = 0; it < o.iters; ++it) {
      if (t_fault > 0 && it == o.iters - 1) {
        ctx.engine().sleep_until(t_fault + sim::kMicrosecond);
      }
      ctx.comm.barrier();
      dd.exchange();
    }
    ctx.comm.barrier();
    if (ctx.rank() == 0) cluster.set_recorder(nullptr);
  });
}

bool is_wire_span(const OpRecord& r) {
  return r.lane.rfind("mpi.r", 0) == 0 &&
         (r.label.rfind("msg ", 0) == 0 || r.label.rfind("ca-msg ", 0) == 0);
}

std::string merged(const Collector& col) {
  std::ostringstream os;
  col.write_chrome_trace(os);
  return os.str();
}

// A completion heartbeat. The monitor times exchanges from its own begin
// beats, so the reported latency is unused.
void complete(ProgressMonitor& mon, int rank, std::uint64_t seq, sim::Time at) {
  mon.on_exchange_complete(rank, seq, /*latency=*/0, at);
}

}  // namespace

TEST(DtraceCollector, RankAttribution) {
  Collector col;
  col.set_topology(/*world_size=*/4, /*gpus_per_rank=*/3);
  EXPECT_EQ(col.rank_of_lane("rank2.cpu"), 2);
  EXPECT_EQ(col.rank_of_lane("rank0.mpi"), 0);
  EXPECT_EQ(col.rank_of_lane("mpi.r1->r3"), 1);  // the sender initiates
  EXPECT_EQ(col.rank_of_lane("gpu5.kernel"), 1);  // 5 / 3 gpus per rank
  EXPECT_EQ(col.rank_of_lane("gpu0->gpu1"), 0);
  EXPECT_EQ(col.rank_of_lane("exchange"), -1);
  EXPECT_EQ(col.rank_of_lane("barrier#3"), -1);
}

TEST(DtraceCollector, EveryWireSpanCarriesContextFlows) {
  Collector col;
  run_collected(&col, RunOpts{});
  ASSERT_FALSE(col.records().empty());
  ASSERT_FALSE(col.flows().empty());

  // Index flows by endpoint span.
  std::map<std::uint64_t, int> into, outof;
  for (const FlowEdge& f : col.flows()) {
    ++into[f.to_span];
    ++outof[f.from_span];
  }
  std::size_t wires = 0;
  for (const OpRecord& r : col.records()) {
    if (!is_wire_span(r)) continue;
    ++wires;
    // post/start -> wire ("msg tag=") and wire -> adoption ("deliver tag=").
    EXPECT_GE(into[r.id], 1) << "wire span " << r.id << " (" << r.label << ") has no inbound flow";
    EXPECT_GE(outof[r.id], 1) << "wire span " << r.id << " (" << r.label
                              << ") was never adopted by its receive";
  }
  EXPECT_GT(wires, 0u);
  // Every stamped context resolved by the end of the run.
  EXPECT_TRUE(col.inflight().empty());
}

TEST(DtraceCollector, CudaAwareWireSpansCarryContextFlows) {
  Collector col;
  RunOpts o;
  o.flags = MethodFlags::kAllCudaAware;
  run_collected(&col, o);
  std::map<std::uint64_t, int> into;
  for (const FlowEdge& f : col.flows()) ++into[f.to_span];
  std::size_t ca_wires = 0;
  for (const OpRecord& r : col.records()) {
    if (r.label.rfind("ca-msg ", 0) != 0) continue;
    ++ca_wires;
    EXPECT_GE(into[r.id], 1);
  }
  EXPECT_GT(ca_wires, 0u);
  EXPECT_TRUE(col.inflight().empty());
}

TEST(DtraceCollector, IpcHandshakesCarryFlows) {
  // One node, two ranks: cross-rank neighbors go COLOCATED (cudaIpc). The
  // handshake draws an arrow from the sender's IPC copy into the receiving
  // rank's adoption marker.
  Collector col;
  RunOpts o;
  o.nodes = 1;
  run_collected(&col, o);
  std::size_t ipc_flows = 0;
  for (const FlowEdge& f : col.flows()) {
    if (f.label.rfind("ipc tag=", 0) == 0) ++ipc_flows;
  }
  EXPECT_GT(ipc_flows, 0u);
}

TEST(DtraceCollector, PersistentReplayPropagatesContexts) {
  Collector col;
  RunOpts o;
  o.persistent = true;
  run_collected(&col, o);
  // Replays restart persistent requests: the marker spans say "start", not
  // "post", and every wire span still carries its flows.
  std::size_t starts = 0;
  for (const OpRecord& r : col.records()) {
    if (r.label.rfind("start tag=", 0) == 0) ++starts;
  }
  EXPECT_GT(starts, 0u);
  std::map<std::uint64_t, int> into, outof;
  for (const FlowEdge& f : col.flows()) {
    ++into[f.to_span];
    ++outof[f.from_span];
  }
  std::size_t wires = 0;
  for (const OpRecord& r : col.records()) {
    if (!is_wire_span(r)) continue;
    ++wires;
    EXPECT_GE(into[r.id], 1);
    EXPECT_GE(outof[r.id], 1);
  }
  EXPECT_GT(wires, 0u);
  EXPECT_TRUE(col.inflight().empty());
}

TEST(DtraceCollector, DemotionToStagedKeepsPropagating) {
  // Peer + IPC loss mid-run: the last recorded exchange reroutes former
  // COLOCATED/PEER transfers over staged MPI. Those sends are fresh posts
  // and must stamp contexts like any other.
  const sim::Time t_fault = sim::from_seconds(1.0);
  fault::FaultPlan plan;
  plan.revoke_peer(t_fault, -1, -1).invalidate_ipc(t_fault);
  fault::Injector inj(plan);

  Collector col;
  RunOpts o;
  o.nodes = 1;
  o.iters = 2;  // one healthy exchange, one demoted
  run_collected(&col, o, &inj, t_fault);

  std::map<std::uint64_t, int> into;
  for (const FlowEdge& f : col.flows()) ++into[f.to_span];
  std::size_t late_wires = 0;
  for (const OpRecord& r : col.records()) {
    if (!is_wire_span(r)) continue;
    if (r.start < t_fault) continue;  // the demoted exchange's messages
    ++late_wires;
    EXPECT_GE(into[r.id], 1);
  }
  EXPECT_GT(late_wires, 0u) << "demotion produced no staged MPI traffic";
  EXPECT_TRUE(col.inflight().empty());
}

TEST(DtraceCollector, MergedTraceIsDeterministic) {
  Collector a, b;
  run_collected(&a, RunOpts{});
  run_collected(&b, RunOpts{});
  const std::string ta = merged(a);
  const std::string tb = merged(b);
  EXPECT_EQ(ta, tb) << "same config, same seed: merged traces must be byte-identical";
  EXPECT_TRUE(valid_json(ta));
  // Flow events present and paired.
  std::size_t s = 0, f = 0;
  for (std::size_t p = ta.find("\"ph\":\"s\""); p != std::string::npos;
       p = ta.find("\"ph\":\"s\"", p + 1)) {
    ++s;
  }
  for (std::size_t p = ta.find("\"ph\":\"f\""); p != std::string::npos;
       p = ta.find("\"ph\":\"f\"", p + 1)) {
    ++f;
  }
  EXPECT_EQ(s, a.flows().size());
  EXPECT_EQ(f, a.flows().size());
}

TEST(DtraceCollector, OfflineMergeMatchesDirectMerge) {
  Collector col;
  run_collected(&col, RunOpts{});
  ASSERT_GE(col.max_rank(), 1);

  std::vector<std::string> docs;
  for (int r = -1; r <= col.max_rank(); ++r) {
    std::ostringstream os;
    col.write_rank_json(os, r);
    docs.push_back(os.str());
    EXPECT_TRUE(valid_json(docs.back())) << "rank " << r << " export is not valid JSON";
  }
  const Collector rebuilt = Collector::merge(docs);
  EXPECT_EQ(rebuilt.records().size(), col.records().size());
  EXPECT_EQ(rebuilt.flows().size(), col.flows().size());
  EXPECT_EQ(merged(rebuilt), merged(col))
      << "offline per-rank merge must reproduce the direct merged trace byte-for-byte";
}

TEST(DtraceCollector, TenantLabelsNamespaceProcessesAndRoundTrip) {
  Collector col;
  run_collected(&col, RunOpts{});
  ASSERT_GE(col.max_rank(), 1);
  col.set_tenant_labels({{0, "jobA"}, {1, "jobB"}});
  EXPECT_EQ(col.tenant_of(0), "jobA");
  EXPECT_EQ(col.tenant_of(1), "jobB");
  EXPECT_EQ(col.tenant_of(2), "");  // unlabeled ranks keep plain names

  // Labeled ranks render as "tenant/rank N" processes in the merged trace.
  const std::string chrome = merged(col);
  EXPECT_NE(chrome.find("jobA/rank 0"), std::string::npos);
  EXPECT_NE(chrome.find("jobB/rank 1"), std::string::npos);
  EXPECT_EQ(chrome.find("jobA/rank 1"), std::string::npos);

  // Per-rank exports carry the label and merge() restores it.
  std::vector<std::string> docs;
  for (int r = -1; r <= col.max_rank(); ++r) {
    std::ostringstream os;
    col.write_rank_json(os, r);
    docs.push_back(os.str());
  }
  EXPECT_NE(docs[1].find("\"tenant\":\"jobA\""), std::string::npos);
  const Collector rebuilt = Collector::merge(docs);
  EXPECT_EQ(rebuilt.tenant_of(0), "jobA");
  EXPECT_EQ(rebuilt.tenant_of(1), "jobB");
  EXPECT_EQ(merged(rebuilt), merged(col));
}

TEST(DtraceCollector, MergeRejectsMalformedInput) {
  EXPECT_THROW(Collector::merge({"not json"}), std::runtime_error);
  EXPECT_THROW(Collector::merge({"{\"schema\": \"other\"}"}), std::runtime_error);
}

TEST(DtraceCriticalPath, ChainCrossesRanksViaMessageEdge) {
  // Synthetic two-rank trace: rank 0 computes, sends; rank 1 adopts and
  // computes on top. The chain must ride the message edge back into rank 0.
  Collector col;
  col.set_topology(2, 1);
  const std::uint64_t work0 = col.record("rank0.cpu", "pack", 0, 100);
  const std::uint64_t wire = col.record("mpi.r0->r1", "msg 4096B", 100, 200);
  const std::uint64_t adopt = col.record("rank1.mpi", "recv tag=1 <-r0", 200, 200);
  const std::uint64_t work1 = col.record("rank1.cpu", "unpack", 200, 400);
  (void)work0;
  (void)work1;
  col.add_flow(work0, wire, 1, "msg tag=1");
  col.add_flow(wire, adopt, 1, "deliver tag=1");

  telemetry::CriticalPath cp(col.records());
  EXPECT_EQ(cp.add_flow_edges(col.flows()), 2u);
  const telemetry::Analysis an = cp.analyze();
  EXPECT_GE(an.rank_crossings, 1);
  ASSERT_FALSE(an.ranks.empty());
  bool chain_has_message_hop = false;
  for (const telemetry::Hop& h : an.chain) chain_has_message_hop |= h.via_message;
  EXPECT_TRUE(chain_has_message_hop);
}

TEST(DtraceCriticalPath, RealExchangeChainCrossesRanks) {
  // The `drill trace` default shape, recorded end to end (realize through
  // teardown): the chain is known to ride a staged MPI message between the
  // two nodes there.
  Collector col;
  Cluster cluster(small_node(), /*nodes=*/2, /*ranks_per_node=*/2);
  cluster.set_mem_mode(vgpu::MemMode::kPhantom);
  cluster.set_collector(&col);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {48, 48, 48});
    dd.set_radius(1);
    dd.add_data<float>("q0");
    dd.add_data<float>("q1");
    dd.realize();
    for (int it = 0; it < 3; ++it) {
      ctx.comm.barrier();
      dd.exchange();
    }
  });
  telemetry::CriticalPath cp(col.records());
  EXPECT_GT(cp.add_flow_edges(col.flows()), 0u);
  const telemetry::Analysis an = cp.analyze();
  EXPECT_GE(an.rank_crossings, 1) << "a 2-node exchange chain must cross a rank boundary";
}

TEST(DtraceCriticalPath, HbEdgesDedupedAgainstFlowEdges) {
  Collector col;
  col.set_topology(2, 1);
  const std::uint64_t a = col.record("rank0.cpu", "send", 0, 100);
  const std::uint64_t b = col.record("rank1.cpu", "recv", 150, 250);
  col.add_flow(a, b, /*msg=*/7, "msg tag=7");

  telemetry::CriticalPath cp(col.records());
  EXPECT_EQ(cp.add_flow_edges(col.flows()), 1u);
  // The checker reports the same message as a happens-before edge; the
  // analyzer must recognize the identity and not attach it twice.
  std::vector<telemetry::HbEdge> hb{{"rank0", "rank1", 100, 7}};
  EXPECT_EQ(cp.add_hb_edges(hb), 0u);
  // A different message identity on the same spans does attach.
  std::vector<telemetry::HbEdge> other{{"rank0", "rank1", 100, 8}};
  EXPECT_EQ(cp.add_hb_edges(other), 1u);
}

TEST(DtraceProgress, FlagsStragglerAboveBothThresholds) {
  ProgressMonitor mon;
  mon.set_world(4);  // defaults: 2.0x median AND 50us absolute
  const sim::Time base = sim::from_seconds(1.0);
  for (int r = 0; r < 4; ++r) mon.on_exchange_begin(r, 1, base);
  // Ranks 0-2 take 100us; rank 3 takes 300us (3x median, 200us behind).
  for (int r = 0; r < 3; ++r) complete(mon, r, 1, base + 100 * sim::kMicrosecond);
  complete(mon, 3, 1, base + 300 * sim::kMicrosecond);

  ASSERT_EQ(mon.alerts().size(), 1u);
  EXPECT_EQ(mon.alerts()[0].rank, 3);
  EXPECT_EQ(mon.alerts()[0].seq, 1u);
  EXPECT_EQ(mon.alerts()[0].lag, 200 * sim::kMicrosecond);
  EXPECT_NE(mon.alerts()[0].detail.find("straggler"), std::string::npos);
}

TEST(DtraceProgress, StaysSilentWithinSlack) {
  ProgressMonitor mon;
  mon.set_world(4);
  const sim::Time base = sim::from_seconds(1.0);
  // 1.3x the median: over the absolute floor but under the 2x relative
  // gate — ordinary jitter, not a straggler.
  for (int r = 0; r < 4; ++r) mon.on_exchange_begin(r, 1, base);
  for (int r = 0; r < 3; ++r) complete(mon, r, 1, base + 300 * sim::kMicrosecond);
  complete(mon, 3, 1, base + 390 * sim::kMicrosecond);
  // 3x the median but only 20us behind it: under the absolute floor.
  for (int r = 0; r < 4; ++r) mon.on_exchange_begin(r, 2, base + sim::kMillisecond);
  for (int r = 0; r < 3; ++r) {
    complete(mon, r, 2, base + sim::kMillisecond + 10 * sim::kMicrosecond);
  }
  complete(mon, 3, 2, base + sim::kMillisecond + 30 * sim::kMicrosecond);

  EXPECT_TRUE(mon.clean()) << mon.str();
  EXPECT_EQ(mon.exchanges_seen(), 2u);
}

TEST(DtraceProgress, FinishFlagsStalledAndMissingRanks) {
  ProgressMonitor mon;
  mon.set_world(3);
  const sim::Time base = sim::from_seconds(2.0);
  // Ranks 0 and 2 complete exchange 5; rank 1 begins it and hangs.
  for (int r = 0; r < 3; ++r) mon.on_exchange_begin(r, 5, base);
  complete(mon, 0, 5, base + 100 * sim::kMicrosecond);
  complete(mon, 2, 5, base + 110 * sim::kMicrosecond);
  // Exchange 6: rank 2 never even begins.
  mon.on_exchange_begin(0, 6, base + sim::kMillisecond);
  mon.on_exchange_begin(1, 6, base + sim::kMillisecond);
  complete(mon, 0, 6, base + 2 * sim::kMillisecond);
  complete(mon, 1, 6, base + 2 * sim::kMillisecond);

  mon.finish(base + 5 * sim::kMillisecond);
  ASSERT_EQ(mon.alerts().size(), 2u);
  EXPECT_EQ(mon.alerts()[0].rank, 1);
  EXPECT_EQ(mon.alerts()[0].seq, 5u);
  EXPECT_NE(mon.alerts()[0].detail.find("never completed"), std::string::npos);
  EXPECT_EQ(mon.alerts()[1].rank, 2);
  EXPECT_EQ(mon.alerts()[1].seq, 6u);
  EXPECT_NE(mon.alerts()[1].detail.find("never began"), std::string::npos);
}

TEST(DtraceProgress, HoldsOnlyUnfinishedExchanges) {
  // An exchange every rank finished is evaluated and dropped, so a long
  // clean run holds nothing, and a later stall is still flagged.
  ProgressMonitor mon;
  mon.set_world(3);
  sim::Time t = sim::from_seconds(1.0);
  std::size_t max_held = 0;
  for (std::uint64_t seq = 1; seq <= 50; ++seq) {
    for (int r = 0; r < 3; ++r) mon.on_exchange_begin(r, seq, t);
    for (int r = 0; r < 3; ++r) {
      max_held = std::max(max_held, mon.exchanges_held());
      complete(mon, r, seq, t + 100 * sim::kMicrosecond);
    }
    t += sim::kMillisecond;
  }
  EXPECT_LE(max_held, 1u);
  EXPECT_EQ(mon.exchanges_held(), 0u);
  // Exchange 51: rank 1 begins it and never completes.
  for (int r = 0; r < 3; ++r) mon.on_exchange_begin(r, 51, t);
  complete(mon, 0, 51, t + 100 * sim::kMicrosecond);
  complete(mon, 2, 51, t + 100 * sim::kMicrosecond);

  EXPECT_EQ(mon.exchanges_seen(), 51u);
  mon.finish(t + 5 * sim::kMillisecond);
  ASSERT_EQ(mon.alerts().size(), 1u) << mon.str();
  EXPECT_EQ(mon.alerts()[0].rank, 1);
  EXPECT_EQ(mon.alerts()[0].seq, 51u);
  EXPECT_NE(mon.str().find("over 51 exchanges"), std::string::npos) << mon.str();
}

TEST(DtraceProgress, AlertSnapshotsFlightTailAndInflightContexts) {
  telemetry::FlightRecorder flight;
  flight.log(telemetry::EventKind::kError, sim::from_seconds(0.5), "nic", "link down");

  Collector col;
  col.set_topology(4, 1);
  // Rank 2 stamps three sends (marker spans 9-11, after eight earlier
  // spans); the first two complete, the third is still in the air.
  for (int i = 0; i < 8; ++i) col.record("rank0.cpu", "issue", 0, 0);
  for (std::uint64_t serial = 40; serial <= 42; ++serial) {
    simpi::MsgInfo m;
    m.serial = serial;
    m.is_send = true;
    m.src = 2;
    m.dst = 3;
    col.on_queued(m);
  }
  col.on_request_done(40, 0);
  col.on_request_done(41, 0);

  ProgressMonitor mon;
  mon.set_world(4);
  mon.set_flight(&flight);
  mon.set_collector(&col);
  const sim::Time base = sim::from_seconds(1.0);
  for (int r = 0; r < 4; ++r) mon.on_exchange_begin(r, 1, base);
  for (int r = 0; r < 3; ++r) complete(mon, r, 1, base + 50 * sim::kMicrosecond);
  complete(mon, 3, 1, base + 500 * sim::kMicrosecond);

  ASSERT_EQ(mon.alerts().size(), 1u);
  const dtrace::StallAlert& a = mon.alerts()[0];
  EXPECT_NE(a.flight_tail.find("link down"), std::string::npos);
  ASSERT_EQ(a.inflight.size(), 1u);
  EXPECT_EQ(a.inflight[0].rank, 2);
  EXPECT_EQ(a.inflight[0].span, 11u);
  EXPECT_EQ(a.inflight[0].seq, 3u);
  EXPECT_NE(a.str().find("in-flight contexts"), std::string::npos);
}

TEST(DtraceProgress, LiveRunOnSmallClusterIsClean) {
  // End-to-end wiring: Cluster attaches the monitor to the Job, which fans
  // the domain's heartbeats out to it; a healthy deterministic run must
  // produce zero alerts.
  ProgressMonitor mon;
  Cluster cluster(small_node(), /*nodes=*/2, /*ranks_per_node=*/2);
  cluster.set_mem_mode(vgpu::MemMode::kPhantom);
  cluster.set_progress_monitor(&mon);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {32, 32, 32});
    dd.set_radius(1);
    dd.add_data<float>("q0");
    dd.realize();
    for (int it = 0; it < 3; ++it) {
      ctx.comm.barrier();
      dd.exchange();
    }
  });
  mon.finish(cluster.engine().now());
  EXPECT_TRUE(mon.clean()) << mon.str();
  EXPECT_EQ(mon.exchanges_seen(), 3u);
}
