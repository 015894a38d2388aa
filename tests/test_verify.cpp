#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "check/checker.h"
#include "check/report.h"
#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "core/tagspace.h"
#include "fault/fault.h"
#include "plan/plan.h"
#include "sched/sched.h"
#include "topo/archetype.h"
#include "verify/verify.h"

namespace sim = stencil::sim;
namespace topo = stencil::topo;
namespace check = stencil::check;
namespace plan = stencil::plan;
namespace fault = stencil::fault;
namespace verify = stencil::verify;
namespace tagspace = stencil::tagspace;

using stencil::Cluster;
using stencil::Dim3;
using stencil::DistributedDomain;
using stencil::Method;
using stencil::MethodFlags;
using stencil::RankCtx;
using verify::ExchangeModel;
using verify::FindingKind;
using verify::Op;
using verify::OpKind;
using verify::RankProgram;

namespace {

std::string dump(const verify::Report& rep) {
  std::ostringstream os;
  rep.write(os);
  return os.str();
}

std::string dump(const check::CheckReport& rep) {
  std::ostringstream os;
  rep.write(os);
  return os.str();
}

// Plan admission's verdict on `p`: "" when admitted, else the report the
// AdmissionError carries.
std::string admission_text(DistributedDomain& dd, const plan::CompiledPlan& p) {
  try {
    dd.plan_cache().admit(p);
    return {};
  } catch (const plan::AdmissionError& e) {
    return e.report();
  }
}

// The reference model's verdict on `p`, rendered as admission renders it.
std::string reference_text(const DistributedDomain& dd, const plan::CompiledPlan& p) {
  const verify::Report rep = dd.verify_plan(p);
  return rep.clean() ? std::string() : dump(rep);
}

// -- fixture builders -------------------------------------------------------

Op msg(OpKind kind, int rank, int peer, int tag, std::uint64_t bytes) {
  Op o;
  o.kind = kind;
  o.rank = rank;
  o.peer = peer;
  o.tag = tag;
  o.bytes = bytes;
  return o;
}

verify::Access flat(std::uint64_t buffer, std::uint64_t offset,
                    std::uint64_t bytes, bool write) {
  verify::Access a;
  a.buffer = buffer;
  a.write = write;
  a.offset = offset;
  a.bytes = bytes;
  return a;
}

ExchangeModel two_ranks() {
  ExchangeModel m;
  m.world_size = 2;
  m.ranks.resize(2);
  m.ranks[0].rank = 0;
  m.ranks[1].rank = 1;
  for (const tagspace::Range& tr : tagspace::reserved_ranges()) {
    m.reserved.push_back({tr.lo, tr.hi, tr.name});
  }
  m.name = "fixture";
  return m;
}

// A clean unidirectional message rank 0 -> rank 1 on `tag`.
void add_clean_message(ExchangeModel& m, int tag, std::uint64_t bytes) {
  m.ranks[1].ops.push_back(msg(OpKind::kPostRecv, 1, 0, tag, bytes));
  m.ranks[0].ops.push_back(msg(OpKind::kStartSend, 0, 1, tag, bytes));
  m.ranks[1].ops.push_back(msg(OpKind::kWaitRecv, 1, 0, tag, bytes));
  m.ranks[0].ops.push_back(msg(OpKind::kWaitSend, 0, 1, tag, bytes));
}

}  // namespace

// ---------------------------------------------------------------------------
// Seeded-defect fixtures: each hand-built model carries exactly one protocol
// bug; the verifier must name it with rank- and tag-precise diagnostics.
// ---------------------------------------------------------------------------

TEST(VerifySeeded, CleanFixtureHasNoFindings) {
  ExchangeModel m = two_ranks();
  add_clean_message(m, 7, 256);
  const verify::Report rep = verify::verify(m);
  EXPECT_TRUE(rep.clean()) << dump(rep);
}

TEST(VerifySeeded, MismatchedTagNamesBothTags) {
  // Sender uses tag 41, receiver posted tag 42: same endpoints, same bytes.
  ExchangeModel m = two_ranks();
  m.ranks[1].ops.push_back(msg(OpKind::kPostRecv, 1, 0, 42, 512));
  m.ranks[0].ops.push_back(msg(OpKind::kStartSend, 0, 1, 41, 512));
  const verify::Report rep = verify::verify(m);
  ASSERT_TRUE(rep.has(FindingKind::kTagMismatch)) << dump(rep);
  const auto& fs = rep.findings();
  bool named = false;
  for (const auto& f : fs) {
    if (f.kind != FindingKind::kTagMismatch) continue;
    named = f.detail.find("41") != std::string::npos &&
            f.detail.find("42") != std::string::npos;
  }
  EXPECT_TRUE(named) << dump(rep);
}

TEST(VerifySeeded, OrphanRecvIsAnchoredAtPostingRank) {
  ExchangeModel m = two_ranks();
  add_clean_message(m, 3, 64);
  m.ranks[1].ops.push_back(msg(OpKind::kPostRecv, 1, 0, 99, 64));
  const verify::Report rep = verify::verify(m);
  ASSERT_EQ(rep.count(FindingKind::kOrphanRecv), 1u) << dump(rep);
  const verify::Finding& f = rep.findings().front();
  EXPECT_EQ(f.kind, FindingKind::kOrphanRecv);
  EXPECT_EQ(f.rank, 1);
  EXPECT_EQ(f.peer, 0);
  EXPECT_EQ(f.tag, 99);
  ASSERT_EQ(f.ops.size(), 1u);
  EXPECT_NE(f.ops.front().find("tag 99"), std::string::npos);
}

TEST(VerifySeeded, SizeMismatchOnMatchedChannel) {
  ExchangeModel m = two_ranks();
  m.ranks[1].ops.push_back(msg(OpKind::kPostRecv, 1, 0, 5, 128));
  m.ranks[0].ops.push_back(msg(OpKind::kStartSend, 0, 1, 5, 256));
  const verify::Report rep = verify::verify(m);
  EXPECT_TRUE(rep.has(FindingKind::kSizeMismatch)) << dump(rep);
}

TEST(VerifySeeded, HeadToHeadRendezvousCycleNamesEveryOp) {
  // Both ranks wait for their receive to land before starting their own
  // send: the classic rendezvous deadlock a persistent-request schedule can
  // freeze into. All channels are matched, so only the cycle fires.
  ExchangeModel m = two_ranks();
  m.ranks[0].ops.push_back(msg(OpKind::kPostRecv, 0, 1, 1, 32));
  m.ranks[1].ops.push_back(msg(OpKind::kPostRecv, 1, 0, 2, 32));
  m.ranks[0].ops.push_back(msg(OpKind::kWaitRecv, 0, 1, 1, 32));
  m.ranks[1].ops.push_back(msg(OpKind::kWaitRecv, 1, 0, 2, 32));
  m.ranks[0].ops.push_back(msg(OpKind::kStartSend, 0, 1, 2, 32));
  m.ranks[1].ops.push_back(msg(OpKind::kStartSend, 1, 0, 1, 32));
  m.ranks[0].ops.push_back(msg(OpKind::kWaitSend, 0, 1, 2, 32));
  m.ranks[1].ops.push_back(msg(OpKind::kWaitSend, 1, 0, 1, 32));
  const verify::Report rep = verify::verify(m);
  ASSERT_TRUE(rep.has(FindingKind::kWaitCycle)) << dump(rep);
  for (const auto& f : rep.findings()) {
    if (f.kind != FindingKind::kWaitCycle) continue;
    // The counterexample walks both waits and both sends.
    EXPECT_GE(f.ops.size(), 4u) << dump(rep);
    std::size_t waits = 0, sends = 0;
    for (const std::string& op : f.ops) {
      waits += op.find("wait-recv") != std::string::npos;
      sends += op.find("start-send") != std::string::npos;
    }
    EXPECT_EQ(waits, 2u) << dump(rep);
    EXPECT_EQ(sends, 2u) << dump(rep);
  }
}

TEST(VerifySeeded, TokenWaitWithoutSignalIsUnsatisfied) {
  ExchangeModel m = two_ranks();
  Op w;
  w.kind = OpKind::kTokenWait;
  w.rank = 0;
  w.peer = 1;
  w.token = "colo:17:data";
  m.ranks[0].ops.push_back(std::move(w));
  const verify::Report rep = verify::verify(m);
  ASSERT_TRUE(rep.has(FindingKind::kUnsatisfiedWait)) << dump(rep);
  EXPECT_NE(rep.findings().front().detail.find("colo:17:data"),
            std::string::npos);
}

TEST(VerifySeeded, CheckpointTagCollisionIsFlagged) {
  // A halo message whose tag strays into recover's reserved checkpoint span.
  ExchangeModel m = two_ranks();
  const int bad = tagspace::checkpoint_tag(3, 1);
  add_clean_message(m, bad, 1024);
  const verify::Report rep = verify::verify(m);
  ASSERT_TRUE(rep.has(FindingKind::kTagCollision)) << dump(rep);
  bool named = false;
  for (const auto& f : rep.findings()) {
    if (f.kind != FindingKind::kTagCollision) continue;
    EXPECT_EQ(f.tag, bad);
    named |= f.detail.find("checkpoint") != std::string::npos;
  }
  EXPECT_TRUE(named) << dump(rep);
}

TEST(VerifySeeded, ClaimedAggregationTagIsNotACollision) {
  // Aggregation headers legitimately occupy their reserved span — but only
  // when every endpoint claims the range by name.
  ExchangeModel m = two_ranks();
  const int agg = tagspace::agg_tag(0);
  add_clean_message(m, agg, 4096);
  verify::Report rep = verify::verify(m);
  EXPECT_TRUE(rep.has(FindingKind::kTagCollision)) << dump(rep);

  for (RankProgram& rp : m.ranks) {
    for (Op& o : rp.ops) o.claims = tagspace::kAggRangeName;
  }
  rep = verify::verify(m);
  EXPECT_TRUE(rep.clean()) << dump(rep);
}

TEST(VerifySeeded, UnsynchronizedPackRecvOverlapIsAHazard) {
  // Rank 1's pack kernel reads the very buffer its posted receive lands in,
  // with no plan-ordered sync between them.
  ExchangeModel m = two_ranks();
  add_clean_message(m, 11, 4096);  // recv landing on rank 1
  RankProgram& r1 = m.ranks[1];
  for (Op& o : r1.ops) {
    if (o.kind == OpKind::kWaitRecv) o.accesses.push_back(flat(77, 0, 4096, true));
  }
  Op pack;
  pack.kind = OpKind::kStream;
  pack.rank = 1;
  pack.stream = 9;
  pack.tag = 11;
  pack.accesses.push_back(flat(77, 1024, 512, false));
  pack.what = "pack reading buffer 77";
  r1.ops.push_back(std::move(pack));

  verify::Report rep = verify::verify(m);
  ASSERT_EQ(rep.count(FindingKind::kBufferHazard), 1u) << dump(rep);
  const verify::Finding& f = rep.findings().front();
  EXPECT_EQ(f.rank, 1);
  EXPECT_EQ(f.ops.size(), 2u);

  // The same pair with a plan-ordered edge between them verifies clean.
  std::size_t wait_idx = 0;
  for (std::size_t i = 0; i < r1.ops.size(); ++i) {
    if (r1.ops[i].kind == OpKind::kWaitRecv) wait_idx = i;
  }
  r1.order.emplace_back(wait_idx, r1.ops.size() - 1);  // recv-done -> pack
  rep = verify::verify(m);
  EXPECT_TRUE(rep.clean()) << dump(rep);
}

TEST(VerifyReport, JsonIsDeterministicAndSchemaTagged) {
  ExchangeModel m = two_ranks();
  m.ranks[1].ops.push_back(msg(OpKind::kPostRecv, 1, 0, 99, 64));
  const verify::Report rep = verify::verify(m);
  std::ostringstream a, b;
  rep.write_json(a, "fixture");
  rep.write_json(b, "fixture");
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"schema\":\"verify-v1\""), std::string::npos);
  EXPECT_NE(a.str().find("\"plan\":\"fixture\""), std::string::npos);
  EXPECT_NE(a.str().find("orphan-recv"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tag-space hygiene of the layout itself.
// ---------------------------------------------------------------------------

TEST(TagSpace, ReservedRangesArePairwiseDisjointAndNegative) {
  const auto rs = tagspace::reserved_ranges();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_LE(rs[i].lo, rs[i].hi);
    EXPECT_LT(rs[i].hi, 0) << rs[i].name;
    for (std::size_t j = i + 1; j < rs.size(); ++j) {
      EXPECT_TRUE(rs[i].hi < rs[j].lo || rs[j].hi < rs[i].lo)
          << rs[i].name << " overlaps " << rs[j].name;
    }
  }
}

TEST(TagSpace, DerivationsStayInsideTheirRanges) {
  EXPECT_EQ(tagspace::data_tag(0, 0), 0);
  EXPECT_EQ(tagspace::data_tag(2, 3), 2 * 26 + 3);
  EXPECT_EQ(tagspace::setup_tag(0), -10);
  EXPECT_EQ(tagspace::agg_tag(0), -10'000'000);
  EXPECT_EQ(tagspace::checkpoint_tag(0, 0), -40'000'000);
  EXPECT_EQ(tagspace::restore_tag(0, 0), -50'000'000);

  const auto rs = tagspace::reserved_ranges();
  auto in = [&](const char* name, int tag) {
    for (const auto& r : rs) {
      if (std::string(r.name) == name) return tag >= r.lo && tag <= r.hi;
    }
    return false;
  };
  EXPECT_TRUE(in("colocated-setup", tagspace::setup_tag(tagspace::kMaxDataTag)));
  EXPECT_TRUE(in("aggregate-header", tagspace::agg_tag(tagspace::kMaxRanks - 1)));
  EXPECT_TRUE(in("checkpoint", tagspace::checkpoint_tag(156'249, 63)));
  EXPECT_TRUE(in("restore", tagspace::restore_tag(156'249, 63)));
}

TEST(TagSpace, TenantWindowsTileDisjointAndDeriveInside) {
  for (int t = 0; t < tagspace::kMaxTenants; ++t) {
    const tagspace::Range w = tagspace::tenant_data_range(t);
    EXPECT_EQ(w.lo, t * tagspace::kTenantDataSpan);
    EXPECT_EQ(w.hi - w.lo + 1, tagspace::kTenantDataSpan);
    if (t > 0) {
      EXPECT_EQ(w.lo, tagspace::tenant_data_range(t - 1).hi + 1);  // no gap, no overlap
    }
  }
  // Per-tenant derivation lands inside the owner's window...
  const int tag = tagspace::data_tag(7, 3, 2);
  const tagspace::Range w2 = tagspace::tenant_data_range(2);
  EXPECT_GE(tag, w2.lo);
  EXPECT_LE(tag, w2.hi);
  EXPECT_EQ(tag, 2 * tagspace::kTenantDataSpan + 7 * 26 + 3);
  // ...and throws at the window edge for tenants > 0 instead of bleeding
  // into the neighbour (tenant 0 keeps the legacy full-span bound).
  const std::int64_t over = (tagspace::kTenantDataSpan + 25) / 26;
  EXPECT_THROW(tagspace::data_tag(over, 25, 1), std::overflow_error);
  EXPECT_NO_THROW(tagspace::data_tag(over, 25, 0));
  EXPECT_THROW(tagspace::tenant_data_range(tagspace::kMaxTenants), std::overflow_error);
  EXPECT_THROW(tagspace::data_tag(0, 0, -1), std::overflow_error);
}

TEST(TagSpace, CollectiveRangeIsReservedAndHoldsSimpiTags) {
  // PR 7's allgather tags (-1001/-1002) lived inside the colocated-setup
  // span; collectives now derive from their own reserved window.
  bool found = false;
  for (const auto& r : tagspace::reserved_ranges()) {
    if (std::string(r.name) != tagspace::kCollectiveRangeName) continue;
    found = true;
    EXPECT_GE(tagspace::collective_tag(0), r.lo);
    EXPECT_LE(tagspace::collective_tag(0), r.hi);
    EXPECT_GE(tagspace::collective_tag(tagspace::kCollectiveSpan - 1), r.lo);
    EXPECT_LE(tagspace::collective_tag(tagspace::kCollectiveSpan - 1), r.hi);
  }
  EXPECT_TRUE(found);
  EXPECT_THROW(tagspace::collective_tag(tagspace::kCollectiveSpan), std::overflow_error);
  EXPECT_THROW(tagspace::collective_tag(-1), std::overflow_error);
}

// ---------------------------------------------------------------------------
// Cross-tenant isolation: per-model window enforcement plus the whole-machine
// disjointness pass the scheduler runs after every wave.
// ---------------------------------------------------------------------------

TEST(VerifyTenant, DataTagEscapingTheWindowIsFlagged) {
  ExchangeModel m = two_ranks();
  m.tenant_scoped = true;
  m.tenant = 1;
  const tagspace::Range w = tagspace::tenant_data_range(1);
  m.tenant_window = {w.lo, w.hi, "tenant-data"};
  add_clean_message(m, w.lo + 4, 256);  // inside: fine
  add_clean_message(m, 4, 256);         // tenant 0's window: escape
  const verify::Report rep = verify::verify(m);
  ASSERT_EQ(rep.count(), 1u) << dump(rep);
  EXPECT_EQ(rep.findings()[0].kind, FindingKind::kTagCollision);
  EXPECT_NE(rep.findings()[0].detail.find("escapes tenant 1"), std::string::npos);
}

TEST(VerifyTenant, CrossTenantWindowOverlapIsFlagged) {
  ExchangeModel a = two_ranks();
  a.name = "jobA";
  a.tenant_scoped = true;
  a.tenant = 0;
  a.tenant_window = {0, 599'999, "tenant-data"};
  ExchangeModel b = two_ranks();
  b.name = "jobB";
  b.tenant_scoped = true;
  b.tenant = 1;
  b.tenant_window = {599'000, 1'199'999, "tenant-data"};  // leaks into tenant 0
  verify::Report rep;
  verify::check_cross_tenant({&a, &b}, rep);
  ASSERT_EQ(rep.count(), 1u) << dump(rep);
  EXPECT_NE(rep.findings()[0].detail.find("overlaps tenant 1"), std::string::npos);
}

TEST(VerifyTenant, SharedWorldChannelAcrossModelsIsFlagged) {
  // Two tenants whose slices wrongly share world rank 3 and whose programs
  // both use the same (src, dst, tag) world channel: matching between them
  // would be order-dependent on a real MPI.
  ExchangeModel a = two_ranks();
  a.name = "jobA";
  a.world_rank_of = {2, 3};
  add_clean_message(a, 17, 64);
  ExchangeModel b = two_ranks();
  b.name = "jobB";
  b.world_rank_of = {2, 3};
  add_clean_message(b, 17, 64);
  verify::Report rep;
  verify::check_cross_tenant({&a, &b}, rep);
  ASSERT_EQ(rep.count(), 1u) << dump(rep);
  EXPECT_EQ(rep.findings()[0].kind, FindingKind::kTagCollision);
  EXPECT_NE(rep.findings()[0].detail.find("used by both tenant model"), std::string::npos);
  // Disjoint world slices with identical local programs are clean.
  b.world_rank_of = {4, 5};
  verify::Report clean;
  verify::check_cross_tenant({&a, &b}, clean);
  EXPECT_EQ(clean.count(), 0u) << dump(clean);
}

TEST(TagSpace, ExhaustionThrowsInsteadOfAliasing) {
  // Before tagspace.h, each of these silently bled into the next span.
  EXPECT_THROW(tagspace::data_tag(385'000, 0), std::overflow_error);
  EXPECT_THROW(tagspace::data_tag(-1, 0), std::overflow_error);
  EXPECT_THROW(tagspace::data_tag(0, 26), std::overflow_error);
  EXPECT_THROW(tagspace::setup_tag(-1), std::overflow_error);
  EXPECT_THROW(tagspace::setup_tag(tagspace::kMaxDataTag + 1), std::overflow_error);
  EXPECT_THROW(tagspace::agg_tag(-1), std::overflow_error);
  EXPECT_THROW(tagspace::agg_tag(tagspace::kMaxRanks), std::overflow_error);
  EXPECT_THROW(tagspace::checkpoint_tag(156'250, 0), std::overflow_error);
  EXPECT_THROW(tagspace::checkpoint_tag(0, 64), std::overflow_error);
  EXPECT_THROW(tagspace::restore_tag(156'250, 0), std::overflow_error);
}

// ---------------------------------------------------------------------------
// Plan-cache admission: the hook turns a dirty report into a rejection.
// ---------------------------------------------------------------------------

TEST(PlanAdmission, CleanReportAdmitsAndCountsVerification) {
  plan::PlanCache cache;
  cache.set_admission([](const plan::CompiledPlan&) { return std::string(); });
  EXPECT_TRUE(cache.has_admission());
  plan::CompiledPlan& p = cache.emplace(plan::PlanKey{});
  EXPECT_NO_THROW(cache.admit(p));
  EXPECT_EQ(cache.stats().verifications, 1u);
  EXPECT_EQ(cache.stats().rejections, 0u);
}

TEST(PlanAdmission, FindingsRejectWithReportAttached) {
  plan::PlanCache cache;
  cache.set_admission(
      [](const plan::CompiledPlan&) { return std::string("[orphan-recv] rank 1 tag 99"); });
  plan::PlanKey key;
  key.quantities = {0};
  plan::CompiledPlan& p = cache.emplace(key);
  try {
    cache.admit(p);
    FAIL() << "admit did not throw";
  } catch (const plan::AdmissionError& e) {
    EXPECT_NE(std::string(e.what()).find("plan admission rejected"),
              std::string::npos);
    EXPECT_NE(e.report().find("orphan-recv"), std::string::npos);
  }
  EXPECT_EQ(cache.stats().verifications, 1u);
  EXPECT_EQ(cache.stats().rejections, 1u);
}

TEST(PlanAdmission, NoHookIsANoOp) {
  plan::PlanCache cache;
  EXPECT_FALSE(cache.has_admission());
  plan::CompiledPlan& p = cache.emplace(plan::PlanKey{});
  EXPECT_NO_THROW(cache.admit(p));
  EXPECT_EQ(cache.stats().verifications, 0u);
}

// ---------------------------------------------------------------------------
// Production plans: every method's compiled plan must verify clean, at
// admission (fail-fast inside acquire_plan) and under explicit re-checks.
// ---------------------------------------------------------------------------

namespace {

struct VerifyCase {
  const char* name;
  int nodes;
  int ranks_per_node;
  MethodFlags flags;
  bool aggregate = false;
};

void run_verified_exchange(const VerifyCase& c) {
  SCOPED_TRACE(c.name);
  const Dim3 domain{48, 48, 48};
  Cluster cluster(topo::summit(), c.nodes, c.ranks_per_node);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<double>("b");
    dd.set_methods(c.flags);
    dd.set_remote_aggregation(c.aggregate);
    dd.set_persistent(true);
    ASSERT_TRUE(dd.plan_cache().has_admission());  // admission is always on
    dd.realize();
    dd.exchange();
    dd.exchange({0});  // selective subsets compile (and admit) their own plans
    dd.exchange();

    // Admission ran once per compile and rejected nothing.
    EXPECT_EQ(dd.plan_stats().verifications, dd.plan_stats().compiles);
    EXPECT_EQ(dd.plan_stats().rejections, 0u);
    // Explicit re-verification of every cached plan is also clean, and
    // admission agrees with it.
    for (const auto& p : dd.plan_cache().entries()) {
      const verify::Report rep = dd.verify_plan(*p);
      EXPECT_TRUE(rep.clean()) << "plan { " << p->key.str() << " }\n" << dump(rep);
      EXPECT_EQ(admission_text(dd, *p), reference_text(dd, *p))
          << "plan { " << p->key.str() << " }";
    }
    ctx.comm.barrier();
  });
  EXPECT_TRUE(chk.report().clean()) << dump(chk.report());
  // One job-wide verification per quantity set, none per rank.
  EXPECT_EQ(cluster.admission_counts().job_verifications, 2u);
  EXPECT_EQ(cluster.admission_counts().fallbacks, 0u);
}

}  // namespace

TEST(VerifyPlans, SingleNodeKernelPeerColocatedClean) {
  run_verified_exchange({"single-node kAll", 1, 2, MethodFlags::kAll});
}

TEST(VerifyPlans, CudaAwareRemoteClean) {
  run_verified_exchange({"cuda-aware remote", 2, 1, MethodFlags::kAllCudaAware});
}

TEST(VerifyPlans, StagedRemoteClean) {
  run_verified_exchange(
      {"staged remote", 2, 1, MethodFlags::kStaged | MethodFlags::kPeer | MethodFlags::kKernel});
}

TEST(VerifyPlans, StagedAggregatedClean) {
  run_verified_exchange(
      {"staged aggregated", 2, 1,
       MethodFlags::kStaged | MethodFlags::kPeer | MethodFlags::kKernel, true});
}

TEST(VerifyPlans, AllMethodsTwoByTwoClean) {
  run_verified_exchange({"all methods 2x2", 2, 2, MethodFlags::kAllCudaAware | MethodFlags::kStaged});
}

// After a fault storm demotes transfers, migrated plans are re-admitted
// (dirty rebuilds only) and still verify clean.
TEST(VerifyPlans, PostDemotionMigratedPlansReverifyClean) {
  const sim::Time t_fault = sim::from_seconds(1.0);
  const Dim3 domain{48, 48, 48};
  fault::FaultPlan fplan;
  fplan.revoke_peer(t_fault, -1, -1).invalidate_ipc(t_fault).disable_cuda_aware(t_fault);
  fault::Injector inj(fplan);

  Cluster cluster(topo::summit(), 2, 2);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  cluster.set_fault_injector(&inj);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.set_methods(MethodFlags::kAllCudaAware | MethodFlags::kStaged);
    dd.set_persistent(true);
    dd.realize();

    dd.exchange();
    const std::uint64_t admitted_before = dd.plan_stats().verifications;
    EXPECT_GE(admitted_before, 1u);

    ctx.engine().sleep_until(t_fault + sim::kMicrosecond);
    ctx.comm.barrier();
    // First post-fault exchange trips the demotions mid-replay (dirtying the
    // plan); the second migrates the dirty programs and re-admits the plan.
    dd.exchange();
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();

    EXPECT_GT(dd.topology_epoch(), 0u);
    EXPECT_GT(dd.plan_stats().verifications, admitted_before)
        << "migrated plan was not re-verified";
    EXPECT_EQ(dd.plan_stats().rejections, 0u);
    for (const auto& p : dd.plan_cache().entries()) {
      EXPECT_EQ(p->dirty_count(), 0u);
      const verify::Report rep = dd.verify_plan(*p);
      EXPECT_TRUE(rep.clean()) << "plan { " << p->key.str() << " }\n" << dump(rep);
    }

    // A pure cache hit does not re-run the verifier.
    const std::uint64_t admitted_after = dd.plan_stats().verifications;
    dd.exchange();
    EXPECT_EQ(dd.plan_stats().verifications, admitted_after);
    ctx.comm.barrier();

    // Admission of every migrated plan agrees with the reference model.
    for (const auto& p : dd.plan_cache().entries()) {
      EXPECT_EQ(admission_text(dd, *p), reference_text(dd, *p))
          << "plan { " << p->key.str() << " }";
    }
    ctx.comm.barrier();
  });
  EXPECT_TRUE(chk.report().clean()) << dump(chk.report());
}

// The local rank is lowered from the compiled artifact, so a program that
// drifted from the shared derivation (a wrong tag or byte count) surfaces as
// a matching defect against the peers' derived programs.
TEST(VerifyPlans, ArtifactDriftIsAMatchingDefect) {
  Cluster cluster(topo::summit(), 2, 1);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {48, 48, 48});
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.set_methods(MethodFlags::kStaged | MethodFlags::kPeer | MethodFlags::kKernel);
    dd.set_persistent(true);
    dd.realize();
    dd.exchange();
    if (ctx.comm.rank() == 0) {
      plan::CompiledPlan& p = *dd.plan_cache().entries().front();
      ASSERT_TRUE(dd.verify_plan(p).clean());
      auto prog = std::find_if(p.programs.begin(), p.programs.end(), [](const auto& pr) {
        return pr.method == Method::kStaged && pr.send_req.valid();
      });
      ASSERT_NE(prog, p.programs.end());
      const int tag = prog->tag;
      const auto names = [](const verify::Report& rep, int t) {
        const std::string needle = "tag " + std::to_string(t);
        for (const verify::Finding& f : rep.findings()) {
          if (f.tag == t || f.detail.find(needle) != std::string::npos) return true;
        }
        return false;
      };

      // Admission rejects each drift with the reference model's report.
      prog->tag = tag + 1;
      verify::Report rep = dd.verify_plan(p);
      EXPECT_FALSE(rep.clean());
      EXPECT_TRUE(names(rep, tag + 1)) << dump(rep);
      EXPECT_EQ(admission_text(dd, p), dump(rep));
      prog->tag = tag;

      prog->bytes += 8;
      rep = dd.verify_plan(p);
      EXPECT_FALSE(rep.clean());
      EXPECT_TRUE(names(rep, tag)) << dump(rep);
      EXPECT_EQ(admission_text(dd, p), dump(rep));
      prog->bytes -= 8;

      EXPECT_TRUE(dd.verify_plan(p).clean());
      EXPECT_EQ(admission_text(dd, p), "");
    }
    ctx.comm.barrier();
  });
}

// A cache hit cannot admit a drifted artifact: every rank of a 2x6 job has
// admitted under the one shared job-wide derivation before rank 7 drifts.
TEST(VerifyPlans, DriftAfterSharedAdmissionIsRejected) {
  Cluster cluster(topo::summit(), 2, 6);
  cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {48, 48, 48});
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.set_persistent(true);
    dd.realize();
    dd.exchange();
    ctx.comm.barrier();
    if (ctx.comm.rank() == 7) {
      EXPECT_EQ(cluster.admission_counts().job_verifications, 1u);
      plan::CompiledPlan& p = *dd.plan_cache().entries().front();
      auto prog = std::find_if(p.programs.begin(), p.programs.end(), [](const auto& pr) {
        return pr.method == Method::kStaged && pr.send_req.valid();
      });
      ASSERT_NE(prog, p.programs.end());
      EXPECT_EQ(admission_text(dd, p), "");

      prog->bytes += 8;
      const verify::Report rep = dd.verify_plan(p);
      EXPECT_TRUE(rep.has(FindingKind::kSizeMismatch)) << dump(rep);
      EXPECT_EQ(admission_text(dd, p), dump(rep));
      prog->bytes -= 8;

      EXPECT_EQ(admission_text(dd, p), "");
      EXPECT_EQ(cluster.admission_counts().job_verifications, 1u);
      EXPECT_EQ(cluster.admission_counts().fallbacks, 1u);
    }
    ctx.comm.barrier();
  });
}

// The cluster verifies each admission key once for the whole job; every
// rank still counts its own admissions in PlanStats.
TEST(VerifyPlans, OneJobVerificationPerKey) {
  {
    Cluster cluster(topo::summit(), 2, 6);
    cluster.set_mem_mode(stencil::vgpu::MemMode::kPhantom);
    cluster.run([&](RankCtx& ctx) {
      DistributedDomain dd(ctx, {48, 48, 48});
      dd.set_radius(1);
      dd.add_data<float>("a");
      dd.add_data<double>("b");
      dd.set_persistent(true);
      dd.realize();
      dd.exchange();
      ctx.comm.barrier();
      EXPECT_EQ(cluster.admission_counts().job_verifications, 1u);
      ctx.comm.barrier();
      dd.exchange({0});  // bytes per point changed: a new key
      ctx.comm.barrier();
      EXPECT_EQ(cluster.admission_counts().job_verifications, 2u);
      ctx.comm.barrier();
      dd.exchange();  // a cache hit admits nothing
      EXPECT_EQ(dd.plan_stats().compiles, 2u);
      EXPECT_EQ(dd.plan_stats().verifications, dd.plan_stats().compiles);
      ctx.comm.barrier();
    });
    EXPECT_EQ(cluster.admission_counts().job_verifications, 2u);
    EXPECT_EQ(cluster.admission_counts().fallbacks, 0u);
  }

  // Two co-tenants of one shape share a placement but not an admission key.
  Cluster cluster(topo::summit(), 2, 6);
  stencil::sched::Scheduler sched(cluster);
  for (const char* name : {"jobA", "jobB"}) {
    stencil::sched::JobSpec s;
    s.name = name;
    s.user = "u";
    s.gpus = 6;
    s.domain = {48, 48, 48};
    s.iterations = 2;
    sched.submit(s);
  }
  const stencil::sched::RunReport rep = sched.run();
  ASSERT_EQ(rep.tenants.size(), 2u);
  EXPECT_EQ(rep.waves, 1);
  EXPECT_EQ(rep.verify_findings, 0u);
  EXPECT_EQ(cluster.admission_counts().job_verifications, 2u);
  EXPECT_EQ(cluster.admission_counts().fallbacks, 0u);
}

// A rejected plan never replays: admission failure leaves the domain idle
// (the exchange does not count) and drops the plan with its persistent
// requests, so a retry recompiles and re-admits it.
TEST(PlanAdmission, RejectedPlanLeavesDomainIdleAndIsRecompiled) {
  const sim::Time t_fault = sim::from_seconds(1.0);
  fault::FaultPlan fplan;
  fplan.revoke_peer(t_fault, -1, -1);
  fault::Injector inj(fplan);

  Cluster cluster(topo::summit(), 1, 2);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  cluster.set_fault_injector(&inj);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, {48, 48, 48});
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.set_methods(MethodFlags::kStaged | MethodFlags::kPeer | MethodFlags::kKernel);
    dd.set_remote_aggregation(true);
    dd.set_persistent(true);
    dd.realize();
    dd.exchange();

    // Drift the cached plan's group layout; the demotion at the fault makes
    // the next exchange migrate the plan, and admission must reject it.
    ASSERT_EQ(dd.plan_cache().size(), 1u);
    plan::CompiledPlan& p = *dd.plan_cache().entries().front();
    ASSERT_FALSE(p.send_groups.empty());
    p.send_groups.front().bytes += 8;
    ctx.engine().sleep_until(t_fault + sim::kMicrosecond);
    ctx.comm.barrier();

    const plan::PlanStats before = dd.plan_stats();
    const std::uint64_t done = dd.exchanges_done();
    EXPECT_THROW(dd.exchange(), plan::AdmissionError);
    EXPECT_EQ(dd.exchanges_done(), done);
    EXPECT_EQ(dd.plan_cache().size(), 0u);
    EXPECT_EQ(dd.plan_stats().rejections, before.rejections + 1);

    EXPECT_NO_THROW(dd.exchange());
    EXPECT_EQ(dd.exchanges_done(), done + 1);
    EXPECT_EQ(dd.plan_stats().compiles, before.compiles + 1);
    EXPECT_EQ(dd.plan_stats().hits, before.hits);
    EXPECT_EQ(dd.plan_stats().verifications, before.verifications + 2);
    EXPECT_EQ(dd.plan_stats().rejections, before.rejections + 1);
    dd.exchange();  // and the re-admitted plan replays
    EXPECT_EQ(dd.plan_stats().hits, before.hits + 1);
    ctx.comm.barrier();
  });
  EXPECT_TRUE(chk.report().clean()) << dump(chk.report());
}
