#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "explain/explain.h"
#include "watch/watch.h"

namespace explain = stencil::explain;
namespace qap = stencil::qap;
namespace watch = stencil::watch;

namespace {

explain::DecisionRecord make_record(explain::DecisionKind kind, const std::string& subject,
                                    const std::string& chosen, double score,
                                    std::vector<explain::Alternative> rejected = {}) {
  explain::DecisionRecord r;
  r.kind = kind;
  r.subject = subject;
  r.chosen = chosen;
  r.chosen_score = score;
  r.rejected = std::move(rejected);
  return r;
}

/// A 2-GPU placement case where "chosen" = {0, 1} is optimal under the
/// unperturbed distance matrix and the "swapped" alternative wins once
/// GPU 0's links get expensive enough.
explain::DecisionRecord placement_record() {
  auto pc = std::make_shared<explain::PlacementCase>();
  pc->flow = qap::SquareMatrix(2);
  pc->flow.at(0, 1) = 4.0;  // subdomain 0 talks 4x harder than subdomain 1
  pc->flow.at(1, 0) = 1.0;
  pc->distance = qap::SquareMatrix(2);
  pc->distance.at(0, 1) = 1.0;  // gpu0 -> gpu1 is the cheap direction
  pc->distance.at(1, 0) = 3.0;
  pc->chosen = {0, 1};
  pc->alternatives = {{"swapped", {1, 0}}};

  explain::DecisionRecord r = make_record(
      explain::DecisionKind::kPlacement, "node 0", "qap", 0.0,
      {{"swapped", 0.0}});
  r.chosen_score = qap::cost(pc->flow, pc->distance, pc->chosen);          // 4*1 + 1*3 = 7
  r.rejected[0].score = qap::cost(pc->flow, pc->distance, pc->alternatives[0].second);  // 13
  r.evidence = pc;
  return r;
}

}  // namespace

TEST(Ledger, AppendAssignsDenseIdsAndCounts) {
  explain::Ledger led(8);
  EXPECT_TRUE(led.empty());
  const auto a = led.append(make_record(explain::DecisionKind::kPartition, "job", "2x2x1", 1.0));
  const auto b = led.append(make_record(explain::DecisionKind::kPlanCompile, "plan", "compile", 0.0));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(led.size(), 2u);
  EXPECT_EQ(led.total_recorded(), 2u);
  EXPECT_EQ(led.recorded_of(explain::DecisionKind::kPartition), 1u);
  EXPECT_EQ(led.recorded_of(explain::DecisionKind::kPlanCompile), 1u);
  EXPECT_EQ(led.recorded_of(explain::DecisionKind::kDemotion), 0u);
  ASSERT_NE(led.find(a), nullptr);
  EXPECT_EQ(led.find(a)->chosen, "2x2x1");
  EXPECT_EQ(led.find(99), nullptr);
}

TEST(Ledger, EvictionKeepsNewestAndTotalsSurvive) {
  explain::Ledger led(3);
  for (int i = 0; i < 7; ++i) {
    led.append(make_record(explain::DecisionKind::kDemotion, "t" + std::to_string(i),
                           "staged", static_cast<double>(i)));
  }
  EXPECT_EQ(led.size(), 3u);
  EXPECT_EQ(led.total_recorded(), 7u);
  EXPECT_EQ(led.recorded_of(explain::DecisionKind::kDemotion), 7u);  // counts never evict
  EXPECT_EQ(led.records().front().id, 4u);
  EXPECT_EQ(led.records().back().id, 6u);
  EXPECT_EQ(led.find(3), nullptr);  // evicted
  ASSERT_NE(led.find(5), nullptr);
  EXPECT_EQ(led.find(5)->subject, "t5");
}

TEST(Ledger, BumpIsNoOpForEvictedOrUnknownIds) {
  explain::Ledger led(2);
  const auto a = led.append(make_record(explain::DecisionKind::kPlanCompile, "p", "compile", 0.0));
  const auto b = led.append(make_record(explain::DecisionKind::kPlanCompile, "q", "compile", 0.0));
  led.bump(a);
  led.bump(a);
  led.bump(b);
  led.bump(17);  // never recorded: no-op, no crash
  EXPECT_EQ(led.find(a)->repeats, 2u);
  EXPECT_EQ(led.find(b)->repeats, 1u);
  led.append(make_record(explain::DecisionKind::kPlanCompile, "r", "compile", 0.0));  // evicts a
  led.bump(a);  // evicted: silently dropped
  EXPECT_EQ(led.find(a), nullptr);
  EXPECT_EQ(led.find(b)->repeats, 1u);
}

TEST(Ledger, ScoreDeltaReportsBestRejectedMinusChosen) {
  const auto r = make_record(explain::DecisionKind::kSchedPlacement, "job", "spread", 2.0,
                             {{"packed", 5.0}, {"random", 9.0}});
  EXPECT_DOUBLE_EQ(r.score_delta(), 3.0);
  const auto none = make_record(explain::DecisionKind::kAggregation, "job", "on", 1.0);
  EXPECT_DOUBLE_EQ(none.score_delta(), 0.0);
}

TEST(Ledger, ClearResetsIdsAndCounts) {
  explain::Ledger led(4);
  led.append(make_record(explain::DecisionKind::kRecoverStep, "gpu 1", "shrink", 1.0));
  led.clear();
  EXPECT_TRUE(led.empty());
  EXPECT_EQ(led.total_recorded(), 0u);
  EXPECT_EQ(led.recorded_of(explain::DecisionKind::kRecoverStep), 0u);
  EXPECT_EQ(led.append(make_record(explain::DecisionKind::kRecoverStep, "gpu 2", "shrink", 1.0)),
            0u);  // ids restart
}

TEST(Ledger, WriteJsonEmitsExplainV1WithEscapesAndDropCount) {
  explain::Ledger led(2);
  auto r = make_record(explain::DecisionKind::kSchedAdmission, "job \"big\"", "reject", 1.0,
                       {{"admit", 4.0}});
  r.detail = "line1\nline2";
  r.work = 3;
  led.append(r);
  led.append(make_record(explain::DecisionKind::kPartition, "job", "2x1x1", 0.5));
  led.append(make_record(explain::DecisionKind::kPartition, "job", "1x2x1", 0.5));  // evicts #0

  std::ostringstream os;
  led.write_json(os, "unit");
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"schema\": \"explain-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"unit\""), std::string::npos);
  EXPECT_NE(doc.find("\"total_recorded\": 3"), std::string::npos);
  EXPECT_NE(doc.find("\"dropped\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"partition\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"sched-admission\": 1"), std::string::npos);
  // The evicted record is gone from the records array but not the counts.
  EXPECT_EQ(doc.find("job \\\"big\\\""), std::string::npos);
  EXPECT_NE(doc.find("\"chosen\": \"2x1x1\""), std::string::npos);

  // Deterministic: a second export is byte-identical.
  std::ostringstream again;
  led.write_json(again, "unit");
  EXPECT_EQ(doc, again.str());
}

TEST(Ledger, WriteJsonEscapesQuotesAndNewlines) {
  explain::Ledger led(4);
  auto r = make_record(explain::DecisionKind::kDemotion, "tag \"7\"", "fall\\back", 2.0,
                       {{"keep", 1.0}});  // chosen was NOT the argmin: delta -1
  r.detail = "why:\nbecause";
  led.append(r);
  std::ostringstream os;
  led.write_json(os, "esc");
  const std::string doc = os.str();
  EXPECT_NE(doc.find("tag \\\"7\\\""), std::string::npos);
  EXPECT_NE(doc.find("fall\\\\back"), std::string::npos);
  EXPECT_NE(doc.find("why:\\nbecause"), std::string::npos);
  EXPECT_NE(doc.find("\"score_delta\": -1"), std::string::npos);
}

TEST(Ledger, WriteReportGroupsByKindAndShowsRepeats) {
  explain::Ledger led(8);
  const auto a = led.append(make_record(explain::DecisionKind::kPlanCompile, "plan epoch 0",
                                        "compile", 0.0));
  led.bump(a);
  led.bump(a);
  auto r = make_record(explain::DecisionKind::kPlacement, "node 0", "qap", 7.0,
                       {{"swapped", 13.0}});
  r.work = 5;
  led.append(r);
  std::ostringstream os;
  led.write_report(os);
  const std::string rep = os.str();
  EXPECT_NE(rep.find("2 recorded, 2 retained"), std::string::npos);
  EXPECT_NE(rep.find("[placement] x1"), std::string::npos);
  EXPECT_NE(rep.find("[plan-compile] x1"), std::string::npos);
  EXPECT_NE(rep.find("x3"), std::string::npos);  // 1 compile + 2 cache hits
  EXPECT_NE(rep.find("rejected \"swapped\" (score 13, delta 6)"), std::string::npos);
  EXPECT_NE(rep.find("work: 5 candidates evaluated"), std::string::npos);
}

TEST(WhatIf, PredictHealthySubtractsWorstLaneDelta) {
  // Worst lane: 2 ms/exchange of wire at factor 4 -> healthy 0.5 ms.
  // Predicted = 5 ms - (2 - 0.5) = 3.5 ms. The lighter lane never wins the max.
  const std::vector<explain::LaneObservation> lanes = {
      {0, 1, 8.0e6, 4.0},  // 8 ms over 4 exchanges
      {1, 0, 2.0e6, 10.0},
  };
  EXPECT_NEAR(explain::predict_healthy_exchange_ms(5.0, 4, lanes), 3.5, 1e-12);
}

TEST(WhatIf, PredictHealthyEdgeCases) {
  // No exchanges or no lanes: nothing to subtract.
  EXPECT_DOUBLE_EQ(explain::predict_healthy_exchange_ms(2.5, 0, {{0, 1, 1e9, 2.0}}), 2.5);
  EXPECT_DOUBLE_EQ(explain::predict_healthy_exchange_ms(2.5, 4, {}), 2.5);
  // Factors below 1 are clamped: a healthy lane subtracts nothing.
  EXPECT_DOUBLE_EQ(explain::predict_healthy_exchange_ms(2.5, 1, {{0, 1, 4.0e5, 0.5}}), 2.5);
  // The subtraction never predicts a negative latency.
  EXPECT_DOUBLE_EQ(explain::predict_healthy_exchange_ms(0.5, 1, {{0, 1, 9.0e6, 100.0}}), 0.0);
}

TEST(WhatIf, PredictHealthyReadsWireOccupancyNotQueueing) {
  // Two 1 MiB messages ready at 0 serialize on one lane: 20 us on the wire,
  // 30 us counting the second one's wait. The exchange took 25 us at cost
  // factor 10, so healthy the lane's 20 us shrinks to 2 us: 25 - 18 = 7 us.
  // The queue-inclusive 30 us would subtract 27 us and clamp to 0.
  using stencil::sim::kMicrosecond;
  watch::Watch w;
  w.configure(2, 2);
  w.on_message(0, 1, /*device=*/false, 1 << 20, 0, {0, 10 * kMicrosecond});
  w.on_message(0, 1, /*device=*/false, 1 << 20, 0, {10 * kMicrosecond, 20 * kMicrosecond});
  const double wire_ns = w.lane_window_wire_ns(0, 1, watch::WireClass::kHostInter);
  EXPECT_NEAR(explain::predict_healthy_exchange_ms(0.025, 1, {{0, 1, wire_ns, 10.0}}), 0.007,
              1e-12);
}

TEST(WhatIf, RescoreIdentityReproducesRecordedObjective) {
  const auto rec = placement_record();
  const auto same = explain::rescore_placement(rec, [](int, int) { return 1.0; });
  EXPECT_FALSE(same.flipped);
  EXPECT_EQ(same.winner, "chosen");
  EXPECT_DOUBLE_EQ(same.chosen_cost, rec.chosen_score);
  EXPECT_DOUBLE_EQ(same.delta, 0.0);
}

TEST(WhatIf, RescoreFlipsWinnerUnderAsymmetricDegradation) {
  const auto rec = placement_record();
  // Make the cheap direction (0 -> 1) 10x more expensive: chosen cost
  // becomes 4*10 + 1*3 = 43, swapped becomes 4*3 + 1*10 = 22 -> flip.
  const auto hit = explain::rescore_placement(
      rec, [](int i, int j) { return i == 0 && j == 1 ? 10.0 : 1.0; });
  EXPECT_TRUE(hit.flipped);
  EXPECT_EQ(hit.winner, "swapped");
  EXPECT_DOUBLE_EQ(hit.chosen_cost, 43.0);
  EXPECT_DOUBLE_EQ(hit.winner_cost, 22.0);
  EXPECT_DOUBLE_EQ(hit.delta, 21.0);
}

TEST(WhatIf, RescoreThrowsWithoutEvidence) {
  const auto bare = make_record(explain::DecisionKind::kPlacement, "node 0", "greedy", 1.0);
  EXPECT_THROW(explain::rescore_placement(bare, [](int, int) { return 1.0; }),
               std::invalid_argument);
}
