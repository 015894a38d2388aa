#include <gtest/gtest.h>

#include <sstream>

#include "dtrace/collector.h"
#include "simtime/time.h"
#include "trace/recorder.h"

namespace sim = stencil::sim;
using stencil::trace::Recorder;
using stencil::dtrace::Collector;  // the chrome-trace writer

TEST(Recorder, RecordsInOrder) {
  Recorder r;
  r.record("gpu0", "pack", 0, 10);
  r.record("gpu1", "unpack", 5, 15);
  ASSERT_EQ(r.records().size(), 2u);
  EXPECT_EQ(r.records()[0].lane, "gpu0");
  EXPECT_EQ(r.records()[1].label, "unpack");
  r.clear();
  EXPECT_TRUE(r.empty());
}

TEST(Recorder, CsvSortedByLaneThenStart) {
  Recorder r;
  r.record("b", "second", 20, 30);
  r.record("a", "late", 50, 60);
  r.record("a", "early", 0, 10);
  std::ostringstream os;
  r.write_csv(os);
  const std::string s = os.str();
  EXPECT_EQ(s.find("lane,label,start_us,end_us,duration_us"), 0u);
  EXPECT_LT(s.find("a,early"), s.find("a,late"));
  EXPECT_LT(s.find("a,late"), s.find("b,second"));
}

TEST(Recorder, CsvUsesMicroseconds) {
  Recorder r;
  r.record("x", "op", 1 * sim::kMillisecond, 2 * sim::kMillisecond);
  std::ostringstream os;
  r.write_csv(os);
  EXPECT_NE(os.str().find("x,op,1000,2000,1000"), std::string::npos) << os.str();
}

TEST(Recorder, GanttEmptyIsGraceful) {
  Recorder r;
  std::ostringstream os;
  r.write_gantt(os);
  EXPECT_NE(os.str().find("no operations"), std::string::npos);
}

TEST(Recorder, GanttRendersLanesAndSpans) {
  Recorder r;
  r.record("lane-a", "op", 0, 50);
  r.record("lane-b", "op", 50, 100);
  std::ostringstream os;
  r.write_gantt(os, 0, 100, 10);
  const std::string s = os.str();
  EXPECT_NE(s.find("lane-a"), std::string::npos);
  EXPECT_NE(s.find("lane-b"), std::string::npos);
  // lane-a occupies the first half of its row, lane-b the second half.
  std::istringstream is(s);
  std::string header, row_a, row_b;
  std::getline(is, header);
  std::getline(is, row_a);
  std::getline(is, row_b);
  EXPECT_NE(row_a.find("#####....."), std::string::npos) << row_a;
  EXPECT_NE(row_b.find(".....#####"), std::string::npos) << row_b;
}

TEST(Recorder, GanttAutoFitsRange) {
  Recorder r;
  r.record("x", "op", 1000, 2000);
  std::ostringstream os;
  r.write_gantt(os, 0, 0, 20);  // auto-fit
  EXPECT_NE(os.str().find("1.000 us total"), std::string::npos) << os.str();
}

TEST(Recorder, GanttClampsOutOfRangeSpans) {
  Recorder r;
  r.record("x", "inside", 10, 20);
  r.record("x", "outside", 900, 950);
  std::ostringstream os;
  r.write_gantt(os, 0, 100, 10);  // the 900-950 span clamps to the last column
  SUCCEED();                      // must not crash or write out of bounds
}

TEST(Recorder, ChromeTraceEscapesSpecialCharacters) {
  Collector r;
  r.record("lane\"with\\quote", "label\nwith\ttabs\rand\x01" "ctrl", 0, 10);
  std::ostringstream os;
  r.write_chrome_trace(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("lane\\\"with\\\\quote"), std::string::npos) << s;
  EXPECT_NE(s.find("label\\nwith\\ttabs\\rand\\u0001ctrl"), std::string::npos) << s;
  // No raw control characters survive inside the document (sans final newline).
  for (std::size_t i = 0; i + 1 < s.size(); ++i)
    EXPECT_GE(static_cast<unsigned char>(s[i]), 0x20u) << "at index " << i;
}

TEST(Recorder, ChromeTraceClampsZeroAndNegativeDurations) {
  Collector r;
  r.record("x", "instant", 100, 100);
  r.record("x", "backwards", 200, 150);  // malformed span must not emit dur < 0
  std::ostringstream os;
  r.write_chrome_trace(os);
  const std::string s = os.str();
  EXPECT_EQ(s.find("\"dur\":-"), std::string::npos) << s;
  EXPECT_NE(s.find("\"dur\":0"), std::string::npos) << s;
}

TEST(Recorder, ChromeTraceEmptyRecorderIsValid) {
  Collector r;
  std::ostringstream os;
  r.write_chrome_trace(os);
  EXPECT_EQ(os.str(), "{\"traceEvents\":[]}\n");
}

TEST(Recorder, GanttSkipsSpansOutsideWindow) {
  Recorder r;
  r.record("x", "inside", 10, 20);
  r.record("x", "before", 0, 5);
  r.record("x", "after", 900, 950);
  std::ostringstream os;
  r.write_gantt(os, 10, 100, 18);  // 5 ns/col: only [10,20) may mark cells
  std::istringstream is(os.str());
  std::string header, row;
  std::getline(is, header);
  std::getline(is, row);
  // Exactly the first two columns are busy; out-of-window spans leave no mark.
  EXPECT_NE(row.find("|##"), std::string::npos) << row;
  EXPECT_EQ(row.find("##|"), std::string::npos) << row;
}

TEST(Recorder, GanttZeroDurationSpanStillRenders) {
  Recorder r;
  r.record("x", "instant", 50, 50);
  std::ostringstream os;
  r.write_gantt(os, 0, 100, 10);
  EXPECT_NE(os.str().find("#"), std::string::npos) << os.str();
}

TEST(Recorder, LanesKeepFirstAppearanceOrder) {
  Recorder r;
  r.record("zeta", "op", 0, 1);
  r.record("alpha", "op", 1, 2);
  std::ostringstream os;
  r.write_gantt(os, 0, 2, 10);
  const std::string s = os.str();
  EXPECT_LT(s.find("zeta"), s.find("alpha"));
}
