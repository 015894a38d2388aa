#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/checker.h"
#include "check/report.h"
#include "check/vclock.h"
#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "fault/fault.h"
#include "halo_oracle.h"
#include "simpi/mpi.h"
#include "topo/archetype.h"

namespace sim = stencil::sim;
namespace topo = stencil::topo;
namespace vgpu = stencil::vgpu;
namespace simpi = stencil::simpi;
namespace fault = stencil::fault;
namespace check = stencil::check;

using check::FindingKind;
using stencil::Cluster;
using stencil::Dim3;
using stencil::DistributedDomain;
using stencil::LocalDomain;
using stencil::Method;
using stencil::MethodFlags;
using stencil::PackMode;
using stencil::RankCtx;
using namespace stencil::halo_oracle;

namespace {

std::string dump(const check::CheckReport& rep) {
  std::ostringstream os;
  rep.write(os);
  return os.str();
}

// ---------------------------------------------------------------------------
// VClock / Epoch unit tests.
// ---------------------------------------------------------------------------

TEST(CheckVClock, JoinBumpAndLeq) {
  check::VClock a, b;
  EXPECT_TRUE(a.leq(b));
  const std::uint64_t e1 = a.bump(3);
  EXPECT_EQ(e1, 1u);
  EXPECT_EQ(a.get(3), 1u);
  EXPECT_EQ(a.get(7), 0u);  // absent tids read as zero
  EXPECT_FALSE(a.leq(b));
  b.bump(3);
  b.bump(3);
  EXPECT_TRUE(a.leq(b));
  EXPECT_FALSE(b.leq(a));
  a.bump(9);
  b.join(a);
  EXPECT_EQ(b.get(3), 2u);  // join keeps the per-component max
  EXPECT_EQ(b.get(9), 1u);
  EXPECT_TRUE(a.leq(b));
}

TEST(CheckVClock, JoinInPlaceAndMerge) {
  check::VClock a, b, c, d;
  a.set(1, 3);
  a.set(4, 1);
  a.set(9, 2);
  // Every tid of b is already set in a: only a's components rise.
  b.set(4, 5);
  b.set(9, 1);
  a.join(b);
  EXPECT_EQ(a.str(), "{1:3, 4:5, 9:2}");
  // Tid 2 is new to a.
  c.set(2, 7);
  c.set(9, 4);
  a.join(c);
  EXPECT_EQ(a.str(), "{1:3, 2:7, 4:5, 9:4}");
  // New tids on both sides of ones already present, one past a's width.
  d.set(1, 10);
  d.set(3, 1);
  d.set(12, 2);
  a.join(d);
  EXPECT_EQ(a.str(), "{1:10, 2:7, 3:1, 4:5, 9:4, 12:2}");
  EXPECT_EQ(a.get(3), 1u);
  EXPECT_EQ(a.get(5), 0u);
  EXPECT_TRUE(b.leq(a));
  EXPECT_TRUE(c.leq(a));
  EXPECT_TRUE(d.leq(a));
}

TEST(CheckVClock, JoinAndLeqAcrossWidths) {
  check::VClock narrow, wide;
  narrow.set(2, 4);
  wide.set(2, 1);
  wide.set(40, 3);
  // Narrow into wide: only the shared component moves.
  check::VClock w = wide;
  EXPECT_TRUE(w.join(narrow));
  EXPECT_EQ(w.str(), "{2:4, 40:3}");
  // Wide into narrow: the narrow clock grows to take tid 40.
  check::VClock n = narrow;
  EXPECT_TRUE(n.join(wide));
  EXPECT_EQ(n.str(), "{2:4, 40:3}");
  EXPECT_EQ(n.get(40), 3u);
  // leq in both directions, whichever clock is wider.
  EXPECT_FALSE(narrow.leq(wide));  // 4 > 1 at tid 2
  EXPECT_FALSE(wide.leq(narrow));  // tid 40 is set only in wide
  EXPECT_TRUE(narrow.leq(n));
  EXPECT_TRUE(wide.leq(n));
  // A clock whose high components are all zero is no wider in knowledge.
  check::VClock padded;
  padded.set(2, 4);
  padded.set(63, 0);
  EXPECT_TRUE(padded.leq(narrow));
  EXPECT_TRUE(narrow.leq(padded));
  // Joining what is already known raises nothing.
  EXPECT_FALSE(n.join(narrow));
  EXPECT_FALSE(n.join(wide));
  EXPECT_FALSE(n.join(check::VClock{}));
}

TEST(CheckVClock, AbsentTidsReadZero) {
  check::VClock c;
  EXPECT_EQ(c.get(0), 0u);
  EXPECT_EQ(c.get(1000), 0u);
  c.set(5, 2);
  EXPECT_EQ(c.get(4), 0u);  // inside the stored width, never set
  EXPECT_EQ(c.get(5), 2u);
  EXPECT_EQ(c.get(6), 0u);
  EXPECT_EQ(c.get(1u << 20), 0u);  // far past it
  EXPECT_EQ(c.bump(9), 1u);        // a thread's first epoch is 1
}

// Components are 32-bit counts: running past the last epoch is an error,
// never a silent wrap that would reorder a thread's own accesses.
TEST(CheckVClock, EpochPastCountLimitThrows) {
  constexpr std::uint64_t kLast = 0xFFFFFFFFu;
  check::VClock c;
  c.set(3, kLast - 1);
  EXPECT_EQ(c.bump(3), kLast);
  EXPECT_THROW(c.bump(3), std::overflow_error);
  EXPECT_EQ(c.get(3), kLast);
  EXPECT_THROW(c.set(4, kLast + 1), std::overflow_error);
}

TEST(CheckVClock, StrListsSetComponentsInTidOrder) {
  check::VClock c;
  EXPECT_EQ(c.str(), "{}");
  c.set(9, 2);
  c.set(1, 3);
  c.set(4, 5);
  EXPECT_EQ(c.str(), "{1:3, 4:5, 9:2}");
  c.set(4, 0);  // back to unset
  EXPECT_EQ(c.str(), "{1:3, 9:2}");
}

TEST(CheckVClock, EpochOrderedBefore) {
  check::VClock c;
  c.bump(4);
  c.bump(4);
  EXPECT_TRUE((check::Epoch{4, 2}.ordered_before(c)));
  EXPECT_FALSE((check::Epoch{4, 3}.ordered_before(c)));
  EXPECT_FALSE((check::Epoch{5, 1}.ordered_before(c)));
}

// ---------------------------------------------------------------------------
// SegmentMap: the shadow's chunked segment store.
// ---------------------------------------------------------------------------

// Unit-width segments inserted in a scrambled order, enough to split chunks
// many times, read back in order, and found by every offset.
TEST(CheckShadow, ChunkedInsertsKeepOrderAndFindEveryOffset) {
  using Map = check::SegmentMap<int>;
  constexpr int kN = 1000;  // about 30 chunks after splits
  Map m;
  for (int k = 0; k < kN; ++k) {
    const int v = (k * 389) % kN;  // 389 is coprime with kN: a permutation
    const auto at = static_cast<std::size_t>(2 * v);
    Map::Pos p = m.find(at);
    ASSERT_TRUE(m.at_end(p) || m[p].start > at);  // the slot is free
    p = m.insert(p, {at, at + 1, v});
    ASSERT_EQ(m[p].value, v);
  }
  ASSERT_EQ(m.size(), static_cast<std::size_t>(kN));
  Map::Pos p = m.find(0);
  for (int v = 0; v < kN; ++v, p = m.next(p)) {
    ASSERT_FALSE(m.at_end(p));
    ASSERT_EQ(m[p].value, v);
    ASSERT_EQ(m[p].start, static_cast<std::size_t>(2 * v));
  }
  EXPECT_TRUE(m.at_end(p));
  // find(off): the first segment ending after off; seek from any position
  // at or before it agrees.
  for (std::size_t off = 0; off + 1 < 2 * kN; ++off) {
    const Map::Pos f = m.find(off);  // segment v is [2v, 2v + 1)
    ASSERT_EQ(m[f].value, static_cast<int>((off + 1) / 2)) << off;
    const Map::Pos from = off >= 40 ? m.find(off - 40) : m.find(0);
    const Map::Pos s = m.seek(from, off);
    ASSERT_EQ(m[s].value, m[f].value) << off;
  }
  EXPECT_TRUE(m.at_end(m.find(2 * kN - 1)));
}

// ---------------------------------------------------------------------------
// Runtime-level fixtures: one actor driving the virtual CUDA runtime, with
// the checker attached directly (no MPI job, so finish() is called by hand).
// ---------------------------------------------------------------------------

template <typename F>
check::CheckReport run_checked(F&& body, int nodes = 1) {
  sim::Engine eng;
  topo::Machine machine(topo::summit(), nodes);
  vgpu::Runtime rt(eng, machine);
  check::Checker chk(eng);
  rt.attach(&chk);
  eng.run({[&] { body(rt); }});
  chk.finish();
  return chk.report();
}

TEST(CheckRaces, UnorderedWritesOnTwoStreamsRace) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 1024);
    auto s1 = rt.create_stream(0);
    auto s2 = rt.create_stream(0);
    rt.launch_kernel(s1, 1024, "w1", [] {}, {{&buf, 0, 1024, true}});
    rt.launch_kernel(s2, 1024, "w2", [] {}, {{&buf, 0, 1024, true}});
    rt.stream_synchronize(s1);
    rt.stream_synchronize(s2);
  });
  ASSERT_EQ(rep.count(FindingKind::kWriteWriteRace), 1u) << dump(rep);
  const check::Finding& f = rep.findings()[0];
  // The finding names both racing ops and the missing ordering edge.
  EXPECT_NE(f.first.find("w1"), std::string::npos) << f.first;
  EXPECT_NE(f.second.find("w2"), std::string::npos) << f.second;
  EXPECT_NE(f.missing_edge.find("no happens-before edge"), std::string::npos) << f.missing_edge;
}

TEST(CheckRaces, EventEdgeOrdersStreams) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 1024);
    auto s1 = rt.create_stream(0);
    auto s2 = rt.create_stream(0);
    rt.launch_kernel(s1, 1024, "w1", [] {}, {{&buf, 0, 1024, true}});
    vgpu::Event done;
    rt.record_event(done, s1);
    rt.stream_wait_event(s2, done);
    rt.launch_kernel(s2, 1024, "w2", [] {}, {{&buf, 0, 1024, true}});
    rt.stream_synchronize(s1);
    rt.stream_synchronize(s2);
  });
  EXPECT_TRUE(rep.clean()) << dump(rep);
}

TEST(CheckRaces, SameStreamFifoIsOrdered) {
  // The KERNEL pattern: a self-exchange reads and rewrites overlapping
  // ranges of one allocation, back to back, on a single stream.
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 4096);
    auto s = rt.create_stream(0);
    for (int it = 0; it < 3; ++it) {
      rt.launch_kernel(s, 4096, "self", [] {},
                       {{&buf, 0, 2048, false}, {&buf, 2048, 2048, true}});
      rt.launch_kernel(s, 4096, "compute", [] {},
                       {{&buf, 0, 4096, true}});
    }
    rt.stream_synchronize(s);
  });
  EXPECT_TRUE(rep.clean()) << dump(rep);
}

TEST(CheckRaces, OverlappingRangesSplitSegments) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 1024);
    auto s1 = rt.create_stream(0);
    auto s2 = rt.create_stream(0);
    // Disjoint halves never race; a partial overlap does.
    rt.launch_kernel(s1, 512, "left", [] {}, {{&buf, 0, 512, true}});
    rt.launch_kernel(s2, 512, "right", [] {}, {{&buf, 512, 512, true}});
    rt.launch_kernel(s2, 512, "middle", [] {}, {{&buf, 256, 512, true}});
    rt.stream_synchronize(s1);
    rt.stream_synchronize(s2);
  });
  // "middle" overlaps "left" on [256,512) only; "right" is FIFO-ordered
  // with "middle" on s2.
  ASSERT_EQ(rep.count(FindingKind::kWriteWriteRace), 1u) << dump(rep);
  EXPECT_NE(rep.findings()[0].first.find("left"), std::string::npos);
  EXPECT_NE(rep.findings()[0].second.find("middle"), std::string::npos);
}

TEST(CheckRaces, ReadWriteRaceAcrossStreams) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 256);
    auto s1 = rt.create_stream(0);
    auto s2 = rt.create_stream(0);
    rt.launch_kernel(s1, 256, "reader", [] {}, {{&buf, 0, 256, false}});
    rt.launch_kernel(s2, 256, "writer", [] {}, {{&buf, 0, 256, true}});
    rt.stream_synchronize(s1);
    rt.stream_synchronize(s2);
  });
  ASSERT_EQ(rep.count(FindingKind::kReadWriteRace), 1u) << dump(rep);
  EXPECT_EQ(rep.count(FindingKind::kWriteWriteRace), 0u) << dump(rep);
}

// Rows whose prior readers alternate between two streams have two access
// histories. An unordered write over all of them checks each history once,
// and reports both races in row order: the reader of row 0 first, though
// the other reader's history is the older one.
TEST(CheckRaces, WriteOverAlternatingReadersReportsBothInRowOrder) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    constexpr std::size_t kRow = 64, kRows = 8;
    auto buf = rt.alloc_device(0, kRow * kRows);
    auto s_even = rt.create_stream(0);
    auto s_odd = rt.create_stream(0);
    auto s_w = rt.create_stream(0);
    vgpu::AccessList even, odd, all;
    for (std::size_t r = 0; r < kRows; ++r) {
      (r % 2 == 0 ? even : odd).push_back({&buf, r * kRow, kRow, false});
      all.push_back({&buf, r * kRow, kRow, true});
    }
    rt.launch_kernel(s_odd, kRow, "odd reader", [] {}, odd);
    rt.launch_kernel(s_even, kRow, "even reader", [] {}, even);
    rt.launch_kernel(s_w, kRow * kRows, "writer", [] {}, all);
    rt.stream_synchronize(s_even);
    rt.stream_synchronize(s_odd);
    rt.stream_synchronize(s_w);
  });
  ASSERT_EQ(rep.findings().size(), 2u) << dump(rep);
  EXPECT_EQ(rep.count(FindingKind::kReadWriteRace), 2u) << dump(rep);
  EXPECT_EQ(rep.findings()[0].first.rfind("even reader", 0), 0u) << dump(rep);
  EXPECT_EQ(rep.findings()[1].first.rfind("odd reader", 0), 0u) << dump(rep);
  for (const check::Finding& f : rep.findings()) {
    EXPECT_EQ(f.second.rfind("writer", 0), 0u) << f.second;
  }
}

TEST(CheckRaces, LegacyDefaultStreamSerializes) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 256);
    auto dflt = rt.default_stream(0);
    auto s = rt.create_stream(0);
    rt.launch_kernel(dflt, 256, "on-default", [] {}, {{&buf, 0, 256, true}});
    rt.launch_kernel(s, 256, "after-default", [] {}, {{&buf, 0, 256, true}});
    rt.launch_kernel(dflt, 256, "default-again", [] {}, {{&buf, 0, 256, true}});
    rt.stream_synchronize(dflt);
    rt.stream_synchronize(s);
  });
  EXPECT_TRUE(rep.clean()) << dump(rep);
}

TEST(CheckRaces, StreamSynchronizeOrdersThroughHost) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 256);
    auto s1 = rt.create_stream(0);
    auto s2 = rt.create_stream(0);
    rt.launch_kernel(s1, 256, "w1", [] {}, {{&buf, 0, 256, true}});
    rt.stream_synchronize(s1);
    rt.launch_kernel(s2, 256, "w2", [] {}, {{&buf, 0, 256, true}});
    rt.stream_synchronize(s2);
  });
  EXPECT_TRUE(rep.clean()) << dump(rep);
}

// The host learns of w1 through event_synchronize *between* two ops on s2.
// s2 absorbed the host clock at its first op; its second op must absorb it
// again, or the ordered write would be reported as a race. (Skipping a join
// is only exact while its source is unchanged.)
TEST(CheckRaces, HostEdgeReachesNextOpOnSameStream) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 256);
    auto other = rt.alloc_device(0, 256);
    auto s1 = rt.create_stream(0);
    auto s2 = rt.create_stream(0);
    rt.launch_kernel(s2, 256, "before", [] {}, {{&other, 0, 256, true}});
    rt.launch_kernel(s1, 256, "w1", [] {}, {{&buf, 0, 256, true}});
    vgpu::Event done;
    rt.record_event(done, s1);
    rt.event_synchronize(done);
    rt.launch_kernel(s2, 256, "w2", [] {}, {{&buf, 0, 256, true}});
    rt.stream_synchronize(s1);
    rt.stream_synchronize(s2);
  });
  EXPECT_TRUE(rep.clean()) << dump(rep);
}

TEST(CheckRaces, MemcpyAccessesAreDerivedAutomatically) {
  // The PEER pattern without its event edge: pack-copy on one stream,
  // consume on another. No annotations needed — copies know their buffers.
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto a = rt.alloc_device(0, 512);
    auto b = rt.alloc_device(0, 512);
    auto dst = rt.alloc_device(0, 512);
    auto s1 = rt.create_stream(0);
    auto s2 = rt.create_stream(0);
    rt.memcpy_async(dst, 0, a, 0, 512, s1);
    rt.memcpy_async(dst, 0, b, 0, 512, s2);
    rt.stream_synchronize(s1);
    rt.stream_synchronize(s2);
  });
  EXPECT_EQ(rep.count(FindingKind::kWriteWriteRace), 1u) << dump(rep);
}

// ---------------------------------------------------------------------------
// Runtime misuse lints.
// ---------------------------------------------------------------------------

TEST(CheckLints, WaitOnUnrecordedEvent) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto s = rt.create_stream(0);
    vgpu::Event never;
    rt.stream_wait_event(s, never);
    rt.event_synchronize(never);
  });
  EXPECT_EQ(rep.count(FindingKind::kWaitUnrecordedEvent), 2u) << dump(rep);
}

TEST(CheckLints, StreamDestroyedWithPendingWork) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 256);
    auto s = rt.create_stream(0);
    rt.launch_kernel(s, 256, "orphan", [] {}, {{&buf, 0, 256, true}});
    rt.destroy_stream(s);  // never synchronized
  });
  ASSERT_EQ(rep.count(FindingKind::kStreamDestroyedPending), 1u) << dump(rep);
  EXPECT_NE(rep.findings()[0].second.find("orphan"), std::string::npos);
}

TEST(CheckLints, StreamDestroyedAfterSyncIsClean) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 256);
    auto s = rt.create_stream(0);
    rt.launch_kernel(s, 256, "ok", [] {}, {{&buf, 0, 256, true}});
    rt.stream_synchronize(s);
    rt.destroy_stream(s);
  });
  EXPECT_TRUE(rep.clean()) << dump(rep);
}

TEST(CheckLints, UnsynchronizedStreamAtTeardown) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 256);
    auto s = rt.create_stream(0);
    rt.launch_kernel(s, 256, "dangling", [] {}, {{&buf, 0, 256, true}});
    // Neither synchronized nor destroyed: finish() reports it.
  });
  EXPECT_EQ(rep.count(FindingKind::kStreamDestroyedPending), 1u) << dump(rep);
}

TEST(CheckLints, CopyThroughClosedIpcMapping) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto exported = rt.alloc_device(0, 256);
    auto src = rt.alloc_device(1, 256);
    auto s = rt.create_stream(1);
    auto handle = rt.ipc_get_mem_handle(exported);
    auto mapped = rt.ipc_open_mem_handle(handle, 1);
    rt.memcpy_to_ipc_async(mapped, 0, src, 0, 256, s);
    rt.stream_synchronize(s);
    rt.ipc_close_mem_handle(mapped);
    EXPECT_THROW(rt.memcpy_to_ipc_async(mapped, 0, src, 0, 256, s), std::logic_error);
  });
  ASSERT_EQ(rep.count(FindingKind::kStaleIpcMapping), 1u) << dump(rep);
  EXPECT_NE(rep.findings()[0].second.find("closed"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MPI-side fixtures: a real simpi::Job with the checker on both feeds.
// ---------------------------------------------------------------------------

struct CheckedWorld {
  sim::Engine eng;
  topo::Machine machine;
  vgpu::Runtime runtime;
  simpi::Job job;
  check::Checker chk;
  CheckedWorld(int nodes, int ranks_per_node)
      : machine(topo::summit(), nodes),
        runtime(eng, machine),
        job(eng, machine, runtime, ranks_per_node),
        chk(eng) {
    runtime.attach(&chk);
    job.attach(&chk);
  }
};

TEST(CheckMpi, SendBufferReuseBeforeWaitRaces) {
  CheckedWorld w(1, 2);
  constexpr std::size_t kBytes = 128 * 1024;  // above the eager limit
  w.job.run([&](simpi::Comm& comm) {
    auto& rt = w.runtime;
    if (comm.rank() == 0) {
      auto payload = rt.alloc_pinned_host(0, kBytes);
      auto scratch = rt.alloc_device(0, kBytes);
      auto s = rt.create_stream(0);
      simpi::Request req = comm.isend(simpi::Payload::of(payload, 0, kBytes), 1, 7);
      // BUG under test: overwrite the in-flight send buffer before waiting.
      rt.memcpy_async(payload, 0, scratch, 0, kBytes, s);
      rt.stream_synchronize(s);
      comm.wait(req);
    } else {
      auto sink = rt.alloc_pinned_host(0, kBytes);
      comm.recv(simpi::Payload::of(sink, 0, kBytes), 0, 7);
    }
  });
  const auto& rep = w.chk.report();
  ASSERT_EQ(rep.count(FindingKind::kReadWriteRace), 1u) << dump(rep);
  const check::Finding& f = rep.findings()[0];
  EXPECT_NE(f.first.find("isend"), std::string::npos) << f.first;
  EXPECT_NE(f.missing_edge.find("no happens-before edge"), std::string::npos);
}

TEST(CheckMpi, WaitedSendThenReuseIsClean) {
  CheckedWorld w(1, 2);
  constexpr std::size_t kBytes = 128 * 1024;
  w.job.run([&](simpi::Comm& comm) {
    auto& rt = w.runtime;
    if (comm.rank() == 0) {
      auto payload = rt.alloc_pinned_host(0, kBytes);
      auto scratch = rt.alloc_device(0, kBytes);
      auto s = rt.create_stream(0);
      simpi::Request req = comm.isend(simpi::Payload::of(payload, 0, kBytes), 1, 7);
      comm.wait(req);
      rt.memcpy_async(payload, 0, scratch, 0, kBytes, s);
      rt.stream_synchronize(s);
    } else {
      auto sink = rt.alloc_pinned_host(0, kBytes);
      comm.recv(simpi::Payload::of(sink, 0, kBytes), 0, 7);
    }
  });
  EXPECT_TRUE(w.chk.report().clean()) << dump(w.chk.report());
}

TEST(CheckMpi, BarrierOrdersCrossRankAccesses) {
  CheckedWorld w(1, 2);
  vgpu::Buffer shared;
  w.job.run([&](simpi::Comm& comm) {
    auto& rt = w.runtime;
    if (comm.rank() == 0) {
      shared = rt.alloc_device(0, 512);
      auto s = rt.create_stream(0);
      rt.launch_kernel(s, 512, "producer", [] {}, {{&shared, 0, 512, true}});
      rt.stream_synchronize(s);
      comm.barrier();
    } else {
      comm.barrier();
      auto s = rt.create_stream(0);
      rt.launch_kernel(s, 512, "consumer", [] {}, {{&shared, 0, 512, false}});
      rt.stream_synchronize(s);
    }
  });
  EXPECT_TRUE(w.chk.report().clean()) << dump(w.chk.report());
}

TEST(CheckMpi, BarrierWithoutStreamSyncStillRaces) {
  CheckedWorld w(1, 2);
  vgpu::Buffer shared;
  w.job.run([&](simpi::Comm& comm) {
    auto& rt = w.runtime;
    if (comm.rank() == 0) {
      shared = rt.alloc_device(0, 512);
      auto s = rt.create_stream(0);
      rt.launch_kernel(s, 512, "producer", [] {}, {{&shared, 0, 512, true}});
      comm.barrier();  // BUG under test: the kernel was never synchronized
      rt.stream_synchronize(s);
    } else {
      comm.barrier();
      auto s = rt.create_stream(0);
      rt.launch_kernel(s, 512, "consumer", [] {}, {{&shared, 0, 512, false}});
      rt.stream_synchronize(s);
    }
  });
  const auto& rep = w.chk.report();
  ASSERT_EQ(rep.count(FindingKind::kReadWriteRace), 1u) << dump(rep);
  EXPECT_NE(rep.findings()[0].first.find("producer"), std::string::npos);
  EXPECT_NE(rep.findings()[0].second.find("consumer"), std::string::npos);
}

TEST(CheckMpi, TruncatedMessageIsSizeMismatch) {
  CheckedWorld w(1, 2);
  EXPECT_THROW(w.job.run([&](simpi::Comm& comm) {
    std::vector<char> buf(256);
    if (comm.rank() == 0) {
      comm.send(simpi::Payload::of_values(buf.data(), buf.size()), 1, 3);
    } else {
      comm.recv(simpi::Payload::of_values(buf.data(), 128), 0, 3);  // too small
    }
  }),
               std::runtime_error);
  const auto& rep = w.chk.report();
  ASSERT_EQ(rep.count(FindingKind::kSizeMismatch), 1u) << dump(rep);
  EXPECT_NE(rep.findings()[0].first.find("256B"), std::string::npos);
  EXPECT_NE(rep.findings()[0].second.find("128B"), std::string::npos);
}

TEST(CheckMpi, MismatchedTagsReportedAsPair) {
  CheckedWorld w(1, 2);
  w.job.run([&](simpi::Comm& comm) {
    std::vector<char> buf(64);
    if (comm.rank() == 0) {
      (void)comm.isend(simpi::Payload::of_values(buf.data(), buf.size()), 1, 5);
    } else {
      (void)comm.irecv(simpi::Payload::of_values(buf.data(), buf.size()), 0, 6);
    }
  });
  const auto& rep = w.chk.report();
  // One tag-mismatch finding pairing the two, not two separate leaks.
  ASSERT_EQ(rep.count(FindingKind::kTagMismatch), 1u) << dump(rep);
  EXPECT_EQ(rep.count(FindingKind::kRequestNeverWaited), 0u) << dump(rep);
  EXPECT_NE(rep.findings()[0].first.find("tag=5"), std::string::npos);
  EXPECT_NE(rep.findings()[0].second.find("tag=6"), std::string::npos);
}

TEST(CheckMpi, DeliveredButUnwaitedRequestLeaks) {
  CheckedWorld w(1, 2);
  w.job.run([&](simpi::Comm& comm) {
    std::vector<char> buf(64);
    if (comm.rank() == 0) {
      (void)comm.isend(simpi::Payload::of_values(buf.data(), buf.size()), 1, 2);  // never waited
    } else {
      comm.recv(simpi::Payload::of_values(buf.data(), buf.size()), 0, 2);
    }
  });
  const auto& rep = w.chk.report();
  ASSERT_EQ(rep.count(FindingKind::kRequestNeverWaited), 1u) << dump(rep);
  EXPECT_NE(rep.findings()[0].second.find("never waited"), std::string::npos);
}

// Records the serial of every posted receive, in post order, so a test can
// name the request its findings must mention.
struct RecvLog : simpi::JobObserver {
  std::vector<std::uint64_t> serials;
  void on_post(const simpi::MsgInfo& m) override {
    if (!m.is_send) serials.push_back(m.serial);
  }
};

std::string req_tag(std::uint64_t serial) { return "(req#" + std::to_string(serial) + ")"; }

// Two receives from one peer, in flight at once, keep distinct logical
// threads: waiting on the second must not order the first's write. One
// thread per (rank, peer) channel would hide this race.
TEST(CheckMpi, ConcurrentRequestsToOnePeerStayDistinct) {
  CheckedWorld w(1, 2);
  RecvLog log;
  w.job.attach(&log);
  constexpr std::size_t kBytes = 256;
  w.job.run([&](simpi::Comm& comm) {
    auto& rt = w.runtime;
    if (comm.rank() == 0) {
      auto b1 = rt.alloc_pinned_host(0, kBytes);
      auto b2 = rt.alloc_pinned_host(0, kBytes);
      auto scratch = rt.alloc_device(0, kBytes);
      auto s = rt.create_stream(0);
      simpi::Request r1 = comm.irecv(simpi::Payload::of(b1, 0, kBytes), 1, 7);
      simpi::Request r2 = comm.irecv(simpi::Payload::of(b2, 0, kBytes), 1, 7);
      comm.wait(r2);
      // BUG under test: b1 is read before its own receive is waited.
      rt.memcpy_async(scratch, 0, b1, 0, kBytes, s);
      rt.stream_synchronize(s);
      comm.wait(r1);
    } else {
      auto payload = rt.alloc_pinned_host(0, kBytes);
      comm.send(simpi::Payload::of(payload, 0, kBytes), 0, 7);
      comm.send(simpi::Payload::of(payload, 0, kBytes), 0, 7);
    }
  });
  const auto& rep = w.chk.report();
  ASSERT_EQ(rep.findings().size(), 1u) << dump(rep);
  ASSERT_EQ(rep.count(FindingKind::kReadWriteRace), 1u) << dump(rep);
  ASSERT_EQ(log.serials.size(), 2u);
  const check::Finding& f = rep.findings()[0];
  EXPECT_NE(f.first.find("irecv r1->r0 tag=7 " + req_tag(log.serials[0])), std::string::npos)
      << f.first;
  EXPECT_NE(f.missing_edge.find("[irecv r1->r0 tag=7 " + req_tag(log.serials[0]) + "]"),
            std::string::npos)
      << f.missing_edge;
  EXPECT_EQ(dump(rep).find(req_tag(log.serials[1])), std::string::npos) << dump(rep);
}

// A completed request's tid is reused by the next request its waiter posts.
// A race found later against the old request's record must still name that
// request, in the finding and in the missing edge.
TEST(CheckMpi, RecycledTidKeepsOriginalName) {
  CheckedWorld w(1, 2);
  RecvLog log;
  w.job.attach(&log);
  constexpr std::size_t kBytes = 256;
  vgpu::Buffer b1;
  w.job.run([&](simpi::Comm& comm) {
    auto& rt = w.runtime;
    if (comm.rank() == 0) {
      b1 = rt.alloc_pinned_host(0, kBytes);
      auto b2 = rt.alloc_pinned_host(0, kBytes);
      comm.recv(simpi::Payload::of(b1, 0, kBytes), 1, 1);
      comm.recv(simpi::Payload::of(b2, 0, kBytes), 1, 2);  // reuses the first recv's tid
    } else {
      auto payload = rt.alloc_pinned_host(0, kBytes);
      comm.send(simpi::Payload::of(payload, 0, kBytes), 0, 1);
      comm.send(simpi::Payload::of(payload, 0, kBytes), 0, 2);
      // BUG under test: read rank 0's receive buffer with no edge from the
      // receive; a later virtual time alone orders nothing.
      w.eng.sleep_until(sim::from_seconds(1.0));
      auto s = rt.create_stream(0);
      rt.launch_kernel(s, kBytes, "late reader", [] {}, {{&b1, 0, kBytes, false}});
      rt.stream_synchronize(s);
    }
  });
  // Two hosts, one stream, and one request tid per rank: each rank's second
  // request reused the tid its first one retired.
  EXPECT_EQ(w.chk.threads(), 5u);
  const auto& rep = w.chk.report();
  ASSERT_EQ(rep.findings().size(), 1u) << dump(rep);
  ASSERT_EQ(rep.count(FindingKind::kReadWriteRace), 1u) << dump(rep);
  ASSERT_EQ(log.serials.size(), 2u);
  const std::string first = "irecv r1->r0 tag=1 " + req_tag(log.serials[0]);
  const check::Finding& f = rep.findings()[0];
  EXPECT_EQ(f.first.rfind(first + " @ t=", 0), 0u) << f.first;
  EXPECT_NE(f.second.find("late reader"), std::string::npos) << f.second;
  EXPECT_EQ(f.missing_edge.rfind("no happens-before edge from [" + first + "] to [stream gpu0/",
                                 0),
            0u)
      << f.missing_edge;
}

// ---------------------------------------------------------------------------
// End-to-end: full checked exchange() across every specialization method,
// including fault-driven demotion. The acceptance bar is zero findings.
// ---------------------------------------------------------------------------

int histogram_count(const std::map<Method, std::pair<int, std::size_t>>& h, Method m) {
  auto it = h.find(m);
  return it == h.end() ? 0 : it->second.first;
}

struct ExchangeCase {
  const char* name;
  int nodes;
  int ranks_per_node;
  MethodFlags flags;
  bool aggregate = false;
  bool zero_copy = false;
  PackMode pack_mode = PackMode::kKernel;
};

void run_checked_exchange(const ExchangeCase& c, std::vector<Method> expect_methods) {
  SCOPED_TRACE(c.name);
  const Dim3 domain{48, 48, 48};
  Cluster cluster(topo::summit(), c.nodes, c.ranks_per_node);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(c.flags);
    dd.set_remote_aggregation(c.aggregate);
    dd.set_staged_zero_copy(c.zero_copy);
    dd.set_pack_mode(c.pack_mode);
    dd.realize();
    const auto hist = dd.method_bytes_histogram();
    for (Method m : expect_methods) {
      EXPECT_GT(histogram_count(hist, m), 0) << "method not exercised: " << to_string(m);
    }
    for (int it = 0; it < 3; ++it) {
      fill_interior(dd, 2);
      ctx.comm.barrier();
      if (it == 1) {
        dd.exchange({0});  // selective exchanges go through the same machinery
        dd.exchange({1});
      } else {
        dd.exchange();
      }
      ctx.comm.barrier();
      EXPECT_EQ(verify_halos(dd, domain, 2), 0) << "iteration " << it;
    }
  });
  EXPECT_TRUE(chk.report().clean()) << dump(chk.report());
}

TEST(CheckExchange, KernelPeerColocatedSingleNodeClean) {
  run_checked_exchange({"single-node kAll", 1, 2, MethodFlags::kAll},
                       {Method::kKernel, Method::kPeer, Method::kColocated});
}

TEST(CheckExchange, CudaAwareRemoteClean) {
  run_checked_exchange({"cuda-aware remote", 2, 1, MethodFlags::kAllCudaAware},
                       {Method::kPeer, Method::kCudaAwareMpi});
}

TEST(CheckExchange, StagedRemoteClean) {
  run_checked_exchange({"staged remote", 2, 1, MethodFlags::kStaged | MethodFlags::kPeer |
                                                   MethodFlags::kKernel},
                       {Method::kPeer, Method::kStaged});
}

TEST(CheckExchange, StagedAggregatedClean) {
  ExchangeCase c{"staged aggregated", 2, 1,
                 MethodFlags::kStaged | MethodFlags::kPeer | MethodFlags::kKernel};
  c.aggregate = true;
  run_checked_exchange(c, {Method::kStaged});
}

TEST(CheckExchange, StagedZeroCopyClean) {
  ExchangeCase c{"staged zero-copy", 2, 1,
                 MethodFlags::kStaged | MethodFlags::kPeer | MethodFlags::kKernel};
  c.zero_copy = true;
  run_checked_exchange(c, {Method::kStaged});
}

TEST(CheckExchange, PeerMemcpy3DClean) {
  ExchangeCase c{"peer 3d", 1, 2, MethodFlags::kAll};
  c.pack_mode = PackMode::kMemcpy3D;
  run_checked_exchange(c, {Method::kPeer});
}

// The hardest case: all five methods in one job, then a mid-run fault storm
// (peer revocation, IPC invalidation, CUDA-awareness loss) demotes PEER,
// COLOCATED, and CUDA-aware transfers to STAGED. The checked exchange must
// stay bit-exact AND finding-free through the re-specialization.
TEST(CheckExchange, FaultDemotionStaysClean) {
  const sim::Time t_fault = sim::from_seconds(1.0);
  const Dim3 domain{48, 48, 48};
  fault::FaultPlan plan;
  plan.revoke_peer(t_fault, -1, -1).invalidate_ipc(t_fault).disable_cuda_aware(t_fault);
  fault::Injector inj(plan);

  Cluster cluster(topo::summit(), 2, 2);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  cluster.set_fault_injector(&inj);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(MethodFlags::kAllCudaAware | MethodFlags::kStaged);
    dd.realize();

    const auto before = dd.method_bytes_histogram();
    EXPECT_GT(histogram_count(before, Method::kPeer), 0);
    EXPECT_GT(histogram_count(before, Method::kColocated), 0);
    EXPECT_GT(histogram_count(before, Method::kCudaAwareMpi), 0);

    fill_interior(dd, 2);
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();
    EXPECT_EQ(verify_halos(dd, domain, 2), 0);

    ctx.engine().sleep_until(t_fault + sim::kMicrosecond);
    ctx.comm.barrier();
    for (int it = 0; it < 2; ++it) {
      fill_interior(dd, 2);
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      EXPECT_EQ(verify_halos(dd, domain, 2), 0) << "post-fault iteration " << it;
    }

    const auto after = dd.method_bytes_histogram();
    EXPECT_EQ(histogram_count(after, Method::kPeer), 0);
    EXPECT_EQ(histogram_count(after, Method::kColocated), 0);
    EXPECT_EQ(histogram_count(after, Method::kCudaAwareMpi), 0);
    EXPECT_GT(histogram_count(after, Method::kStaged),
              histogram_count(before, Method::kStaged));
  });
  EXPECT_TRUE(chk.report().clean()) << dump(chk.report());
}

// The checker's thread count is a function of the live threads, not of
// history: every exchange reuses the request tids its predecessor retired.
// Its shadow keeps its shape, and the access histories the segments share
// stay as many: a count lost on a history would leak it.
TEST(CheckExchange, StateStaysFlatAcrossExchanges) {
  const Dim3 domain{48, 32, 8};
  Cluster cluster(topo::summit(), 2, 2);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  std::size_t after2 = 0, after12 = 0;
  std::size_t segments2 = 0, segments12 = 0, histories2 = 0, histories12 = 0;
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.set_methods(MethodFlags::kAll);
    dd.realize();
    for (int it = 1; it <= 12; ++it) {
      fill_interior(dd, 1);
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      EXPECT_EQ(verify_halos(dd, domain, 1), 0) << "exchange " << it;
      if (ctx.comm.rank() == 0 && it == 2) {
        after2 = chk.threads();
        segments2 = chk.shadow_segments();
        histories2 = chk.live_histories();
      }
      if (ctx.comm.rank() == 0 && it == 12) {
        after12 = chk.threads();
        segments12 = chk.shadow_segments();
        histories12 = chk.live_histories();
      }
      ctx.comm.barrier();  // nobody posts the next exchange before the read
    }
  });
  EXPECT_GT(after2, 0u);
  EXPECT_EQ(after2, after12);
  EXPECT_GT(segments2, 0u);
  EXPECT_EQ(segments2, segments12);
  EXPECT_GT(histories2, 0u);
  EXPECT_LE(histories2, segments2);  // segments share histories
  EXPECT_EQ(histories2, histories12);
  EXPECT_TRUE(chk.report().clean()) << dump(chk.report());
}

// A barrier generation's clock is dropped once every actor that arrived has
// been released, so a long checked run holds one or two of them, not one
// per barrier it has passed.
TEST(CheckExchange, BarrierClocksStayBoundedOverFiftyExchanges) {
  const Dim3 domain{48, 32, 8};
  Cluster cluster(topo::summit(), 2, 2);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  std::size_t most = 0;
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.set_methods(MethodFlags::kAll);
    dd.realize();
    for (int it = 1; it <= 50; ++it) {
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      if (ctx.comm.rank() == 0) most = std::max(most, chk.barrier_clocks());
    }
  });
  EXPECT_GE(most, 1u);
  EXPECT_LE(most, 2u);
  EXPECT_TRUE(chk.report().clean()) << dump(chk.report());
}

// An actor that fails inside a barrier (its peer died) leaves it without a
// release. The generation stays while a later arrival can still release
// it, and is dropped once the shrunk job has passed it.
TEST(CheckMpi, BarrierLeftByFailureIsDropped) {
  const sim::Time t_fail = 500 * sim::kMicrosecond;
  fault::FaultPlan plan;
  plan.fail_gpu(t_fail, 1);
  fault::Injector inj(plan);
  Cluster cluster(topo::pcie_box(2), 1, 2);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  cluster.set_fault_injector(&inj);
  std::size_t after_failure = 0, after_retry = 0;
  cluster.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      EXPECT_THROW(ctx.comm.barrier(), simpi::TransportError);
      after_failure = chk.barrier_clocks();
      ctx.comm.job().retire_rank(1);
      ctx.comm.barrier();  // the same generation, now with one live rank
      after_retry = chk.barrier_clocks();
    } else {
      ctx.engine().sleep_until(t_fail + sim::kMicrosecond);  // die quietly
    }
  });
  EXPECT_EQ(after_failure, 1u);
  EXPECT_EQ(after_retry, 0u);
}

// Detection through the full exchange stack: re-running the *same* exchange
// but suppressing one ordering edge must produce findings. The split-phase
// API lets the application race its own compute kernel against an in-flight
// exchange — the checker catches exactly that.
TEST(CheckExchange, ComputeOverlapOnBoundaryRaces) {
  const Dim3 domain{48, 48, 48};
  Cluster cluster(topo::summit(), 1, 2);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.set_methods(MethodFlags::kAll);
    dd.realize();
    fill_interior(dd, 1);
    ctx.comm.barrier();
    dd.exchange_start();
    // BUG under test: a "compute" kernel that touches the halo (not just
    // the interior) while the exchange is still in flight.
    dd.for_each_subdomain([&](LocalDomain& ld) {
      vgpu::AccessList acc;
      const std::size_t all = static_cast<std::size_t>(ld.storage().volume()) * sizeof(float);
      acc.push_back({&ld.data(0), 0, all, true});
      ctx.rt.launch_kernel(ld.compute_stream(), all, "eager compute", [] {}, acc);
    });
    dd.exchange_finish();
    dd.compute_synchronize();
    ctx.comm.barrier();
  });
  EXPECT_FALSE(chk.report().clean());
  // The eager compute kernel must appear in at least one race finding.
  bool named = false;
  for (const auto& f : chk.report().findings()) {
    named = named || f.first.find("eager compute") != std::string::npos ||
            f.second.find("eager compute") != std::string::npos;
  }
  EXPECT_TRUE(named) << dump(chk.report());
}

// A finding without its virtual time: "<label> @ t=..." -> "<label>".
std::string untimed(const std::string& s) { return s.substr(0, s.rfind(" @ t=")); }

// Runs `before` exchanges named by their quantity lists (empty: all), then
// one full exchange with a compute kernel racing it on quantity 0, and
// returns the findings as (kind, first, second) without times.
std::vector<std::string> planted_race_findings(
    const std::vector<std::vector<std::size_t>>& before) {
  const Dim3 domain{48, 32, 16};
  Cluster cluster(topo::summit(), 1, 2);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(MethodFlags::kAll);
    dd.realize();
    for (const auto& qs : before) {
      ctx.comm.barrier();
      if (qs.empty()) {
        dd.exchange();
      } else {
        dd.exchange(qs);
      }
      ctx.comm.barrier();
    }
    ctx.comm.barrier();
    dd.exchange_start();
    dd.for_each_subdomain([&](LocalDomain& ld) {
      const std::size_t all = static_cast<std::size_t>(ld.storage().volume()) * sizeof(float);
      ctx.rt.launch_kernel(ld.compute_stream(), all, "planted compute", [] {},
                           {{&ld.data(0), 0, all, true}});
    });
    dd.exchange_finish();
    dd.compute_synchronize();
    ctx.comm.barrier();
  });
  std::vector<std::string> out;
  for (const check::Finding& f : chk.report().findings()) {
    out.push_back(std::string(to_string(f.kind)) + " | " + untimed(f.first) + " | " +
                  untimed(f.second));
  }
  return out;
}

// The warm steady path reports a race exactly as a cold first exchange
// does. The selective exchanges re-lower the ops, so access lists kept from
// an earlier lowering (quantity 1 alone) would miss the race on quantity 0.
TEST(CheckExchange, RaceOnWarmExchangeMatchesFirstExchange) {
  const std::vector<std::string> cold = planted_race_findings({});
  const std::vector<std::string> warm = planted_race_findings({{1}, {}, {1}});
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(warm, cold);
  bool named = false;
  for (const std::string& f : cold) named = named || f.find("planted compute") != std::string::npos;
  EXPECT_TRUE(named);
}

}  // namespace
