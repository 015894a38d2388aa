#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "simtime/engine.h"
#include "topo/machine.h"
#include "vgpu/runtime.h"

namespace sim = stencil::sim;
namespace topo = stencil::topo;
namespace vgpu = stencil::vgpu;

namespace {

/// Run `body` as a single simulation actor with a fresh Summit machine.
template <typename F>
void with_runtime(F&& body, int nodes = 1) {
  sim::Engine eng;
  topo::Machine machine(topo::summit(), nodes);
  vgpu::Runtime rt(eng, machine);
  eng.run({[&] { body(rt); }});
}

}  // namespace

TEST(Buffer, MaterializedHasData) {
  vgpu::Buffer b(vgpu::MemSpace::kDevice, vgpu::MemMode::kMaterialized, 0, 64, 1);
  ASSERT_NE(b.data(), nullptr);
  b.as<std::uint8_t>()[63] = 7;
  EXPECT_EQ(b.as<std::uint8_t>()[63], 7);
}

TEST(Buffer, PhantomDataThrows) {
  vgpu::Buffer b(vgpu::MemSpace::kDevice, vgpu::MemMode::kPhantom, 0, 64, 1);
  EXPECT_EQ(b.size(), 64u);
  EXPECT_THROW(b.data(), std::logic_error);
}

TEST(Runtime, H2DAndD2HMoveRealBytes) {
  with_runtime([](vgpu::Runtime& rt) {
    auto host = rt.alloc_pinned_host(0, 256);
    auto dev = rt.alloc_device(0, 256);
    auto back = rt.alloc_pinned_host(0, 256);
    std::iota(host.as<std::uint8_t>(), host.as<std::uint8_t>() + 256, 0);
    auto s = rt.create_stream(0);
    rt.memcpy_async(dev, 0, host, 0, 256, s);
    rt.memcpy_async(back, 0, dev, 0, 256, s);
    rt.stream_synchronize(s);
    EXPECT_EQ(std::memcmp(host.data(), back.data(), 256), 0);
  });
}

TEST(Runtime, CopyAdvancesVirtualTime) {
  with_runtime([](vgpu::Runtime& rt) {
    auto* eng = sim::Engine::current();
    auto host = rt.alloc_pinned_host(0, 64 << 20);
    auto dev = rt.alloc_device(0, 64 << 20);
    auto s = rt.create_stream(0);
    const sim::Time t0 = eng->now();
    rt.memcpy_async(dev, 0, host, 0, 64 << 20, s);
    // Async: only the CPU issue cost has elapsed so far.
    EXPECT_LT(eng->now() - t0, 100 * sim::kMicrosecond);
    rt.stream_synchronize(s);
    // 64 MiB over ~39 GiB/s is ~1.6 ms.
    EXPECT_GT(eng->now() - t0, sim::kMillisecond);
  });
}

TEST(Runtime, StreamOrderIsSequential) {
  with_runtime([](vgpu::Runtime& rt) {
    auto s = rt.create_stream(0);
    std::vector<int> order;
    rt.launch_kernel(s, 1 << 20, "first", [&] { order.push_back(1); });
    rt.launch_kernel(s, 1 << 20, "second", [&] { order.push_back(2); });
    const sim::Time f1 = rt.stream_frontier(s);
    rt.launch_kernel(s, 1 << 20, "third", [&] { order.push_back(3); });
    EXPECT_GT(rt.stream_frontier(s), f1);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  });
}

TEST(Runtime, DistinctStreamsOverlap) {
  with_runtime([](vgpu::Runtime& rt) {
    // Two big copies on different devices via different streams overlap:
    // total elapsed ~ one copy, not two.
    auto* eng = sim::Engine::current();
    auto h0 = rt.alloc_pinned_host(0, 64 << 20);
    auto d0 = rt.alloc_device(0, 64 << 20);
    auto h1 = rt.alloc_pinned_host(0, 64 << 20);
    auto d1 = rt.alloc_device(1, 64 << 20);
    auto s0 = rt.create_stream(0);
    auto s1 = rt.create_stream(1);
    const sim::Time t0 = eng->now();
    rt.memcpy_async(d0, 0, h0, 0, 64 << 20, s0);
    rt.memcpy_async(d1, 0, h1, 0, 64 << 20, s1);
    rt.stream_synchronize(s0);
    rt.stream_synchronize(s1);
    const sim::Duration both = eng->now() - t0;

    const sim::Time t1 = eng->now();
    rt.memcpy_async(d0, 0, h0, 0, 64 << 20, s0);
    rt.stream_synchronize(s0);
    const sim::Duration one = eng->now() - t1;
    EXPECT_LT(both, 2 * one);  // overlapped, with only issue-serialization
  });
}

TEST(Runtime, DefaultStreamSerializesDevice) {
  with_runtime([](vgpu::Runtime& rt) {
    auto s = rt.create_stream(0);
    auto def = rt.default_stream(0);
    rt.launch_kernel(s, 32 << 20, "app", nullptr);
    const sim::Time app_end = rt.stream_frontier(s);
    // Work on the legacy default stream cannot start before the app kernel
    // finishes...
    rt.launch_kernel(def, 1 << 10, "lib", nullptr);
    EXPECT_GE(rt.stream_frontier(def), app_end);
    // ...and subsequent work on other streams waits for the default stream.
    auto s2 = rt.create_stream(0);
    rt.launch_kernel(s2, 1 << 10, "app2", nullptr);
    EXPECT_GE(rt.stream_frontier(s2), rt.stream_frontier(def));
  });
}

TEST(Runtime, EventsOrderStreams) {
  with_runtime([](vgpu::Runtime& rt) {
    auto s0 = rt.create_stream(0);
    auto s1 = rt.create_stream(1);
    rt.launch_kernel(s0, 64 << 20, "producer", nullptr);
    vgpu::Event ev;
    rt.record_event(ev, s0);
    rt.stream_wait_event(s1, ev);
    rt.launch_kernel(s1, 1 << 10, "consumer", nullptr);
    EXPECT_GE(rt.stream_frontier(s1), ev.completed_at);
    // Unrecorded events are no-ops.
    vgpu::Event empty;
    auto s2 = rt.create_stream(1);
    rt.stream_wait_event(s2, empty);
    EXPECT_TRUE(rt.event_query(empty));
  });
}

TEST(Runtime, EventQueryAndSynchronize) {
  with_runtime([](vgpu::Runtime& rt) {
    auto* eng = sim::Engine::current();
    auto s = rt.create_stream(0);
    rt.launch_kernel(s, 64 << 20, "slow", nullptr);
    vgpu::Event ev;
    rt.record_event(ev, s);
    EXPECT_FALSE(rt.event_query(ev));
    rt.event_synchronize(ev);
    EXPECT_TRUE(rt.event_query(ev));
    EXPECT_GE(eng->now(), ev.completed_at);
  });
}

TEST(Runtime, PeerAccessRules) {
  with_runtime([](vgpu::Runtime& rt) {
    EXPECT_TRUE(rt.can_access_peer(0, 1));
    EXPECT_FALSE(rt.can_access_peer(0, 3));
    EXPECT_FALSE(rt.peer_enabled(0, 1));
    rt.enable_peer_access(0, 1);
    EXPECT_TRUE(rt.peer_enabled(0, 1));
    EXPECT_FALSE(rt.peer_enabled(1, 0));  // directional, like CUDA
    EXPECT_THROW(rt.enable_peer_access(0, 3), std::runtime_error);
  });
}

TEST(Runtime, PeerCopyMovesBytesAndIsFasterWhenEnabled) {
  with_runtime([](vgpu::Runtime& rt) {
    auto* eng = sim::Engine::current();
    auto a = rt.alloc_device(0, 32 << 20);
    auto b = rt.alloc_device(1, 32 << 20);
    std::memset(a.data(), 0x5A, a.size());
    auto s = rt.create_stream(0);

    const sim::Time t0 = eng->now();
    rt.memcpy_peer_async(b, 0, a, 0, 32 << 20, s);  // peer NOT enabled: staged
    rt.stream_synchronize(s);
    const sim::Duration staged = eng->now() - t0;
    EXPECT_EQ(b.as<std::uint8_t>()[123], 0x5A);

    rt.enable_peer_access(0, 1);
    const sim::Time t1 = eng->now();
    rt.memcpy_peer_async(b, 0, a, 0, 32 << 20, s);
    rt.stream_synchronize(s);
    const sim::Duration direct = eng->now() - t1;
    EXPECT_LT(direct, staged);
  });
}

TEST(Runtime, IpcHandleRoundTrip) {
  with_runtime([](vgpu::Runtime& rt) {
    auto target = rt.alloc_device(2, 4096);
    std::memset(target.data(), 0, 4096);
    const auto handle = rt.ipc_get_mem_handle(target);
    auto mapped = rt.ipc_open_mem_handle(handle, 0);  // same node
    ASSERT_TRUE(mapped.valid());
    auto src = rt.alloc_device(0, 4096);
    std::memset(src.data(), 0x77, 4096);
    auto s = rt.create_stream(0);
    rt.enable_peer_access(0, 2);
    rt.memcpy_to_ipc_async(mapped, 0, src, 0, 4096, s);
    rt.stream_synchronize(s);
    EXPECT_EQ(target.as<std::uint8_t>()[4095], 0x77);
  });
}

TEST(Runtime, IpcAcrossNodesRejected) {
  with_runtime(
      [](vgpu::Runtime& rt) {
        auto buf = rt.alloc_device(0, 64);
        const auto handle = rt.ipc_get_mem_handle(buf);
        EXPECT_THROW(rt.ipc_open_mem_handle(handle, 6), std::runtime_error);  // node 1
      },
      /*nodes=*/2);
}

TEST(Runtime, PhantomCopiesCostTimeMoveNothing) {
  with_runtime([](vgpu::Runtime& rt) {
    auto* eng = sim::Engine::current();
    rt.set_mem_mode(vgpu::MemMode::kPhantom);
    auto h = rt.alloc_pinned_host(0, 1ull << 30);
    auto d = rt.alloc_device(0, 1ull << 30);
    auto s = rt.create_stream(0);
    const sim::Time t0 = eng->now();
    rt.memcpy_async(d, 0, h, 0, 1ull << 30, s);
    rt.stream_synchronize(s);
    EXPECT_GT(eng->now() - t0, 10 * sim::kMillisecond);  // 1 GiB at ~39 GiB/s
  });
}

TEST(Runtime, OutOfRangeCopyRejected) {
  with_runtime([](vgpu::Runtime& rt) {
    auto h = rt.alloc_pinned_host(0, 64);
    auto d = rt.alloc_device(0, 64);
    auto s = rt.create_stream(0);
    EXPECT_THROW(rt.memcpy_async(d, 32, h, 0, 64, s), std::out_of_range);
    EXPECT_THROW(rt.memcpy_async(d, 0, h, 1, 64, s), std::out_of_range);
  });
}

TEST(Runtime, CrossDeviceMemcpyAsyncRejected) {
  with_runtime([](vgpu::Runtime& rt) {
    auto a = rt.alloc_device(0, 64);
    auto b = rt.alloc_device(1, 64);
    auto s = rt.create_stream(0);
    EXPECT_THROW(rt.memcpy_async(b, 0, a, 0, 64, s), std::logic_error);
  });
}

TEST(Runtime, IssueOverheadSerializesOnCpu) {
  with_runtime([](vgpu::Runtime& rt) {
    // Issuing N async ops costs N * cpu_issue on the calling actor even
    // though the ops themselves overlap — the mechanism that rewards more
    // ranks per node in the STAGED regime.
    auto* eng = sim::Engine::current();
    auto s = rt.create_stream(0);
    const sim::Time t0 = eng->now();
    for (int i = 0; i < 10; ++i) rt.launch_kernel(s, 0, "k", nullptr);
    EXPECT_EQ(eng->now() - t0, 10 * rt.machine().arch().cpu_issue);
  });
}

namespace {

/// Appends "<name>:<event>" to a log shared with other observers, so the
/// interleaving of one fan-out is visible.
struct LoggingRuntimeObserver : vgpu::RuntimeObserver {
  LoggingRuntimeObserver(std::string n, std::vector<std::string>* l)
      : name(std::move(n)), log(l) {}
  std::string name;
  std::vector<std::string>* log;
  void note(const std::string& event) { log->push_back(name + ":" + event); }

  void on_op(const vgpu::OpInfo& op) override { note("op " + *op.lane + " " + *op.trace_label); }
  void on_host_issue(const std::string& lane, sim::Time, sim::Time) override {
    note("issue " + lane);
  }
  void on_graph_launch(const std::string& lane, int nodes, sim::Time, sim::Time) override {
    note("graph " + lane + " " + std::to_string(nodes));
  }
  void on_stream_create(const vgpu::Stream&) override { note("stream_create"); }
  void on_record_event(const vgpu::Event&, const vgpu::Stream&) override { note("record"); }
  void on_stream_wait_event(const vgpu::Stream&, const vgpu::Event&) override { note("wait"); }
  void on_event_synchronize(const vgpu::Event&) override { note("event_sync"); }
  void on_event_query(const vgpu::Event&, bool) override { note("query"); }
  void on_stream_synchronize(const vgpu::Stream&) override { note("stream_sync"); }
  void on_device_synchronize(int) override { note("device_sync"); }
  void on_stream_destroy(const vgpu::Stream&) override { note("stream_destroy"); }
  void on_ipc_open(const vgpu::IpcMappedPtr&, int) override { note("ipc_open"); }
  void on_ipc_close(const vgpu::IpcMappedPtr&) override { note("ipc_close"); }
  void on_ipc_misuse(const vgpu::IpcMappedPtr&, const std::string&) override {
    note("ipc_misuse");
  }
};

}  // namespace

TEST(RuntimeObservers, EveryEventReachesEveryObserverInAttachOrder) {
  std::vector<std::string> log;
  LoggingRuntimeObserver a("a", &log);
  LoggingRuntimeObserver b("b", &log);
  sim::Engine eng;
  topo::Machine machine(topo::summit(), 1);
  vgpu::Runtime rt(eng, machine);
  rt.attach(&a);
  rt.attach(&b);
  eng.run({[&] {
    auto host = rt.alloc_pinned_host(0, 256);
    auto d0 = rt.alloc_device(0, 256);
    auto d1 = rt.alloc_device(1, 256);
    auto s = rt.create_stream(0);
    rt.memcpy_async(d0, 0, host, 0, 256, s);
    rt.launch_kernel(s, 256, "pack +x", nullptr);
    rt.memcpy_peer_async(d1, 0, d0, 0, 256, s);
    vgpu::Event ev;
    rt.record_event(ev, s);
    auto s2 = rt.create_stream(1);
    rt.stream_wait_event(s2, ev);
    rt.event_query(ev);
    rt.event_synchronize(ev);
    auto mapped = rt.ipc_open_mem_handle(rt.ipc_get_mem_handle(d1), 0);
    rt.memcpy_to_ipc_async(mapped, 0, d0, 0, 256, s);
    rt.ipc_close_mem_handle(mapped);
    EXPECT_THROW(rt.memcpy_to_ipc_async(mapped, 0, d0, 0, 256, s), std::logic_error);
    rt.begin_capture();
    rt.launch_zero_copy_kernel(s, 256, "pack -x", nullptr);
    rt.memcpy3d_peer_async(1, 0, 256, 16, s, "copy3d", nullptr);
    vgpu::GraphExec g = rt.instantiate(rt.end_capture());
    rt.launch_graph(g);
    rt.stream_synchronize(s);
    rt.device_synchronize(1);
    rt.destroy_stream(s2);
  }});

  // Each event is delivered to a, then b, before the next event happens.
  ASSERT_FALSE(log.empty());
  ASSERT_EQ(log.size() % 2, 0u);
  std::vector<std::string> events;
  for (std::size_t i = 0; i < log.size(); i += 2) {
    ASSERT_EQ(log[i].substr(0, 2), "a:") << log[i];
    ASSERT_EQ(log[i + 1], "b:" + log[i].substr(2));
    events.push_back(log[i].substr(2));
  }
  const std::vector<std::string> expected = {
      "stream_create",
      "issue cpu.cpu",
      "op gpu0.h2d memcpy 256B",
      "issue cpu.cpu",
      "op gpu0.kernel pack +x",
      "issue cpu.cpu",
      "op gpu0->gpu1 staged-peer 256B",
      "record",
      "stream_create",
      "wait",
      "query",
      "event_sync",
      "ipc_open",
      "issue cpu.cpu",
      "op gpu0->gpu1 ipc-copy 256B",
      "ipc_close",
      "ipc_misuse",
      "graph cpu.cpu 2",
      "op gpu0.kernel pack -x (zero-copy)",
      "op gpu0->gpu1 copy3d 256B/3d",
      "stream_sync",
      "device_sync",
      "stream_destroy",
  };
  EXPECT_EQ(events, expected);

  // Detaching one observer stops its callbacks; the other keeps receiving.
  log.clear();
  rt.detach(&a);
  eng.run({[&] {
    auto s = rt.create_stream(0);
    rt.launch_kernel(s, 0, "k", nullptr);
  }});
  EXPECT_EQ(log, (std::vector<std::string>{"b:stream_create", "b:issue cpu.cpu",
                                           "b:op gpu0.kernel k"}));
  rt.detach(&b);
  eng.run({[&] { rt.create_stream(0); }});
  EXPECT_EQ(log.size(), 3u);
}
