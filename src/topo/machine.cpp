#include "topo/machine.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fault/fault.h"

namespace stencil::topo {

namespace {
std::string res_name(const char* kind, int a, int b = -1) {
  std::string s = kind;
  s += ' ';
  s += std::to_string(a);
  if (b >= 0) {
    s += "->";
    s += std::to_string(b);
  }
  return s;
}
}  // namespace

Machine::Machine(NodeArchetype arch, int num_nodes) : arch_(std::move(arch)), num_nodes_(num_nodes) {
  if (num_nodes_ <= 0) throw std::invalid_argument("Machine: num_nodes must be positive");
  if (arch_.gpus_per_node() <= 0) throw std::invalid_argument("Machine: archetype has no GPUs");
  const int g = total_gpus();
  const int gpn = gpus_per_node();
  kernel_.reserve(static_cast<std::size_t>(g));
  h2d_.reserve(static_cast<std::size_t>(g));
  d2h_.reserve(static_cast<std::size_t>(g));
  for (int i = 0; i < g; ++i) {
    kernel_.emplace_back(res_name("gpu-kernel", i));
    h2d_.emplace_back(res_name("h2d", i));
    d2h_.emplace_back(res_name("d2h", i));
  }
  p2p_.reserve(static_cast<std::size_t>(num_nodes_) * gpn * gpn);
  for (int n = 0; n < num_nodes_; ++n) {
    for (int i = 0; i < gpn; ++i) {
      for (int j = 0; j < gpn; ++j) {
        p2p_.emplace_back(res_name("p2p", global_gpu(n, i), global_gpu(n, j)));
      }
    }
  }
  xbus_.reserve(static_cast<std::size_t>(num_nodes_) * 2);
  nic_out_.reserve(static_cast<std::size_t>(num_nodes_));
  nic_in_.reserve(static_cast<std::size_t>(num_nodes_));
  for (int n = 0; n < num_nodes_; ++n) {
    xbus_.emplace_back(res_name("xbus-fwd", n));
    xbus_.emplace_back(res_name("xbus-rev", n));
    nic_out_.emplace_back(res_name("nic-out", n));
    nic_in_.emplace_back(res_name("nic-in", n));
  }
}

bool Machine::peer_capable(int ggpu_i, int ggpu_j) const {
  if (node_of(ggpu_i) != node_of(ggpu_j)) return false;
  return arch_.peer_capable(local_of(ggpu_i), local_of(ggpu_j));
}

sim::Resource& Machine::p2p(int src_ggpu, int dst_ggpu) {
  const int n = node_of(src_ggpu);
  const int gpn = gpus_per_node();
  const std::size_t idx = (static_cast<std::size_t>(n) * gpn + local_of(src_ggpu)) * gpn +
                          static_cast<std::size_t>(local_of(dst_ggpu));
  return p2p_[idx];
}

sim::Resource& Machine::xbus(int node, bool forward) {
  return xbus_[static_cast<std::size_t>(node) * 2 + (forward ? 0 : 1)];
}

double Machine::link_scale(int cls, int a, int b, sim::Time t) const {
  if (fault_ == nullptr) return 1.0;
  const double s = fault_->link_scale(static_cast<fault::LinkClass>(cls), a, b, t);
  return std::max(s, 1e-3);
}

double Machine::device_scale(int ggpu, sim::Time t) const {
  if (fault_ == nullptr) return 1.0;
  return std::max(fault_->device_scale(ggpu, t), 1e-3);
}

namespace {
constexpr int kFaultP2P = static_cast<int>(fault::LinkClass::kP2P);
constexpr int kFaultHostLink = static_cast<int>(fault::LinkClass::kHostLink);
constexpr int kFaultXBus = static_cast<int>(fault::LinkClass::kXBus);
constexpr int kFaultNic = static_cast<int>(fault::LinkClass::kNic);
}  // namespace

sim::Span Machine::schedule_kernel(int ggpu, std::uint64_t bytes_moved, sim::Time ready) {
  const double bw = arch_.bw_gpu_mem * arch_.eff_pack * device_scale(ggpu, ready);
  const sim::Duration dur = sim::transfer_time(bytes_moved, bw);
  return kernel_queue(ggpu).acquire_span(ready + arch_.lat_kernel, dur);
}

sim::Span Machine::schedule_h2d(int ggpu, std::uint64_t bytes, sim::Time ready) {
  const double bw = arch_.bw_nvlink_cpu_gpu * arch_.eff_nvlink *
                    link_scale(kFaultHostLink, ggpu, -1, ready);
  const sim::Duration dur = sim::transfer_time(bytes, bw);
  return h2d_[static_cast<std::size_t>(ggpu)].acquire_span(ready + arch_.lat_gpu_copy, dur);
}

sim::Span Machine::schedule_d2h(int ggpu, std::uint64_t bytes, sim::Time ready) {
  const double bw = arch_.bw_nvlink_cpu_gpu * arch_.eff_nvlink *
                    link_scale(kFaultHostLink, ggpu, -1, ready);
  const sim::Duration dur = sim::transfer_time(bytes, bw);
  return d2h_[static_cast<std::size_t>(ggpu)].acquire_span(ready + arch_.lat_gpu_copy, dur);
}

sim::Span Machine::schedule_d2d(int src_ggpu, int dst_ggpu, std::uint64_t bytes, sim::Time ready,
                                bool use_peer) {
  if (node_of(src_ggpu) != node_of(dst_ggpu)) {
    throw std::logic_error("Machine::schedule_d2d: GPUs are on different nodes");
  }
  if (src_ggpu == dst_ggpu) {
    // Local device copy: read + write through device memory.
    const double bw = arch_.bw_gpu_mem * device_scale(src_ggpu, ready);
    const sim::Duration dur = sim::transfer_time(2 * bytes, bw);
    return kernel_queue(src_ggpu).acquire_span(ready + arch_.lat_gpu_copy, dur);
  }
  const int li = local_of(src_ggpu);
  const int lj = local_of(dst_ggpu);
  if (use_peer && arch_.peer_capable(li, lj)) {
    const double bw = arch_.theoretical_gpu_bw(li, lj) * arch_.eff_nvlink *
                      link_scale(kFaultP2P, src_ggpu, dst_ggpu, ready);
    return p2p(src_ggpu, dst_ggpu).acquire_span(ready + arch_.lat_gpu_copy, sim::transfer_time(bytes, bw));
  }
  // Non-peer path: the driver stages GPU -> host -> (X-Bus) -> host -> GPU
  // through bounce buffers, store-and-forward per hop — which is why
  // disabling peer access (or crossing the X-Bus on Summit) costs 2-3x.
  const int node = node_of(src_ggpu);
  const double host_link_bw = arch_.bw_nvlink_cpu_gpu * arch_.eff_nvlink;
  const sim::Duration d_out = sim::transfer_time(
      bytes, host_link_bw * link_scale(kFaultHostLink, src_ggpu, -1, ready));
  const sim::Span first =
      d2h_[static_cast<std::size_t>(src_ggpu)].acquire_span(ready + arch_.lat_gpu_copy, d_out);
  sim::Span span = first;
  if (arch_.socket_of(li) != arch_.socket_of(lj)) {
    const sim::Duration d_xbus = sim::transfer_time(
        bytes, arch_.bw_xbus * arch_.eff_xbus * link_scale(kFaultXBus, node, -1, span.end));
    span = xbus(node, arch_.socket_of(li) < arch_.socket_of(lj)).acquire_span(span.end, d_xbus);
  }
  const sim::Duration d_in = sim::transfer_time(
      bytes, host_link_bw * link_scale(kFaultHostLink, dst_ggpu, -1, span.end));
  span = h2d_[static_cast<std::size_t>(dst_ggpu)].acquire_span(span.end, d_in);
  return {first.start, span.end};
}

double Machine::strided_efficiency(std::uint64_t row_bytes) const {
  if (row_bytes == 0) return 1.0;
  const double r = static_cast<double>(row_bytes);
  return r / (r + arch_.strided_row_overhead);
}

sim::Span Machine::schedule_d2d_strided(int src_ggpu, int dst_ggpu, std::uint64_t bytes,
                                        std::uint64_t row_bytes, sim::Time ready, bool use_peer) {
  // Inflate the payload by the per-row overhead instead of rewriting the
  // multi-hop path logic: same wire occupancy either way.
  const double eff = strided_efficiency(row_bytes);
  const auto inflated = static_cast<std::uint64_t>(static_cast<double>(bytes) / eff + 0.5);
  return schedule_d2d(src_ggpu, dst_ggpu, inflated, ready, use_peer);
}

sim::Span Machine::schedule_internode(int src_node, int dst_node, std::uint64_t bytes, sim::Time ready) {
  if (src_node == dst_node) {
    throw std::logic_error("Machine::schedule_internode: same node");
  }
  const double bw =
      arch_.bw_nic * arch_.eff_nic * link_scale(kFaultNic, src_node, dst_node, ready);
  const sim::Duration dur = sim::transfer_time(bytes, bw);
  const sim::Span out = nic_out(src_node).acquire_span(ready, dur);
  const sim::Span in = nic_in(dst_node).acquire_span(cut_through_ready(out, dur), dur);
  return {out.start, in.end};
}

sim::Span Machine::schedule_host_copy(sim::Resource& cpu, std::uint64_t bytes, sim::Time ready) {
  return cpu.acquire_span(ready, sim::transfer_time(bytes, arch_.bw_host_mem));
}

void Machine::reset_resources() {
  for (auto& r : kernel_) r.reset();
  for (auto& r : h2d_) r.reset();
  for (auto& r : d2h_) r.reset();
  for (auto& r : p2p_) r.reset();
  for (auto& r : xbus_) r.reset();
  for (auto& r : nic_out_) r.reset();
  for (auto& r : nic_in_) r.reset();
}

}  // namespace stencil::topo
