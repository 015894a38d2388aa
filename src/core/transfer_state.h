#pragma once

/// \file transfer_state.h
/// Private definitions of DistributedDomain's per-transfer runtime state:
/// the streams, buffers and requests that the operands of a transfer's op
/// list (core/transfer_ops.h) resolve to. Shared by distributed_domain.cpp,
/// which issues the list, and verify_model.cpp, which lowers it into the
/// static verifier's IR. Not part of the public API.

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/distributed_domain.h"
#include "core/region.h"
#include "core/transfer_ops.h"
#include "simtime/engine.h"

namespace stencil {

/// The stand-in for a cudaIpcEventHandle pair: a shared channel through
/// which the COLOCATED sender and receiver synchronize without MPI.
/// data_ev/data_gen flow sender -> receiver ("generation N has landed in
/// your buffer"); done_ev/done_gen flow back ("generation N is unpacked,
/// the buffer may be overwritten"). The receiver owns the channel; the
/// sender learns its address during the one-time setup handshake.
struct DistributedDomain::IpcEventChannel {
  vgpu::Event data_ev;
  std::uint64_t data_gen = 0;
  vgpu::Event done_ev;
  std::uint64_t done_gen = 0;
  // Distributed tracing: span id of the sender's "ipc push" marker for the
  // generation in data_gen, so the receiver can draw a causal arrow along
  // the IPC handshake. 0 when the recorder is not causal.
  std::uint64_t data_span = 0;
  sim::Gate gate{"colocated-channel"};
  // Set by the sender when its IPC mapping went stale and it rerouted this
  // generation over MPI; tells a receiver parked on data_gen to fall back.
  bool demoted = false;
};

/// Per-transfer runtime state: streams, packed buffers, staging buffers,
/// and in-flight requests. A transfer where this rank is both sender and
/// receiver (PEER, KERNEL, or MPI-to-self) populates both halves.
///
/// Field order is access order: what every issued op reads (the op list,
/// the active size, the streams, the ready event and the requests) sits in
/// the first 136 bytes; the buffers an op resolves its operands to follow,
/// then the transfer itself, and last what kernel bodies, set-up and
/// COLOCATED flow control read.
struct DistributedDomain::TransferState {
  // This rank's op list for the exchange in flight, lowered with the eager
  // schedule (once per active quantity list and topology epoch) and again
  // when a demotion changes the method. Bit i of `bodies` says whether
  // ops[i] moves real bytes: a kernel over phantom memory gets no body.
  xfer::OpList ops;
  std::uint16_t bodies = 0;
  bool i_send = false;
  bool i_recv = false;
  // Membership in an AggGroup, fixed at realize(). A transfer demoted to
  // STAGED later is not a member, so the staged phases handle it
  // individually even when aggregation is on.
  bool aggregated = false;
  std::size_t active_bytes = 0;  // size for the exchange in flight

  vgpu::Stream src_stream;
  vgpu::Stream dst_stream;
  vgpu::Event ready_ev;  // sender: packed (+staged) data ready for MPI
  simpi::Request send_req;
  simpi::Request recv_req;

  vgpu::Buffer src_pack;  // device, on src GPU
  vgpu::Buffer dst_pack;  // device, on dst GPU
  vgpu::Buffer src_host;  // pinned host (STAGED sender)
  vgpu::Buffer dst_host;  // pinned host (STAGED receiver)

  Transfer t;
  Region3 src_region{};
  Region3 dst_region{};
  LocalDomain* src_ld = nullptr;
  LocalDomain* dst_ld = nullptr;
  std::size_t bytes = 0;  // full-quantity-set message size

  std::unique_ptr<IpcEventChannel> channel;  // COLOCATED receiver owns
  IpcEventChannel* peer_channel = nullptr;   // COLOCATED sender's view
  vgpu::IpcMappedPtr mapped;                 // sender's mapping of dst_pack

  /// Whether `op`, one of `ops`, moves real bytes (see `bodies`).
  bool has_body(const xfer::Op& op) const { return (bodies >> (&op - ops.begin()) & 1u) != 0; }

  /// The pack or staging buffer behind an op operand; a slot lives in the
  /// aggregation group's buffer `group`.
  vgpu::Buffer& buffer(xfer::Operand o, vgpu::Buffer* group = nullptr) {
    switch (o) {
      case xfer::Operand::kSrcPack: return src_pack;
      case xfer::Operand::kSrcHost: return src_host;
      case xfer::Operand::kDstPack: return dst_pack;
      case xfer::Operand::kDstHost: return dst_host;
      case xfer::Operand::kGroup: return *group;
      default: throw std::logic_error("TransferState::buffer: operand is not a buffer");
    }
  }
};

/// This rank's eager exchange, lowered once per (active quantity list,
/// topology epoch) by build_schedule: each walked Fig. 9 phase as one list
/// of steps, in issue order (xfers_ order, then op order within each
/// transfer). Phase 3 leaves out aggregation members, which pack with their
/// group. An interpreted COLOCATED step stands for the rest of its phase.
struct DistributedDomain::Schedule {
  static constexpr std::uint64_t kUnbuilt = ~std::uint64_t{0};
  std::uint64_t epoch = kUnbuilt;  // topo_epoch_ at build; kUnbuilt forces a build
  std::array<std::vector<Step>, xfer::kPhases> steps;

  std::vector<Step>& operator[](xfer::Phase p) { return steps[static_cast<std::size_t>(p)]; }
};

/// One aggregated STAGED message: every staged transfer between this rank
/// and `peer_rank` (in one direction) rides in a single pinned buffer, each
/// member at its offset.
struct DistributedDomain::AggGroup {
  int peer_rank = -1;
  std::size_t bytes = 0;
  vgpu::Buffer host;  // pinned, on this rank's node (sized for all quantities)
  // (transfer, offset), laid out for the exchange in flight: selective
  // exchanges shrink it.
  std::vector<std::pair<TransferState*, std::size_t>> members;
  std::size_t active_bytes = 0;
  simpi::Request req;
};

}  // namespace stencil
