#include "core/transfer_ops.h"

#include <algorithm>

namespace stencil::xfer {

OpList ops_for(const Shape& s) {
  using O = Operand;
  using P = Phase;
  OpList l;
  if (s.bytes == 0) return l;
  // A message leg: post, land, start, drain.
  const auto recv_leg = [&](O payload) {
    l.add(P::kPost, OpKind::kPostRecv, O::kNone, payload);
    l.add(P::kLand, OpKind::kWaitRecv, O::kNone, payload);
  };
  const auto send_leg = [&](O payload) {
    l.add(P::kSend, OpKind::kSend, payload);
    l.add(P::kDrain, OpKind::kWaitSend, payload);
  };
  switch (s.method) {
    case Method::kKernel:
      if (s.send) l.add(P::kLocal, OpKind::kSelf, O::kSrcRegion, O::kDstRegion);
      break;
    case Method::kPeer:  // both halves are this rank's
      if (s.peer_3d) {
        l.add(P::kLocal, OpKind::kCopy3D, O::kSrcRegion, O::kDstRegion);
        l.add(P::kLocal, OpKind::kEventEdge);
      } else {
        l.add(P::kLocal, OpKind::kPack, O::kSrcRegion, O::kSrcPack);
        l.add(P::kLocal, OpKind::kCopyPeer, O::kSrcPack, O::kDstPack);
        l.add(P::kLocal, OpKind::kEventEdge);
        l.add(P::kLocal, OpKind::kUnpack, O::kDstPack, O::kDstRegion);
      }
      break;
    case Method::kColocated:
      if (s.send) {
        l.add(P::kColocatedSend, OpKind::kColocatedSend);
        l.add(P::kColocatedSend, OpKind::kPack, O::kSrcRegion, O::kSrcPack);
        l.add(P::kColocatedSend, OpKind::kCopyIpc, O::kSrcPack, O::kIpcPeer);
      }
      if (s.recv) {
        l.add(P::kColocatedRecv, OpKind::kColocatedRecv);
        l.add(P::kColocatedRecv, OpKind::kUnpack, O::kDstPack, O::kDstRegion);
      }
      break;
    case Method::kCudaAwareMpi:  // MPI moves the device buffers
      if (s.recv) recv_leg(O::kDstPack);
      if (s.send) {
        l.add(P::kPack, OpKind::kPack, O::kSrcRegion, O::kSrcPack);
        l.add(P::kPack, OpKind::kReady);
        send_leg(O::kSrcPack);
      }
      if (s.recv) l.add(P::kLand, OpKind::kUnpack, O::kDstPack, O::kDstRegion);
      break;
    case Method::kStaged:
      if (s.group) {  // the merged message; members pack and land through slots
        if (s.recv) recv_leg(O::kGroup);
        if (s.send) send_leg(O::kGroup);
        break;
      }
      if (s.recv && !s.aggregated) recv_leg(O::kDstHost);
      if (s.send) {
        if (s.zero_copy && !s.aggregated) {
          l.add(P::kPack, OpKind::kPackZeroCopy, O::kSrcRegion, O::kSrcHost);
        } else {
          l.add(P::kPack, OpKind::kPack, O::kSrcRegion, O::kSrcPack);
          l.add(P::kPack, OpKind::kCopyD2H, O::kSrcPack, s.aggregated ? O::kGroup : O::kSrcHost);
        }
        l.add(P::kPack, OpKind::kReady);
        if (!s.aggregated) send_leg(O::kSrcHost);
      }
      if (s.recv) {
        l.add(P::kLand, OpKind::kCopyH2D, s.aggregated ? O::kGroup : O::kDstHost, O::kDstPack);
        l.add(P::kLand, OpKind::kUnpack, O::kDstPack, O::kDstRegion);
      }
      break;
  }
  return l;
}

std::vector<std::pair<int, std::vector<std::size_t>>> aggregation_layout(
    std::vector<AggMember> members) {
  std::sort(members.begin(), members.end(), [](const AggMember& a, const AggMember& b) {
    return a.peer != b.peer ? a.peer < b.peer : a.tag < b.tag;
  });
  std::vector<std::pair<int, std::vector<std::size_t>>> groups;
  for (const AggMember& m : members) {
    if (groups.empty() || groups.back().first != m.peer) groups.push_back({m.peer, {}});
    groups.back().second.push_back(m.index);
  }
  return groups;
}

std::string dir_str(Dim3 d) {
  auto c = [](std::int64_t v) { return v > 0 ? "+" : v < 0 ? "-" : "0"; };
  return std::string(c(d.x)) + c(d.y) + c(d.z);
}

}  // namespace stencil::xfer
