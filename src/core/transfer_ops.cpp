#include "core/transfer_ops.h"

#include <algorithm>
#include <stdexcept>

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

namespace {

constexpr std::size_t kDirs = 27;

// A direction's slot in the interned tables: each sign in {-, 0, +}, x major.
std::size_t dir_index(Dim3 d) {
  const auto c = [](std::int64_t v) -> std::size_t { return v > 0 ? 2 : v < 0 ? 0 : 1; };
  return c(d.x) * 9 + c(d.y) * 3 + c(d.z);
}

// The direction behind slot i of the interned tables.
Dim3 dir_at(std::size_t i) {
  const auto s = [](std::size_t c) { return static_cast<std::int64_t>(c) - 1; };
  return {s(i / 9), s(i / 3 % 3), s(i % 3)};
}

}  // namespace

const std::string& dir_str(Dim3 d) {
  static const std::array<std::string, kDirs> table = [] {
    std::array<std::string, kDirs> t;
    for (std::size_t i = 0; i < kDirs; ++i) {
      const Dim3 d = dir_at(i);
      const auto c = [](std::int64_t v) { return v > 0 ? '+' : v < 0 ? '-' : '0'; };
      t[i] = {c(d.x), c(d.y), c(d.z)};
    }
    return t;
  }();
  return table[dir_index(d)];
}

const std::string& op_label(OpKind kind, Dim3 d) {
  static constexpr std::array<const char*, 4> kWhat = {"self ", "pack ", "unpack ", "3d "};
  static const std::array<std::array<std::string, kDirs>, kWhat.size()> table = [] {
    std::array<std::array<std::string, kDirs>, kWhat.size()> t;
    for (std::size_t k = 0; k < kWhat.size(); ++k) {
      for (std::size_t i = 0; i < kDirs; ++i) t[k][i] = kWhat[k] + dir_str(dir_at(i));
    }
    return t;
  }();
  std::size_t k = 0;
  switch (kind) {
    case OpKind::kSelf: k = 0; break;
    case OpKind::kPack:
    case OpKind::kPackZeroCopy: k = 1; break;
    case OpKind::kUnpack: k = 2; break;
    case OpKind::kCopy3D: k = 3; break;
    default: throw std::logic_error("op_label: op kind has no label");
  }
  return table[k][dir_index(d)];
}

}  // namespace stencil::xfer
