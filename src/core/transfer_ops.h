#pragma once

/// \file transfer_ops.h
/// The one definition of what a transfer does during an exchange: a short
/// list of ops, each tagged with its Fig. 9 phase. The list is built from the
/// transfer's shape alone and never reads a buffer, so the verifier builds
/// the same lists for remote ranks that own no buffers. Three consumers walk
/// it: the eager exchange interprets it phase by phase; a planned exchange
/// captures the stream ops of phases 1/3 and 5 into graphs and turns the
/// post/send ops into persistent requests; verify_model lowers it to the
/// verifier's IR. Private to src/core.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/dim3.h"
#include "core/method_flags.h"

namespace stencil::xfer {

/// The paper's Fig. 9 exchange phases, in the order an exchange runs them.
enum class Phase : std::uint8_t {
  kPost,           // post every receive up front
  kLocal,          // same-rank KERNEL / PEER chains
  kColocatedSend,  // COLOCATED senders
  kPack,           // STAGED / CUDA-aware packs and staging copies
  kSend,           // start each send once its data is ready
  kLand,           // as each receive lands: H2D and unpack
  kColocatedRecv,  // COLOCATED receivers
  kDrain,          // wait the sends
};
inline constexpr std::size_t kPhases = 8;

enum class OpKind : std::uint8_t {
  // Stream work: kernels and copies.
  kSelf,          // KERNEL: in-place self-exchange kernel
  kPack,          // pack kernel
  kPackZeroCopy,  // pack kernel storing straight into pinned host memory
  kUnpack,        // unpack kernel
  kCopyD2H,       // device -> pinned host (staging buffer or group slot)
  kCopyH2D,       // pinned host (staging buffer or group slot) -> device
  kCopyPeer,      // device -> device across GPUs
  kCopyIpc,       // device -> the receiver's buffer through the IPC mapping
  kCopy3D,        // strided region -> region copies, one per quantity
  // Events, messages, and the interpreted COLOCATED steps, each of which
  // wraps the rest of its phase in IPC flow control.
  kEventEdge,  // record the ready event on src; the dst stream waits on it
  kReady,      // record the ready event on src: the send's data is ready
  kPostRecv,
  kWaitRecv,
  kSend,
  kWaitSend,
  kColocatedSend,
  kColocatedRecv,
};

/// What an op reads (`from`) or writes (`to`).
enum class Operand : std::uint8_t {
  kNone,
  kSrcRegion,  // interior slab of the sending subdomain, every active quantity
  kDstRegion,  // halo slab of the receiving subdomain
  kSrcPack,    // sender's device pack buffer
  kSrcHost,    // sender's pinned staging buffer
  kDstPack,    // receiver's device pack buffer
  kDstHost,    // receiver's pinned staging buffer
  kGroup,      // the aggregation group's pinned buffer (a member's slot of it)
  kIpcPeer,    // the receiver's pack buffer, mapped into the sender
};

struct Op {
  OpKind kind = OpKind::kSelf;
  Phase phase = Phase::kPost;
  Operand from = Operand::kNone;
  Operand to = Operand::kNone;

  /// Receive-side work, which reads landed data, runs on the dst stream.
  bool on_dst_stream() const {
    return from == Operand::kDstPack || from == Operand::kDstHost || from == Operand::kGroup;
  }
};

/// Fixed capacity and no allocation: the verifier builds one per transfer
/// endpoint of the whole job.
class OpList {
 public:
  void add(Phase p, OpKind k, Operand from = Operand::kNone, Operand to = Operand::kNone) {
    ops_.at(n_++) = Op{k, p, from, to};
    phases_ = static_cast<std::uint8_t>(phases_ | 1u << static_cast<unsigned>(p));
  }
  const Op* begin() const { return ops_.data(); }
  const Op* end() const { return ops_.data() + n_; }
  bool has(Phase p) const { return (phases_ >> static_cast<unsigned>(p) & 1u) != 0; }
  /// The first op of `kind`, or nullptr.
  const Op* find(OpKind kind) const {
    for (const Op& op : *this) {
      if (op.kind == kind) return &op;
    }
    return nullptr;
  }

 private:
  std::array<Op, 10> ops_{};  // the longest list, STAGED to self, has 9
  std::uint8_t n_ = 0;
  std::uint8_t phases_ = 0;  // bit p: some op runs in phase p
};

/// Everything that decides a transfer's op sequence on one rank.
struct Shape {
  Method method = Method::kStaged;
  bool send = false;  // this rank sends
  bool recv = false;  // this rank receives
  std::size_t bytes = 0;
  bool aggregated = false;  // a STAGED member of an aggregation group
  bool zero_copy = false;   // STAGED senders pack straight into pinned host memory
  bool peer_3d = false;     // PEER copies strided regions instead of packing
  bool group = false;       // the aggregation group's own message
};

/// The op sequence of one transfer, or of one aggregation group's message,
/// in issue order within each phase. Zero bytes move nothing.
OpList ops_for(const Shape& s);

/// A STAGED transfer that rides in an aggregation group.
struct AggMember {
  int peer = -1;  // the rank at the other end
  int tag = 0;
  std::size_t index = 0;  // the caller's
};

/// Aggregation layout (§VI): one group per peer rank, peers ascending,
/// members tag-sorted. Tags are unique and identical on both ends, so both
/// ends derive the same member offsets. Returns (peer, member indices).
std::vector<std::pair<int, std::vector<std::size_t>>> aggregation_layout(
    std::vector<AggMember> members);

/// A transfer direction as three signs, e.g. "+0-". Interned: one string
/// per direction for the life of the program.
const std::string& dir_str(Dim3 d);

/// The trace label of a kernel or strided-copy op along direction `d`,
/// e.g. "pack +0-". Interned like dir_str, so issuing an op builds no
/// string. Only kSelf, kPack, kPackZeroCopy (labelled "pack"), kUnpack and
/// kCopy3D carry labels; any other kind throws std::logic_error.
const std::string& op_label(OpKind kind, Dim3 d);

}  // namespace stencil::xfer
