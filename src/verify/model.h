#pragma once

/// \file model.h
/// Intermediate representation for static exchange-protocol verification.
///
/// The verifier (src/verify/verify.h) consumes an ExchangeModel: a per-rank
/// program of abstract operations (message posts/starts/waits, COLOCATED
/// flow-control tokens, stream work with buffer accesses) plus the reserved
/// tag ranges the exchange tags must avoid. The model deliberately depends on
/// nothing above primitives — it is built *below* stencil_core in the layer
/// stack so that plan admission inside core can call into the verifier. The
/// model builder (DistributedDomain::verify_model) lives in core and lowers
/// the same per-transfer op lists the exchange runs (core/transfer_ops.h):
/// the local rank's from a plan::CompiledPlan's frozen tags and sizes, every
/// remote rank's from the deterministically re-derived transfers, which the
/// Cluster derives and verifies once per job (core/cluster.h, AdmissionKey).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace stencil::verify {

/// Half-open 3-D element box inside one logical buffer. Interior and halo
/// slabs lower to boxes so overlap is an O(1) analytic intersection instead
/// of a per-row range walk.
struct Box3 {
  std::int64_t lo[3] = {0, 0, 0};
  std::int64_t hi[3] = {0, 0, 0};  // exclusive

  bool empty() const {
    return lo[0] >= hi[0] || lo[1] >= hi[1] || lo[2] >= hi[2];
  }
  bool intersects(const Box3& o) const {
    if (empty() || o.empty()) return false;
    for (int d = 0; d < 3; ++d) {
      if (lo[d] >= o.hi[d] || o.lo[d] >= hi[d]) return false;
    }
    return true;
  }
};

/// One byte-range or element-box an op touches. Buffer identity is the
/// process-unique vgpu::Buffer id (or any stable surrogate in hand-built
/// fixtures); ranges in different buffers never conflict.
struct Access {
  std::uint64_t buffer = 0;
  bool write = false;
  bool is_box = false;
  std::uint64_t offset = 0;  ///< flat range (is_box == false)
  std::uint64_t bytes = 0;
  Box3 box{};  ///< element box (is_box == true)

  bool overlaps(const Access& o) const {
    if (buffer != o.buffer) return false;
    // Mixed flat/box accesses on one buffer have no common coordinate space;
    // be conservative. Real plans never mix them (quantity grids are always
    // boxes, pack/host staging buffers always flat ranges).
    if (is_box != o.is_box) return true;
    if (is_box) return box.intersects(o.box);
    return offset < o.offset + o.bytes && o.offset < offset + bytes;
  }
  bool conflicts(const Access& o) const { return (write || o.write) && overlaps(o); }
};

enum class OpKind {
  kPostRecv,     ///< non-blocking: arm a receive (irecv / persistent start)
  kStartSend,    ///< non-blocking: start a send
  kWaitRecv,     ///< blocking: completes once the matching send has started
  kWaitSend,     ///< blocking unless eager: completes once the matching recv is posted
  kTokenWait,    ///< blocking: peer must have signalled `token` (generation + gen_delta)
  kTokenSignal,  ///< non-blocking: raise `token` for this generation
  kStream,       ///< GPU stream work (pack / copy / unpack graph)
};

const char* to_string(OpKind k);

struct Op {
  OpKind kind = OpKind::kStream;
  int rank = -1;
  int peer = -1;            ///< message ops: the other endpoint's rank
  int tag = 0;              ///< message ops
  std::uint64_t bytes = 0;  ///< message payload bytes
  /// kWaitSend: an eager send buffers immediately and the wait never blocks
  /// on the peer (host payload <= simpi eager limit). Rendezvous otherwise.
  bool eager = false;
  std::string token;      ///< kTokenWait / kTokenSignal channel name
  int gen_delta = 0;      ///< kTokenWait: 0 = this iteration, -1 = previous
  /// Name of the one reserved TagRange this op is entitled to occupy (e.g.
  /// aggregation headers live inside "aggregate-header" by design). Empty
  /// means the tag must stay clear of every reserved range.
  std::string claims;
  std::uint64_t stream = 0;  ///< kStream: FIFO queue identity (0 = none)
  std::vector<Access> accesses;
  /// Short semantic note folded into label(): a direction ("0+-"), "agg",
  /// or a stream-work description ("unpack 0+-").
  std::string what;

  /// Rank- and tag-precise human-readable description. Formatted on demand:
  /// labels are only needed when a finding fires, and eager formatting of
  /// thousands of clean ops dominated model-build time.
  std::string label() const;
};

struct RankProgram {
  int rank = -1;
  std::vector<Op> ops;  ///< program order
  /// Explicit plan-ordered sync edges (op index -> op index): event
  /// record/wait chains, recv-completion -> unpack launch, pack-done ->
  /// send-start. Together with same-stream FIFO order these define the
  /// happens-before DAG used by the buffer-hazard check.
  std::vector<std::pair<std::size_t, std::size_t>> order;
};

/// A named reserved tag span [lo, hi] (inclusive) that exchange tags must
/// not enter — checkpoint/restore blobs, IPC setup, aggregation headers.
struct TagRange {
  int lo = 0;
  int hi = 0;
  std::string name;

  bool contains(int tag) const { return tag >= lo && tag <= hi; }
  bool intersects(const TagRange& o) const { return lo <= o.hi && o.lo <= hi; }
};

/// The full static picture of one compiled exchange across every rank.
struct ExchangeModel {
  int world_size = 0;
  std::vector<RankProgram> ranks;
  std::vector<TagRange> reserved;
  std::string name;  ///< plan description, echoed in findings / JSON

  // --- multi-tenancy (src/sched) ------------------------------------------
  /// When tenant_scoped, check_tags additionally requires every data
  /// (non-negative) message tag to lie inside `tenant_window` — the
  /// tenant's slice of the tagspace data span — so a tenant whose tags
  /// leak outside its window is rejected at plan admission, before it can
  /// alias a co-tenant on the wire.
  bool tenant_scoped = false;
  int tenant = 0;
  TagRange tenant_window{};
  /// Model rank -> world rank of the underlying job (identity when empty).
  /// check_cross_tenant compares channels of models built over different
  /// sub-communicators in world coordinates.
  std::vector<int> world_rank_of;

  int world_rank(int model_rank) const {
    return world_rank_of.empty()
               ? model_rank
               : world_rank_of[static_cast<std::size_t>(model_rank)];
  }
};

}  // namespace stencil::verify
