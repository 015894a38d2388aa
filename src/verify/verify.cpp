#include "verify/verify.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <span>
#include <sstream>
#include <tuple>

#include "trace/recorder.h"

namespace stencil::verify {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kPostRecv: return "post-recv";
    case OpKind::kStartSend: return "start-send";
    case OpKind::kWaitRecv: return "wait-recv";
    case OpKind::kWaitSend: return "wait-send";
    case OpKind::kTokenWait: return "token-wait";
    case OpKind::kTokenSignal: return "token-signal";
    case OpKind::kStream: return "stream";
  }
  return "?";
}

std::string Op::label() const {
  std::string s = "rank " + std::to_string(rank) + " " + to_string(kind);
  switch (kind) {
    case OpKind::kPostRecv:
    case OpKind::kWaitRecv:
      if (!what.empty()) s += " " + what;
      s += " tag " + std::to_string(tag) + " <- rank " + std::to_string(peer);
      if (kind == OpKind::kPostRecv) s += " (" + std::to_string(bytes) + " B)";
      break;
    case OpKind::kStartSend:
    case OpKind::kWaitSend:
      if (!what.empty()) s += " " + what;
      s += " tag " + std::to_string(tag) + " -> rank " + std::to_string(peer);
      s += kind == OpKind::kStartSend
               ? " (" + std::to_string(bytes) + " B)"
               : (eager ? std::string(" (eager)") : std::string(" (rendezvous)"));
      break;
    case OpKind::kTokenWait:
      s += " " + token;
      if (gen_delta != 0) s += " (gen" + std::to_string(gen_delta) + ")";
      break;
    case OpKind::kTokenSignal:
      s += " " + token;
      break;
    case OpKind::kStream:
      if (!what.empty()) s += " " + what;
      s += " tag " + std::to_string(tag);
      break;
  }
  return s;
}

const char* to_string(FindingKind k) {
  switch (k) {
    case FindingKind::kOrphanSend: return "orphan-send";
    case FindingKind::kOrphanRecv: return "orphan-recv";
    case FindingKind::kTagMismatch: return "tag-mismatch";
    case FindingKind::kSizeMismatch: return "size-mismatch";
    case FindingKind::kTagCollision: return "tag-collision";
    case FindingKind::kWaitCycle: return "wait-cycle";
    case FindingKind::kUnsatisfiedWait: return "unsatisfied-wait";
    case FindingKind::kBufferHazard: return "buffer-hazard";
  }
  return "?";
}

bool Report::has(FindingKind k) const {
  return std::any_of(findings_.begin(), findings_.end(),
                     [k](const Finding& f) { return f.kind == k; });
}

std::size_t Report::count(FindingKind k) const {
  return static_cast<std::size_t>(std::count_if(
      findings_.begin(), findings_.end(),
      [k](const Finding& f) { return f.kind == k; }));
}

void Report::write(std::ostream& os) const {
  if (findings_.empty()) {
    os << "verify: clean\n";
    return;
  }
  for (const Finding& f : findings_) {
    os << "[" << to_string(f.kind) << "]";
    if (f.rank >= 0) os << " rank " << f.rank;
    if (f.peer >= 0) os << " peer " << f.peer;
    if (f.tag != 0) os << " tag " << f.tag;
    os << ": " << f.detail << "\n";
    for (const std::string& op : f.ops) os << "    " << op << "\n";
  }
}

std::string Report::summary() const {
  std::ostringstream os;
  os << "verify: " << findings_.size() << " finding(s)";
  if (!findings_.empty()) {
    os << " [";
    for (std::size_t i = 0; i < findings_.size(); ++i) {
      if (i != 0) os << ", ";
      os << to_string(findings_[i].kind);
    }
    os << "]";
  }
  return os.str();
}

void Report::write_json(std::ostream& os, const std::string& plan_name) const {
  os << "{\"schema\":\"verify-v1\",\"plan\":\"" << trace::json_escape(plan_name)
     << "\",\"clean\":" << (clean() ? "true" : "false")
     << ",\"finding_count\":" << findings_.size() << ",\"findings\":[";
  for (std::size_t i = 0; i < findings_.size(); ++i) {
    const Finding& f = findings_[i];
    if (i != 0) os << ",";
    os << "{\"kind\":\"" << to_string(f.kind) << "\",\"rank\":" << f.rank
       << ",\"peer\":" << f.peer << ",\"tag\":" << f.tag << ",\"detail\":\""
       << trace::json_escape(f.detail) << "\",\"ops\":[";
    for (std::size_t j = 0; j < f.ops.size(); ++j) {
      if (j != 0) os << ",";
      os << '"' << trace::json_escape(f.ops[j]) << '"';
    }
    os << "]}";
  }
  os << "]}";
}

// --- (a) global send/recv matching -----------------------------------------

namespace {

// Directed channel: messages flow src -> dst under one tag.
using ChannelKey = std::tuple<int /*src*/, int /*dst*/, int /*tag*/>;

/// One channel's endpoints as spans into the shared key-sorted arena; within
/// one channel, sends and recvs keep collection order (rank-major program
/// order). The span layout exists for speed: channel counts reach the
/// thousands per plan, and both a std::map and per-channel vectors spent the
/// verification budget on node allocations.
struct Channel {
  ChannelKey key;
  std::span<const Op* const> sends;  // kStartSend
  std::span<const Op* const> recvs;  // kPostRecv
};

struct ChannelMap {
  std::vector<const Op*> arena;  // sorted (key, sends-before-recvs, seq)
  std::vector<Channel> chans;
};

ChannelMap collect_channels(const ExchangeModel& m) {
  struct Ent {
    ChannelKey key;
    const Op* op;
    std::uint32_t seq;  // global collection order, the within-key tiebreak
    bool send;
  };
  std::vector<Ent> ents;
  std::uint32_t seq = 0;
  for (const RankProgram& rp : m.ranks) {
    for (const Op& op : rp.ops) {
      if (op.kind == OpKind::kStartSend) {
        ents.push_back({{op.rank, op.peer, op.tag}, &op, seq++, true});
      } else if (op.kind == OpKind::kPostRecv) {
        ents.push_back({{op.peer, op.rank, op.tag}, &op, seq++, false});
      }
    }
  }
  std::sort(ents.begin(), ents.end(), [](const Ent& a, const Ent& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.send != b.send) return a.send;  // sends first within a key
    return a.seq < b.seq;
  });

  ChannelMap cm;
  cm.arena.reserve(ents.size());
  for (const Ent& e : ents) cm.arena.push_back(e.op);
  for (std::size_t i = 0; i < ents.size();) {
    std::size_t j = i;
    std::size_t mid = i;  // first recv
    while (j < ents.size() && ents[j].key == ents[i].key) {
      if (ents[j].send) mid = j + 1;
      ++j;
    }
    cm.chans.push_back({ents[i].key,
                        {cm.arena.data() + i, mid - i},
                        {cm.arena.data() + mid, j - mid}});
    i = j;
  }
  return cm;
}

void matching_impl(const ChannelMap& chans, Report& r) {

  // Unmatched ends, grouped for the tag-mismatch pairing heuristic below.
  struct Orphan {
    const Op* op;
    int src, dst, tag;
  };
  std::vector<Orphan> orphan_sends, orphan_recvs;

  for (const Channel& c : chans.chans) {
    const auto [src, dst, tag] = c.key;
    const std::size_t n = std::min(c.sends.size(), c.recvs.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (c.sends[i]->bytes != c.recvs[i]->bytes) {
        r.add({FindingKind::kSizeMismatch, src, dst, tag,
               "send of " + std::to_string(c.sends[i]->bytes) +
                   " B matched with recv of " +
                   std::to_string(c.recvs[i]->bytes) + " B",
               {c.sends[i]->label(), c.recvs[i]->label()}});
      }
    }
    for (std::size_t i = n; i < c.sends.size(); ++i) {
      orphan_sends.push_back({c.sends[i], src, dst, tag});
    }
    for (std::size_t i = n; i < c.recvs.size(); ++i) {
      orphan_recvs.push_back({c.recvs[i], src, dst, tag});
    }
  }

  // An orphan send and an orphan recv on the same (src, dst) with equal
  // payloads almost certainly meant to match: report the tag disagreement
  // precisely instead of two opaque orphans.
  std::vector<bool> recv_used(orphan_recvs.size(), false);
  for (const Orphan& s : orphan_sends) {
    bool paired = false;
    for (std::size_t j = 0; j < orphan_recvs.size(); ++j) {
      const Orphan& v = orphan_recvs[j];
      if (recv_used[j] || v.src != s.src || v.dst != s.dst ||
          v.op->bytes != s.op->bytes) {
        continue;
      }
      recv_used[j] = true;
      paired = true;
      r.add({FindingKind::kTagMismatch, s.src, s.dst, s.tag,
             "send tag " + std::to_string(s.tag) + " vs recv tag " +
                 std::to_string(v.tag) + " (" + std::to_string(s.op->bytes) +
                 " B, rank " + std::to_string(s.src) + " -> rank " +
                 std::to_string(s.dst) + ")",
             {s.op->label(), v.op->label()}});
      break;
    }
    if (!paired) {
      r.add({FindingKind::kOrphanSend, s.src, s.dst, s.tag,
             "send of " + std::to_string(s.op->bytes) +
                 " B has no matching recv on rank " + std::to_string(s.dst),
             {s.op->label()}});
    }
  }
  for (std::size_t j = 0; j < orphan_recvs.size(); ++j) {
    if (recv_used[j]) continue;
    const Orphan& v = orphan_recvs[j];
    r.add({FindingKind::kOrphanRecv, v.dst, v.src, v.tag,
           "recv of " + std::to_string(v.op->bytes) +
               " B has no matching send from rank " + std::to_string(v.src),
           {v.op->label()}});
  }
}

}  // namespace

void check_matching(const ExchangeModel& m, Report& r) {
  matching_impl(collect_channels(m), r);
}

// --- (c) tag-space hygiene --------------------------------------------------

namespace {

void tags_impl(const ExchangeModel& m, const ChannelMap& chans, Report& r) {
  for (std::size_t i = 0; i < m.reserved.size(); ++i) {
    for (std::size_t j = i + 1; j < m.reserved.size(); ++j) {
      if (m.reserved[i].intersects(m.reserved[j])) {
        r.add({FindingKind::kTagCollision, -1, -1, 0,
               "reserved tag ranges overlap: " + m.reserved[i].name + " [" +
                   std::to_string(m.reserved[i].lo) + ", " +
                   std::to_string(m.reserved[i].hi) + "] vs " +
                   m.reserved[j].name + " [" +
                   std::to_string(m.reserved[j].lo) + ", " +
                   std::to_string(m.reserved[j].hi) + "]",
               {}});
      }
    }
  }

  for (const Channel& c : chans.chans) {
    const auto [src, dst, tag] = c.key;
    // Tenant window membership: data (non-negative) tags of a tenant-scoped
    // model must stay inside the tenant's slice of the data span. Service
    // tags are negative and governed by the reserved-range rules below.
    if (m.tenant_scoped && tag >= 0 && !m.tenant_window.contains(tag)) {
      const Op* op = !c.sends.empty() ? c.sends.front() : c.recvs.front();
      r.add({FindingKind::kTagCollision, src, dst, tag,
             "data tag " + std::to_string(tag) + " escapes tenant " +
                 std::to_string(m.tenant) + "'s window [" +
                 std::to_string(m.tenant_window.lo) + ", " +
                 std::to_string(m.tenant_window.hi) + "]",
             {op->label()}});
    }
    for (const TagRange& tr : m.reserved) {
      if (tr.contains(tag)) {
        // A range is off-limits unless every endpoint of the channel claims
        // it by name (aggregation headers legitimately live in their range).
        auto all_claim = [&](std::span<const Op* const> v) {
          for (const Op* op : v) {
            if (op->claims != tr.name) return false;
          }
          return true;
        };
        if (all_claim(c.sends) && all_claim(c.recvs)) continue;
        const Op* op = !c.sends.empty() ? c.sends.front() : c.recvs.front();
        r.add({FindingKind::kTagCollision, src, dst, tag,
               "message tag " + std::to_string(tag) +
                   " lies inside reserved range \"" + tr.name + "\" [" +
                   std::to_string(tr.lo) + ", " + std::to_string(tr.hi) + "]",
               {op->label()}});
      }
    }
    // One channel carrying multiple payload sizes cannot be told apart by
    // the receiver: MPI matching would be order-dependent.
    auto uniform = [](std::span<const Op* const> v) {
      for (const Op* op : v) {
        if (op->bytes != v.front()->bytes) return false;
      }
      return true;
    };
    if (!uniform(c.sends) || !uniform(c.recvs)) {
      r.add({FindingKind::kTagCollision, src, dst, tag,
             "tag " + std::to_string(tag) +
                 " reused on one channel with differing payload sizes",
             {}});
    }
  }
}

}  // namespace

void check_tags(const ExchangeModel& m, Report& r) {
  tags_impl(m, collect_channels(m), r);
}

// --- (b) deadlock freedom ---------------------------------------------------

namespace {

// Wait-for graph node: one op in one unrolled iteration. Op X depends on
// (has edges to) its program-order predecessor and, when blocking, on the
// remote op that satisfies it. A cycle means no execution order exists.
constexpr int kIters = 2;  // catches cross-iteration cycles (flow control)

}  // namespace

void check_deadlock(const ExchangeModel& m, Report& r) {
  // Flatten every op into one table: flat id = rank_base[rank_idx] + op_idx,
  // node id = iter * total_ops + flat id. Everything below indexes arrays.
  std::vector<std::size_t> rank_base(m.ranks.size(), 0);
  std::size_t total_ops = 0;
  for (std::size_t i = 0; i < m.ranks.size(); ++i) {
    rank_base[i] = total_ops;
    total_ops += m.ranks[i].ops.size();
  }
  if (total_ops == 0) return;

  std::vector<const Op*> flat(total_ops);
  std::vector<std::uint32_t> rank_of(total_ops);
  for (std::size_t ri = 0; ri < m.ranks.size(); ++ri) {
    for (std::size_t oi = 0; oi < m.ranks[ri].ops.size(); ++oi) {
      flat[rank_base[ri] + oi] = &m.ranks[ri].ops[oi];
      rank_of[rank_base[ri] + oi] = static_cast<std::uint32_t>(ri);
    }
  }

  // Per-channel occurrence lists, collected once into key-sorted flat arrays:
  // the k-th wait pairs with the k-th start/post on the peer (persistent
  // restarts repeat the same pairing every iteration). A channel's waits all
  // live on one rank, so sorting by (key, flat id) preserves the program-order
  // occurrence index.
  struct Keyed {
    ChannelKey key;
    std::uint32_t id;
  };
  std::vector<Keyed> send_starts, recv_posts, recv_waits, send_waits;
  struct TokenId {
    const std::string* token;
    std::uint32_t id;
  };
  std::vector<TokenId> signal_list;
  for (std::size_t f = 0; f < total_ops; ++f) {
    const Op& op = *flat[f];
    const auto id = static_cast<std::uint32_t>(f);
    switch (op.kind) {
      case OpKind::kStartSend:
        send_starts.push_back({{op.rank, op.peer, op.tag}, id});
        break;
      case OpKind::kPostRecv:
        recv_posts.push_back({{op.peer, op.rank, op.tag}, id});
        break;
      case OpKind::kWaitRecv:
        recv_waits.push_back({{op.peer, op.rank, op.tag}, id});
        break;
      case OpKind::kWaitSend:
        if (!op.eager) {  // eager sends buffer: the wait never blocks
          send_waits.push_back({{op.rank, op.peer, op.tag}, id});
        }
        break;
      case OpKind::kTokenSignal:
        signal_list.push_back({&op.token, id});
        break;
      default:
        break;
    }
  }
  const auto by_key = [](const Keyed& a, const Keyed& b) {
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  };
  std::sort(send_starts.begin(), send_starts.end(), by_key);
  std::sort(recv_posts.begin(), recv_posts.end(), by_key);
  std::sort(recv_waits.begin(), recv_waits.end(), by_key);
  std::sort(send_waits.begin(), send_waits.end(), by_key);
  std::sort(signal_list.begin(), signal_list.end(),
            [](const TokenId& a, const TokenId& b) {
              return *a.token != *b.token ? *a.token < *b.token : a.id < b.id;
            });

  // Blocking targets per op (flat id + iteration delta), resolved once and
  // shared by every unrolled iteration. A wait with no target at all is the
  // matching pass's orphan, not an edge.
  struct Target {
    std::uint32_t to;
    int delta;
  };
  std::vector<std::pair<std::uint32_t, Target>> edges;
  const auto pair_waits = [&edges](const std::vector<Keyed>& waits,
                                   const std::vector<Keyed>& sats) {
    std::size_t w = 0, s = 0;
    while (w < waits.size()) {
      const ChannelKey key = waits[w].key;
      std::size_t we = w;
      while (we < waits.size() && waits[we].key == key) ++we;
      while (s < sats.size() && sats[s].key < key) ++s;
      std::size_t se = s;
      while (se < sats.size() && sats[se].key == key) ++se;
      for (std::size_t k = 0; w + k < we && s + k < se; ++k) {
        edges.push_back({waits[w + k].id, {sats[s + k].id, 0}});
      }
      w = we;
      s = se;
    }
  };
  pair_waits(recv_waits, send_starts);
  pair_waits(send_waits, recv_posts);
  for (std::size_t f = 0; f < total_ops; ++f) {
    const Op& op = *flat[f];
    if (op.kind != OpKind::kTokenWait) continue;
    auto lo = std::lower_bound(
        signal_list.begin(), signal_list.end(), op.token,
        [](const TokenId& a, const std::string& t) { return *a.token < t; });
    auto hi = std::upper_bound(
        lo, signal_list.end(), op.token,
        [](const std::string& t, const TokenId& a) { return t < *a.token; });
    if (lo == hi) {
      // gen_delta < 0 is satisfied before the first generation; waits on
      // this iteration's token with no signal anywhere never complete.
      if (op.gen_delta >= 0) {
        r.add({FindingKind::kUnsatisfiedWait, op.rank, op.peer, op.tag,
               "token \"" + op.token + "\" is waited on but never signalled",
               {op.label()}});
      }
      continue;
    }
    for (; lo != hi; ++lo) {
      edges.push_back({static_cast<std::uint32_t>(f), {lo->id, op.gen_delta}});
    }
  }

  // CSR over the edge list: targets of flat op f are
  // targets[tbegin[f] .. tbegin[f + 1]).
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::uint32_t> tbegin(total_ops + 1, 0);
  for (const auto& e : edges) ++tbegin[e.first + 1];
  for (std::size_t f = 0; f < total_ops; ++f) tbegin[f + 1] += tbegin[f];
  std::vector<Target> targets;
  targets.reserve(edges.size());
  for (const auto& e : edges) targets.push_back(e.second);

  // Neighbors of node (iter, f): the program-order predecessor (the first op
  // of a later iteration follows the last op of the previous one on the same
  // rank) plus the blocking targets shifted into their source iteration.
  static_assert(kIters == 2, "iter/f decomposition below avoids a division");
  const std::size_t n_nodes = static_cast<std::size_t>(kIters) * total_ops;
  auto for_each_neighbor = [&](std::size_t v, auto&& visit) {
    const int iter = v >= total_ops ? 1 : 0;
    const std::size_t f = v - (iter != 0 ? total_ops : 0);
    const std::size_t ri = rank_of[f];
    if (f != rank_base[ri]) {
      visit(v - 1);
    } else if (iter > 0) {
      visit(static_cast<std::size_t>(iter - 1) * total_ops + rank_base[ri] +
            m.ranks[ri].ops.size() - 1);
    }
    for (std::uint32_t e = tbegin[f]; e != tbegin[f + 1]; ++e) {
      const Target& t = targets[e];
      const int src_iter = iter + t.delta;
      if (src_iter < 0 || src_iter >= kIters) continue;
      visit(static_cast<std::size_t>(src_iter) * total_ops + t.to);
    }
  };

  // Iterative 3-colour DFS; the first back edge yields the counterexample.
  enum : unsigned char { kWhite, kGrey, kBlack };
  std::vector<unsigned char> colour(n_nodes, kWhite);
  std::vector<std::size_t> stack, path, nbr;
  auto describe = [&](std::size_t id) {
    return "iter " + std::to_string(id / total_ops) + ": " +
           flat[id % total_ops]->label();
  };

  for (std::size_t root = 0; root < n_nodes; ++root) {
    if (colour[root] != kWhite) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      if (colour[v] == kWhite) {
        colour[v] = kGrey;
        path.push_back(v);
        nbr.clear();
        for_each_neighbor(v, [&](std::size_t w) { nbr.push_back(w); });
        for (std::size_t w : nbr) {
          if (colour[w] == kGrey) {
            // Cycle: the path suffix from w to v.
            auto it = std::find(path.begin(), path.end(), w);
            std::vector<std::string> cyc;
            int anchor_rank = -1, anchor_tag = 0;
            for (; it != path.end(); ++it) {
              cyc.push_back(describe(*it));
              const Op& op = *flat[*it % total_ops];
              if (anchor_rank < 0 && op.kind != OpKind::kStream) {
                anchor_rank = op.rank;
                anchor_tag = op.tag;
              }
            }
            r.add({FindingKind::kWaitCycle, anchor_rank, -1, anchor_tag,
                   "cyclic wait-for dependency across " +
                       std::to_string(cyc.size()) + " op(s): no execution "
                       "order can satisfy every blocking wait",
                   std::move(cyc)});
            return;  // one minimal counterexample is enough
          }
          if (colour[w] == kWhite) stack.push_back(w);
        }
      } else {
        stack.pop_back();
        if (colour[v] == kGrey) {
          colour[v] = kBlack;
          path.pop_back();
        }
      }
    }
  }
}

// --- (d) buffer-overlap hazards --------------------------------------------

void check_hazards(const ExchangeModel& m, Report& r) {
  for (const RankProgram& rp : m.ranks) {
    // Only programs with access annotations can hazard; derived remote ranks
    // carry none (hazards are per-rank, the local artifact has the real
    // buffer ids), so skip their DAG setup entirely.
    const bool annotated = std::any_of(
        rp.ops.begin(), rp.ops.end(),
        [](const Op& op) { return !op.accesses.empty(); });
    if (!annotated) continue;
    const std::size_t n = rp.ops.size();
    // Happens-before DAG: same-stream FIFO chains + explicit order edges.
    std::vector<std::vector<std::size_t>> adj(n);
    std::map<std::uint64_t, std::size_t> last_on_stream;
    for (std::size_t i = 0; i < n; ++i) {
      const Op& op = rp.ops[i];
      if (op.kind == OpKind::kStream && op.stream != 0) {
        auto it = last_on_stream.find(op.stream);
        if (it != last_on_stream.end()) adj[it->second].push_back(i);
        last_on_stream[op.stream] = i;
      }
    }
    for (const auto& [a, b] : rp.order) {
      if (a < n && b < n) adj[a].push_back(b);
    }

    std::map<std::size_t, std::vector<bool>> reach_cache;
    auto reaches = [&](std::size_t a, std::size_t b) {
      auto it = reach_cache.find(a);
      if (it == reach_cache.end()) {
        std::vector<bool> seen(n, false);
        std::vector<std::size_t> work{a};
        seen[a] = true;
        while (!work.empty()) {
          const std::size_t v = work.back();
          work.pop_back();
          for (std::size_t w : adj[v]) {
            if (!seen[w]) {
              seen[w] = true;
              work.push_back(w);
            }
          }
        }
        it = reach_cache.emplace(a, std::move(seen)).first;
      }
      return it->second[b];
    };

    // Candidate pairs: ops sharing a buffer with a conflicting access.
    std::map<std::uint64_t, std::vector<std::size_t>> by_buffer;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t prev = ~std::uint64_t{0};
      for (const Access& a : rp.ops[i].accesses) {
        if (a.buffer != prev) by_buffer[a.buffer].push_back(i);
        prev = a.buffer;
      }
    }
    for (auto& [buf, ops] : by_buffer) {
      std::sort(ops.begin(), ops.end());
      ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
      for (std::size_t x = 0; x < ops.size(); ++x) {
        for (std::size_t y = x + 1; y < ops.size(); ++y) {
          const Op& a = rp.ops[ops[x]];
          const Op& b = rp.ops[ops[y]];
          bool conflict = false;
          for (const Access& aa : a.accesses) {
            if (aa.buffer != buf) continue;
            for (const Access& bb : b.accesses) {
              if (bb.buffer != buf) continue;
              if (aa.conflicts(bb)) {
                conflict = true;
                break;
              }
            }
            if (conflict) break;
          }
          if (!conflict) continue;
          if (reaches(ops[x], ops[y]) || reaches(ops[y], ops[x])) continue;
          r.add({FindingKind::kBufferHazard, rp.rank, -1,
                 a.tag != 0 ? a.tag : b.tag,
                 "unsynchronized conflicting accesses to buffer " +
                     std::to_string(buf) +
                     ": no plan-ordered sync between the two ops",
                 {a.label(), b.label()}});
        }
      }
    }
  }
}

Report verify(const ExchangeModel& m) {
  Report r;
  // Matching and tag hygiene walk the same channel index; collect it once.
  const ChannelMap chans = collect_channels(m);
  matching_impl(chans, r);
  tags_impl(m, chans, r);
  check_deadlock(m, r);
  check_hazards(m, r);
  return r;
}

// --- cross-tenant hygiene ---------------------------------------------------

void check_cross_tenant(const std::vector<const ExchangeModel*>& models, Report& r) {
  // (1) Declared windows of distinct tenants must not intersect.
  for (std::size_t i = 0; i < models.size(); ++i) {
    for (std::size_t j = i + 1; j < models.size(); ++j) {
      const ExchangeModel& a = *models[i];
      const ExchangeModel& b = *models[j];
      if (!a.tenant_scoped || !b.tenant_scoped || a.tenant == b.tenant) continue;
      if (a.tenant_window.intersects(b.tenant_window)) {
        r.add({FindingKind::kTagCollision, -1, -1, 0,
               "tenant " + std::to_string(a.tenant) + " (" + a.name +
                   ") window [" + std::to_string(a.tenant_window.lo) + ", " +
                   std::to_string(a.tenant_window.hi) + "] overlaps tenant " +
                   std::to_string(b.tenant) + " (" + b.name + ") window [" +
                   std::to_string(b.tenant_window.lo) + ", " +
                   std::to_string(b.tenant_window.hi) + "]",
               {}});
      }
    }
  }

  // (2) No world-coordinate channel may be used by two different models:
  // disjoint rank sets make this impossible for correctly carved slices, so
  // a hit means two tenants share a rank (or a window alias slipped past the
  // per-model check) and MPI matching between them is order-dependent.
  struct WorldChan {
    int src, dst, tag;
    std::size_t model;
    const Op* op;
  };
  std::vector<WorldChan> chans;
  for (std::size_t mi = 0; mi < models.size(); ++mi) {
    const ExchangeModel& m = *models[mi];
    for (const RankProgram& rp : m.ranks) {
      for (const Op& op : rp.ops) {
        if (op.kind == OpKind::kStartSend) {
          chans.push_back({m.world_rank(op.rank), m.world_rank(op.peer), op.tag, mi, &op});
        } else if (op.kind == OpKind::kPostRecv) {
          chans.push_back({m.world_rank(op.peer), m.world_rank(op.rank), op.tag, mi, &op});
        }
      }
    }
  }
  std::sort(chans.begin(), chans.end(), [](const WorldChan& a, const WorldChan& b) {
    return std::tie(a.src, a.dst, a.tag, a.model) < std::tie(b.src, b.dst, b.tag, b.model);
  });
  for (std::size_t i = 0; i + 1 < chans.size(); ++i) {
    const WorldChan& a = chans[i];
    const WorldChan& b = chans[i + 1];
    if (a.src != b.src || a.dst != b.dst || a.tag != b.tag || a.model == b.model) continue;
    r.add({FindingKind::kTagCollision, a.src, a.dst, a.tag,
           "world channel " + std::to_string(a.src) + " -> " + std::to_string(b.dst) +
               " tag " + std::to_string(a.tag) + " is used by both tenant model \"" +
               models[a.model]->name + "\" and \"" + models[b.model]->name + "\"",
           {a.op->label(), b.op->label()}});
    // One finding per colliding channel: skip this channel's remaining ends.
    while (i + 1 < chans.size() && chans[i + 1].src == a.src && chans[i + 1].dst == a.dst &&
           chans[i + 1].tag == a.tag) {
      ++i;
    }
  }
}

}  // namespace stencil::verify
