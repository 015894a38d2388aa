#include "sched/sched.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/partition.h"
#include "core/tagspace.h"
#include "dtrace/collector.h"
#include "simtime/time.h"
#include "telemetry/critical_path.h"
#include "verify/verify.h"

namespace stencil::sched {

namespace {

/// Nearest-rank percentile over a copy of `v` (empty -> 0).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto idx = static_cast<std::size_t>(std::ceil(p * n));
  if (idx > 0) --idx;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

/// Steady-state iteration times: the first exchange compiles and admits the
/// plan, so it is excluded from the latency statistics whenever there is at
/// least one later sample.
std::vector<double> steady(const std::vector<double>& v) {
  if (v.size() <= 1) return v;
  return {v.begin() + 1, v.end()};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

/// Provenance label for one (shape, node set) placement candidate.
std::string shape_str(int k, int c, const std::vector<int>& nodes) {
  std::string s = "k=" + std::to_string(k) + " c=" + std::to_string(c) + " nodes=[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) s += ' ';
    s += std::to_string(nodes[i]);
  }
  s += ']';
  return s;
}

}  // namespace

const char* to_string(PlacePolicy p) {
  switch (p) {
    case PlacePolicy::kPacked: return "packed";
    case PlacePolicy::kSpread: return "spread";
    case PlacePolicy::kNodeAware: return "node-aware";
  }
  return "?";
}

const char* to_string(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kFairShare: return "fair-share";
    case SchedPolicy::kStrictPriority: return "strict-priority";
  }
  return "?";
}

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kRejected: return "rejected";
  }
  return "?";
}

const TenantReport* RunReport::by_name(const std::string& name) const {
  for (const auto& t : tenants) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

Scheduler::Scheduler(Cluster& cluster, Options opt) : cluster_(cluster), opt_(std::move(opt)) {}

std::vector<std::pair<int, int>> Scheduler::shapes(int ranks, int max_nodes,
                                                   int slots_per_node) {
  std::vector<std::pair<int, int>> out;
  for (int c = slots_per_node; c >= 1; --c) {
    if (ranks % c != 0) continue;
    const int k = ranks / c;
    if (k <= max_nodes) out.emplace_back(k, c);
  }
  return out;
}

MachineState Scheduler::empty_state() const {
  MachineState ms;
  const auto nn = static_cast<std::size_t>(cluster_.num_nodes());
  ms.used.assign(nn, 0);
  ms.link.assign(nn, 0);
  ms.pinned.assign(nn, 0);
  return ms;
}

std::pair<std::uint64_t, std::uint64_t> Scheduler::volumes(const JobSpec& spec, int k,
                                                           int c) const {
  const HierarchicalPartition hp(spec.domain, k, c * cluster_.gpus_per_rank());
  const std::uint64_t per_elem =
      spec.elem_size * static_cast<std::uint64_t>(spec.quantities);
  return {static_cast<std::uint64_t>(hp.internode_exchange_volume(spec.radius)) * per_elem,
          static_cast<std::uint64_t>(hp.total_exchange_volume(spec.radius)) * per_elem};
}

Admission Scheduler::materialize(const JobSpec& spec, int k, int c, std::vector<int> nodes,
                                 std::vector<int> bases) const {
  const int gpr = cluster_.gpus_per_rank();
  const int rpn = cluster_.ranks_per_node();
  Admission adm;
  adm.vnodes = k;
  adm.ranks_per_vnode = c;
  adm.nodes = std::move(nodes);
  adm.slot_base = std::move(bases);
  const auto [inter, total] = volumes(spec, k, c);
  adm.internode_bytes = inter;
  adm.total_bytes = total;
  adm.view.name = spec.name;
  adm.view.phys_gpus_per_node = cluster_.machine().gpus_per_node();
  adm.view.gpus_per_vnode = c * gpr;
  adm.view.ranks_per_vnode = c;
  adm.view.phys_nodes = adm.nodes;
  adm.view.gpu_base.reserve(static_cast<std::size_t>(k));
  for (int v = 0; v < k; ++v) {
    adm.view.gpu_base.push_back(adm.slot_base[static_cast<std::size_t>(v)] * gpr);
  }
  adm.world_ranks.reserve(static_cast<std::size_t>(k) * static_cast<std::size_t>(c));
  for (int v = 0; v < k; ++v) {
    for (int j = 0; j < c; ++j) {
      adm.world_ranks.push_back(adm.nodes[static_cast<std::size_t>(v)] * rpn +
                                adm.slot_base[static_cast<std::size_t>(v)] + j);
    }
  }
  return adm;
}

std::optional<Admission> Scheduler::try_place(const JobSpec& spec, const MachineState& ms,
                                              PlacePolicy policy, PlaceExplain* ex) const {
  const int gpr = cluster_.gpus_per_rank();
  const int rpn = cluster_.ranks_per_node();
  const int nn = cluster_.num_nodes();
  const int ranks = std::max(1, (spec.gpus + gpr - 1) / gpr);
  const auto shp = shapes(ranks, nn, rpn);
  if (shp.empty()) return std::nullopt;

  const auto free_of = [&](int n) { return rpn - ms.used[static_cast<std::size_t>(n)]; };
  // Nodes able to host one vnode of c slots with a per-node NIC load of
  // `b` bytes/exchange (and 2b of pinned staging) within budget.
  const auto candidates = [&](int c, std::uint64_t b) {
    std::vector<int> out;
    for (int n = 0; n < nn; ++n) {
      const auto i = static_cast<std::size_t>(n);
      if (free_of(n) < c) continue;
      if (ms.link[i] + b > opt_.capacity.link_bytes_per_node) continue;
      if (ms.pinned[i] + 2 * b > opt_.capacity.pinned_bytes_per_node) continue;
      out.push_back(n);
    }
    return out;
  };
  const auto bases_of = [&](const std::vector<int>& nodes) {
    std::vector<int> bases;
    bases.reserve(nodes.size());
    for (const int n : nodes) bases.push_back(ms.used[static_cast<std::size_t>(n)]);
    return bases;
  };

  if (policy == PlacePolicy::kPacked) {
    // Bin-packing best-fit: consume the most-loaded node's fragment first,
    // so whole nodes stay free for later big jobs. The fragment size caps
    // the preferred slots-per-vnode; wider shapes only when nothing tighter
    // fits.
    int frag = rpn + 1;
    for (int n = 0; n < nn; ++n) {
      if (free_of(n) > 0 && free_of(n) < rpn) frag = std::min(frag, free_of(n));
    }
    std::vector<std::pair<int, int>> order;  // (k, c), preference order
    for (const auto& s : shp) {
      if (s.second <= frag) order.push_back(s);  // descending c already
    }
    for (auto it = shp.rbegin(); it != shp.rend(); ++it) {
      if (it->second > frag) order.push_back(*it);  // ascending c above frag
    }
    for (std::size_t oi = 0; oi < order.size(); ++oi) {
      const auto [k, c] = order[oi];
      const std::uint64_t own = volumes(spec, k, c).first;
      const std::uint64_t b = k > 1 ? own / static_cast<std::uint64_t>(k) : 0;
      std::vector<int> cand = candidates(c, b);
      if (ex != nullptr) ++ex->work;
      if (static_cast<int>(cand.size()) < k) continue;
      std::sort(cand.begin(), cand.end(), [&](int a, int z) {
        if (free_of(a) != free_of(z)) return free_of(a) < free_of(z);
        return a < z;
      });
      const bool spare = static_cast<int>(cand.size()) > k;
      const int next_node = spare ? cand[static_cast<std::size_t>(k)] : -1;
      cand.resize(static_cast<std::size_t>(k));
      if (ex != nullptr) {
        ex->chosen = shape_str(k, c, cand);
        ex->chosen_score = static_cast<double>(own);
        // The best losing candidate: the next shape in preference order
        // that also fits, else the same shape on the next-preferred node.
        for (std::size_t oj = oi + 1; oj < order.size(); ++oj) {
          const auto [k2, c2] = order[oj];
          const std::uint64_t own2 = volumes(spec, k2, c2).first;
          const std::uint64_t b2 = k2 > 1 ? own2 / static_cast<std::uint64_t>(k2) : 0;
          std::vector<int> cand2 = candidates(c2, b2);
          ++ex->work;
          if (static_cast<int>(cand2.size()) < k2) continue;
          std::sort(cand2.begin(), cand2.end(), [&](int a, int z) {
            if (free_of(a) != free_of(z)) return free_of(a) < free_of(z);
            return a < z;
          });
          cand2.resize(static_cast<std::size_t>(k2));
          ex->rejected.emplace_back(shape_str(k2, c2, cand2), static_cast<double>(own2));
          break;
        }
        if (ex->rejected.empty() && spare) {
          std::vector<int> alt = cand;
          alt.back() = next_node;
          std::sort(alt.begin(), alt.end());
          ex->rejected.emplace_back(shape_str(k, c, alt), static_cast<double>(own));
        }
      }
      return materialize(spec, k, c, cand, bases_of(cand));
    }
    return std::nullopt;
  }

  if (policy == PlacePolicy::kSpread) {
    // Widest feasible shape on the least-loaded nodes: every vnode gets its
    // own NIC when possible.
    for (auto it = shp.rbegin(); it != shp.rend(); ++it) {  // ascending c
      const auto [k, c] = *it;
      const std::uint64_t own = volumes(spec, k, c).first;
      const std::uint64_t b = k > 1 ? own / static_cast<std::uint64_t>(k) : 0;
      std::vector<int> cand = candidates(c, b);
      if (ex != nullptr) ++ex->work;
      if (static_cast<int>(cand.size()) < k) continue;
      std::sort(cand.begin(), cand.end(), [&](int a, int z) {
        if (free_of(a) != free_of(z)) return free_of(a) > free_of(z);
        return a < z;
      });
      const bool spare = static_cast<int>(cand.size()) > k;
      const int next_node = spare ? cand[static_cast<std::size_t>(k)] : -1;
      cand.resize(static_cast<std::size_t>(k));
      if (ex != nullptr) {
        ex->chosen = shape_str(k, c, cand);
        ex->chosen_score = static_cast<double>(own);
        for (auto jt = std::next(it); jt != shp.rend(); ++jt) {
          const auto [k2, c2] = *jt;
          const std::uint64_t own2 = volumes(spec, k2, c2).first;
          const std::uint64_t b2 = k2 > 1 ? own2 / static_cast<std::uint64_t>(k2) : 0;
          std::vector<int> cand2 = candidates(c2, b2);
          ++ex->work;
          if (static_cast<int>(cand2.size()) < k2) continue;
          std::sort(cand2.begin(), cand2.end(), [&](int a, int z) {
            if (free_of(a) != free_of(z)) return free_of(a) > free_of(z);
            return a < z;
          });
          cand2.resize(static_cast<std::size_t>(k2));
          ex->rejected.emplace_back(shape_str(k2, c2, cand2), static_cast<double>(own2));
          break;
        }
        if (ex->rejected.empty() && spare) {
          std::vector<int> alt = cand;
          alt.back() = next_node;
          std::sort(alt.begin(), alt.end());
          ex->rejected.emplace_back(shape_str(k, c, alt), static_cast<double>(own));
        }
      }
      return materialize(spec, k, c, cand, bases_of(cand));
    }
    return std::nullopt;
  }

  // kNodeAware: enumerate every feasible shape, score = own internode bytes
  // plus the overlap between this job's per-node NIC occupancy and the
  // residual link load already admitted there (bytes of wire the co-tenants
  // will fight over per exchange), plus an epsilon preferring untouched
  // nodes. Deterministic min over (score, k, node ids).
  struct Choice {
    double score = 0.0;
    int k = 0;
    int c = 0;
    std::vector<int> nodes;
  };
  // Live link costs: the attached watch's published per-node factor lf >= 1
  // scales what a node's wire is worth — healthy nodes are preferred when
  // picking candidates, own traffic terminating on a degraded node costs
  // b*(lf-1) extra, and overlapping a co-tenant on a degraded wire hurts lf
  // times as much. All factors at 1 (healthy machine, no watch, nothing
  // published) reduce every comparison and term to the static policy —
  // placements are then bit-identical.
  const watch::Watch* w = cluster_.watch();
  const auto node_score = [&](const std::vector<int>& cand, std::uint64_t own,
                              std::uint64_t b) {
    double score = static_cast<double>(own);
    for (const int n : cand) {
      const auto i = static_cast<std::size_t>(n);
      const double lf = w != nullptr ? w->node_cost_factor(n) : 1.0;
      score += static_cast<double>(b) * (lf - 1.0);
      score += static_cast<double>(std::min(ms.link[i], b)) * lf;
      if (ms.used[i] > 0) score += 1e-3;  // sharing a node at all is a tiebreak cost
    }
    return score;
  };
  std::optional<Choice> best;
  std::optional<Choice> second;  // best losing shape, for provenance
  for (const auto& [k, c] : shp) {
    const std::uint64_t own = volumes(spec, k, c).first;
    const std::uint64_t b = k > 1 ? own / static_cast<std::uint64_t>(k) : 0;
    std::vector<int> cand = candidates(c, b);
    if (ex != nullptr) ++ex->work;
    if (static_cast<int>(cand.size()) < k) continue;
    std::sort(cand.begin(), cand.end(), [&](int a, int z) {
      if (w != nullptr) {
        const double fa = w->node_cost_factor(a);
        const double fz = w->node_cost_factor(z);
        if (fa != fz) return fa < fz;
      }
      const auto ia = static_cast<std::size_t>(a);
      const auto iz = static_cast<std::size_t>(z);
      if (ms.link[ia] != ms.link[iz]) return ms.link[ia] < ms.link[iz];
      if (ms.used[ia] != ms.used[iz]) return ms.used[ia] < ms.used[iz];
      return a < z;
    });
    // Provenance: the same shape on the next-preferred node set is itself a
    // scored candidate when a spare node exists.
    std::optional<Choice> alt;
    if (ex != nullptr && static_cast<int>(cand.size()) > k) {
      std::vector<int> alt_nodes(cand.begin(), cand.begin() + k);
      alt_nodes.back() = cand[static_cast<std::size_t>(k)];
      alt = Choice{node_score(alt_nodes, own, b), k, c, std::move(alt_nodes)};
    }
    cand.resize(static_cast<std::size_t>(k));
    Choice ch{node_score(cand, own, b), k, c, std::move(cand)};
    const auto better = [](const Choice& a, const Choice& z) {
      if (a.score != z.score) return a.score < z.score;
      if (a.k != z.k) return a.k < z.k;
      return a.nodes < z.nodes;
    };
    const auto consider_second = [&](Choice&& cand_ch) {
      if (!second || better(cand_ch, *second)) second = std::move(cand_ch);
    };
    if (!best || better(ch, *best)) {
      if (best) consider_second(std::move(*best));
      best = std::move(ch);
    } else {
      consider_second(std::move(ch));
    }
    if (alt) {
      // Provenance only — the greedy sort already proved the chosen node
      // set scores no worse, so alt can never displace best. Feeding it to
      // the winner tracking could flip ties and make an attached run place
      // differently from a detached one, which must never happen.
      ++ex->work;
      consider_second(std::move(*alt));
    }
  }
  if (!best) return std::nullopt;
  if (ex != nullptr) {
    ex->chosen = shape_str(best->k, best->c, best->nodes);
    ex->chosen_score = best->score;
    if (second) {
      ex->rejected.emplace_back(shape_str(second->k, second->c, second->nodes), second->score);
    }
  }
  return materialize(spec, best->k, best->c, best->nodes, bases_of(best->nodes));
}

void Scheduler::apply(const Admission& adm, const JobSpec& spec, MachineState* ms) const {
  (void)spec;
  const std::uint64_t b =
      adm.vnodes > 1 ? adm.internode_bytes / static_cast<std::uint64_t>(adm.vnodes) : 0;
  for (const int n : adm.nodes) {
    const auto i = static_cast<std::size_t>(n);
    ms->used[i] += adm.ranks_per_vnode;
    ms->link[i] += b;
    ms->pinned[i] += 2 * b;
  }
}

int Scheduler::submit(JobSpec spec) {
  Job j;
  j.id = static_cast<int>(jobs_.size());
  const int gpr = cluster_.gpus_per_rank();
  j.ranks = std::max(1, (spec.gpus + gpr - 1) / gpr);
  j.spec = std::move(spec);
  if (j.spec.gpus < 1 || j.spec.iterations < 1 || j.spec.quantities < 1 ||
      j.spec.elem_size == 0) {
    j.state = JobState::kRejected;
    j.reject = "invalid spec (gpus/iterations/quantities/elem_size must be positive)";
  } else {
    // Reject-at-submit: a job that cannot fit even an empty machine will
    // never run, so fail it now instead of wedging the queue.
    std::string why;
    std::optional<Admission> a;
    try {
      a = try_place(j.spec, empty_state(), opt_.place);
    } catch (const std::exception& e) {
      why = e.what();
    }
    if (!a) {
      j.state = JobState::kRejected;
      j.reject = why.empty()
                     ? "does not fit an empty machine (" + std::to_string(j.ranks) +
                           " rank slots requested, capacity " +
                           std::to_string(cluster_.num_nodes() * cluster_.ranks_per_node()) +
                           "; or per-node link/pinned budget exceeded)"
                     : why;
    }
  }
  if (j.state == JobState::kRejected) {
    if (explain::Ledger* led = cluster_.explain_ledger(); led != nullptr) {
      const int capacity = cluster_.num_nodes() * cluster_.ranks_per_node();
      explain::DecisionRecord rec;
      rec.kind = explain::DecisionKind::kSchedAdmission;
      rec.at = cluster_.engine().now();
      rec.actor = j.id;
      rec.subject = "job " + j.spec.name + " (user " + j.spec.user + ", " +
                    std::to_string(j.spec.gpus) + " GPUs)";
      rec.chosen = "reject at submit: " + j.reject;
      rec.chosen_score = static_cast<double>(j.ranks);
      // Negative delta: the machine is smaller than the request.
      rec.rejected.push_back({"admit (machine capacity)", static_cast<double>(capacity)});
      rec.detail = "score = rank slots (requested vs machine)";
      led->append(std::move(rec));
    }
  }
  ++submit_seq_;
  jobs_.push_back(std::move(j));
  return static_cast<int>(jobs_.size()) - 1;
}

JobState Scheduler::state(int job) const {
  return jobs_.at(static_cast<std::size_t>(job)).state;
}

const std::string& Scheduler::reject_reason(int job) const {
  const Job& j = jobs_.at(static_cast<std::size_t>(job));
  return j.state == JobState::kRejected ? j.reject : no_reason_;
}

std::size_t Scheduler::queued() const {
  std::size_t n = 0;
  for (const auto& j : jobs_) {
    if (j.state == JobState::kQueued) ++n;
  }
  return n;
}

std::vector<std::size_t> Scheduler::queue_order() const {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].state == JobState::kQueued) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t z) {
    const Job& ja = jobs_[a];
    const Job& jz = jobs_[z];
    if (opt_.policy == SchedPolicy::kStrictPriority) {
      if (ja.spec.priority != jz.spec.priority) return ja.spec.priority > jz.spec.priority;
      return a < z;
    }
    // Fair share: the user who has consumed the least GPU time goes first.
    const auto ua = usage_.count(ja.spec.user) != 0 ? usage_.at(ja.spec.user) : 0;
    const auto uz = usage_.count(jz.spec.user) != 0 ? usage_.at(jz.spec.user) : 0;
    if (ua != uz) return ua < uz;
    return a < z;
  });
  return order;
}

Scheduler::WaveResult Scheduler::run_wave(const std::vector<Admission>& wave, RunReport* rep) {
  const int world = cluster_.job().world_size();
  std::vector<int> wave_of(static_cast<std::size_t>(world), -1);
  std::vector<int> key_of(static_cast<std::size_t>(world), 0);
  std::map<int, std::string> tenant_names;
  for (std::size_t w = 0; w < wave.size(); ++w) {
    for (std::size_t m = 0; m < wave[w].world_ranks.size(); ++m) {
      const auto wr = static_cast<std::size_t>(wave[w].world_ranks[m]);
      wave_of[wr] = static_cast<int>(w);
      key_of[wr] = static_cast<int>(m);
    }
    for (const int wr : wave[w].world_ranks) {
      tenant_names[wr] = jobs_[static_cast<std::size_t>(wave[w].job)].spec.name;
    }
  }

  // Per-rank latency slots, one element per rank actor. The actors are
  // fibers on one thread, so none of the shared state here needs a lock.
  std::vector<std::vector<std::vector<double>>> lat(wave.size());
  for (std::size_t w = 0; w < wave.size(); ++w) {
    const Job& job = jobs_[static_cast<std::size_t>(wave[w].job)];
    lat[w].assign(static_cast<std::size_t>(job.spec.iterations),
                  std::vector<double>(wave[w].world_ranks.size(), 0.0));
  }

  // Each wave (solo re-runs included) is one watch window.
  watch::Watch* wtc = cluster_.watch();
  if (wtc != nullptr) wtc->clear_window();

  std::vector<verify::ExchangeModel> models;

  // The blame collector takes the cluster's one recorder slot for this wave
  // only: the caller's recorder goes back in afterwards.
  dtrace::Collector col;
  trace::Recorder* const caller_recorder = cluster_.recorder();
  const bool blame = rep != nullptr && opt_.blame;
  if (blame) {
    col.set_tenant_labels(tenant_names);
    cluster_.set_collector(&col);
  }
  const bool collect_models = rep != nullptr;

  const double t0 = sim::to_seconds(cluster_.engine().now());
  cluster_.run([&](RankCtx& ctx) {
    const int wr = ctx.comm.rank();
    const int w = wave_of[static_cast<std::size_t>(wr)];
    // Idle ranks still participate in the collective split, then sit out.
    simpi::Comm sub = ctx.comm.split(w >= 0 ? wave[static_cast<std::size_t>(w)].tenant : -1,
                                     key_of[static_cast<std::size_t>(wr)]);
    if (w < 0) return;
    const Admission& adm = wave[static_cast<std::size_t>(w)];
    const JobSpec& spec = jobs_[static_cast<std::size_t>(adm.job)].spec;
    RankCtx tctx{sub,      ctx.rt,   ctx.machine, ctx.cluster,
                 ctx.gpus_per_rank, ctx.gpus, &adm.view};
    DistributedDomain dd(tctx, spec.domain);
    dd.set_radius(spec.radius);
    for (int q = 0; q < spec.quantities; ++q) {
      dd.add_data_bytes("q" + std::to_string(q), spec.elem_size);
    }
    dd.set_methods(spec.methods);
    dd.set_placement(spec.strategy);
    dd.set_neighborhood(spec.nbhd);
    dd.set_boundary(spec.boundary);
    dd.set_persistent(spec.persistent);
    dd.realize();
    if (spec.prologue) spec.prologue(dd);
    const int sr = tctx.comm.rank();
    for (int it = 0; it < spec.iterations; ++it) {
      tctx.comm.barrier();
      const double a = tctx.comm.wtime();
      dd.exchange();
      const double b = tctx.comm.wtime();
      lat[static_cast<std::size_t>(w)][static_cast<std::size_t>(it)]
         [static_cast<std::size_t>(sr)] = (b - a) * 1e3;
    }
    if (spec.epilogue) spec.epilogue(dd);
    if (collect_models && spec.persistent && sr == 0 &&
        !dd.plan_cache().entries().empty()) {
      models.push_back(dd.verify_model(*dd.plan_cache().entries().front()));
    }
  });
  const double t1 = sim::to_seconds(cluster_.engine().now());

  WaveResult res;
  if (wtc != nullptr) {
    // Publish the live cost tables at this quiescent point (the wave is
    // over; no actor is running) so the next wave's placement and any
    // recover_replace read one epoch.
    wtc->publish();
    wtc->clear_window();
  }
  res.duration_ms = (t1 - t0) * 1e3;
  res.iter_ms.resize(wave.size());
  for (std::size_t w = 0; w < wave.size(); ++w) {
    for (const auto& per_rank : lat[w]) {
      res.iter_ms[w].push_back(*std::max_element(per_rank.begin(), per_rank.end()));
    }
  }

  if (blame) {
    cluster_.set_recorder(caller_recorder);
    telemetry::CriticalPath cp(col.records());
    cp.add_flow_edges(col.flows());
    const telemetry::Analysis an = cp.analyze();
    for (const auto& rs : an.ranks) {
      if (rs.rank < 0 || rs.rank >= world) continue;
      const int w = wave_of[static_cast<std::size_t>(rs.rank)];
      if (w < 0) continue;
      res.blame_ms[wave[static_cast<std::size_t>(w)].tenant] +=
          sim::to_seconds(rs.critical) * 1e3;
    }
  }

  if (collect_models && models.size() > 1) {
    std::sort(models.begin(), models.end(),
              [](const verify::ExchangeModel& a, const verify::ExchangeModel& b) {
                return a.tenant < b.tenant;
              });
    std::vector<const verify::ExchangeModel*> ptrs;
    ptrs.reserve(models.size());
    for (const auto& m : models) ptrs.push_back(&m);
    verify::Report r;
    verify::check_cross_tenant(ptrs, r);
    rep->verify_findings += r.count();
    for (const auto& f : r.findings()) rep->verify_details.push_back(f.detail);
  }
  return res;
}

RunReport Scheduler::run() {
  RunReport rep;
  const int gpr = cluster_.gpus_per_rank();
  std::vector<std::pair<Admission, std::size_t>> done;  // (placement, rep.tenants index)

  explain::Ledger* led = cluster_.explain_ledger();
  while (queued() > 0) {
    const auto order = queue_order();
    const int wave_idx = rep.waves;
    MachineState ms = empty_state();
    std::vector<Admission> wave;
    for (const std::size_t idx : order) {
      if (static_cast<int>(wave.size()) >= tagspace::kMaxTenants) break;
      const Job& job = jobs_[idx];
      PlaceExplain pe;
      auto adm = try_place(job.spec, ms, opt_.place, led != nullptr ? &pe : nullptr);
      if (led != nullptr) {
        // Admission verdict, scored in waves waited (lower is better).
        const std::string subject = "job " + job.spec.name + " (user " + job.spec.user + ", " +
                                    std::to_string(job.spec.gpus) + " GPUs)";
        explain::DecisionRecord rec;
        rec.kind = explain::DecisionKind::kSchedAdmission;
        rec.at = cluster_.engine().now();
        rec.actor = job.id;
        rec.subject = subject;
        if (adm) {
          rec.chosen = "admit to wave " + std::to_string(wave_idx) + " as tenant " +
                       std::to_string(wave.size());
          rec.chosen_score = static_cast<double>(wave_idx);
          rec.rejected.push_back({"defer to wave " + std::to_string(wave_idx + 1),
                                  static_cast<double>(wave_idx + 1)});
        } else {
          rec.chosen = "defer (backfill: residual machine cannot host it this wave)";
          rec.chosen_score = static_cast<double>(wave_idx + 1);
          rec.rejected.push_back({"admit to wave " + std::to_string(wave_idx),
                                  static_cast<double>(wave_idx)});
        }
        rec.detail = "score = waves waited";
        led->append(std::move(rec));
        if (adm) {
          // The placement choice itself: winner, losing candidates, work.
          explain::DecisionRecord prec;
          prec.kind = explain::DecisionKind::kSchedPlacement;
          prec.at = cluster_.engine().now();
          prec.actor = job.id;
          prec.subject = subject;
          prec.chosen = std::string(to_string(opt_.place)) + " " + pe.chosen;
          prec.chosen_score = pe.chosen_score;
          for (auto& [label, score] : pe.rejected) {
            prec.rejected.push_back({std::move(label), score});
          }
          prec.work = pe.work;
          prec.detail =
              "score = internode bytes/exchange (+ degraded-wire and co-tenant overlap "
              "terms under node-aware)";
          led->append(std::move(prec));
        }
      }
      if (!adm) continue;  // backfill: a later job may still fit
      adm->job = jobs_[idx].id;
      adm->tenant = static_cast<int>(wave.size());
      adm->view.id = adm->tenant;
      apply(*adm, jobs_[idx].spec, &ms);
      jobs_[idx].state = JobState::kRunning;
      wave.push_back(std::move(*adm));
    }
    if (wave.empty()) {
      // Defensive: submit() rejected never-fits jobs, so this is unreachable
      // unless a policy regresses. Fail the head job rather than spinning.
      jobs_[order.front()].state = JobState::kRejected;
      jobs_[order.front()].reject = "scheduler could not place the job on an empty machine";
      continue;
    }

    const WaveResult wr = run_wave(wave, &rep);
    ++rep.waves;
    rep.makespan_ms += wr.duration_ms;

    for (std::size_t w = 0; w < wave.size(); ++w) {
      const Admission& adm = wave[w];
      Job& job = jobs_[static_cast<std::size_t>(adm.job)];
      job.state = JobState::kDone;
      usage_[job.spec.user] += static_cast<std::uint64_t>(adm.world_ranks.size()) *
                               static_cast<std::uint64_t>(gpr) *
                               static_cast<std::uint64_t>(job.spec.iterations);
      TenantReport t;
      t.job = adm.job;
      t.name = job.spec.name;
      t.user = job.spec.user;
      t.tenant = adm.tenant;
      t.wave = rep.waves - 1;
      t.vnodes = adm.vnodes;
      t.ranks = static_cast<int>(adm.world_ranks.size());
      t.gpus = t.ranks * gpr;
      t.nodes = adm.nodes;
      t.world_ranks = adm.world_ranks;
      t.iter_ms = wr.iter_ms[w];
      t.median_ms = median(steady(t.iter_ms));
      t.p95_ms = percentile(steady(t.iter_ms), 0.95);
      t.bytes_per_exchange = adm.total_bytes;
      t.internode_bytes = adm.internode_bytes;
      if (const auto it = wr.blame_ms.find(adm.tenant); it != wr.blame_ms.end()) {
        t.blame_ms = it->second;
      }
      done.emplace_back(adm, rep.tenants.size());
      rep.tenants.push_back(std::move(t));
    }
  }

  if (opt_.solo_baseline) {
    // Re-run every finished job alone on the same slice (same tenant id,
    // same slots, so tags and placement are bit-identical) and charge the
    // co-run slowdown to interference.
    for (const auto& [adm, ti] : done) {
      const WaveResult solo = run_wave({adm}, nullptr);
      TenantReport& t = rep.tenants[ti];
      t.solo_p95_ms = percentile(steady(solo.iter_ms.front()), 0.95);
      if (t.solo_p95_ms > 0.0) t.interference = t.p95_ms / t.solo_p95_ms - 1.0;
    }
  }

  std::uint64_t moved = 0;
  for (const auto& t : rep.tenants) {
    moved += t.bytes_per_exchange * static_cast<std::uint64_t>(t.iter_ms.size());
  }
  if (rep.makespan_ms > 0.0) {
    rep.aggregate_gb_s = static_cast<double>(moved) / (rep.makespan_ms * 1e-3) / 1e9;
  }
  return rep;
}

}  // namespace stencil::sched
