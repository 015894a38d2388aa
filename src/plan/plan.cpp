#include "plan/plan.h"

#include <map>

namespace stencil::plan {

std::string PlanKey::str() const {
  std::string s = "epoch=" + std::to_string(topo_epoch) + " flags=" +
                  std::to_string(method_flags) + (aggregated ? " agg" : " no-agg") + " qs=[";
  for (std::size_t i = 0; i < quantities.size(); ++i) {
    if (i != 0) s += ",";
    s += std::to_string(quantities[i]);
  }
  s += "]";
  return s;
}

std::string PlanStats::str() const {
  return "compiles=" + std::to_string(compiles) + " hits=" + std::to_string(hits) +
         " invalidations=" + std::to_string(invalidations) +
         " rebuilt=" + std::to_string(rebuilt_programs) + " replays=" + std::to_string(replays) +
         " verifications=" + std::to_string(verifications) +
         " rejections=" + std::to_string(rejections);
}

std::size_t CompiledPlan::dirty_count() const {
  std::size_t n = 0;
  for (const auto& p : programs) n += p.dirty ? 1 : 0;
  return n;
}

void CompiledPlan::mark_dirty(int tag) {
  for (auto& p : programs) {
    if (p.tag == tag) p.dirty = true;
  }
}

void CompiledPlan::describe(std::ostream& os) const {
  os << "plan { " << key.str() << " } replays=" << replays << "\n";

  // Per-method rollup first: how many frozen transfers, total payload bytes,
  // and how many graph nodes the schedule replays per iteration.
  struct Roll {
    int count = 0;
    std::size_t bytes = 0;
    std::size_t nodes = 0;
  };
  std::map<Method, Roll> by_method;
  for (const auto& p : programs) {
    Roll& r = by_method[p.method];
    ++r.count;
    r.bytes += p.bytes;
    r.nodes += p.send_graph.num_nodes() + p.recv_graph.num_nodes();
  }
  for (const auto& [m, r] : by_method) {
    os << "  method " << to_string(m) << ": " << r.count << " transfer(s), " << r.bytes
       << " B, " << r.nodes << " graph node(s)\n";
  }
  for (const auto& g : send_groups) {
    os << "  send-group -> rank " << g.peer_rank << ": " << g.member_tags.size()
       << " member(s), " << g.bytes << " B, " << g.graph.num_nodes() << " graph node(s)\n";
  }
  for (const auto& g : recv_groups) {
    os << "  recv-group <- rank " << g.peer_rank << ": " << g.member_tags.size()
       << " member(s), " << g.bytes << " B, " << g.graph.num_nodes() << " graph node(s)\n";
  }

  for (const auto& p : programs) {
    os << "  tag " << p.tag << " " << to_string(p.method) << " " << p.bytes << " B"
       << (p.i_send ? " send" : "") << (p.i_recv ? " recv" : "") << (p.eager ? " [eager]" : "")
       << (p.dirty ? " [dirty]" : "");
    if (p.send_req.valid() || p.recv_req.valid()) os << " persistent";
    if (p.send_graph.valid()) {
      os << " send-graph{";
      const auto labels = p.send_graph.labels();
      for (std::size_t i = 0; i < labels.size(); ++i) os << (i != 0 ? "; " : "") << labels[i];
      os << "}";
    }
    if (p.recv_graph.valid()) {
      os << " recv-graph{";
      const auto labels = p.recv_graph.labels();
      for (std::size_t i = 0; i < labels.size(); ++i) os << (i != 0 ? "; " : "") << labels[i];
      os << "}";
    }
    os << "\n";
  }
}

CompiledPlan* PlanCache::find(const std::vector<std::size_t>& qs) {
  for (auto& p : plans_) {
    if (p->key.quantities == qs) return p.get();
  }
  return nullptr;
}

CompiledPlan& PlanCache::emplace(PlanKey key) {
  plans_.push_back(std::make_unique<CompiledPlan>());
  plans_.back()->key = std::move(key);
  return *plans_.back();
}

void PlanCache::invalidate_tag(int tag) {
  for (auto& p : plans_) p->mark_dirty(tag);
}

void PlanCache::erase(const CompiledPlan& p) {
  std::erase_if(plans_, [&p](const std::unique_ptr<CompiledPlan>& e) { return e.get() == &p; });
}

void PlanCache::admit(const CompiledPlan& p) {
  if (!admission_) return;
  ++stats_.verifications;
  std::string report = admission_(p);
  if (report.empty()) return;
  ++stats_.rejections;
  throw AdmissionError("plan admission rejected { " + p.key.str() + " }",
                       std::move(report));
}

}  // namespace stencil::plan
