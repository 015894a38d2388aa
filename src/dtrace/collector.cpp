#include "dtrace/collector.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "telemetry/critical_path.h"
#include "telemetry/metrics.h"

namespace stencil::dtrace {

namespace {

using trace::json_escape;

/// Parse a decimal integer at s[i..], returning -1 when none is there.
int parse_int(const std::string& s, std::size_t i) {
  if (i >= s.size() || std::isdigit(static_cast<unsigned char>(s[i])) == 0) return -1;
  int v = 0;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])) != 0) {
    v = v * 10 + (s[i] - '0');
    ++i;
  }
  return v;
}

/// Microseconds at nine significant digits, for the enrichment args.
std::string micros9(sim::Time t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", sim::to_micros(t));
  return buf;
}

}  // namespace

void Collector::set_topology(int world_size, int gpus_per_rank) {
  world_size_ = world_size;
  gpus_per_rank_ = gpus_per_rank;
}

int Collector::rank_of_lane(const std::string& lane) const {
  if (lane.compare(0, 4, "rank") == 0) return parse_int(lane, 4);
  if (lane.compare(0, 5, "mpi.r") == 0) return parse_int(lane, 5);  // sender initiates
  if (lane.compare(0, 3, "gpu") == 0 && gpus_per_rank_ > 0) {
    const int g = parse_int(lane, 3);
    return g >= 0 ? g / gpus_per_rank_ : -1;
  }
  return -1;
}

std::uint64_t Collector::record(std::string lane, std::string label, sim::Time start,
                                sim::Time end) {
  const int rank = rank_of_lane(lane);
  const std::uint64_t id = ++next_span_id_;
  records_.push_back(trace::OpRecord{std::move(lane), std::move(label), start, end, rank, id});
  return id;
}

void Collector::on_queued(const simpi::MsgInfo& m) {
  if (!m.is_send) return;
  const std::uint64_t span =
      record("rank" + std::to_string(m.src) + ".mpi",
             std::string(m.persistent ? "start" : "post") + " tag=" + std::to_string(m.tag) +
                 " ->r" + std::to_string(m.dst),
             m.post_time, m.post_time);
  inflight_[m.serial] = TraceContext{m.src, span, ++send_seq_[m.src]};
}

void Collector::on_match(const simpi::MsgInfo& send, const simpi::MsgInfo& recv,
                         const simpi::Delivery& d) {
  trace::Recorder::on_match(send, recv, d);
  const std::uint64_t span = next_span_id_;  // the wire (or LOST) span just recorded
  const auto ctx = inflight_.find(send.serial);
  if (d.delivered) {
    if (ctx != inflight_.end()) {
      add_flow(ctx->second.span, span, send.serial, "msg tag=" + std::to_string(send.tag));
    }
    adoptions_[recv.serial] = Adoption{span, send.src, recv.dst, send.tag};
  } else if (ctx != inflight_.end()) {
    // The arrow ends at the loss: the trace shows where the message died,
    // and the sender's context leaves the in-flight set.
    add_flow(ctx->second.span, span, send.serial, "lost tag=" + std::to_string(send.tag));
    inflight_.erase(ctx);
  }
}

void Collector::on_request_done(std::uint64_t serial, sim::Time at) {
  inflight_.erase(serial);
  const auto it = adoptions_.find(serial);
  if (it == adoptions_.end()) return;
  // The receive adopts the sender's context: a marker span on the
  // receiving rank's timeline, with an arrow from the wire span into it.
  const Adoption a = it->second;
  adoptions_.erase(it);  // one adoption arrow per delivery
  const std::uint64_t adopt =
      record("rank" + std::to_string(a.dst) + ".mpi",
             "recv tag=" + std::to_string(a.tag) + " <-r" + std::to_string(a.src), at, at);
  add_flow(a.wire_span, adopt, serial, "deliver tag=" + std::to_string(a.tag));
}

std::vector<TraceContext> Collector::inflight() const {
  std::vector<TraceContext> out;
  out.reserve(inflight_.size());
  for (const auto& [serial, ctx] : inflight_) out.push_back(ctx);
  return out;
}

const std::string& Collector::tenant_of(int rank) const {
  const auto it = tenant_of_rank_.find(rank);
  return it != tenant_of_rank_.end() ? it->second : no_tenant_;
}

int Collector::max_rank() const {
  int m = -1;
  for (const auto& r : records_) m = std::max(m, r.rank);
  return m;
}

std::unordered_map<std::uint64_t, const trace::OpRecord*> Collector::spans_by_id() const {
  std::unordered_map<std::uint64_t, const trace::OpRecord*> by_id;
  by_id.reserve(records_.size());
  for (const auto& r : records_) by_id.emplace(r.id, &r);
  return by_id;
}

void Collector::write_chrome_trace(std::ostream& os, const telemetry::MetricsRegistry* counters,
                                   const telemetry::Analysis* critical) const {
  // pid = rank + 1; pid 0 holds unattributed (shared) lanes. tids are
  // assigned per process in first-appearance order — all deterministic.
  std::map<std::pair<int, std::string>, int> tids;
  std::vector<std::pair<int, const std::string*>> tid_order;  // (pid, lane)
  std::map<int, int> next_tid;
  for (const auto& r : records_) {
    const int pid = r.rank + 1;
    auto [it, inserted] = tids.try_emplace({pid, r.lane}, 0);
    if (inserted) {
      it->second = next_tid[pid]++;
      tid_order.emplace_back(pid, &it->first.second);
    }
  }
  const auto by_id = spans_by_id();
  // Chain membership by record index (Hop::span).
  std::vector<const telemetry::Hop*> hop_of(critical ? records_.size() : 0, nullptr);
  if (critical) {
    for (const auto& h : critical->chain) {
      if (h.span < hop_of.size()) hop_of[h.span] = &h;
    }
  }

  os << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  // Process metadata: one process per rank, sorted wire/shared first.
  std::map<int, bool> pids_seen;
  for (const auto& [pid, lane] : tid_order) pids_seen[pid] = true;
  for (const auto& [pid, unused] : pids_seen) {
    (void)unused;
    sep();
    std::string pname = pid == 0 ? std::string("shared") : "rank " + std::to_string(pid - 1);
    if (pid > 0) {
      // Tenant namespace: co-scheduled jobs merge into one trace, so rank
      // ids alone would alias across tenants.
      const std::string& tenant = tenant_of(pid - 1);
      if (!tenant.empty()) pname = tenant + "/" + pname;
    }
    os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":0,\"name\":\"process_name\",\"args\":"
       << "{\"name\":\"" << json_escape(pname) << "\"}}";
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":0,\"name\":\"process_sort_index\","
       << "\"args\":{\"sort_index\":" << pid << "}}";
  }
  for (const auto& [pid, lane] : tid_order) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tids.at({pid, *lane})
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << json_escape(*lane) << "\"}}";
  }
  sim::Time t1 = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const trace::OpRecord& r = records_[i];
    t1 = std::max(t1, r.end);
    sep();
    // Clamp instants (and any malformed span) to zero duration rather than
    // emitting a negative dur that chrome://tracing rejects.
    const sim::Duration dur = r.end > r.start ? r.end - r.start : 0;
    os << "{\"ph\":\"X\",\"pid\":" << r.rank + 1 << ",\"tid\":" << tids.at({r.rank + 1, r.lane})
       << ",\"name\":\"" << json_escape(r.label) << "\",\"ts\":" << sim::to_micros(r.start)
       << ",\"dur\":" << sim::to_micros(dur) << ",\"args\":{\"span\":" << r.id;
    if (!hop_of.empty() && hop_of[i] != nullptr) {
      os << ",\"critical\":true,\"wait_us\":" << micros9(hop_of[i]->wait);
    }
    os << "}}";
  }
  // Flow events: an "s" at the producer span, an "f" (bp "e": bind to the
  // enclosing slice) at the consumer span. Perfetto draws these as arrows.
  for (const auto& f : flows_) {
    const auto pit = by_id.find(f.from_span);
    const auto cit = by_id.find(f.to_span);
    if (pit == by_id.end() || cit == by_id.end()) continue;
    const trace::OpRecord& p = *pit->second;
    const trace::OpRecord& c = *cit->second;
    sep();
    os << "{\"ph\":\"s\",\"cat\":\"dtrace\",\"id\":" << f.id << ",\"pid\":" << p.rank + 1
       << ",\"tid\":" << tids.at({p.rank + 1, p.lane}) << ",\"name\":\"" << json_escape(f.label)
       << "\",\"ts\":" << sim::to_micros(p.end > p.start ? p.end : p.start) << "}";
    sep();
    os << "{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"dtrace\",\"id\":" << f.id
       << ",\"pid\":" << c.rank + 1 << ",\"tid\":" << tids.at({c.rank + 1, c.lane})
       << ",\"name\":\"" << json_escape(f.label) << "\",\"ts\":" << sim::to_micros(c.start)
       << "}";
  }
  if (counters) {
    for (const auto& [name, c] : counters->counters()) {
      sep();
      os << "{\"ph\":\"C\",\"pid\":0,\"name\":\"" << json_escape(name)
         << "\",\"ts\":" << micros9(t1) << ",\"args\":{\"value\":" << c.value << "}}";
    }
  }
  os << "]}\n";
}

void Collector::write_rank_json(std::ostream& os, int rank) const {
  os << "{\"schema\":\"dtrace-rank-v1\",\"rank\":" << rank;
  if (const std::string& tenant = tenant_of(rank); !tenant.empty()) {
    os << ",\"tenant\":\"" << json_escape(tenant) << "\"";
  }
  os << ",\"spans\":[";
  bool first = true;
  for (const auto& r : records_) {
    if (r.rank != rank) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"id\":" << r.id << ",\"rank\":" << r.rank << ",\"lane\":\"" << json_escape(r.lane)
       << "\",\"label\":\"" << json_escape(r.label) << "\",\"start\":" << r.start
       << ",\"end\":" << r.end << "}";
  }
  os << "],\"flows\":[";
  first = true;
  const auto by_id = spans_by_id();
  for (const auto& f : flows_) {
    // A flow is exported by the rank that owns its producer span.
    const auto it = by_id.find(f.from_span);
    if (it == by_id.end() || it->second->rank != rank) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"id\":" << f.id << ",\"from\":" << f.from_span << ",\"to\":" << f.to_span
       << ",\"msg\":" << f.msg << ",\"label\":\"" << json_escape(f.label) << "\"}";
  }
  os << "]}\n";
}

// --- offline merger ---------------------------------------------------------
//
// A deliberately minimal scanner for exactly the format write_rank_json
// emits (no external JSON dependency). Strict: anything unexpected throws.

namespace {

class Scanner {
 public:
  explicit Scanner(const std::string& s) : s_(s) {}

  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])) != 0) ++i_;
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }
  std::string string() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\' && i_ < s_.size()) {
        const char e = s_[i_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'u': {
            if (i_ + 4 > s_.size()) fail("truncated \\u escape");
            c = static_cast<char>(std::stoi(s_.substr(i_, 4), nullptr, 16));
            i_ += 4;
            break;
          }
          default: fail("unknown escape");
        }
      }
      out.push_back(c);
    }
    expect('"');
    return out;
  }
  std::int64_t integer() {
    ws();
    const bool neg = i_ < s_.size() && s_[i_] == '-';
    if (neg) ++i_;
    if (i_ >= s_.size() || std::isdigit(static_cast<unsigned char>(s_[i_])) == 0) {
      fail("expected integer");
    }
    std::int64_t v = 0;
    while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_])) != 0) {
      v = v * 10 + (s_[i_++] - '0');
    }
    return neg ? -v : v;
  }
  std::string key() {
    const std::string k = string();
    expect(':');
    return k;
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("dtrace::Collector::merge: " + what + " at offset " +
                             std::to_string(i_));
  }

 private:
  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

Collector Collector::merge(const std::vector<std::string>& docs) {
  std::vector<trace::OpRecord> spans;
  std::vector<trace::FlowEdge> flows;
  std::map<int, std::string> tenants;
  for (const std::string& doc : docs) {
    Scanner sc(doc);
    sc.expect('{');
    if (sc.key() != "schema") sc.fail("missing schema");
    if (sc.string() != "dtrace-rank-v1") sc.fail("unknown schema");
    sc.expect(',');
    if (sc.key() != "rank") sc.fail("missing rank");
    const int doc_rank = static_cast<int>(sc.integer());
    sc.expect(',');
    std::string next = sc.key();
    if (next == "tenant") {
      tenants[doc_rank] = sc.string();
      sc.expect(',');
      next = sc.key();
    }
    if (next != "spans") sc.fail("missing spans");
    sc.expect('[');
    if (!sc.eat(']')) {
      do {
        sc.expect('{');
        trace::OpRecord r;
        do {
          const std::string k = sc.key();
          if (k == "id") r.id = static_cast<std::uint64_t>(sc.integer());
          else if (k == "rank") r.rank = static_cast<int>(sc.integer());
          else if (k == "lane") r.lane = sc.string();
          else if (k == "label") r.label = sc.string();
          else if (k == "start") r.start = sc.integer();
          else if (k == "end") r.end = sc.integer();
          else sc.fail("unknown span key '" + k + "'");
        } while (sc.eat(','));
        sc.expect('}');
        spans.push_back(std::move(r));
      } while (sc.eat(','));
      sc.expect(']');
    }
    sc.expect(',');
    if (sc.key() != "flows") sc.fail("missing flows");
    sc.expect('[');
    if (!sc.eat(']')) {
      do {
        sc.expect('{');
        trace::FlowEdge f;
        do {
          const std::string k = sc.key();
          if (k == "id") f.id = static_cast<std::uint64_t>(sc.integer());
          else if (k == "from") f.from_span = static_cast<std::uint64_t>(sc.integer());
          else if (k == "to") f.to_span = static_cast<std::uint64_t>(sc.integer());
          else if (k == "msg") f.msg = static_cast<std::uint64_t>(sc.integer());
          else if (k == "label") f.label = sc.string();
          else sc.fail("unknown flow key '" + k + "'");
        } while (sc.eat(','));
        sc.expect('}');
        flows.push_back(std::move(f));
      } while (sc.eat(','));
      sc.expect(']');
    }
    sc.expect('}');
  }
  // Span/flow ids are assigned in recording order, so sorting by id
  // restores the original global order regardless of file order.
  std::sort(spans.begin(), spans.end(),
            [](const trace::OpRecord& a, const trace::OpRecord& b) { return a.id < b.id; });
  std::sort(flows.begin(), flows.end(),
            [](const trace::FlowEdge& a, const trace::FlowEdge& b) { return a.id < b.id; });
  Collector out;
  out.tenant_of_rank_ = std::move(tenants);
  for (auto& s : spans) {
    out.next_span_id_ = std::max(out.next_span_id_, s.id);
    out.records_.push_back(std::move(s));
  }
  for (auto& f : flows) {
    out.next_flow_id_ = std::max(out.next_flow_id_, f.id);
    out.flows_.push_back(std::move(f));
  }
  return out;
}

}  // namespace stencil::dtrace
