#include "common.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "trace/recorder.h"

namespace stencil::bench {

Dim3 weak_scaling_domain(int total_gpus, int per_gpu_edge) {
  const double edge = std::round(static_cast<double>(per_gpu_edge) *
                                 std::cbrt(static_cast<double>(total_gpus)));
  const auto e = static_cast<std::int64_t>(edge);
  return {e, e, e};
}

MeasureResult reduce_latency(const std::vector<std::vector<double>>& per_iter) {
  MeasureResult r;
  if (per_iter.empty() || per_iter.front().empty()) return r;
  const std::size_t ranks = per_iter.front().size();

  std::vector<double> per_rank_avg(ranks, 0.0);
  for (const auto& ranks_ms : per_iter) {
    r.iter_ms.push_back(*std::max_element(ranks_ms.begin(), ranks_ms.end()));
    for (std::size_t k = 0; k < ranks; ++k) per_rank_avg[k] += ranks_ms[k];
  }
  for (double& avg : per_rank_avg) avg /= static_cast<double>(per_iter.size());
  r.max_avg_ms = *std::max_element(per_rank_avg.begin(), per_rank_avg.end());

  std::vector<double> sorted = r.iter_ms;
  std::sort(sorted.begin(), sorted.end());
  r.median_ms = sorted[sorted.size() / 2];
  // Nearest-rank percentile: ceil(0.95 * n)-th smallest.
  const auto idx = static_cast<std::size_t>(
      std::ceil(0.95 * static_cast<double>(sorted.size()))) - 1;
  r.p95_ms = sorted[std::min(idx, sorted.size() - 1)];
  return r;
}

MeasureResult measure_exchange(const ExchangeConfig& cfg) {
  Cluster cluster(cfg.arch, cfg.nodes, cfg.ranks_per_node);
  cluster.set_mem_mode(vgpu::MemMode::kPhantom);  // timing-only at scale
  if (cfg.explain != nullptr) cluster.set_explain(cfg.explain);
  const auto ranks =
      static_cast<std::size_t>(cfg.nodes) * static_cast<std::size_t>(cfg.ranks_per_node);
  std::vector<std::vector<double>> per_iter(static_cast<std::size_t>(cfg.iterations),
                                            std::vector<double>(ranks, 0.0));
  std::map<Method, std::pair<int, std::size_t>> method_bytes;

  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, cfg.domain);
    dd.set_radius(cfg.radius);
    for (int q = 0; q < cfg.quantities; ++q) {
      dd.add_data<float>("q" + std::to_string(q));
    }
    dd.set_methods(cfg.flags);
    dd.set_placement(cfg.strategy);
    dd.set_neighborhood(cfg.nbhd);
    dd.set_persistent(cfg.persistent);
    dd.realize();

    // One untimed warm-up exchange (populates nothing in the deterministic
    // model, but mirrors the measurement discipline of the paper).
    ctx.comm.barrier();
    dd.exchange();

    for (int it = 0; it < cfg.iterations; ++it) {
      ctx.comm.barrier();
      const double t0 = ctx.comm.wtime();
      dd.exchange();
      per_iter[static_cast<std::size_t>(it)][static_cast<std::size_t>(ctx.rank())] =
          (ctx.comm.wtime() - t0) * 1e3;
    }
    if (ctx.rank() == 0) method_bytes = dd.method_bytes_histogram();
  });

  MeasureResult r = reduce_latency(per_iter);
  r.method_bytes = std::move(method_bytes);
  return r;
}

double measure_exchange_ms(const ExchangeConfig& cfg) { return measure_exchange(cfg).max_avg_ms; }

void BenchJson::add(const std::string& label, const std::string& variant,
                    const ExchangeConfig& cfg, const MeasureResult& r) {
  rows_.push_back(Row{label, variant, cfg, r});
}

bool BenchJson::write(const std::string& path, std::string* err) const {
  std::ofstream os(path);
  if (!os) {
    if (err != nullptr) *err = "cannot open " + path;
    return false;
  }
  const auto& esc = trace::json_escape;
  os << "{\n  \"schema\": \"bench-v1\",\n  \"bench\": \"" << esc(bench_) << "\",\n"
     << "  \"rows\": [";
  bool first_row = true;
  for (const auto& row : rows_) {
    os << (first_row ? "\n" : ",\n");
    first_row = false;
    const ExchangeConfig& c = row.cfg;
    os << "    {\"label\": \"" << esc(row.label) << "\", \"variant\": \"" << esc(row.variant)
       << "\",\n     \"config\": {\"arch\": \"" << esc(c.arch.name) << "\", \"nodes\": " << c.nodes
       << ", \"ranks_per_node\": " << c.ranks_per_node
       << ", \"gpus_per_node\": " << c.gpus_per_node() << ", \"domain\": [" << c.domain.x << ", "
       << c.domain.y << ", " << c.domain.z << "], \"radius\": " << c.radius
       << ", \"quantities\": " << c.quantities << ", \"iterations\": " << c.iterations
       << ", \"persistent\": " << (c.persistent ? "true" : "false") << "},\n"
       << "     \"latency_ms\": {\"max_avg\": " << row.res.max_avg_ms
       << ", \"median\": " << row.res.median_ms << ", \"p95\": " << row.res.p95_ms
       << ", \"iterations\": [";
    for (std::size_t k = 0; k < row.res.iter_ms.size(); ++k) {
      os << (k == 0 ? "" : ", ") << row.res.iter_ms[k];
    }
    os << "]},\n     \"method_bytes\": {";
    bool first_m = true;
    for (const auto& [m, cb] : row.res.method_bytes) {
      os << (first_m ? "" : ", ") << "\"" << to_string(m) << "\": {\"transfers\": " << cb.first
         << ", \"bytes\": " << cb.second << "}";
      first_m = false;
    }
    os << "}}";
  }
  os << "\n  ]\n}\n";
  return os.good();
}

int positional_int(int argc, char** argv, int fallback) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) return std::atoi(argv[i]);
  }
  return fallback;
}

bool parse_json_flag(int argc, char** argv, const std::string& bench, std::string* path) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      *path = "BENCH_" + bench + ".json";
      return true;
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      *path = argv[i] + 7;
      if (path->empty()) *path = "BENCH_" + bench + ".json";
      return true;
    }
  }
  return false;
}

void print_row(const std::string& label, const std::vector<std::pair<std::string, double>>& cells) {
  std::printf("%-26s", label.c_str());
  for (const auto& [name, ms] : cells) {
    std::printf("  %s=%9.3f ms", name.c_str(), ms);
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace stencil::bench
