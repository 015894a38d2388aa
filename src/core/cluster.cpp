#include "core/cluster.h"

#include <string>

#include "core/provenance.h"

namespace stencil {

Cluster::Cluster(topo::NodeArchetype arch, int num_nodes, int ranks_per_node)
    : machine_(std::move(arch), num_nodes),
      rt_(eng_, machine_),
      job_(eng_, machine_, rt_, ranks_per_node) {}

void Cluster::run(const std::function<void(RankCtx&)>& body) {
  job_.run([&](simpi::Comm& comm) {
    RankCtx ctx{comm, rt_, machine_, *this, gpus_per_rank(), {}};
    const int gpn = machine_.gpus_per_node();
    const int slot = comm.rank() % job_.ranks_per_node();
    for (int k = 0; k < ctx.gpus_per_rank; ++k) {
      ctx.gpus.push_back(comm.node() * gpn + slot * ctx.gpus_per_rank + k);
    }
    body(ctx);
  });
  if (telemetry_ != nullptr) telemetry_->record_engine(eng_);
}

void Cluster::rewire() {
  for (vgpu::RuntimeObserver* o : wired_rt_) rt_.detach(o);
  for (simpi::JobObserver* o : wired_job_) job_.detach(o);
  // Slot order, not call order: the fan-out order decides span ids and
  // flight-recorder order, so no artifact depends on attach order.
  wired_rt_ = {recorder_, checker_, telemetry_};
  wired_job_ = {recorder_, checker_, telemetry_, watch_, monitor_};
  std::erase(wired_rt_, nullptr);
  std::erase(wired_job_, nullptr);
  for (vgpu::RuntimeObserver* o : wired_rt_) rt_.attach(o);
  for (simpi::JobObserver* o : wired_job_) job_.attach(o);

  auto* collector = dynamic_cast<dtrace::Collector*>(recorder_);
  const telemetry::FlightRecorder* flight = telemetry_ ? &telemetry_->flight() : nullptr;
  if (collector != nullptr) collector->set_topology(job_.world_size(), gpus_per_rank());
  if (checker_ != nullptr) checker_->set_telemetry(telemetry_);
  if (watch_ != nullptr) {
    watch_->set_recorder(recorder_);
    watch_->set_flight(flight);
  }
  if (monitor_ != nullptr) {
    monitor_->set_world(job_.world_size());
    monitor_->set_flight(flight);
    monitor_->set_telemetry(telemetry_);
    monitor_->set_collector(collector);
    monitor_->set_rank_fail_time([this](int r) { return job_.rank_fail_time(r); });
  }
}

std::shared_ptr<const Placement> Cluster::placement_cached(
    Dim3 domain, Radius radius, std::size_t bytes_per_point, Neighborhood nbhd,
    PlacementStrategy strategy, Boundary boundary, int num_nodes, int gpus_per_node,
    int gpu_slot_base) {
  if (num_nodes <= 0) num_nodes = machine_.num_nodes();
  if (gpus_per_node <= 0) gpus_per_node = machine_.gpus_per_node();
  std::string key = domain.str() + "/r" + radius.str() + "/b" +
                    std::to_string(bytes_per_point) + "/n" +
                    std::to_string(static_cast<int>(nbhd)) + "/s" +
                    std::to_string(static_cast<int>(strategy)) + "/" + to_string(boundary) +
                    "/N" + std::to_string(num_nodes) + "g" + std::to_string(gpus_per_node) +
                    "o" + std::to_string(gpu_slot_base);
  auto it = placement_cache_.find(key);
  if (it != placement_cache_.end()) return it->second;
  // Actors are fibers on one OS thread: no data race; the first rank to ask computes.
  HierarchicalPartition hp(domain, num_nodes, gpus_per_node);
  auto placement = std::make_shared<const Placement>(hp, machine_.arch(), radius, bytes_per_point,
                                                     nbhd, strategy, boundary, gpu_slot_base);
  placement_cache_.emplace(std::move(key), placement);
  if (explain_ != nullptr) {
    // Cold path only: cache hits never re-record. Costs wall clock, not
    // virtual time, so attached and detached runs time identically.
    record_partition_decision(*explain_, hp, radius, eng_.now());
    record_placement_decision(*explain_, *placement, eng_.now());
  }
  return placement;
}

std::shared_ptr<const JobAdmission> Cluster::admission_cached(
    const AdmissionKey& key, const std::function<JobAdmission()>& derive) {
  // A handful of keys per job (one per quantity set and tenant): a linear
  // scan beats hashing a key that holds two vectors.
  for (const auto& [k, job] : admission_cache_) {
    if (k == key) return job;
  }
  auto job = std::make_shared<const JobAdmission>(derive());
  ++admission_counts_.job_verifications;
  // Demotions are one rank's fault history, so such a key is rarely shared:
  // keeping only fault-free keys bounds the cache by the job's plan
  // configurations instead of its rank count.
  if (key.demotions.empty()) admission_cache_.emplace_back(key, job);
  return job;
}

}  // namespace stencil
