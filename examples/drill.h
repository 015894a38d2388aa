#pragma once

// The drill's subcommands and the parts they share.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "common_cli.h"
#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "dtrace/collector.h"
#include "fault/fault.h"
#include "recover/recover.h"

namespace stencil::drill {

/// The analytic halo oracle: every interior cell of quantities [0, nq)
/// holds its global coordinate and quantity, encoded exactly in a float.
void fill_interior(DistributedDomain& dd, std::size_t nq);
/// Halo cells of quantities [0, nq) that do not hold the periodically
/// wrapped neighbor value.
std::int64_t halo_mismatches(DistributedDomain& dd, std::size_t nq);

/// Applies the radius, quantities q0..qN-1, methods, placement, boundary,
/// pack mode, aggregation and persistence from `opt`; the caller realizes.
void configure(DistributedDomain& dd, const cli::Options& opt);

/// The capability faults --drill names, all firing at `t`: peer access
/// revoked, IPC handles invalidated, every NIC throttled to 25%, CUDA-aware
/// MPI disabled; "all" fires the four, "none" nothing.
fault::FaultPlan drill_plan(const std::string& drill, sim::Time t);

/// Runs `total` iterations of `step` on this rank, iteration i starting no
/// earlier than i * slice, with buddy checkpoints every `cadence`
/// iterations. A failure walks the §13 recovery ladder and replays from the
/// restored iteration. Returns the rank's recovery stats, or nothing when
/// the failure retired this rank.
std::optional<recover::RecoveryStats> run_recovering(RankCtx& ctx, DistributedDomain& dd,
                                                     std::int64_t cadence, std::int64_t total,
                                                     sim::Time slice,
                                                     const std::function<void()>& step);

/// Writes --trace-out / --trace-merge and says where. False on I/O failure.
bool emit_trace(const cli::Options& opt, const dtrace::Collector& c);

/// One outcome --expect can name: whether it held, and the line printed
/// on stdout when it did or on stderr when it did not.
struct Outcome {
  bool met = false;
  std::string ok;
  std::string fail;
};

/// The exit status for --expect: 0 without it or when the expected outcome
/// held, 1 when it did not.
int expect_status(const cli::Options& opt, const std::map<std::string, Outcome>& outcomes);

int run_explore(const cli::Options& opt);
int run_plan(const cli::Options& opt);
int run_verify(const cli::Options& opt);
int run_check(const cli::Options& opt);
int run_fault(const cli::Options& opt);
int run_tenant(const cli::Options& opt);
int run_telemetry(const cli::Options& opt);
int run_trace(const cli::Options& opt);
int run_watch(const cli::Options& opt);
int run_explain(const cli::Options& opt);

}  // namespace stencil::drill
