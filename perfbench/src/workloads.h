// The benchmark's workloads and layer micro-benchmarks.  Each run_*
// function measures one drsm engine under `ctx`, fills the end-to-end
// metrics (setup_s, run_s, ops_per_s, p50_us, p99_us, acc), counts its
// units of work in attempted/failed, records every correctness check it
// makes, and — when ctx.tracer is set — fills the layer metrics of the
// layers it exercises plus trace.overhead_pct.
#pragma once

#include <string>

#include "common.h"

namespace perfbench {

/// rt_read90 / rt_write90: dsm::ConcurrentSharedMemory, closed loop.
void run_runtime(const Context& ctx, double read_ratio, Outcome& out);

/// analytic_grid: 720 cells from a cold analytic::AccSolver.
void run_grid(const Context& ctx, const std::string& ref_dir, Outcome& out);

/// sim_validate: the Table-7 grid through sim::run_replications against
/// an acc_batch reference.
void run_sim(const Context& ctx, Outcome& out);

/// check_verify: the reduced model checker over the world list.
void run_check(const Context& ctx, const std::string& ref_dir, Outcome& out);

/// Layer micro-benchmarks of a traced run: ring.*, gate.wake_ns, codec.*
/// and store.claim_ns.
void run_micros(Outcome& out);

/// Regenerates the committed reference tables (analytic_grid.tsv and
/// check_counts.tsv) into `ref_dir`.  Returns false on an I/O error.
bool write_grid_ref(const std::string& ref_dir);
bool write_check_ref(const std::string& ref_dir);

}  // namespace perfbench
