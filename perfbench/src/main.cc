// drsm_perfbench, the drsm benchmark program: one workload, one seed,
// one process.
//
//   drsm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--tiny] [--ref-dir <dir>] [--spans-dir <dir>]
//                  [--commit <id>]
//   drsm_perfbench --write-ref <dir>
//
// Workloads: rt_read90, rt_write90, analytic_grid, sim_validate,
// check_verify (see NOTES.md for why each exists).  With --trace 0 the
// last stdout line carries every end-to-end metric; with --trace 1 every
// layer metric, measured on the workload where it exercises the layer and
// on a small probe of the other engines otherwise, plus the tracing
// overhead.  Human-readable lines before it start with '#'.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload reports every end-to-end metric; "a unit of work" is a
// client op (rt_*), a grid cell (analytic_grid), a simulated op for
// ops_per_s and a cell for the latencies (sim_validate), an explored
// state for ops_per_s and a world for the latencies (check_verify).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          // construction + warm-up, median of passes
    {"run_s", "s"},            // one pass over the fixed job, median
    {"ops_per_s", "ops/s"},    // units of work per wall second, median
    {"p50_us", "us"},          // per-unit latency
    {"p99_us", "us"},
    {"acc", "cost/op"},        // the paper's communication cost per op
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"dsm.issue_ns_p50", "ns"},
    {"dsm.issue_ns_p99", "ns"},
    {"dsm.pump_ns_per_op", "ns"},
    {"dsm.submit_stalls_per_kop", "1/kop"},
    {"dsm.window_stalls_per_kop", "1/kop"},
    {"dsm.speedup_vs_facade", "x"},
    {"facade.op_ns", "ns"},
    {"shard.ops_per_batch", "ops"},
    {"shard.parks_per_kop", "1/kop"},
    {"shard.idle_yields_per_kop", "1/kop"},
    {"shard.ring_full_stalls_per_kop", "1/kop"},
    {"shard.ops_skew", "x"},
    {"shard.msgs_per_op", "msgs/op"},
    {"ring.push_pop_ns", "ns"},
    {"ring.handoff_ns", "ns"},
    {"gate.wake_ns", "ns"},
    {"chain.build_ms", "ms"},
    {"chain.states", "count"},
    {"chain.build_ns_per_state", "ns"},
    {"chain.solve_us_p50", "us"},
    {"chain.solve_us_p99", "us"},
    {"analytic.power_iterations", "count"},
    {"solver.chain_reuse_ratio", "x"},
    {"analytic.share", "%"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.events_per_op", "events/op"},
    {"sim.msgs_per_op", "msgs/op"},
    {"sim.acc_gap_pct", "%"},
    {"check.states", "count"},
    {"check.transitions", "count"},
    {"check.symmetry_hits", "count"},
    {"check.por_pruned", "count"},
    {"check.states_per_s", "states/s"},
    {"check.ns_per_transition", "ns"},
    {"check.states_drift", "count"},
    {"store.claim_ns", "ns"},
    {"codec.write-through.encode_relabeled_ns", "ns"},
    {"codec.write-through.encode_state_ns", "ns"},
    {"codec.write-through.decode_state_ns", "ns"},
    {"codec.write-through-v.encode_relabeled_ns", "ns"},
    {"codec.write-through-v.encode_state_ns", "ns"},
    {"codec.write-through-v.decode_state_ns", "ns"},
    {"codec.write-once.encode_relabeled_ns", "ns"},
    {"codec.write-once.encode_state_ns", "ns"},
    {"codec.write-once.decode_state_ns", "ns"},
    {"codec.synapse.encode_relabeled_ns", "ns"},
    {"codec.synapse.encode_state_ns", "ns"},
    {"codec.synapse.decode_state_ns", "ns"},
    {"codec.illinois.encode_relabeled_ns", "ns"},
    {"codec.illinois.encode_state_ns", "ns"},
    {"codec.illinois.decode_state_ns", "ns"},
    {"codec.berkeley.encode_relabeled_ns", "ns"},
    {"codec.berkeley.encode_state_ns", "ns"},
    {"codec.berkeley.decode_state_ns", "ns"},
    {"codec.dragon.encode_relabeled_ns", "ns"},
    {"codec.dragon.encode_state_ns", "ns"},
    {"codec.dragon.decode_state_ns", "ns"},
    {"codec.firefly.encode_relabeled_ns", "ns"},
    {"codec.firefly.encode_state_ns", "ns"},
    {"codec.firefly.decode_state_ns", "ns"},
    {"trace.overhead_pct", "%"},
};

enum class Engine { kRuntime, kAnalytic, kSim, kCheck };

struct WorkloadDef {
  const char* name;
  Engine engine;
  double read_ratio;  // rt_* only
};

const WorkloadDef kWorkloads[] = {
    {"rt_read90", Engine::kRuntime, 0.9},
    {"rt_write90", Engine::kRuntime, 0.1},
    {"analytic_grid", Engine::kAnalytic, 0.0},
    {"sim_validate", Engine::kSim, 0.0},
    {"check_verify", Engine::kCheck, 0.0},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool tiny = false;
  std::string ref_dir = "perfbench/ref";
  std::string spans_dir;
  std::string commit = "unknown";
  std::string write_ref;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "drsm_perfbench: %s\nusage: drsm_perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--ref-dir <dir>] [--spans-dir <dir>] [--commit <id>]\n"
               "       drsm_perfbench --write-ref <dir>\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return false;
      args.trace = value[0] - '0';
    } else if (flag == "--ref-dir") {
      args.ref_dir = value;
    } else if (flag == "--spans-dir") {
      args.spans_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--write-ref") {
      args.write_ref = value;
    } else {
      return false;
    }
  }
  return true;
}

void run_engine(Engine engine, double read_ratio, const Context& ctx,
                const std::string& ref_dir, Outcome& out) {
  switch (engine) {
    case Engine::kRuntime: run_runtime(ctx, read_ratio, out); break;
    case Engine::kAnalytic: run_grid(ctx, ref_dir, out); break;
    case Engine::kSim: run_sim(ctx, out); break;
    case Engine::kCheck: run_check(ctx, ref_dir, out); break;
  }
}

void print_fingerprint(const Args& args) {
  std::printf(
      "# fingerprint {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"drsm_native\": false, \"commit\": \"%s\", \"workload\": "
      "\"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, \"tiny\": "
      "%s}\n",
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, args.commit.c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
      args.tiny ? "true" : "false");
  std::printf(
      "# pinned: rt_* = write-through, 2 sessions on 1 client thread + 2 "
      "shards (3 threads), 256 objects, Zipf 0.99, window 32, default ring "
      "4096 / batch 256 / latency sample 1-in-8, shard idle spins 4096, "
      "client polls 4096; analytic_grid = 1 thread; "
      "sim_validate = 2 pool threads; check_verify = 2 checker threads\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse(argc, argv, args)) return usage("bad arguments");
  if (!args.write_ref.empty()) {
    const bool ok = write_grid_ref(args.write_ref) &&
                    write_check_ref(args.write_ref);
    std::printf("reference tables %s %s\n", ok ? "written to" : "FAILED in",
                args.write_ref.c_str());
    return ok ? 0 : 1;
  }
  const WorkloadDef* workload = nullptr;
  for (const WorkloadDef& w : kWorkloads)
    if (args.workload == w.name) workload = &w;
  if (workload == nullptr) return usage("unknown or missing --workload");
  if (args.seconds <= 0.0 || args.trace < 0)
    return usage("--seed, --seconds and --trace are required");

  print_fingerprint(args);
  std::fflush(stdout);
  const Scale scale = args.tiny ? Scale::kTiny : Scale::kFull;
  const bool traced = args.trace == 1;

  Outcome out;
  std::vector<std::unique_ptr<Tracer>> tracers;
  auto tracer_for = [&]() -> Tracer* {
    if (!traced) return nullptr;
    tracers.push_back(std::make_unique<Tracer>());
    return tracers.back().get();
  };
  const Context ctx{args.seed, args.seconds, scale, tracer_for()};
  try {
    run_engine(workload->engine, workload->read_ratio, ctx, args.ref_dir,
               out);
    if (traced) {
      // The layers this workload does not exercise get a small traced
      // probe of their engine, so every layer metric is measured.
      for (const Engine engine : {Engine::kRuntime, Engine::kAnalytic,
                                  Engine::kSim, Engine::kCheck}) {
        if (engine == workload->engine) continue;
        Outcome probe;
        const Context probe_ctx{args.seed, 0.0,
                                args.tiny ? Scale::kTiny : Scale::kProbe,
                                tracer_for()};
        run_engine(engine, 0.9, probe_ctx, args.ref_dir, probe);
        out.absorb_probe(probe, "probe.");
      }
      run_micros(out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drsm_perfbench: %s\n", e.what());
    return 1;
  }
  out.set_e2e("peak_rss_mb", peak_rss_mb(), 1);

  if (traced && !args.spans_dir.empty()) {
    for (std::size_t i = 0; i < tracers.size(); ++i) {
      const std::string path = args.spans_dir + "/" + args.workload + "-" +
                               std::to_string(args.seed) + "-" +
                               std::to_string(i) + ".spans.csv";
      if (!tracers[i]->write_csv(path))
        std::fprintf(stderr, "drsm_perfbench: cannot write %s\n",
                     path.c_str());
      else
        std::printf("# spans: %zu kept (%llu over the per-thread cap) -> "
                    "%s\n",
                    tracers[i]->kept(),
                    static_cast<unsigned long long>(tracers[i]->dropped()),
                    path.c_str());
    }
  }

  for (const Outcome::CheckRecord& c : out.checks)
    std::printf("# check %s: %s (%s)\n", c.name.c_str(), c.ok ? "ok" : "FAIL",
                c.detail.c_str());
  std::printf("# fail_ratio %.6g (%llu failed of %llu attempted units)\n",
              out.attempted == 0 ? 0.0
                                 : static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  std::string passes;
  for (const double s : out.pass_s) {
    passes += ' ';
    passes += std::to_string(s);
  }
  std::printf("# untraced pass run_s:%s\n", passes.c_str());
  for (const MetricDef& m : kEndToEnd) {
    const auto it = out.e2e.find(m.name);
    if (it == out.e2e.end()) continue;
    std::printf("# e2e %-28s %.6g %s (n=%zu)%s\n", m.name, it->second,
                m.unit, out.samples[m.name],
                traced ? " [traced run: half the passes traced]" : "");
  }

  const MetricDef* defs_begin =
      traced ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricDef* defs_end =
      traced ? std::end(kPerLayer) : std::end(kEndToEnd);
  const std::map<std::string, double>& values = traced ? out.layer : out.e2e;
  std::string metrics;
  for (auto it = defs_begin; it != defs_end; ++it) {
    const auto value = values.find(it->name);
    if (value == values.end() || !std::isfinite(value->second)) {
      std::fprintf(stderr, "drsm_perfbench: metric %s was not measured\n",
                   it->name);
      return 1;
    }
    if (traced)
      std::printf("# layer %-44s %.6g %s\n", it->name, value->second,
                  it->unit);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": "
                  "\"%s\"}",
                  metrics.empty() ? "" : ", ", it->name, value->second,
                  it->unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.correct() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}
