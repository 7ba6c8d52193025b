// rt_read90 / rt_write90: the concurrent sharded runtime under a closed
// loop.  Two client sessions and two sequencer shards drive 256
// Zipf(0.99)-skewed objects under write-through, each session keeping at
// most 32 operations in flight, with the library's default ring and batch
// knobs.
//
// One client thread (the calling thread) drives both sessions, issuing
// their streams interleaved round-robin, and it polls for grants
// (kClientPolls rounds) before it parks, as the shards spin (kIdleSpins
// yields) before they park.  With the two shard threads that is three
// busy threads on a four-thread host.  A futex wake-up of a parked thread
// costs whatever the host's scheduler makes it cost, so threads that park
// at every handoff, or as many threads as the host has, make the figures
// follow the host's load instead of the program.
//
// A pass builds a fresh runtime, warms it up with the first Sizes::warmup
// ops of each session's stream (set-up), then times the rest of the
// stream.  The streams are generated from the seed before the first pass
// and replayed by every pass; the facade baseline replays the same
// streams in the same round-robin order on one thread, so both sides see
// the same cross-client invalidations.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/sharded_oracle.h"
#include "dsm/concurrent.h"
#include "dsm/dsm.h"
#include "support/rng.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace drsm;
using Runtime = dsm::ConcurrentSharedMemory;

constexpr std::size_t kSessions = 2;
constexpr std::size_t kShards = 2;
constexpr std::size_t kObjects = 256;
constexpr std::size_t kWindow = 32;
constexpr double kZipfSkew = 0.99;
/// Empty-ring yields before a shard parks (the library default is 4).
constexpr std::size_t kIdleSpins = 4096;
/// Rounds of pumping every session before the client issues into a full
/// window anyway, which parks it inside the library (a window stall).
constexpr std::size_t kClientPolls = 4096;
constexpr std::uint32_t kWriteBit = 1u << 31;
/// The runtime stamps one op in kLatencyEvery per session (the library
/// default), always the same tickets, so op i is sampled in every pass.
constexpr std::size_t kLatencyEvery = 8;
/// Rounds of the issue loop (one op per session each) timed as one chunk.
constexpr std::size_t kChunkRounds = 2048;
/// Untraced passes whose latencies feed p50_us / p99_us (the most recent
/// ones); fixed, so that memory does not grow with the number of passes.
constexpr std::size_t kLatencyPasses = 9;
/// Per-op calls (issue, pump) are timed for one call in kSampleEvery, to
/// keep the tracing overhead small; their totals are scaled back up.
constexpr std::uint32_t kSampleEvery = 16;
/// Of the timed calls, one span in kKeepEvery is kept in memory.
constexpr std::uint32_t kKeepEvery = 4;

struct Sizes {
  std::size_t warmup;  // ops per session before the timed phase
  std::size_t timed;   // ops per session in the timed phase
  std::size_t min_passes;
  std::size_t max_passes;
};

Sizes sizes_for(Scale scale) {
  switch (scale) {
    case Scale::kFull: return {1 << 17, 1 << 20, 5, 200};
    case Scale::kProbe: return {1 << 12, 1 << 16, 2, 2};
    case Scale::kTiny: return {1 << 10, 1 << 13, 2, 2};
  }
  return {};
}

using Stream = std::vector<std::uint32_t>;  // object | kWriteBit

std::vector<Stream> make_streams(std::uint64_t seed, double read_ratio,
                                 std::size_t length) {
  const CategoricalSampler zipf(workload::zipf_weights(kObjects, kZipfSkew));
  std::vector<Stream> streams(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + s + 1);
    streams[s].resize(length);
    for (std::uint32_t& op : streams[s]) {
      op = static_cast<std::uint32_t>(zipf.sample(rng));
      if (rng.uniform() >= read_ratio) op |= kWriteBit;
    }
  }
  return streams;
}

/// Benchmark-side bookkeeping of one session in one pass.
struct SessionRecord {
  std::vector<std::uint8_t> grants;  // grants seen, by ticket
  std::uint64_t stray_grants = 0;    // tickets never issued
  Cost cost_before = 0.0;            // at the end of the warm-up
  std::uint64_t done_before = 0;
  Cost cost_after = 0.0;
  std::uint64_t done_after = 0;
};

/// Issues ops [from, to) of every session's stream, interleaved
/// round-robin (session 0's op i, session 1's op i, ...).  Before an issue
/// into a full window it pumps every session until a grant frees a slot
/// (closed loop), so a grant is seen when it lands, not when its session's
/// turn comes; after kClientPolls rounds it lets the library park it.
/// `chunk_starts`, when set, receives the time at which every
/// kChunkRounds-th round starts.
template <bool kTraced>
void issue_ops(const std::vector<Runtime::Session*>& sessions,
               const std::vector<Stream>& streams, std::size_t from,
               std::size_t to, Tracer::Log* log, std::uint64_t parent,
               std::vector<std::uint64_t>* chunk_starts = nullptr) {
  std::uint32_t pumps = 0;
  for (std::size_t i = from; i < to; ++i) {
    if (chunk_starts != nullptr && (i - from) % kChunkRounds == 0)
      chunk_starts->push_back(now_ns());
    for (std::size_t s = 0; s < kSessions; ++s) {
      Runtime::Session& session = *sessions[s];
      for (std::size_t polls = 0;
           session.in_flight() >= kWindow && polls < kClientPolls; ++polls) {
        std::size_t granted = 0;
        for (Runtime::Session* other : sessions) {
          if (kTraced && ++pumps % kSampleEvery == 0) {
            const std::uint64_t t0 = now_ns();
            granted += other->pump();
            log->record("dsm.pump", log->new_id(), parent, t0, now_ns(),
                        kKeepEvery);
          } else {
            granted += other->pump();
          }
        }
        // Like the shards' idle spins: a thread that shares its CPU with a
        // shard must not keep the shard off it.
        if (granted == 0) std::this_thread::yield();
      }
      const std::uint32_t op = streams[s][i];
      const ObjectId object = op & ~kWriteBit;
      const bool sampled = kTraced && i % kSampleEvery == 0;
      const std::uint64_t t0 = sampled ? now_ns() : 0;
      if (op & kWriteBit)
        session.write_unique(object);
      else
        session.read(object);
      if (sampled)
        log->record("dsm.issue", log->new_id(), parent, t0, now_ns(),
                    kKeepEvery);
    }
  }
}

struct PassResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  double acc = 0.0;
  std::uint64_t ops = 0;  // timed ops
  /// Wall time of each chunk of kChunkRounds rounds (untraced passes; the
  /// last chunk includes the drain).
  std::vector<double> chunk_s;
  Runtime::Stats stats;
};

/// One correctness check over every pass of a run; keeps the first
/// failure's description.
struct Verdict {
  bool ok = true;
  std::string detail;

  void fail(const std::string& why) {
    if (ok) detail = why;
    ok = false;
  }
};

struct Verdicts {
  Verdict exactly_once;
  Verdict not_failed;
  Verdict versions;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One pass.  When `latency_us` is set, it receives the issue-to-grant
/// latency of every sampled timed op, session by session in ticket order.
PassResult run_pass(const std::vector<Stream>& streams, std::size_t warmup,
                    const std::vector<std::uint64_t>& writes_per_object,
                    Tracer* tracer, check::ShardedOracle* oracle,
                    std::vector<double>* latency_us, Verdicts& verdicts) {
  std::vector<SessionRecord> recs(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s)
    recs[s].grants.assign(streams[s].size() + 1, 0);
  Runtime::Options options;
  options.protocol = protocols::ProtocolKind::kWriteThrough;
  options.num_clients = kSessions;
  options.num_objects = kObjects;
  options.num_shards = kShards;
  options.max_inflight = kWindow;
  options.idle_spins = kIdleSpins;
  options.latency_sample_every = kLatencyEvery;
  if (oracle != nullptr)
    for (std::size_t s = 0; s < kShards; ++s)
      options.shard_taps.push_back(oracle->tap(s));

  Tracer::Log* log = tracer != nullptr ? &tracer->new_log() : nullptr;
  const std::uint64_t pass_id = log != nullptr ? log->new_id() : 0;

  PassResult r;
  const std::uint64_t setup_start = now_ns();
  Runtime mem(options);
  bool timing = false;
  const std::size_t sampled = (streams[0].size() - warmup) / kLatencyEvery;
  if (latency_us != nullptr) latency_us->assign(kSessions * sampled, 0.0);
  std::vector<Runtime::Session*> sessions;
  for (std::size_t s = 0; s < kSessions; ++s) {
    SessionRecord& rec = recs[s];
    double* slots =
        latency_us != nullptr ? latency_us->data() + s * sampled : nullptr;
    sessions.push_back(&mem.session(static_cast<NodeId>(s)));
    sessions.back()->set_grant_handler(
        [&rec, &timing, slots, warmup, sampled](const sim::ShardGrant& grant) {
          if (grant.ticket < rec.grants.size())
            ++rec.grants[grant.ticket];
          else
            ++rec.stray_grants;
          if (!timing || slots == nullptr || grant.issue_ns == 0) return;
          const std::size_t i = (grant.ticket - warmup) / kLatencyEvery - 1;
          if (i < sampled)
            slots[i] = static_cast<double>(now_ns() - grant.issue_ns) / 1e3;
        });
  }
  const std::size_t length = streams[0].size();
  std::uint64_t start = setup_start, end = setup_start;
  std::vector<std::uint64_t> chunk_starts;
  std::string error;
  try {
    issue_ops<false>(sessions, streams, 0, warmup, nullptr, 0);
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions[s]->drain();
      recs[s].cost_before = sessions[s]->cost();
      recs[s].done_before = sessions[s]->completed();
    }
    timing = true;
    start = now_ns();
    if (log != nullptr) {
      issue_ops<true>(sessions, streams, warmup, length, log, pass_id);
      const std::uint64_t t0 = now_ns();
      for (Runtime::Session* session : sessions) session->drain();
      log->record("dsm.drain", log->new_id(), pass_id, t0, now_ns());
    } else {
      issue_ops<false>(sessions, streams, warmup, length, nullptr, 0,
                       &chunk_starts);
      for (Runtime::Session* session : sessions) session->drain();
    }
    end = now_ns();
    for (std::size_t s = 0; s < kSessions; ++s) {
      recs[s].cost_after = sessions[s]->cost();
      recs[s].done_after = sessions[s]->completed();
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  mem.stop();
  if (log != nullptr) log->record("rt.pass", pass_id, 0, start, end);

  r.setup_s = seconds_between(setup_start, start);
  r.run_s = seconds_between(start, end);
  for (std::size_t c = 0; c < chunk_starts.size(); ++c)
    r.chunk_s.push_back(seconds_between(
        chunk_starts[c],
        c + 1 < chunk_starts.size() ? chunk_starts[c + 1] : end));
  r.stats = mem.stats();

  Cost cost = 0.0;
  std::uint64_t done = 0;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const SessionRecord& rec = recs[s];
    cost += rec.cost_after - rec.cost_before;
    done += rec.done_after - rec.done_before;
    const std::size_t issued = streams[s].size();
    verdicts.attempted += issued;
    std::uint64_t bad = 0;
    for (std::size_t t = 1; t <= issued; ++t) bad += rec.grants[t] != 1;
    verdicts.failed += bad;
    if (bad != 0 || rec.stray_grants != 0)
      verdicts.exactly_once.fail(std::to_string(bad) +
                                 " ops not granted exactly once, " +
                                 std::to_string(rec.stray_grants) +
                                 " grants for tickets never issued");
  }
  if (!error.empty()) verdicts.not_failed.fail("client error: " + error);
  if (mem.failed()) verdicts.not_failed.fail("runtime failed: " + mem.error());
  for (std::size_t o = 0; o < kObjects; ++o) {
    const std::uint64_t version =
        mem.object_version(static_cast<ObjectId>(o));
    if (version != writes_per_object[o])
      verdicts.versions.fail("object " + std::to_string(o) + " version " +
                             std::to_string(version) + " after " +
                             std::to_string(writes_per_object[o]) +
                             " writes");
  }
  r.ops = done;
  r.acc = done == 0 ? 0.0 : cost / static_cast<double>(done);
  return r;
}

/// Replays the streams through the sequential facade, interleaved
/// round-robin (session 0's op i, session 1's op i, ...).  Returns ns per
/// timed op; `acc` receives the timed ops' cost per op.
double facade_replay(const std::vector<Stream>& streams, std::size_t warmup,
                     double& acc) {
  dsm::SharedMemory::Options options;
  options.protocol = protocols::ProtocolKind::kWriteThrough;
  options.num_clients = kSessions;
  options.num_objects = kObjects;
  dsm::SharedMemory mem(options);
  std::uint64_t value = 0;
  auto replay = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        const std::uint32_t op = streams[s][i];
        const ObjectId object = op & ~kWriteBit;
        if (op & kWriteBit)
          mem.write(static_cast<NodeId>(s), object, ++value);
        else
          mem.read(static_cast<NodeId>(s), object);
      }
    }
  };
  replay(0, warmup);
  mem.reset_counters();
  const std::size_t length = streams[0].size();
  const std::uint64_t t0 = now_ns();
  replay(warmup, length);
  const std::uint64_t t1 = now_ns();
  const double ops = static_cast<double>((length - warmup) * kSessions);
  acc = mem.average_cost();
  return static_cast<double>(t1 - t0) / ops;
}

double per_kop(std::uint64_t count, std::uint64_t ops) {
  return ops == 0 ? 0.0
                  : static_cast<double>(count) * 1e3 / static_cast<double>(ops);
}

}  // namespace

void run_runtime(const Context& ctx, double read_ratio, Outcome& out) {
  const Sizes sizes = sizes_for(ctx.scale);
  const std::vector<Stream> streams =
      make_streams(ctx.seed, read_ratio, sizes.warmup + sizes.timed);
  std::vector<std::uint64_t> writes_per_object(kObjects, 0);
  for (const Stream& stream : streams)
    for (const std::uint32_t op : stream)
      if (op & kWriteBit) ++writes_per_object[op & ~kWriteBit];

  Verdicts verdicts;
  std::vector<PassResult> plain, traced;
  // Latency comes from the sampled ops of the last kLatencyPasses untraced
  // passes.  p50_us is the median of their latencies pooled: a pass's
  // latencies have two modes (ops queued behind the busier shard wait
  // longer), and the weight of each mode moves from pass to pass.  p99_us
  // is the 99th percentile over ops of each op's median latency over those
  // passes (every pass replays the same ops), so that a stall of the host,
  // which delays different ops in each pass, does not make the tail.
  std::vector<std::vector<double>> latency_us(kLatencyPasses);
  std::size_t untraced = 0;
  run_passes(ctx, sizes.min_passes, sizes.max_passes, [&](bool trace) {
    std::vector<double>* latency =
        trace ? nullptr : &latency_us[untraced++ % kLatencyPasses];
    PassResult r = run_pass(streams, sizes.warmup, writes_per_object,
                            trace ? ctx.tracer : nullptr, nullptr, latency,
                            verdicts);
    (trace ? traced : plain).push_back(std::move(r));
  });
  latency_us.resize(std::min(untraced, kLatencyPasses));
  std::vector<double> op_us = unit_medians(latency_us), pooled_us;
  for (std::vector<double>& pass : latency_us) {
    pooled_us.insert(pooled_us.end(), pass.begin(), pass.end());
    std::vector<double>().swap(pass);
  }
  const std::size_t latency_samples = pooled_us.size();
  const double pooled_p50_us = quantile(std::move(pooled_us), 0.5);
  const double op_p99_us = quantile(std::move(op_us), 0.99);

  auto field = [](const std::vector<PassResult>& passes,
                  double PassResult::*member) {
    std::vector<double> values;
    for (const PassResult& r : passes) values.push_back(r.*member);
    return values;
  };
  out.set_e2e("setup_s", median(field(plain, &PassResult::setup_s)),
              plain.size());
  // run_s is the pass with every chunk at its median: each chunk's median
  // time over the untraced passes, summed.  A stall of the host that
  // lasts a while, but less than half of the run, lands in different
  // chunks in each pass and moves none of the medians.
  std::vector<std::vector<double>> chunk_s;
  for (const PassResult& r : plain) chunk_s.push_back(r.chunk_s);
  double job_s = 0.0;
  for (const double s : unit_medians(chunk_s)) job_s += s;
  out.pass_s = field(plain, &PassResult::run_s);
  out.set_e2e("run_s", job_s, plain.size());
  out.set_e2e("ops_per_s", static_cast<double>(plain.front().ops) / job_s,
              plain.size());
  out.set_e2e("p50_us", pooled_p50_us, latency_samples);
  out.set_e2e("p99_us", op_p99_us, latency_samples);
  out.set_e2e("acc", median(field(plain, &PassResult::acc)), plain.size());

  if (ctx.tracer != nullptr) {
    const Tracer& tracer = *ctx.tracer;
    std::uint64_t traced_ops = 0;
    for (const PassResult& r : traced) traced_ops += r.ops;
    const std::vector<double> issue = tracer.durations("dsm.issue");
    out.set_layer("dsm.issue_ns_p50", quantile(issue, 0.5));
    out.set_layer("dsm.issue_ns_p99", quantile(issue, 0.99));
    out.set_layer("dsm.pump_ns_per_op",
                  traced_ops == 0
                      ? 0.0
                      : static_cast<double>(kSampleEvery *
                                                tracer.total_ns("dsm.pump") +
                                            tracer.total_ns("dsm.drain")) /
                            static_cast<double>(traced_ops));
    out.set_layer("trace.overhead_pct",
                  overhead_pct(field(traced, &PassResult::run_s),
                               field(plain, &PassResult::run_s)));

    // Counters come from the untraced passes: exact, and not perturbed by
    // the spans.
    Runtime::Stats sum;
    std::vector<double> skew;
    for (const PassResult& r : plain) {
      const Runtime::Stats& s = r.stats;
      sum.ops += s.ops;
      sum.messages += s.messages;
      sum.batches += s.batches;
      sum.shard_parks += s.shard_parks;
      sum.idle_yields += s.idle_yields;
      sum.ring_full_stalls += s.ring_full_stalls;
      sum.submit_stalls += s.submit_stalls;
      sum.window_stalls += s.window_stalls;
      double max_ops = 0.0, total = 0.0;
      for (const std::uint64_t n : s.shard_ops) {
        max_ops = std::max(max_ops, static_cast<double>(n));
        total += static_cast<double>(n);
      }
      if (total > 0.0)
        skew.push_back(max_ops /
                       (total / static_cast<double>(s.shard_ops.size())));
    }
    out.set_layer("dsm.submit_stalls_per_kop",
                  per_kop(sum.submit_stalls, sum.ops));
    out.set_layer("dsm.window_stalls_per_kop",
                  per_kop(sum.window_stalls, sum.ops));
    out.set_layer("shard.ops_per_batch",
                  sum.batches == 0 ? 0.0
                                   : static_cast<double>(sum.ops) /
                                         static_cast<double>(sum.batches));
    out.set_layer("shard.parks_per_kop", per_kop(sum.shard_parks, sum.ops));
    out.set_layer("shard.idle_yields_per_kop",
                  per_kop(sum.idle_yields, sum.ops));
    out.set_layer("shard.ring_full_stalls_per_kop",
                  per_kop(sum.ring_full_stalls, sum.ops));
    out.set_layer("shard.ops_skew", median(skew));
    out.set_layer("shard.msgs_per_op",
                  sum.ops == 0 ? 0.0
                               : static_cast<double>(sum.messages) /
                                     static_cast<double>(sum.ops));

    // The facade replays the same streams in the same round-robin order.
    std::vector<double> facade_ns;
    double facade_acc = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      Tracer::Log& log = ctx.tracer->new_log();
      const std::uint64_t t0 = now_ns();
      facade_ns.push_back(facade_replay(streams, sizes.warmup, facade_acc));
      log.record("facade.replay", log.new_id(), 0, t0, now_ns());
    }
    const double op_ns = median(facade_ns);
    out.set_layer("facade.op_ns", op_ns);
    out.set_layer("dsm.speedup_vs_facade",
                  out.e2e["ops_per_s"] * op_ns / 1e9);
    std::printf("# facade replay: %.1f ns/op (%.3fM ops/s), acc %.4f vs "
                "runtime acc %.4f\n",
                op_ns, 1e3 / op_ns, facade_acc, out.e2e["acc"]);

    // Live coherence referee on every shard, in a pass of its own.
    check::ShardedOracle oracle(kShards);
    run_pass(streams, sizes.warmup, writes_per_object, nullptr, &oracle,
             nullptr, verdicts);
    oracle.finish();
    const std::vector<std::string> violations = oracle.violations();
    out.check("rt.oracle_clean", oracle.ok(),
              violations.empty()
                  ? std::to_string(oracle.commits()) + " commits, " +
                        std::to_string(oracle.reads()) + " reads refereed"
                  : violations.front());
  }

  out.check("rt.granted_exactly_once", verdicts.exactly_once.ok,
            verdicts.exactly_once.detail);
  out.check("rt.runtime_not_failed", verdicts.not_failed.ok,
            verdicts.not_failed.detail);
  out.check("rt.object_versions_match_writes", verdicts.versions.ok,
            verdicts.versions.detail);
  out.attempted += verdicts.attempted;
  out.failed += verdicts.failed;
}

}  // namespace perfbench
