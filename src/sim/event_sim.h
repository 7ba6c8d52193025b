// Discrete-event simulator of the full N+1-node message-passing system —
// the C++ counterpart of the paper's multitasking Ada simulator
// (Section 5.2).
//
// Unlike SequentialRuntime, operations from different nodes overlap in
// time here: messages travel through FIFO channels with latency, each node
// processes one message at a time from its two queues (distributed queue
// first; the local queue can be disabled by a blocked distributed
// operation), and the application process at each node issues its next
// operation only after the previous one completes ("closed loop").  The
// divergence between this simulator's measured average communication cost
// and the analytic prediction is exactly what the paper's Table 7 reports
// (< +-8 %).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "fsm/mealy.h"
#include "obs/metrics.h"
#include "obs/quantile.h"
#include "obs/trace.h"
#include "protocols/protocol.h"
#include "sim/coherence_tap.h"
#include "sim/config.h"
#include "sim/event_queue.h"
#include "support/rng.h"

namespace drsm::sim {

/// Supplies each node's next application operation.  Implementations own
/// their randomness (see src/workload).
class WorkloadDriver {
 public:
  struct Op {
    ObjectId object = 0;
    fsm::OpKind kind = fsm::OpKind::kRead;
    SimTime think_time = 0;  // delay before the request is issued
  };

  virtual ~WorkloadDriver() = default;

  /// Next operation for `node`, or nullopt when the node stops issuing.
  virtual std::optional<Op> next_op(NodeId node) = 0;
};

/// Aggregate measurements of one simulation run.
struct SimStats {
  Cost measured_cost = 0.0;     // cost accumulated after warmup
  std::size_t measured_ops = 0; // completed operations after warmup
  Cost warmup_cost = 0.0;
  std::size_t warmup_ops = 0;
  std::size_t reads = 0;   // post-warmup
  std::size_t writes = 0;  // post-warmup
  std::size_t messages = 0;
  SimTime end_time = 0;

  // Operation response times (issue -> completion), post-warmup.  The
  // paper's metric is message cost; latency is the simulator's natural
  // complement (blocking operations wait for sequencer round trips,
  // fire-and-forget ones do not).
  double latency_sum = 0.0;
  SimTime latency_max = 0;
  double read_latency_sum = 0.0;
  double write_latency_sum = 0.0;

  /// Post-warmup latency distribution (default exponential buckets),
  /// kept for bucket-shaped readouts and merging with fixed bounds.
  obs::Histogram latency_histogram;

  /// Post-warmup latency quantile sketch (Greenwald–Khanna): the source
  /// of the p50/p90/p99 fields in BENCH_*.json reports.  Unlike the
  /// histogram's interpolated bucket percentiles, queries return actual
  /// observed latencies (so a zero-heavy distribution reports p50 = 0,
  /// not a fraction interpolated across the first bucket).
  obs::Quantile latency_quantiles;

  double mean_latency() const {
    return measured_ops == 0 ? 0.0
                             : latency_sum /
                                   static_cast<double>(measured_ops);
  }
  double mean_read_latency() const {
    return reads == 0 ? 0.0 : read_latency_sum / static_cast<double>(reads);
  }
  double mean_write_latency() const {
    return writes == 0 ? 0.0
                       : write_latency_sum / static_cast<double>(writes);
  }

  /// Inter-node messages by token type over the whole run (the protocol's
  /// "message mix"): e.g. for Write-Through, kInval counts track the
  /// invalidation broadcasts of traces tr3/tr4/tr6.
  std::map<fsm::MsgType, std::size_t> message_mix;

  /// Communication cost attributed to each node's operations (indexed by
  /// the message token's operation-initiator, the paper's five-tuple
  /// field) — "who pays", over the whole run.
  std::vector<Cost> cost_by_initiator;

  /// Communication cost per shared object (the token's object-name field)
  /// over the whole run — which objects are hot.
  std::vector<Cost> cost_by_object;

  /// Messages handled by each node's protocol processor over the whole
  /// run.  With a non-zero per-message processing time this measures where
  /// the serialization bottleneck sits: utilization(node) =
  /// handled * processing_time / end_time.  The fixed-sequencer protocols
  /// concentrate this on node N; Berkeley spreads it with ownership.
  std::vector<std::size_t> handled_by_node;

  double utilization(NodeId node, SimTime processing_time) const {
    if (end_time == 0 || node >= handled_by_node.size()) return 0.0;
    return static_cast<double>(handled_by_node[node]) *
           static_cast<double>(processing_time) /
           static_cast<double>(end_time);
  }

  /// Steady-state average communication cost per operation (per shared
  /// object when divided by the object count externally; the paper's acc
  /// is per operation and per object with uniform access, which coincide).
  double acc() const {
    return measured_ops == 0 ? 0.0
                             : measured_cost /
                                   static_cast<double>(measured_ops);
  }
};

struct SimOptions {
  LatencyModel latency;
  std::size_t max_ops = 2000;   // total completed operations, incl. warmup
  std::size_t warmup_ops = 500; // the paper's neglected transient
  std::uint64_t seed = 1;
  bool check_coherence = true;  // per-node version monotonicity

  /// Upper bound on in-flight messages per directed (src, dst) channel;
  /// 0 = unbounded (the default, and the zero-overhead path: depths are
  /// only tracked when a bound is set).  Exceeding the bound trips a
  /// DRSM_CHECK — the model checker explores under the same channel bound,
  /// so a bounded simulator run stays inside the verified state space.
  std::size_t max_channel_depth = 0;

  /// Event scheduling structure.  kTimeWheel is the fast production path;
  /// kBinaryHeap is the order-isomorphic reference the determinism tests
  /// compare against.  Both pop in (time, schedule order), so results are
  /// identical either way.
  SchedulerKind scheduler = SchedulerKind::kTimeWheel;
};

/// Observer invoked for every inter-node message (used by the trace
/// inspector example and by tests).  Implemented on top of the structured
/// event stream: the callback is an EventSink adapter that reconstructs
/// the fsm::Message from each kMsgSend trace event.
using MessageObserver = std::function<void(
    SimTime time, NodeId src, NodeId dst, const fsm::Message& msg)>;

class EventSimulator {
 public:
  EventSimulator(protocols::ProtocolKind kind, const SystemConfig& config,
                 const SimOptions& options);
  ~EventSimulator();

  EventSimulator(const EventSimulator&) = delete;
  EventSimulator& operator=(const EventSimulator&) = delete;

  void set_observer(MessageObserver observer);

  /// Attaches a structured trace sink (typically an obs::TraceRecorder):
  /// every message send/recv, queue enable/disable, operation
  /// issue/completion and copy-state transition is delivered to it.  With
  /// no sink attached the instrumentation is a single null check per
  /// event site (the zero-overhead path measured by bench_micro).  Pass
  /// nullptr to detach.  Composes with set_observer.
  void set_sink(obs::EventSink* sink);

  /// Attaches a metrics registry: the run publishes message/operation
  /// counters, the message mix, acc/latency summaries, and time series of
  /// the sequencer's queue depth and utilization.  Metric names are
  /// listed in docs/OBSERVABILITY.md.  Pass nullptr to detach.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Attaches a coherence tap (typically the check::CoherenceOracle):
  /// write issues, write serializations and read returns are forwarded to
  /// it.  With no tap attached each site is a single null check.  Pass
  /// nullptr to detach.
  void set_coherence_tap(CoherenceTap* tap);

  /// Runs until max_ops operations completed (or the driver stops issuing
  /// everywhere and the network drains).
  SimStats run(WorkloadDriver& driver);

  /// Copy-state name of (node, object) after a run, for tests.
  const char* state_name(NodeId node, ObjectId object) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace drsm::sim
