// Self-tuning protocol selection — the extension the paper's conclusion
// proposes: "the model can be applied to implement a classifier for the
// development of adaptive data replication coherence protocols with
// self-tuning capability based on run-time information".
//
// AdaptiveSelector classifies an empirical sample space with the analytic
// model (the paper notes the five parameters "may be obtained by
// estimating the relative frequencies of events in some real distributed
// computation").  SelfTuner is the one decision policy built on it: live
// obs::AccessStats telemetry turned into per-object sample spaces, a
// hysteresis gate and a per-object pass.  Two loops derive from it:
// AdaptiveSharedMemory inline on a SharedMemory, and OnlineController
// (online.h) beside a dsm::ConcurrentSharedMemory.
#pragma once

#include <chrono>
#include <functional>
#include <vector>

#include "analytic/solver.h"
#include "dsm/dsm.h"
#include "obs/access_stats.h"
#include "workload/spec.h"

namespace drsm::adaptive {

/// Classifier: picks the acc-minimizing protocol for a workload.
class AdaptiveSelector {
 public:
  AdaptiveSelector(const sim::SystemConfig& config,
                   std::vector<protocols::ProtocolKind> candidates = {});

  struct Classification {
    protocols::ProtocolKind protocol;
    double predicted_acc = 0.0;
  };
  Classification classify(const workload::WorkloadSpec& spec);

  /// Builds an empirical per-object sample space from live telemetry: the
  /// recent (last closed + current window) per-node read/write mix of
  /// `object`, restricted to client nodes.  Requires at least one client
  /// access to the object in that window span.
  static workload::WorkloadSpec spec_from_telemetry(
      const obs::AccessStats& stats, ObjectId object,
      std::size_t num_clients);

  /// Classifies `object` straight from telemetry — the observe-path hook:
  /// feed an AccessStats from the runtime's event stream, ask which
  /// protocol the analytic model predicts cheapest for what the object is
  /// *currently* experiencing.
  Classification classify_object(const obs::AccessStats& stats,
                                 ObjectId object);

  analytic::AccSolver& solver() { return solver_; }

 private:
  analytic::AccSolver solver_;
  std::vector<protocols::ProtocolKind> candidates_;
  std::size_t num_clients_;
};

/// The settable values of the decision policy both adaptive loops run.
struct Policy {
  /// Client operations between decision passes.
  std::size_t decide_every = 512;
  /// Lifetime accesses an object (in global mode: the whole memory) needs
  /// before it is ever priced.
  std::size_t min_observations = 64;
  /// Recent-mix span, in accesses: the telemetry window is sized so that
  /// "last closed + current window" covers about this many.
  std::size_t window = 1024;
  /// Relative acc improvement a challenger must show over the incumbent
  /// before a switch happens (0 still demands a strict improvement).
  double hysteresis = 0.05;
  std::vector<protocols::ProtocolKind> candidates;  // empty = all eight
};

/// The decision policy both adaptive loops derive from: telemetry in,
/// protocol switches out.  A loop feeds every completed operation to
/// observe(), runs a pass whenever pass_due() says so, and applies the
/// switches the pass hands to its callback.  Each pass re-prices the
/// incumbent on the same spec as the challengers, and a challenger wins
/// only by beating it by the hysteresis margin, so near-breakeven
/// workloads do not flap.  The tuner tracks each object's protocol
/// itself: it is the only issuer of switches, so its view is the
/// memory's once they are applied.
class SelfTuner {
 public:
  /// Hot objects (by EWMA rate) a per-object pass prices.
  static constexpr std::size_t kHotK = 8;
  /// Passes an object sits out after a switch: a live migration has a
  /// real cost (drain + seed) that re-pricing does not see.
  static constexpr std::uint64_t kCooldownPasses = 4;

  /// The tuner's view of an object's protocol.
  protocols::ProtocolKind object_protocol(ObjectId object) const {
    return current_[object];
  }
  /// Live access telemetry over every operation observed: hot set,
  /// activity centers, drift log (see obs/access_stats.h).
  const obs::AccessStats& telemetry() const { return stats_; }
  std::uint64_t passes() const { return passes_; }
  std::uint64_t switches() const { return switches_; }
  /// Wall time spent inside decision passes (the price of self-tuning;
  /// benches report it as adaptive.reclassify_ms).
  double reclassify_ms() const { return reclassify_ms_; }

 protected:
  SelfTuner(const Policy& policy, std::size_t num_clients,
            std::size_t num_objects, const fsm::CostModel& costs,
            protocols::ProtocolKind initial);
  ~SelfTuner() = default;

  /// One completed operation; client operations count toward the next
  /// pass.
  void observe(NodeId node, ObjectId object, fsm::OpKind op) {
    stats_.on_access(node, object, op);
    if (node < num_clients_) ++pending_;
  }
  /// True, once per decide_every client operations observed.
  bool pass_due();

  /// Per-object pass: each hot object past the observation floor and out
  /// of cooldown is priced on its recent mix; `switch_object` applies the
  /// winners.
  void decide_objects(
      const std::function<void(ObjectId, protocols::ProtocolKind)>&
          switch_object);
  /// Global pass: the memory-wide recent mix through the same gate;
  /// `switch_all` applies a winner to every object.
  void decide_global(
      const std::function<void(protocols::ProtocolKind)>& switch_all);

 private:
  /// The hysteresis gate: best candidate for `spec`, unless the incumbent
  /// is within the band — then the incumbent stays.
  protocols::ProtocolKind gate(protocols::ProtocolKind incumbent,
                               const workload::WorkloadSpec& spec);
  void end_pass(std::chrono::steady_clock::time_point start);

  Policy policy_;
  std::size_t num_clients_;
  AdaptiveSelector selector_;
  obs::AccessStats stats_;
  std::vector<protocols::ProtocolKind> current_;
  std::vector<std::uint64_t> cooldown_until_;  // pass index, per object
  std::uint64_t pending_ = 0;
  std::uint64_t passes_ = 0;
  std::uint64_t switches_ = 0;
  double reclassify_ms_ = 0.0;
};

/// A SharedMemory that runs the decision policy inline: every
/// decide_every client operations it re-selects either one protocol for
/// the whole memory, or (per_object mode) one per shared object, since
/// the paper's analysis treats objects independently.
class AdaptiveSharedMemory : public SelfTuner {
 public:
  struct Options {
    dsm::SharedMemory::Options memory;
    Policy policy;
    /// Select per object instead of globally.
    bool per_object = false;
  };

  explicit AdaptiveSharedMemory(const Options& options);

  std::uint64_t read(NodeId node, ObjectId object);
  void write(NodeId node, ObjectId object, std::uint64_t value);

  /// The memory underneath; switch protocols only through the tuner.
  dsm::SharedMemory& memory() { return memory_; }

  protocols::ProtocolKind current_protocol() const {
    return memory_.protocol();
  }
  std::size_t epochs() const { return passes(); }

 private:
  void tune(NodeId node, ObjectId object, fsm::OpKind op);

  bool per_object_;
  dsm::SharedMemory memory_;
};

}  // namespace drsm::adaptive
