// OnlineController: the self-tuning loop for the concurrent runtime.
//
// AdaptiveSharedMemory closes the selection loop inline — every operation
// runs on the caller's thread, so the epoch-boundary reclassification can
// simply run there too.  Under dsm::ConcurrentSharedMemory that is no
// longer true: operations complete on shard threads and client threads
// must never stall behind an analytic solve.  The controller therefore
// runs the loop *beside* the runtime:
//
//   client threads ──record()──▶ MpscRing ──▶ controller thread drains
//   into the tuner's telemetry ──▶ every decide_every records, a
//   per-object pass prices the hot set with the warm-started analytic
//   solver ──▶ ConcurrentSharedMemory::migrate(object, winner)
//
// record() is one lock-free ring push (drops are counted, not blocked on:
// telemetry is sampling, losing a record under burst cannot corrupt
// anything).  Decisions are the inline loop's own: both derive from
// SelfTuner (selector.h), with its hysteresis gate and per-object
// cooldown.  The shard applies migrations in ring order, so the tuner's
// view of each object's protocol converges without reading shard-owned
// state.  Use start()/stop() for the background thread, or poll() to run
// drain+decide synchronously in deterministic tests.  Stop the controller
// before the memory: migrate() throws after memory.stop().
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "adaptive/selector.h"
#include "dsm/concurrent.h"
#include "obs/metrics.h"
#include "sim/mpsc_ring.h"

namespace drsm::adaptive {

class OnlineController : public SelfTuner {
 public:
  struct Options {
    Policy policy;
    /// Post-stop metrics publication target (adaptive.* names).
    obs::MetricsRegistry* metrics = nullptr;
  };

  OnlineController(dsm::ConcurrentSharedMemory& memory,
                   const Options& options);
  ~OnlineController();

  OnlineController(const OnlineController&) = delete;
  OnlineController& operator=(const OnlineController&) = delete;

  /// One completed application operation (any thread; typically called
  /// from a session's grant handler).  Never blocks: a full ring drops
  /// the record and counts it.  The push must notify — the controller
  /// thread parks on the ring's gate when idle, and a silent push would
  /// leave it parked until stop() while the ring fills and drops.
  void record(NodeId node, ObjectId object, fsm::OpKind op) {
    if (!ring_.try_push(Record{node, object, op}))
      dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Background mode: a dedicated thread drains and decides until stop().
  void start();
  /// Stops the background thread, which first runs the passes due on
  /// what it drained; then drains records that arrived after it exited
  /// without deciding on them (the memory may be stopped by then) and
  /// publishes metrics.  Idempotent; the destructor calls it.
  void stop();

  /// Synchronous mode for deterministic tests: drains everything
  /// currently in the ring and runs a decision pass per decide_every
  /// records drained.  Must not race start()/stop().
  void poll();

  // object_protocol() is exact once the shard has applied every issued
  // migration, e.g. after memory.stop().
  std::uint64_t records() const { return records_; }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t migrations() const { return switches(); }

 private:
  struct Record {
    NodeId node = 0;
    ObjectId object = 0;
    fsm::OpKind op = fsm::OpKind::kRead;
  };

  static constexpr std::size_t kRingCapacity = 8192;

  std::size_t drain();
  void decide_due();
  void run();

  dsm::ConcurrentSharedMemory& memory_;
  obs::MetricsRegistry* metrics_;
  sim::MpscRing<Record> ring_;
  std::uint64_t records_ = 0;
  std::atomic<std::uint64_t> dropped_{0};
  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool stopped_ = false;
};

}  // namespace drsm::adaptive
