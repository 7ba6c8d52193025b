// Sharded sequencers: the true-concurrency execution substrate behind
// dsm::ConcurrentSharedMemory.
//
// Objects are partitioned across S shards by ObjectId (shard_of); each
// shard owns one SequentialRuntime per object it hosts and runs a batched
// event loop on a dedicated thread:
//
//   client threads ──MpscRing<ShardRequest>──▶ shard loop ──▶ per-object
//   SequentialRuntime::execute (atomic, run-to-quiescence) ──▶
//   MpscRing<GrantRecord> back to the issuing session.
//
// Both records are compact because every op moves one of each between
// cores: a 24 B request (32 B ring slot) and a 32 B grant record (40 B
// slot).  The request carries what the shard needs to execute plus the
// session's in-flight slot id; the grant carries the results plus that
// slot id.  Object, kind, ticket and issue time stay in the session's
// in-flight table, and the grant ring and gate of each node come from a
// table the shard is built with, so no per-request reply pointers travel.
//
// Both crossings are batched.  Sessions stage their requests and push
// each staged run with one MpscRing::try_push_batch (try_submit_batch).
// Each wakeup drains up to max_batch requests and executes them back to
// back (amortizing the park/unpark and dispatch overhead), collecting
// the grants per destination session; then each session gets its grants
// in one try_push_batch and exactly one wake.  Per-object operation
// order inside a shard is the request-ring order, which preserves each
// producer's program order (see mpsc_ring.h) — this is what lets the
// coherence oracle referee a live run in its strict kSequential mode, per
// object, without any cross-shard synchronization.
//
// A coherence tap attached to a shard observes all of the shard's objects
// through one sim::CoherenceTap; the shard relabels the per-runtime
// object id 0 to the global ObjectId before forwarding.  The tap is
// touched only by the shard's own thread (thread safety by confinement).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "protocols/protocol.h"
#include "sim/config.h"
#include "sim/mpsc_ring.h"
#include "sim/sequential.h"

namespace drsm::sim {

/// Which shard hosts `object` under S shards.  Modulo keeps consecutive
/// (Zipf-hot) objects on distinct shards.
inline std::size_t shard_of(ObjectId object, std::size_t num_shards) {
  return static_cast<std::size_t>(object) % num_shards;
}

/// A completed operation as its session's grant handler sees it.  The
/// rings never carry it: the session rebuilds it from the shard's
/// GrantRecord and its own in-flight table.
struct ShardGrant {
  ObjectId object = 0;
  fsm::OpKind op = fsm::OpKind::kRead;
  std::uint64_t value = 0;    // read: value returned; write: value stored
  std::uint64_t version = 0;  // read: version returned; write: latest seq
  Cost cost = 0.0;            // communication cost of the operation
  std::uint64_t ticket = 0;   // session-local issue ticket
  std::uint64_t issue_ns = 0; // session's issue timestamp (latency)
};

/// What a shard sends back per operation: only the results.  `slot` names
/// the issuing session's in-flight entry, which holds the operation's
/// object, kind, ticket and issue time.
struct GrantRecord {
  std::uint64_t value = 0;    // as ShardGrant::value
  std::uint64_t version = 0;  // as ShardGrant::version
  Cost cost = 0.0;
  std::uint32_t slot = 0;     // session in-flight slot id
};

using GrantRing = MpscRing<GrantRecord>;

struct ShardRequest {
  /// kOp is an application operation; kMigrate switches the object's
  /// runtime to the protocol in `value` (SequentialRuntime::migrate) in
  /// ring order — requests ahead of it run under the old protocol,
  /// requests behind it under the new one, and the per-object history
  /// stays sequential across the switch.  Migrations carry no reply and
  /// publish no grant.
  enum class Kind : std::uint8_t { kOp, kMigrate };
  Kind kind = Kind::kOp;
  fsm::OpKind op = fsm::OpKind::kRead;
  NodeId node = 0;            // issuing DSM node (protocol client id);
                              // also names the session whose grant ring
                              // and gate the shard replies to
  ObjectId object = 0;        // global object id
  std::uint32_t slot = 0;     // session in-flight slot id, echoed back
  std::uint64_t value = 0;    // kOp write: payload; kMigrate: the target
                              // protocols::ProtocolKind
};

// Every op moves one request slot to its shard and one grant slot back;
// these pin both crossings to a 32 B and a 40 B ring slot.
static_assert(sizeof(ShardRequest) <= 24, "request record grew");
static_assert(sizeof(GrantRecord) <= 32, "grant record grew");
static_assert(MpscRing<ShardRequest>::slot_bytes() <= 32);
static_assert(GrantRing::slot_bytes() <= 40);

/// One sequencer shard: request ring + dedicated batched event loop.
class SequencerShard {
 public:
  struct Options {
    protocols::ProtocolKind protocol =
        protocols::ProtocolKind::kWriteThrough;
    SystemConfig config;               // num_objects ignored (per-object
                                       // runtimes host one object each)
    std::vector<ObjectId> objects;     // global ids this shard owns
    std::size_t ring_capacity = 4096;  // request ring (backpressure knob)
    std::size_t max_batch = 256;       // K: requests drained per wakeup
    /// Yield-spins on an empty ring before futex-parking.  Producers are
    /// usually one scheduler quantum away from refilling the ring, so a
    /// yield is much cheaper than a park/notify round trip; only a
    /// genuinely idle shard pays the futex.
    std::size_t idle_spins = 4;
    CoherenceTap* tap = nullptr;       // live referee (optional)
    /// Where each node's grants go: one entry per client node (a session
    /// per node), indexed by ShardRequest::node.
    struct Reply {
      GrantRing* ring = nullptr;  // never full: the session window bounds
                                  // its occupancy
      EventGate* gate = nullptr;  // session park gate, woken per batch
    };
    std::vector<Reply> replies;
  };

  explicit SequencerShard(const Options& options);
  ~SequencerShard();

  SequencerShard(const SequencerShard&) = delete;
  SequencerShard& operator=(const SequencerShard&) = delete;

  void start();
  /// Asks the loop to exit once the ring is drained, then joins.
  void stop();

  /// Producer side (any thread): false when the ring is full — the caller
  /// pumps its grant ring and retries (never parks holding work, so the
  /// shard can always drain toward it).
  bool try_submit(const ShardRequest& request) {
    return ring_.try_push(request);
  }
  /// Batched try_submit: enqueues the longest prefix of requests[0, n)
  /// that fits, in order, with one tail claim and one shard wake; returns
  /// its length (0 = ring full).
  std::size_t try_submit_batch(const ShardRequest* requests, std::size_t n) {
    return ring_.try_push_batch(requests, n);
  }

  /// A failed protocol invariant inside the loop (drsm::Error) stops the
  /// shard and is reported here; empty = clean.
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  const std::string& error() const { return error_; }

  // -- post-join statistics (stable after stop()) ---------------------------
  struct Stats {
    std::uint64_t ops = 0;
    std::uint64_t migrations = 0;    // protocol switches executed
    Cost cost = 0.0;                 // includes migration seed-write costs
    std::uint64_t messages = 0;
    std::uint64_t batches = 0;       // non-empty wakeup drains
    std::uint64_t max_batch = 0;     // largest single drain
    std::uint64_t parks = 0;         // times the loop futex-slept on empty
    std::uint64_t idle_yields = 0;   // empty-ring yields that avoided a park
    std::uint64_t ring_full_stalls = 0;  // producer backpressure events
  };
  const Stats& stats() const { return stats_; }

  /// Latest write sequence number of a hosted object (diagnostics/tests).
  std::uint64_t object_version(ObjectId object) const;
  const char* state_name(ObjectId object, NodeId node) const;
  /// The protocol a hosted object currently runs (post-join diagnostics:
  /// reflects executed migrations, not ones still queued in the ring).
  protocols::ProtocolKind object_protocol(ObjectId object) const;

 private:
  class Relabel;

  void run();
  /// Executes one request; fills `grant` and returns true for an op,
  /// returns false for a migration (no reply).
  bool handle(const ShardRequest& request, GrantRecord& grant);
  /// Publishes one batch's grants for `node` with one push and one wake.
  void publish(NodeId node, std::vector<GrantRecord>& grants);
  std::size_t local_index(ObjectId object) const;

  Options options_;
  std::vector<std::unique_ptr<SequentialRuntime>> runtimes_;  // by local idx
  std::vector<std::unique_ptr<Relabel>> taps_;                // parallel
  std::vector<ObjectId> local_of_;  // global object -> local idx (dense)

  MpscRing<ShardRequest> ring_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::string error_;
  Stats stats_;
};

}  // namespace drsm::sim
