// Lock-free visited set for the parallel frontier BFS.
//
// The checker dedups on 64-bit canonical state keys (check/world.h), so
// the visited structure only needs *membership with first-claim*: claim()
// answers "did this call insert the key?" with one CAS on the owning
// slot.  The layout is the interning pattern of analytic/interner.h —
// fixed-capacity open addressing over power-of-two slot arrays — made
// concurrent: slots are atomic, claimed by compare-exchange from empty,
// and sharded by the key's high bits so concurrent claims rarely touch
// the same cache lines, let alone the same slot chain.
//
// Capacity is fixed *between barriers*, which is what makes lock-freedom
// this simple: no rehash ever happens while claimers run, so a slot once
// published never moves.  The checker grows the store only at its BFS
// depth barrier via reserve() — a serial rebuild, called when no claimer
// is in flight — sized for the worst-case successor count of the next
// depth, so claim() never runs out of slots mid-depth in practice.
// Running out anyway is reported via claim() == kOverflow and treated by
// the checker exactly like hitting the state cap.
//
// Plain first-claim makes the winner of a key depend on which claimer ran
// first.  claim_ranked() removes that: every key also carries a rank cell,
// and the key belongs to the lowest rank ever offered for it.  The checker
// ranks each successor by its (depth, entry, candidate) index, so the key's
// owner is the one a one-thread search would have inserted, on any
// schedule.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace drsm::check {

class StateStore {
 public:
  enum class Claim : std::uint8_t {
    kInserted,  // this call claimed the key (ranked: holds it for now)
    kPresent,   // some earlier (ranked: lower or equal) claim holds it
    kOverflow,  // the owning shard is full; treat as a state cap
  };

  /// Sizes the store for up to `expected_max` distinct keys.
  explicit StateStore(std::size_t expected_max);

  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  /// A ranked claim's outcome and the key's rank cell (null on
  /// kOverflow).  The cell stays valid until the next reserve().
  struct Ticket {
    Claim claim = Claim::kOverflow;
    const std::atomic<std::uint64_t>* rank = nullptr;
  };

  /// Thread-safe, lock-free.  Key 0 is remapped internally (the empty
  /// slot marker), so every 64-bit value is a valid key.  The first
  /// claimer of a key gets kInserted (claim_ranked with rank 0).
  Claim claim(std::uint64_t key);

  /// Thread-safe, lock-free.  Offers `key` at `rank`; the key belongs to
  /// the lowest rank offered for it.  kInserted: this rank is the lowest
  /// so far (the caller owns the key unless a lower rank arrives later);
  /// kPresent: an equal or lower rank holds it.  Once the claimers have
  /// synchronized, `*ticket.rank` is the owning rank.
  Ticket claim_ranked(std::uint64_t key, std::uint64_t rank);

  /// Grows capacity to hold `expected_max` keys (no-op if it already
  /// does), rehashing every claimed key into the new slot arrays.  NOT
  /// thread-safe: callers must guarantee no claim() is in flight — the
  /// checker calls this only at its depth barrier.
  void reserve(std::size_t expected_max);

  /// Keys the current slot arrays are sized for (the constructor /
  /// reserve() `expected_max` they satisfy, not the raw slot count).
  std::size_t capacity() const { return capacity_; }

  /// Number of successful inserts.  Exact once concurrent claimers have
  /// synchronized (e.g. at the BFS depth barrier); monotone otherwise.
  std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> key;
    std::atomic<std::uint64_t> rank;  // same cache line as its key
  };
  struct Shard {
    std::unique_ptr<Slot[]> slots;
  };

  static constexpr std::size_t kShards = 16;  // fixed power of two

  void allocate(std::size_t expected_max);
  // reserve()'s rehash path
  void insert_unlocked(std::uint64_t key, std::uint64_t rank);

  std::vector<Shard> shards_;
  std::size_t capacity_ = 0;         // expected_max the layout satisfies
  std::size_t slots_per_shard_ = 0;  // power of two
  std::size_t slot_mask_ = 0;
  std::size_t max_probe_ = 0;  // fill bound per shard before kOverflow
  std::atomic<std::size_t> size_{0};
};

}  // namespace drsm::check
