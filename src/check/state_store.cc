#include "check/state_store.h"

#include <algorithm>
#include <utility>

#include "support/hash.h"

namespace drsm::check {

namespace {

constexpr std::uint64_t kNoRank = ~std::uint64_t{0};

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Lowers a key's rank cell to `rank`; the call that lowers it holds the
/// key for now.
StateStore::Ticket lower(std::atomic<std::uint64_t>& cell,
                         std::uint64_t rank) {
  std::uint64_t old = cell.load(std::memory_order_relaxed);
  while (rank < old &&
         !cell.compare_exchange_weak(old, rank, std::memory_order_relaxed)) {
  }
  return {rank < old ? StateStore::Claim::kInserted
                     : StateStore::Claim::kPresent,
          &cell};
}

}  // namespace

StateStore::StateStore(std::size_t expected_max) { allocate(expected_max); }

void StateStore::allocate(std::size_t expected_max) {
  // ~2x headroom over the expected maximum keeps open-addressing probe
  // chains short; the minimum keeps tiny configurations cheap but real.
  const std::size_t total =
      next_pow2(std::max<std::size_t>(1024, expected_max * 2));
  capacity_ = expected_max;
  slots_per_shard_ = total / kShards;
  slot_mask_ = slots_per_shard_ - 1;
  // A shard refusing inserts beyond 7/8 fill bounds the worst-case probe
  // chain; the checker treats the refusal as its state cap.
  max_probe_ = slots_per_shard_ - slots_per_shard_ / 8;
  shards_.clear();
  shards_.resize(kShards);
  for (Shard& shard : shards_) {
    shard.slots = std::make_unique<Slot[]>(slots_per_shard_);
    for (std::size_t i = 0; i < slots_per_shard_; ++i) {
      shard.slots[i].key.store(0, std::memory_order_relaxed);
      shard.slots[i].rank.store(kNoRank, std::memory_order_relaxed);
    }
  }
}

void StateStore::reserve(std::size_t expected_max) {
  if (expected_max <= capacity_) return;
  std::vector<Shard> old = std::move(shards_);
  const std::size_t old_slots = slots_per_shard_;
  allocate(expected_max);
  // Exclusive access by contract, so plain relaxed rehash: every claimed
  // key lands exactly once in the fresh (strictly larger) arrays.
  for (const Shard& shard : old)
    for (std::size_t i = 0; i < old_slots; ++i) {
      const Slot& slot = shard.slots[i];
      const std::uint64_t key = slot.key.load(std::memory_order_relaxed);
      if (key != 0)
        insert_unlocked(key, slot.rank.load(std::memory_order_relaxed));
    }
}

void StateStore::insert_unlocked(std::uint64_t key, std::uint64_t rank) {
  const std::uint64_t mixed = hash_mix(key);
  Shard& shard = shards_[(mixed >> 60) & (kShards - 1)];
  std::size_t at = static_cast<std::size_t>(mixed) & slot_mask_;
  while (shard.slots[at].key.load(std::memory_order_relaxed) != 0)
    at = (at + 1) & slot_mask_;
  shard.slots[at].key.store(key, std::memory_order_relaxed);
  shard.slots[at].rank.store(rank, std::memory_order_relaxed);
}

StateStore::Claim StateStore::claim(std::uint64_t key) {
  return claim_ranked(key, 0).claim;
}

StateStore::Ticket StateStore::claim_ranked(std::uint64_t key,
                                            std::uint64_t rank) {
  if (key == 0) key = 1;  // 0 marks an empty slot
  // Re-mix before indexing: canonical keys are minima over permutation
  // orbits, which skews their high bits toward zero — raw top-bit
  // sharding would pile most keys into shard 0.  The bijective finalizer
  // restores a uniform spread without changing key identity.
  const std::uint64_t mixed = hash_mix(key);
  Shard& shard = shards_[(mixed >> 60) & (kShards - 1)];
  std::size_t at = static_cast<std::size_t>(mixed) & slot_mask_;
  for (std::size_t probe = 0; probe < max_probe_; ++probe) {
    Slot& slot = shard.slots[at];
    std::uint64_t seen = slot.key.load(std::memory_order_acquire);
    if (seen == 0) {
      if (slot.key.compare_exchange_strong(seen, key,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        size_.fetch_add(1, std::memory_order_relaxed);
        return lower(slot.rank, rank);
      }
      // A racing insert filled the slot: `seen` now holds its key.
    }
    if (seen == key) return lower(slot.rank, rank);
    at = (at + 1) & slot_mask_;
  }
  return {};
}

}  // namespace drsm::check
