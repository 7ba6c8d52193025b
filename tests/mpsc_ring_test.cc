// MpscRing: FIFO/capacity semantics single-threaded, a differential check
// against the mutex+deque reference queue, and multi-producer stress with
// per-producer FIFO verification — the property the sharded runtime's
// per-object ordering rests on — for both single and batched pushes.
// Runs under TSan via the `concurrency` ctest label.
#include "sim/mpsc_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "support/rng.h"

namespace drsm::sim {
namespace {

TEST(MpscRingTest, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(MpscRing<int>(1).capacity(), 4u);
  EXPECT_EQ(MpscRing<int>(4).capacity(), 4u);
  EXPECT_EQ(MpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(MpscRing<int>(4096).capacity(), 4096u);
}

TEST(MpscRingTest, FifoSingleThreaded) {
  MpscRing<int> ring(16);
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(ring.try_push(i));
  int out[16];
  ASSERT_EQ(ring.pop_batch(out, 16), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], i);
  EXPECT_FALSE(ring.can_pop());
}

TEST(MpscRingTest, FullRingRejectsAndCountsStalls) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_EQ(ring.full_stalls(), 2u);

  int out[4];
  ASSERT_EQ(ring.pop_batch(out, 1), 1u);
  EXPECT_EQ(out[0], 0);
  EXPECT_TRUE(ring.try_push(4));  // freed slot is reusable
  ASSERT_EQ(ring.pop_batch(out, 4), 4u);
  EXPECT_EQ(out[3], 4);
}

TEST(MpscRingTest, WrapsManyTimes) {
  MpscRing<std::uint64_t> ring(8);
  std::uint64_t next_expected = 0;
  std::uint64_t pushed = 0;
  std::uint64_t out[8];
  for (int round = 0; round < 1000; ++round) {
    while (ring.try_push(pushed)) ++pushed;
    const std::size_t n = ring.pop_batch(out, 8);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], next_expected++);
  }
  EXPECT_EQ(next_expected, pushed);
}

// The reference queue and the ring must agree on every accept/reject and
// on every popped value for any interleaving of pushes and batched pops.
TEST(MpscRingTest, DifferentialAgainstMutexQueue) {
  MpscRing<std::uint64_t> ring(8);
  MutexQueue<std::uint64_t> reference(ring.capacity());
  Rng rng(0xd1ffu);
  std::uint64_t next_value = 0;
  std::uint64_t ring_out[8];
  std::uint64_t ref_out[8];
  for (int step = 0; step < 20000; ++step) {
    if (rng.uniform() < 0.55) {
      const std::uint64_t v = next_value++;
      EXPECT_EQ(ring.try_push(v), reference.try_push(v));
    } else {
      const std::size_t max = 1 + rng.uniform_index(8);
      const std::size_t n = ring.pop_batch(ring_out, max);
      ASSERT_EQ(n, reference.pop_batch(ref_out, max));
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ring_out[i], ref_out[i]);
    }
  }
}

// Multi-producer stress through a deliberately small ring: producers use
// the blocking push (parking on the space gate), the consumer parks on the
// empty gate — both wakeup paths and the full/empty transitions get
// hammered.  Per-producer FIFO and exactly-once delivery are asserted.
TEST(MpscRingTest, MultiProducerStressPreservesPerProducerFifo) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  MpscRing<std::uint64_t> ring(64);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i)
        ring.push(p << 32 | i);
    });
  }

  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t received = 0;
  std::uint64_t out[64];
  while (received < kProducers * kPerProducer) {
    const std::size_t n = ring.pop_batch(out, 64);
    if (n == 0) {
      const std::uint32_t ticket = ring.prepare_wait();
      if (ring.can_pop()) {
        ring.cancel_wait();
        continue;
      }
      ring.wait(ticket);
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t p = out[i] >> 32;
      const std::uint64_t seq = out[i] & 0xffffffffu;
      ASSERT_LT(p, kProducers);
      ASSERT_EQ(seq, next_seq[p]) << "producer " << p << " reordered";
      ++next_seq[p];
    }
    received += n;
  }
  for (auto& t : producers) t.join();
  for (std::size_t p = 0; p < kProducers; ++p)
    EXPECT_EQ(next_seq[p], kPerProducer);
  EXPECT_FALSE(ring.can_pop());
}

// A batch claims the longest free prefix: partial when the ring is nearly
// full, nothing (and a stall) when it is full, in order either way.
TEST(MpscRingTest, TryPushBatchClaimsFreePrefix) {
  MpscRing<int> ring(4);
  const int values[] = {10, 11, 12, 13, 14, 15};
  EXPECT_EQ(ring.try_push_batch(values, 0), 0u);
  EXPECT_EQ(ring.full_stalls(), 0u);
  ASSERT_EQ(ring.try_push_batch(values, 3), 3u);  // fits: no stall
  EXPECT_EQ(ring.full_stalls(), 0u);
  EXPECT_EQ(ring.try_push_batch(values + 3, 3), 1u);  // one slot left
  EXPECT_EQ(ring.full_stalls(), 1u);
  EXPECT_EQ(ring.try_push_batch(values + 4, 2), 0u);  // full
  EXPECT_EQ(ring.full_stalls(), 2u);
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_EQ(ring.full_stalls(), 3u);

  int out[4];
  ASSERT_EQ(ring.pop_batch(out, 2), 2u);
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[1], 11);
  EXPECT_EQ(ring.try_push_batch(values + 4, 2), 2u);  // the freed slots
  EXPECT_EQ(ring.full_stalls(), 3u);
  ASSERT_EQ(ring.pop_batch(out, 4), 4u);
  EXPECT_EQ(out[0], 12);
  EXPECT_EQ(out[1], 13);
  EXPECT_EQ(out[2], 14);
  EXPECT_EQ(out[3], 15);
  EXPECT_FALSE(ring.can_pop());

  // A batch longer than the whole ring fills it and stops there.
  int many[9];
  for (int i = 0; i < 9; ++i) many[i] = 100 + i;
  EXPECT_EQ(ring.try_push_batch(many, 9), 4u);
  ASSERT_EQ(ring.pop_batch(out, 4), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], 100 + i);
}

TEST(MpscRingTest, TryPushBatchWrapsManyTimes) {
  MpscRing<std::uint64_t> ring(4);
  Rng rng(0xba7cu);
  std::uint64_t next_expected = 0;
  std::uint64_t pushed = 0;
  std::uint64_t in[7];
  std::uint64_t out[4];
  for (int round = 0; round < 5000; ++round) {
    const std::size_t want = 1 + rng.uniform_index(7);
    for (std::size_t i = 0; i < want; ++i) in[i] = pushed + i;
    pushed += ring.try_push_batch(in, want);
    const std::size_t n = ring.pop_batch(out, 1 + rng.uniform_index(4));
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], next_expected++);
  }
  while (const std::size_t n = ring.pop_batch(out, 4))
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], next_expected++);
  EXPECT_EQ(next_expected, pushed);
  EXPECT_GT(pushed, 5000u);  // the slots were reused many times over
}

// Batched producers against a parking consumer through a small ring:
// every value arrives exactly once and in its producer's order.  A
// watchdog turns a lost wakeup into a failure instead of a hang: past the
// deadline it flags the run and pokes the consumer loose.
TEST(MpscRingTest, MultiProducerBatchStressPreservesPerProducerFifo) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  constexpr auto kDeadline = std::chrono::seconds(60);
  MpscRing<std::uint64_t> ring(16);
  std::atomic<bool> done{false};
  std::atomic<bool> timed_out{false};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, &timed_out, p] {
      Rng rng(0x5eed + p);
      std::uint64_t batch[8];
      std::uint64_t next = 0;
      while (next < kPerProducer && !timed_out.load()) {
        const std::size_t want = static_cast<std::size_t>(std::min<
            std::uint64_t>(1 + rng.uniform_index(8), kPerProducer - next));
        for (std::size_t i = 0; i < want; ++i) batch[i] = p << 32 | (next + i);
        std::size_t sent = 0;
        while (sent < want && !timed_out.load()) {
          sent += ring.try_push_batch(batch + sent, want - sent);
          if (sent < want) std::this_thread::yield();
        }
        next += sent;
      }
    });
  }
  std::thread watchdog([&] {
    const auto deadline = std::chrono::steady_clock::now() + kDeadline;
    while (!done.load()) {
      if (std::chrono::steady_clock::now() >= deadline) {
        timed_out.store(true);
        ring.poke();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t received = 0;
  std::uint64_t out[16];
  bool reordered = false;
  while (received < kProducers * kPerProducer && !timed_out.load()) {
    const std::size_t n = ring.pop_batch(out, 16);
    if (n == 0) {
      const std::uint32_t ticket = ring.prepare_wait();
      if (ring.can_pop() || timed_out.load()) {
        ring.cancel_wait();
        continue;
      }
      ring.wait(ticket);
      continue;
    }
    for (std::size_t i = 0; i < n && !reordered; ++i) {
      const std::size_t p = out[i] >> 32;
      const std::uint64_t seq = out[i] & 0xffffffffu;
      if (p >= kProducers || seq != next_seq[p]) {
        ADD_FAILURE() << "value " << out[i] << " out of producer order";
        reordered = true;
        timed_out.store(true);  // releases the producers
        break;
      }
      ++next_seq[p];
    }
    received += n;
  }
  done.store(true);
  watchdog.join();
  for (auto& t : producers) t.join();
  ASSERT_FALSE(reordered);
  ASSERT_FALSE(timed_out.load())
      << "consumer stuck after " << received << " values: lost wakeup";
  for (std::size_t p = 0; p < kProducers; ++p)
    EXPECT_EQ(next_seq[p], kPerProducer);
  EXPECT_FALSE(ring.can_pop());
}

// poke() must dislodge a consumer parked on an empty ring even though no
// data arrives — the shutdown path of every loop built on the ring.
TEST(MpscRingTest, PokeWakesParkedConsumer) {
  MpscRing<int> ring(8);
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    const std::uint32_t ticket = ring.prepare_wait();
    if (!ring.can_pop()) ring.wait(ticket);
    else ring.cancel_wait();
    woke.store(true);
  });
  while (!woke.load()) {
    ring.poke();
    std::this_thread::yield();
  }
  consumer.join();
  EXPECT_TRUE(woke.load());
}

}  // namespace
}  // namespace drsm::sim
