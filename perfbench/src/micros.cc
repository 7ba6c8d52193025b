// Layer micro-benchmarks of a traced run.  Each is a fixed, seed-free
// input so its number compares across runs and workloads:
//
//  * ring.push_pop_ns — sim::MpscRing items per ns, one producer thread
//    and one consumer thread streaming through a 1024-slot ring;
//  * ring.handoff_ns — one-way cross-thread time, half a ping-pong round
//    trip through two rings (both sides poll);
//  * gate.wake_ns — sim::EventGate: notify() to the parked waiter's
//    return;
//  * codec.<protocol>.{encode_state,encode_relabeled,decode_state}_ns —
//    the machines' codec virtuals on a fixed sample of reachable states;
//  * store.claim_ns — check::StateStore::claim on a fixed key stream with
//    one key in two already present.
//
// Each reports the median of several repetitions.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/state_store.h"
#include "protocols/protocol.h"
#include "sim/mpsc_ring.h"
#include "sim/sequential.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace drsm;

constexpr int kReps = 5;

double ring_push_pop_ns() {
  constexpr std::size_t kItems = 1 << 20;
  sim::MpscRing<std::uint64_t> ring(1024);
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kItems; ++i)
      while (!ring.try_push(i, /*silent=*/true)) std::this_thread::yield();
  });
  const std::uint64_t t0 = now_ns();
  std::uint64_t received = 0;
  std::uint64_t buf[256];
  while (received < kItems) {
    const std::size_t n = ring.pop_batch(buf, 256);
    if (n == 0) std::this_thread::yield();
    received += n;
  }
  const std::uint64_t t1 = now_ns();
  producer.join();
  return static_cast<double>(t1 - t0) / static_cast<double>(kItems);
}

double ring_handoff_ns() {
  constexpr std::size_t kRoundTrips = 1 << 16;
  sim::MpscRing<std::uint64_t> ping(64), pong(64);
  std::thread peer([&] {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < kRoundTrips; ++i) {
      while (ping.pop_batch(&v, 1) == 0) {
      }
      while (!pong.try_push(v + 1, true)) {
      }
    }
  });
  std::uint64_t v = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < kRoundTrips; ++i) {
    while (!ping.try_push(v, true)) {
    }
    while (pong.pop_batch(&v, 1) == 0) {
    }
  }
  const std::uint64_t t1 = now_ns();
  peer.join();
  return static_cast<double>(t1 - t0) / (2.0 * kRoundTrips);
}

double gate_wake_ns() {
  constexpr std::uint32_t kWakes = 400;
  sim::EventGate gate;
  std::atomic<std::uint32_t> turn{0};
  std::atomic<std::uint32_t> woke{0};
  std::atomic<bool> parked{false};
  std::vector<std::uint64_t> woke_at(kWakes + 1, 0);
  std::thread waiter([&] {
    for (std::uint32_t i = 1; i <= kWakes; ++i) {
      for (;;) {
        const std::uint32_t ticket = gate.prepare_wait();
        if (turn.load(std::memory_order_acquire) >= i) {
          gate.cancel_wait();
          break;
        }
        parked.store(true, std::memory_order_release);
        gate.wait(ticket);
      }
      woke_at[i] = now_ns();
      parked.store(false, std::memory_order_relaxed);
      woke.store(i, std::memory_order_release);
    }
  });
  std::vector<double> wakes;
  for (std::uint32_t i = 1; i <= kWakes; ++i) {
    while (!parked.load(std::memory_order_acquire)) std::this_thread::yield();
    // Give the waiter time to go from announcing itself to sleeping.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    const std::uint64_t t0 = now_ns();
    turn.store(i, std::memory_order_release);
    gate.notify();
    while (woke.load(std::memory_order_acquire) < i) std::this_thread::yield();
    wakes.push_back(static_cast<double>(woke_at[i] - t0));
  }
  waiter.join();
  return median(wakes);
}

/// Reachable machine states of `kind` at N=3: every machine's state after
/// each of 64 seeded operations, captured by cloning through the factory
/// the runtime was built with.
std::vector<std::unique_ptr<fsm::ProtocolMachine>> sample_states(
    protocols::ProtocolKind kind) {
  constexpr std::size_t kClients = 3;
  std::vector<fsm::ProtocolMachine*> live;
  sim::SystemConfig config;
  config.num_clients = kClients;
  std::vector<NodeId> roster;
  for (NodeId n = 0; n < kClients; ++n) roster.push_back(n);
  sim::SequentialRuntime runtime(
      [&](NodeId node) {
        auto machine = protocols::make_machine(kind, node, kClients);
        live.push_back(machine.get());
        return machine;
      },
      config, roster);
  Rng rng(0xC0DEC);
  std::vector<std::unique_ptr<fsm::ProtocolMachine>> sample;
  std::uint64_t value = 0;
  for (int op = 0; op < 64; ++op) {
    const NodeId node = static_cast<NodeId>(rng.uniform_index(kClients));
    if (rng.uniform() < 0.5)
      runtime.execute(node, fsm::OpKind::kRead);
    else
      runtime.execute(node, fsm::OpKind::kWrite, ++value);
    for (const fsm::ProtocolMachine* m : live) sample.push_back(m->clone());
  }
  return sample;
}

void codec_micros(protocols::ProtocolKind kind, Outcome& out,
                  bool& round_trip_ok) {
  const auto sample = sample_states(kind);
  constexpr std::size_t kClients = 3;
  const NodeId map[kClients] = {1, 2, 0};
  constexpr int kLoops = 200;
  std::vector<std::uint8_t> buf;
  buf.reserve(256);
  std::vector<std::vector<std::uint8_t>> encoded(sample.size());
  std::vector<std::unique_ptr<fsm::ProtocolMachine>> fresh;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sample[i]->encode_state(encoded[i]);
    // Sample order is roster order repeated: machine i runs on node i % 4.
    fresh.push_back(protocols::make_machine(
        kind, static_cast<NodeId>(i % (kClients + 1)), kClients));
  }
  std::vector<double> enc, rel, dec;
  std::size_t sink = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::uint64_t t0 = now_ns();
    for (int loop = 0; loop < kLoops; ++loop)
      for (const auto& m : sample) {
        buf.clear();
        m->encode_state(buf);
        sink += buf.size();
      }
    std::uint64_t t1 = now_ns();
    const double calls = static_cast<double>(kLoops * sample.size());
    enc.push_back(static_cast<double>(t1 - t0) / calls);
    t0 = now_ns();
    for (int loop = 0; loop < kLoops; ++loop)
      for (const auto& m : sample) {
        buf.clear();
        m->encode_relabeled(buf, map, kClients);
        sink += buf.size();
      }
    t1 = now_ns();
    rel.push_back(static_cast<double>(t1 - t0) / calls);
    t0 = now_ns();
    for (int loop = 0; loop < kLoops; ++loop)
      for (std::size_t i = 0; i < sample.size(); ++i) {
        const std::uint8_t* p = encoded[i].data();
        sink += fresh[i]->decode_state(p, p + encoded[i].size());
      }
    t1 = now_ns();
    dec.push_back(static_cast<double>(t1 - t0) / calls);
  }
  for (std::size_t i = 0; i < sample.size(); ++i) {
    buf.clear();
    fresh[i]->encode_state(buf);
    round_trip_ok = round_trip_ok && buf == encoded[i];
  }
  std::string name = protocols::to_string(kind);
  out.set_layer("codec." + name + ".encode_state_ns", median(enc));
  out.set_layer("codec." + name + ".encode_relabeled_ns", median(rel));
  out.set_layer("codec." + name + ".decode_state_ns", median(dec));
  if (sink == 0) out.check("codec.sample_nonempty", false, "empty sample");
}

double store_claim_ns(bool& first_claims_ok) {
  constexpr std::size_t kKeys = 1 << 20;
  Rng rng(0x57A7E);
  std::vector<std::uint64_t> keys(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i)
    keys[i] = i % 2 == 0 || i == 1 ? rng.next() : keys[rng.uniform_index(i)];
  std::vector<double> per_claim;
  for (int rep = 0; rep < kReps; ++rep) {
    check::StateStore store(kKeys);
    std::size_t inserted = 0;
    const std::uint64_t t0 = now_ns();
    for (const std::uint64_t key : keys)
      inserted += store.claim(key) == check::StateStore::Claim::kInserted;
    const std::uint64_t t1 = now_ns();
    per_claim.push_back(static_cast<double>(t1 - t0) / kKeys);
    first_claims_ok = first_claims_ok && inserted == store.size();
  }
  return median(per_claim);
}

template <class F>
double median_of(F&& f) {
  std::vector<double> v;
  for (int rep = 0; rep < kReps; ++rep) v.push_back(f());
  return median(v);
}

}  // namespace

void run_micros(Outcome& out) {
  out.set_layer("ring.push_pop_ns", median_of(ring_push_pop_ns));
  out.set_layer("ring.handoff_ns", median_of(ring_handoff_ns));
  out.set_layer("gate.wake_ns", gate_wake_ns());
  bool round_trip_ok = true;
  for (const protocols::ProtocolKind kind : protocols::kAllProtocols)
    codec_micros(kind, out, round_trip_ok);
  out.check("codec.decode_state_round_trips", round_trip_ok,
            "decode_state(encode_state(s)) re-encodes to the same bytes");
  bool first_claims_ok = true;
  out.set_layer("store.claim_ns", store_claim_ns(first_claims_ok));
  out.check("store.claims_match_size", first_claims_ok,
            "kInserted claims equal StateStore::size()");
}

}  // namespace perfbench
