// dsm::ConcurrentSharedMemory under the coherence oracle's referee.
//
// Every workload here runs with real client threads against the sharded
// sequencers while check::ShardedOracle observes each shard live in its
// strict kSequential mode; a run only passes if the oracle is clean and
// the bookkeeping (issued == completed, shard op counts, versions) is
// exact.  Runs under TSan via the `concurrency` ctest label.
#include "dsm/concurrent.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "check/sharded_oracle.h"
#include "dsm/dsm.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/trajectory.h"

namespace drsm::dsm {
namespace {

using protocols::ProtocolKind;

struct RunResult {
  std::uint64_t ops = 0;
  bool oracle_ok = false;
  std::vector<std::string> violations;
};

/// One client thread's workload: seeded mixed ops, eject/sync only where
/// the protocol implements them, unique write values for the oracle.
void client_main(ConcurrentSharedMemory& mem, NodeId node,
                 std::uint64_t seed, std::size_t ops) {
  ConcurrentSharedMemory::Session& session = mem.session(node);
  Rng rng(seed);
  const ProtocolKind kind = mem.options().protocol;
  const std::size_t objects = mem.options().num_objects;
  const bool can_eject = protocols::supports(kind, fsm::OpKind::kEject);
  const bool can_sync = protocols::supports(kind, fsm::OpKind::kSync);
  for (std::size_t i = 0; i < ops; ++i) {
    const ObjectId object = static_cast<ObjectId>(rng.uniform_index(objects));
    const double dice = rng.uniform();
    if (dice < 0.55) {
      session.read(object);
    } else if (dice < 0.90 || (!can_eject && !can_sync)) {
      session.write_unique(object);
    } else if (dice < 0.95 && can_eject) {
      session.eject(object);
    } else if (can_sync) {
      session.sync(object);
    } else {
      session.read(object);
    }
  }
  session.drain();
}

RunResult run_workload(ProtocolKind kind, std::size_t clients,
                       std::size_t shards, std::size_t objects,
                       std::size_t ops_per_client, std::uint64_t seed,
                       std::size_t max_inflight = 64) {
  check::ShardedOracle oracle(shards);
  ConcurrentSharedMemory::Options options;
  options.protocol = kind;
  options.num_clients = clients;
  options.num_objects = objects;
  options.num_shards = shards;
  options.max_inflight = max_inflight;
  options.ring_capacity = 256;
  for (std::size_t s = 0; s < shards; ++s)
    options.shard_taps.push_back(oracle.tap(s));

  ConcurrentSharedMemory mem(options);
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c)
      threads.emplace_back(client_main, std::ref(mem),
                           static_cast<NodeId>(c), seed + c, ops_per_client);
    for (auto& t : threads) t.join();
  }
  mem.stop();
  oracle.finish();

  RunResult result;
  result.ops = mem.stats().ops;
  result.oracle_ok = oracle.ok();
  result.violations = oracle.violations();
  EXPECT_EQ(result.ops, clients * ops_per_client);
  for (std::size_t c = 0; c < clients; ++c) {
    EXPECT_EQ(mem.session(static_cast<NodeId>(c)).in_flight(), 0u);
    EXPECT_EQ(mem.session(static_cast<NodeId>(c)).issued(),
              mem.session(static_cast<NodeId>(c)).completed());
  }
  return result;
}

class AllProtocolsConcurrent : public ::testing::TestWithParam<ProtocolKind> {
};

INSTANTIATE_TEST_SUITE_P(AllProtocols, AllProtocolsConcurrent,
                         ::testing::ValuesIn(protocols::kAllProtocols),
                         [](const auto& info) {
                           std::string name =
                               protocols::to_string(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST_P(AllProtocolsConcurrent, OracleRefereesMixedWorkload) {
  const RunResult r =
      run_workload(GetParam(), /*clients=*/4, /*shards=*/4, /*objects=*/16,
                   /*ops_per_client=*/4000, /*seed=*/0xc0ffee);
  EXPECT_TRUE(r.oracle_ok);
  for (const std::string& v : r.violations) ADD_FAILURE() << v;
}

TEST_P(AllProtocolsConcurrent, SingleShardMatchesManyShards) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    const RunResult r =
        run_workload(GetParam(), /*clients=*/3, shards, /*objects=*/9,
                     /*ops_per_client=*/2000, /*seed=*/42);
    EXPECT_TRUE(r.oracle_ok) << shards << " shards";
    for (const std::string& v : r.violations) ADD_FAILURE() << v;
  }
}

// A tiny window plus a minimum-size request ring forces both backpressure
// paths (window park + submit retry) without losing or reordering ops.
TEST(ConcurrentRuntimeTest, BackpressureWithTinyWindowAndRing) {
  check::ShardedOracle oracle(2);
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kWriteOnce;
  options.num_clients = 4;
  options.num_objects = 8;
  options.num_shards = 2;
  options.max_inflight = 2;
  options.ring_capacity = 4;
  options.max_batch = 2;
  options.shard_taps = {oracle.tap(0), oracle.tap(1)};
  ConcurrentSharedMemory mem(options);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < 4; ++c)
      threads.emplace_back(client_main, std::ref(mem),
                           static_cast<NodeId>(c), 7 + c, 3000);
    for (auto& t : threads) t.join();
  }
  mem.stop();
  oracle.finish();
  EXPECT_TRUE(oracle.ok());
  EXPECT_EQ(mem.stats().ops, 4u * 3000u);
}

// Per-session-per-object reads must observe non-decreasing versions: the
// session's requests traverse one ring in program order and the shard
// serializes per object.
TEST(ConcurrentRuntimeTest, SessionObservesMonotoneVersionsPerObject) {
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kWriteThroughV;
  options.num_clients = 3;
  options.num_objects = 6;
  options.num_shards = 3;
  options.max_inflight = 32;
  ConcurrentSharedMemory mem(options);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < 3; ++c) {
      threads.emplace_back([&mem, c] {
        auto& session = mem.session(static_cast<NodeId>(c));
        std::vector<std::uint64_t> last_version(6, 0);
        session.set_grant_handler([&](const sim::ShardGrant& g) {
          if (g.op != fsm::OpKind::kRead) return;
          EXPECT_GE(g.version, last_version[g.object]);
          last_version[g.object] = g.version;
        });
        Rng rng(0xfeedu + c);
        for (int i = 0; i < 5000; ++i) {
          const ObjectId object =
              static_cast<ObjectId>(rng.uniform_index(6));
          if (rng.uniform() < 0.5)
            session.read(object);
          else
            session.write_unique(object);
        }
        session.drain();
      });
    }
    for (auto& t : threads) t.join();
  }
  mem.stop();
}

// sync() as a fence: a session that wrote, synced, and reads back with no
// other writers on that object must see its own last write.
TEST(ConcurrentRuntimeTest, SyncFencesOwnWrites) {
  for (const ProtocolKind kind : protocols::kAllProtocols) {
    if (!protocols::supports(kind, fsm::OpKind::kSync)) continue;
    ConcurrentSharedMemory::Options options;
    options.protocol = kind;
    options.num_clients = 3;
    options.num_objects = 3;  // object c is owned by writer c
    options.num_shards = 3;
    ConcurrentSharedMemory mem(options);
    {
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < 3; ++c) {
        threads.emplace_back([&mem, c] {
          auto& session = mem.session(static_cast<NodeId>(c));
          const ObjectId own = static_cast<ObjectId>(c);
          std::uint64_t last_written = 0;
          std::uint64_t own_read_value = 0;
          // Cross-reads on other writers' objects complete out of order
          // with the own-object read (different shards), so the fence
          // check keys on the grant's object id.
          session.set_grant_handler([&](const sim::ShardGrant& g) {
            if (g.op == fsm::OpKind::kRead && g.object == own)
              own_read_value = g.value;
          });
          for (int round = 0; round < 200; ++round) {
            for (int burst = 0; burst < 8; ++burst) {
              last_written = 1000 * (c + 1) + round * 8 + burst;
              session.write(own, last_written);
            }
            session.sync(own);
            session.read(own);
            session.drain();
            EXPECT_EQ(own_read_value, last_written);
            session.read(static_cast<ObjectId>((c + 1) % 3));
          }
          session.drain();
        });
      }
      for (auto& t : threads) t.join();
    }
    mem.stop();
  }
}

// Eject under contention: all clients hammer a single hot object per shard
// with read/write/eject; invalidate protocols must stay coherent.
TEST(ConcurrentRuntimeTest, EjectUnderContention) {
  for (const ProtocolKind kind : protocols::kAllProtocols) {
    if (!protocols::supports(kind, fsm::OpKind::kEject)) continue;
    check::ShardedOracle oracle(2);
    ConcurrentSharedMemory::Options options;
    options.protocol = kind;
    options.num_clients = 4;
    options.num_objects = 2;  // one hot object per shard
    options.num_shards = 2;
    options.max_inflight = 16;
    options.shard_taps = {oracle.tap(0), oracle.tap(1)};
    ConcurrentSharedMemory mem(options);
    {
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < 4; ++c) {
        threads.emplace_back([&mem, c] {
          auto& session = mem.session(static_cast<NodeId>(c));
          Rng rng(0xe1ec7u + c);
          for (int i = 0; i < 3000; ++i) {
            const ObjectId object =
                static_cast<ObjectId>(rng.uniform_index(2));
            const double dice = rng.uniform();
            if (dice < 0.4)
              session.read(object);
            else if (dice < 0.8)
              session.write_unique(object);
            else
              session.eject(object);
          }
          session.drain();
        });
      }
      for (auto& t : threads) t.join();
    }
    mem.stop();
    oracle.finish();
    EXPECT_TRUE(oracle.ok()) << protocols::to_string(kind);
    for (const std::string& v : oracle.violations()) ADD_FAILURE() << v;
  }
}

// With one session and one shard the grant stream is deterministic, so its
// trajectory hash is repeatable — and the per-op read values and total
// cost must match the strictly sequential dsm::SharedMemory executing the
// same program.
TEST(ConcurrentRuntimeTest, SingleSessionMatchesSequentialSharedMemory) {
  for (const ProtocolKind kind : protocols::kAllProtocols) {
    std::uint64_t hashes[2];
    for (int rep = 0; rep < 2; ++rep) {
      SharedMemory::Options seq_options;
      seq_options.protocol = kind;
      seq_options.num_clients = 2;
      seq_options.num_objects = 4;
      SharedMemory reference(seq_options);

      ConcurrentSharedMemory::Options options;
      options.protocol = kind;
      options.num_clients = 2;
      options.num_objects = 4;
      options.num_shards = 1;
      ConcurrentSharedMemory mem(options);
      auto& session = mem.session(0);

      TrajectoryHash trajectory;
      std::vector<sim::ShardGrant> grants;
      session.set_grant_handler([&](const sim::ShardGrant& g) {
        grants.push_back(g);
        trajectory.mix_grant(g.object, static_cast<std::uint64_t>(g.op),
                             g.value, g.version,
                             static_cast<std::uint64_t>(g.cost * 1024.0));
      });

      Rng rng(0xdecaf);
      std::vector<std::pair<bool, std::uint64_t>> program;  // (is_read, arg)
      for (int i = 0; i < 1500; ++i) {
        const ObjectId object = static_cast<ObjectId>(rng.uniform_index(4));
        const bool is_read = rng.uniform() < 0.5;
        program.emplace_back(is_read, object);
        if (is_read)
          session.read(object);
        else
          session.write(object, 0x100000 + i);
      }
      session.drain();
      mem.stop();

      ASSERT_EQ(grants.size(), program.size());
      Cost reference_cost = 0.0;
      for (std::size_t i = 0; i < program.size(); ++i) {
        const auto [is_read, object] = program[i];
        if (is_read) {
          const std::uint64_t expected =
              reference.read(0, static_cast<ObjectId>(object));
          EXPECT_EQ(grants[i].value, expected) << "op " << i;
        } else {
          reference.write(0, static_cast<ObjectId>(object),
                          grants[i].value);
        }
        reference_cost += reference.last_op_cost();
      }
      EXPECT_DOUBLE_EQ(mem.stats().cost, reference_cost);
      hashes[rep] = trajectory.hash;
    }
    EXPECT_EQ(hashes[0], hashes[1]) << protocols::to_string(kind);
  }
}

TEST(ConcurrentRuntimeTest, PublishesRuntimeMetrics) {
  obs::MetricsRegistry metrics;
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kBerkeley;
  options.num_clients = 2;
  options.num_objects = 4;
  options.num_shards = 2;
  options.metrics = &metrics;
  ConcurrentSharedMemory mem(options);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < 2; ++c)
      threads.emplace_back(client_main, std::ref(mem),
                           static_cast<NodeId>(c), 5 + c, 2000);
    for (auto& t : threads) t.join();
  }
  mem.stop();
  ASSERT_NE(metrics.find_counter("runtime.ops"), nullptr);
  EXPECT_EQ(metrics.find_counter("runtime.ops")->value(), 4000u);
  ASSERT_NE(metrics.find_gauge("runtime.ops_per_sec"), nullptr);
  EXPECT_GT(metrics.find_gauge("runtime.ops_per_sec")->value(), 0.0);
  ASSERT_NE(metrics.find_gauge("runtime.shards"), nullptr);
  EXPECT_EQ(metrics.find_gauge("runtime.shards")->value(), 2.0);
  ASSERT_NE(metrics.find_series("runtime.shard_ops"), nullptr);
  EXPECT_EQ(metrics.find_series("runtime.shard_ops")->points().size(), 2u);
}

// ---------------------------------------------------------------------------
// Staged ingress: a session stages its issues and hands each shard the
// whole batch at its next pump()/drain()/window wait.
// ---------------------------------------------------------------------------

// Ops issued below the window reach their shard on pump() alone: no drain,
// no window wait.
TEST(ConcurrentRuntimeTest, OpsBelowWindowCompleteOnPumpAlone) {
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kWriteThrough;
  options.num_clients = 1;
  options.num_objects = 8;
  options.num_shards = 2;
  options.max_inflight = 64;
  ConcurrentSharedMemory mem(options);
  auto& session = mem.session(0);
  for (ObjectId o = 0; o < 10; ++o) session.write(o % 8, 100 + o);
  EXPECT_EQ(session.in_flight(), 10u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (session.completed() < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    if (session.pump() == 0) std::this_thread::yield();
  }
  EXPECT_EQ(session.completed(), 10u);
  EXPECT_EQ(session.in_flight(), 0u);
  mem.stop();
  EXPECT_EQ(mem.stats().ops, 10u);
}

// A 4-slot request ring under a 64-op window: every flush is cut into
// partial pushes (counted as submit stalls) and still drains.
TEST(ConcurrentRuntimeTest, PartialFlushesThroughTinyRing) {
  check::ShardedOracle oracle(2);
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kBerkeley;
  options.num_clients = 2;
  options.num_objects = 4;
  options.num_shards = 2;
  options.max_inflight = 64;
  options.ring_capacity = 4;
  options.shard_taps = {oracle.tap(0), oracle.tap(1)};
  ConcurrentSharedMemory mem(options);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < 2; ++c)
      threads.emplace_back(client_main, std::ref(mem),
                           static_cast<NodeId>(c), 21 + c, 3000);
    for (auto& t : threads) t.join();
  }
  mem.stop();
  oracle.finish();
  EXPECT_TRUE(oracle.ok());
  for (const std::string& v : oracle.violations()) ADD_FAILURE() << v;
  EXPECT_EQ(mem.stats().ops, 2u * 3000u);
  EXPECT_GT(mem.stats().submit_stalls, 0u);
}

/// Holds its shard inside the first tap callback until release(): the
/// shard stops granting while the other shards go on.
class HoldingTap final : public sim::CoherenceTap {
 public:
  void on_write_issue(double, NodeId, ObjectId, std::uint64_t) override {
    hold();
  }
  void on_commit(double, NodeId, ObjectId, std::uint64_t,
                 std::uint64_t) override {
    hold();
  }
  void on_read(double, NodeId, ObjectId, std::uint64_t,
               std::uint64_t) override {
    hold();
  }
  bool holding() const { return holding_.load(std::memory_order_acquire); }
  void release() { released_.store(true, std::memory_order_release); }

 private:
  void hold() {
    holding_.store(true, std::memory_order_release);
    while (!released_.load(std::memory_order_acquire))
      std::this_thread::yield();
  }
  std::atomic<bool> holding_{false};
  std::atomic<bool> released_{false};
};

// Grants from different shards complete out of order, so a session's
// in-flight slots are freed and reused out of issue order.  Shard 0 is
// held with two of the session's four window slots while the other two
// cycle through shard 1 many times over; every grant must still carry
// the ticket, object, op and read value it was issued with.
TEST(ConcurrentRuntimeTest, OutOfOrderGrantsAcrossShardsReuseSlots) {
  constexpr std::size_t kWindow = 4;
  HoldingTap hold;
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kWriteThrough;
  options.num_clients = 1;
  options.num_objects = 4;  // objects 0, 2 on shard 0; 1, 3 on shard 1
  options.num_shards = 2;
  options.max_inflight = kWindow;
  options.shard_taps = {&hold, nullptr};
  ConcurrentSharedMemory mem(options);
  // Declared after mem, so it runs first on every exit path: a failed
  // assertion must not leave shard 0 held while mem joins it.
  struct Releaser {
    HoldingTap& tap;
    ~Releaser() { tap.release(); }
  } releaser{hold};
  auto& session = mem.session(0);

  struct Issued {
    ObjectId object;
    fsm::OpKind op;
    std::uint64_t value;  // write: value stored; read: value expected
  };
  std::map<std::uint64_t, Issued> pending;  // by ticket
  std::vector<std::uint64_t> latest(options.num_objects, 0);
  std::size_t shard1_granted = 0;
  session.set_grant_handler([&](const sim::ShardGrant& g) {
    const auto it = pending.find(g.ticket);
    ASSERT_NE(it, pending.end()) << "ticket " << g.ticket << " granted twice";
    EXPECT_EQ(g.object, it->second.object) << "ticket " << g.ticket;
    EXPECT_EQ(g.op, it->second.op) << "ticket " << g.ticket;
    EXPECT_EQ(g.value, it->second.value) << "ticket " << g.ticket;
    if (sim::shard_of(g.object, options.num_shards) == 1) ++shard1_granted;
    pending.erase(it);
  });
  // A session's ops on one object run in issue order, so a read returns
  // the session's last write to that object.
  auto write = [&](ObjectId object, std::uint64_t value) {
    const std::uint64_t ticket = session.issued() + 1;
    pending[ticket] = {object, fsm::OpKind::kWrite, value};
    latest[object] = value;
    EXPECT_EQ(session.write(object, value), ticket);
  };
  auto read = [&](ObjectId object) {
    const std::uint64_t ticket = session.issued() + 1;
    pending[ticket] = {object, fsm::OpKind::kRead, latest[object]};
    EXPECT_EQ(session.read(object), ticket);
  };

  write(0, 1000);
  read(0);
  session.pump();  // hands both to shard 0, which holds on the write
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!hold.holding() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  ASSERT_TRUE(hold.holding()) << "shard 0 never reached its tap";

  std::uint64_t value = 2000;
  for (ObjectId object = 1; shard1_granted < 4 * kWindow; object ^= 2) {
    write(object, ++value);  // objects 1 and 3, both on shard 1
    read(object);
  }
  EXPECT_TRUE(pending.count(1) && pending.count(2)) << "held ops granted";
  EXPECT_GE(session.in_flight(), 2u);

  hold.release();
  session.drain();
  EXPECT_EQ(session.in_flight(), 0u);
  EXPECT_TRUE(pending.empty()) << pending.size() << " ops never granted";
  EXPECT_EQ(session.completed(), session.issued());
}

/// Throws from inside the shard's protocol execution on the k-th write
/// issue, the way a failed protocol invariant would.
class FailingTap final : public sim::CoherenceTap {
 public:
  explicit FailingTap(std::size_t fail_at) : fail_at_(fail_at) {}
  void on_write_issue(double, NodeId, ObjectId, std::uint64_t) override {
    if (++writes_ == fail_at_) throw Error("injected shard failure");
  }
  void on_commit(double, NodeId, ObjectId, std::uint64_t,
                 std::uint64_t) override {}
  void on_read(double, NodeId, ObjectId, std::uint64_t,
               std::uint64_t) override {}

 private:
  std::size_t fail_at_;
  std::size_t writes_ = 0;
};

// A shard that fails mid-batch still grants every staged op behind the
// failure, so drain() unwinds and then re-raises the failure.
TEST(ConcurrentRuntimeTest, ShardFailureGrantsStagedOpsAndDrainRethrows) {
  FailingTap tap(5);
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kWriteThrough;
  options.num_clients = 1;
  options.num_objects = 2;
  options.num_shards = 1;
  options.max_inflight = 64;
  options.shard_taps = {&tap};
  ConcurrentSharedMemory mem(options);
  auto& session = mem.session(0);
  for (int i = 0; i < 40; ++i) session.write(i % 2, 1000 + i);
  EXPECT_THROW(session.drain(), Error);
  EXPECT_EQ(session.in_flight(), 0u);
  EXPECT_EQ(session.completed(), 40u);
  EXPECT_TRUE(mem.failed());
  EXPECT_NE(mem.error().find("injected shard failure"), std::string::npos);
  mem.stop();
  EXPECT_EQ(mem.stats().ops, 40u);
}

// stop() with requests a session staged but never flushed submits them:
// they run, count, and advance object versions.  Nothing is dropped.
TEST(ConcurrentRuntimeTest, StopSubmitsStagedRequests) {
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kWriteThrough;
  options.num_clients = 2;
  options.num_objects = 4;
  options.num_shards = 2;
  options.max_inflight = 64;
  options.ring_capacity = 4;  // forces stop()'s flush through backpressure
  ConcurrentSharedMemory mem(options);
  std::vector<std::uint64_t> writes(4, 0);
  for (NodeId c = 0; c < 2; ++c) {
    for (int i = 0; i < 30; ++i) {
      const ObjectId object = static_cast<ObjectId>((i + c) % 4);
      mem.session(c).write(object, 1 + i);
      ++writes[object];
    }
    mem.session(c).read(0);
  }
  mem.stop();
  EXPECT_EQ(mem.stats().ops, 2u * 31u);
  for (ObjectId o = 0; o < 4; ++o)
    EXPECT_EQ(mem.object_version(o), writes[o]) << "object " << o;
}

// After stop() no shard thread drains the request rings, so a migration
// could never run: migrate() throws instead of dropping the request (or,
// on a full ring, spinning forever).
TEST(ConcurrentRuntimeTest, MigrateAfterStopThrows) {
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kWriteThrough;
  options.num_clients = 1;
  options.num_objects = 2;
  options.num_shards = 1;
  ConcurrentSharedMemory mem(options);
  mem.session(0).write(0, 1);
  mem.session(0).drain();
  mem.stop();
  EXPECT_THROW(mem.migrate(0, ProtocolKind::kBerkeley), Error);
  EXPECT_EQ(mem.stats().migrations, 0u);
  EXPECT_EQ(mem.object_protocol(0), ProtocolKind::kWriteThrough);
}

TEST(ConcurrentRuntimeTest, RejectsUnsupportedOps) {
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kDragon;  // update protocol: no eject
  options.num_clients = 1;
  options.num_objects = 1;
  options.num_shards = 1;
  ConcurrentSharedMemory mem(options);
  EXPECT_THROW(mem.session(0).eject(0), Error);
  mem.session(0).drain();
  mem.stop();
}

}  // namespace
}  // namespace drsm::dsm
