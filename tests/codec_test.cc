// Malformed state keys (fsm::FieldCodec's decode views): every truncated
// or over-long key must end in a drsm::Error, never in an over-read or a
// silently half-restored machine.
//
//  * exact snapshots — each strict prefix of a reachable client's or
//    sequencer's encode_state bytes makes decode_state throw, and the
//    whole snapshot round-trips; states come from random walks of the
//    checker's World, so mid-recall machines with buffered messages are
//    covered too;
//  * quiescent keys — each strict prefix of a SequentialRuntime key, and
//    the key plus one trailing byte, makes restore_state throw;
//  * TableMachine still rejects an out-of-range state byte.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/world.h"
#include "fsm/table.h"
#include "protocols/protocol.h"
#include "sim/sequential.h"
#include "support/error.h"
#include "support/rng.h"

namespace drsm {
namespace {

using check::CheckConfig;
using check::World;
using fsm::OpKind;
using protocols::ProtocolKind;

constexpr std::size_t kClients = 3;

/// One uniformly chosen enabled action of `w`, applied in place.  Returns
/// false when nothing is enabled.
bool random_step(World& w, Rng& rng, std::size_t capacity) {
  struct Action {
    bool issue;
    NodeId node, src;
    OpKind op;
  };
  std::vector<Action> actions;
  const std::size_t nodes = w.num_nodes();
  for (NodeId c = 0; c + 1 < nodes; ++c) {
    if (w.pending[c] != 0 || w.disabled[c] != 0) continue;
    if (w.reads_left[c] > 0) actions.push_back({true, c, 0, OpKind::kRead});
    if (w.writes_left[c] > 0) actions.push_back({true, c, 0, OpKind::kWrite});
  }
  for (NodeId src = 0; src < nodes; ++src)
    for (NodeId dst = 0; dst < nodes; ++dst)
      if (!w.channels[src * nodes + dst].empty())
        actions.push_back({false, dst, src, OpKind::kRead});
  if (actions.empty()) return false;
  const Action& a = actions[rng.uniform_index(actions.size())];
  check::StepOutcome out;
  fsm::Message msg;
  if (a.issue)
    check::apply_issue(w, a.node, a.op, capacity, out, msg);
  else
    check::apply_deliver(w, a.src, a.node, capacity, out, msg);
  EXPECT_EQ(out.invariant, nullptr) << out.detail;
  return true;
}

/// Every strict prefix of `bytes` must make decode_state on a fresh
/// machine throw; the whole of it must decode and re-encode unchanged.
void expect_snapshot_strict(ProtocolKind kind, NodeId node,
                            const std::vector<std::uint8_t>& bytes,
                            const std::string& where) {
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto fresh = protocols::make_machine(kind, node, kClients);
    const std::uint8_t* p = bytes.data();
    EXPECT_THROW(fresh->decode_state(p, p + len), Error)
        << where << " prefix " << len << " of " << bytes.size();
  }
  auto fresh = protocols::make_machine(kind, node, kClients);
  const std::uint8_t* p = bytes.data();
  fresh->decode_state(p, p + bytes.size());
  EXPECT_EQ(p, bytes.data() + bytes.size()) << where;
  std::vector<std::uint8_t> again;
  fresh->encode_state(again);
  EXPECT_EQ(again, bytes) << where;
}

class MalformedKeyTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(MalformedKeyTest, TruncatedSnapshotsThrow) {
  CheckConfig cfg;
  cfg.protocol = GetParam();
  cfg.num_clients = kClients;
  cfg.reads_per_client = 2;
  cfg.writes_per_client = 2;
  std::size_t mid_operation = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 131);
    World w = check::make_initial_world(cfg);
    for (int step = 0; step < 40; ++step) {
      for (NodeId node = 0; node < w.num_nodes(); ++node) {
        std::vector<std::uint8_t> bytes;
        w.machines[node]->encode_state(bytes);
        expect_snapshot_strict(
            cfg.protocol, node, bytes,
            "seed " + std::to_string(seed) + " step " +
                std::to_string(step) + " node " + std::to_string(node));
        if (!w.machines[node]->quiescent()) ++mid_operation;
      }
      if (::testing::Test::HasFailure()) return;
      if (!random_step(w, rng, cfg.channel_capacity)) break;
    }
  }
  // The walks must reach mid-operation machines wherever the protocol has
  // them, or the transient and buffered-message paths go unexercised.
  if (cfg.protocol != ProtocolKind::kWriteThrough &&
      cfg.protocol != ProtocolKind::kDragon) {
    EXPECT_GT(mid_operation, 0u);
  }
}

TEST_P(MalformedKeyTest, TruncatedOrOverlongRuntimeKeysThrow) {
  sim::SystemConfig config;
  config.num_clients = kClients;
  const std::vector<NodeId> roster = {0, 1, 2};
  sim::SequentialRuntime runtime(GetParam(), config, roster);
  Rng rng(99);
  std::uint64_t value = 0;
  for (int step = 0; step < 60; ++step) {
    const NodeId node = static_cast<NodeId>(rng.uniform_index(kClients + 1));
    runtime.execute(node, rng.bernoulli(0.5) ? OpKind::kWrite : OpKind::kRead,
                    ++value);
    const std::vector<std::uint8_t> key = runtime.encode_state();
    sim::SequentialRuntime target(GetParam(), config, roster);
    for (std::size_t len = 0; len < key.size(); ++len) {
      const std::vector<std::uint8_t> prefix(key.begin(), key.begin() + len);
      EXPECT_THROW(target.restore_state(prefix), Error)
          << "step " << step << " prefix " << len << " of " << key.size();
    }
    std::vector<std::uint8_t> longer = key;
    longer.push_back(0);
    EXPECT_THROW(target.restore_state(longer), Error) << "step " << step;
    target.restore_state(key);
    EXPECT_EQ(target.encode_state(), key) << "step " << step;
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, MalformedKeyTest,
                         ::testing::ValuesIn(protocols::kAllProtocols),
                         [](const auto& info) {
                           std::string name =
                               protocols::to_string(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(MalformedKey, TableMachineRejectsOutOfRangeState) {
  const fsm::TransitionTable& table = fsm::write_through_client_table();
  fsm::TableMachine machine(&table);
  const std::vector<std::uint8_t> bad = {
      static_cast<std::uint8_t>(table.num_states())};
  const std::uint8_t* p = bad.data();
  EXPECT_THROW(machine.decode(p, p + bad.size()), Error);
  p = bad.data();
  EXPECT_THROW(machine.decode_state(p, p + bad.size()), Error);

  const std::vector<std::uint8_t> valid = {
      static_cast<std::uint8_t>(table.num_states() - 1)};
  p = valid.data();
  machine.decode(p, p + valid.size());
  EXPECT_EQ(machine.state(), table.num_states() - 1);
  EXPECT_THROW(machine.decode(p, p), Error);  // empty key
}

}  // namespace
}  // namespace drsm
