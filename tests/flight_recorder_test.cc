// Flight-recorder post-mortem tests (check-labeled: these exercise the
// verification layer's failure paths).  Covers the bounded ring itself,
// the dump file format, and all three triggers: a coherence-oracle
// violation, a model-checker counterexample, and a failing DRSM_CHECK
// through the fatal hook.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "check/model_checker.h"
#include "check/oracle.h"
#include "fsm/mealy.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "support/error.h"

namespace drsm {
namespace {

using obs::FlightRecorder;
using obs::TraceEvent;

TraceEvent message_event(double time, NodeId src, NodeId dst) {
  TraceEvent event;
  event.time = time;
  event.kind = obs::EventKind::kMsgSend;
  event.node = src;
  event.peer = dst;
  event.msg_id = static_cast<std::uint64_t>(time) + 1;
  return event;
}

// First line of a dump, parsed; validates the header grammar as a side
// effect.
obs::JsonValue dump_header(const std::string& dump) {
  const std::size_t eol = dump.find('\n');
  EXPECT_NE(eol, std::string::npos);
  return obs::parse_json(dump.substr(0, eol));
}

TEST(FlightRecorderTest, RingRetainsTheMostRecentEvents) {
  FlightRecorder recorder(4);
  for (int i = 0; i < 10; ++i) recorder.on_event(message_event(i, 0, 1));
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_EQ(recorder.total(), 10u);
  // Oldest retained event is #6 (times 6..9 survive).
  EXPECT_EQ(recorder.ring().event(0).time, 6.0);

  const std::string dump = recorder.dump("", "unit test");
  const obs::JsonValue header = dump_header(dump);
  const obs::JsonValue* pm = header.find("postmortem");
  ASSERT_NE(pm, nullptr);
  EXPECT_EQ(pm->find("reason")->as_string(), "unit test");
  EXPECT_EQ(pm->find("retained")->as_number(), 4.0);
  EXPECT_EQ(pm->find("dropped")->as_number(), 6.0);
  EXPECT_EQ(pm->find("total")->as_number(), 10.0);
  // Header plus one JSONL line per retained event.
  std::size_t lines = 0;
  for (char c : dump)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 1u + 4u);
}

TEST(FlightRecorderTest, ForwardsToTheNextSink) {
  FlightRecorder recorder(8);
  obs::TraceRecorder downstream(8);
  recorder.set_next(&downstream);
  recorder.on_event(message_event(0, 0, 1));
  EXPECT_EQ(downstream.total(), 1u);
}

TEST(FlightRecorderTest, OracleViolationDumpsAPostMortem) {
  const std::string path =
      ::testing::TempDir() + "oracle_postmortem.jsonl";
  FlightRecorder recorder(64);
  check::CoherenceOracle oracle(check::OracleMode::kConcurrent);
  oracle.set_flight_recorder(&recorder, path);

  // Some traffic for the dump window, then an impossible history: two
  // issued writes and the sequencer rebinding version 1 between them.
  recorder.on_event(message_event(0, 0, 2));
  recorder.on_event(message_event(1, 2, 0));
  oracle.on_write_issue(0.0, 0, 0, 42);
  oracle.on_write_issue(1.0, 1, 0, 43);
  oracle.on_commit(2.0, 0, 0, 1, 42);
  ASSERT_TRUE(oracle.ok());
  oracle.on_commit(3.0, 1, 0, 1, 43);
  ASSERT_FALSE(oracle.ok());

  EXPECT_EQ(recorder.dumps(), 1u);
  EXPECT_EQ(recorder.last_dump_path(), path);
  const std::string dump = obs::read_file(path);
  const obs::JsonValue header = dump_header(dump);
  ASSERT_NE(header.find("postmortem"), nullptr);
  // The ring got the violation marker, and the dump shows the preceding
  // traffic.
  EXPECT_NE(dump.find("\"violation\""), std::string::npos);
  EXPECT_NE(dump.find("\"msg_send\""), std::string::npos);

  // Only the first violation dumps; later ones extend the list silently.
  oracle.on_write_issue(3.5, 1, 0, 44);
  oracle.on_commit(4.0, 1, 0, 1, 44);
  EXPECT_EQ(recorder.dumps(), 1u);
  EXPECT_GE(oracle.violations().size(), 2u);
}

// Swallows every message, so the checker's first issued operation pends
// forever and the deadlock invariant fires with a one-step trace.
class SwallowingMachine final : public fsm::ProtocolMachine {
 public:
  void on_message(fsm::MachineContext&, const fsm::Message&) override {}
  std::unique_ptr<fsm::ProtocolMachine> clone() const override {
    return std::make_unique<SwallowingMachine>(*this);
  }
  void visit_fields(fsm::FieldCodec&) override {}
  const char* state_name() const override { return "SWALLOW"; }
};

TEST(FlightRecorderTest, ModelCheckerCounterexampleDumps) {
  check::CheckConfig config;
  config.machine_factory = [](NodeId) {
    return std::make_unique<SwallowingMachine>();
  };
  config.num_clients = 2;
  config.check_exclusivity = false;
  config.probe_quiescent_reads = false;
  const check::CheckResult result = check::check_protocol(config);
  ASSERT_FALSE(result.ok());

  const std::string path =
      ::testing::TempDir() + "checker_postmortem.jsonl";
  FlightRecorder recorder(64);
  const std::string dump =
      check::dump_counterexample(result, recorder, path);
  ASSERT_FALSE(dump.empty());
  EXPECT_EQ(recorder.dumps(), 1u);
  EXPECT_EQ(obs::read_file(path), dump);

  const obs::JsonValue header = dump_header(dump);
  const obs::JsonValue* pm = header.find("postmortem");
  ASSERT_NE(pm, nullptr);
  // Reason names the violated invariant; the body replays the
  // counterexample steps and ends with the violation marker.
  EXPECT_NE(pm->find("reason")->as_string().find("deadlock"),
            std::string::npos);
  EXPECT_NE(dump.find("\"check_step\""), std::string::npos);
  EXPECT_NE(dump.find("\"violation\""), std::string::npos);
}

TEST(FlightRecorderTest, PassingResultProducesNoDump) {
  check::CheckConfig config;  // default write-through, 2 clients: passes
  const check::CheckResult result = check::check_protocol(config);
  ASSERT_TRUE(result.ok());
  FlightRecorder recorder(64);
  EXPECT_TRUE(
      check::dump_counterexample(result, recorder, "/nonexistent/x.jsonl")
          .empty());
  EXPECT_EQ(recorder.dumps(), 0u);
}

TEST(FlightRecorderTest, FatalCheckDumpsThroughTheHook) {
  const std::string path = ::testing::TempDir() + "fatal_postmortem.jsonl";
  {
    FlightRecorder recorder(16);
    recorder.install_fatal_dump(path);
    recorder.on_event(message_event(0, 1, 2));
    EXPECT_THROW(
        [] { DRSM_CHECK(false, "injected fatal for the recorder test"); }(),
        drsm::Error);
    EXPECT_EQ(recorder.dumps(), 1u);
  }
  const std::string dump = obs::read_file(path);
  EXPECT_NE(
      dump_header(dump).find("postmortem")->find("reason")->as_string().find(
          "injected fatal"),
      std::string::npos);
  EXPECT_NE(dump.find("\"msg_send\""), std::string::npos);

  // The recorder above is destroyed, so the hook is deregistered: a later
  // failure must not touch the file again.
  EXPECT_THROW([] { DRSM_CHECK(false, "post-deregistration"); }(),
               drsm::Error);
  EXPECT_NE(obs::read_file(path).find("injected fatal"), std::string::npos);
}

}  // namespace
}  // namespace drsm
