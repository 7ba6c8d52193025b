// Two search engines behind one entry point:
//
//  * check_full — the exact reference: serial BFS deduplicating on full
//    state-key bytes, every enabled action expanded at every state.  This
//    is the engine the reduction-soundness tests compare against.
//  * check_reduced — the scaled engine: symmetry-canonicalized 64-bit
//    keys in a lock-free visited set, pure-absorption partial-order
//    reduction, and per-depth parallel expansion over exec::ThreadPool.
//    Each BFS depth is a barrier: workers expand frontier entries into
//    per-entry result buffers, claiming each successor's key ranked by its
//    (depth, entry, candidate) index, so the lowest index owns each key
//    whatever the schedule; then a serial in-order merge keeps the owners,
//    assigns tree nodes and picks the lowest-index violation.  Every
//    reported count and counterexample equals the one-thread run's.
//
// The state semantics both engines share — World, step application,
// invariants, probes, canonicalization, the snapshot codec — live in
// check/world.h.
#include "check/model_checker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <set>
#include <unordered_set>
#include <utility>

#include "check/state_store.h"
#include "check/world.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "support/error.h"
#include "support/hash.h"

namespace drsm::check {
namespace {

using fsm::Message;
using fsm::OpKind;

struct TreeNode {
  std::int64_t parent = -1;
  CheckStep step;
  std::size_t depth = 0;
};

std::vector<CheckStep> trace_to(const std::vector<TreeNode>& tree,
                                std::int64_t parent, const CheckStep* last) {
  std::vector<CheckStep> steps;
  if (last != nullptr) steps.push_back(*last);
  for (std::int64_t at = parent; at > 0; at = tree[at].parent)
    steps.push_back(tree[at].step);
  std::reverse(steps.begin(), steps.end());
  return steps;
}

/// Successor candidates at `w`: every issueable (client, op) pair and
/// every nonempty channel head, in a fixed deterministic order.
struct Candidate {
  CheckStep::Kind kind = CheckStep::Kind::kIssue;
  NodeId node = 0;
  NodeId src = 0;
  OpKind op = OpKind::kRead;
};

void enumerate_candidates(const World& w, std::vector<Candidate>& out) {
  out.clear();
  const std::size_t nodes = w.num_nodes();
  const std::size_t clients = nodes - 1;
  for (NodeId c = 0; c < clients; ++c) {
    if (w.pending[c] != 0 || w.disabled[c] != 0) continue;
    if (w.reads_left[c] > 0)
      out.push_back({CheckStep::Kind::kIssue, c, 0, OpKind::kRead});
    if (w.writes_left[c] > 0)
      out.push_back({CheckStep::Kind::kIssue, c, 0, OpKind::kWrite});
  }
  for (NodeId src = 0; src < nodes; ++src)
    for (NodeId dst = 0; dst < nodes; ++dst)
      if (!w.channels[src * nodes + dst].empty())
        out.push_back({CheckStep::Kind::kDeliver, dst, src, OpKind::kRead});
}

/// The exact serial reference engine (CheckConfig::Expansion::
/// kFullExpansion): the pre-reduction checker, kept verbatim in
/// behaviour — full-key dedup, no reductions, single thread.
CheckResult check_full(const CheckConfig& cfg) {
  World init = make_initial_world(cfg);

  CheckResult res;
  std::vector<TreeNode> tree;
  std::unordered_set<std::string> visited;
  std::deque<std::pair<World, std::size_t>> frontier;
  std::set<std::string> names;

  auto record_names = [&](const World& w) {
    for (const auto& machine : w.machines) names.insert(machine->state_name());
  };
  auto fail = [&](std::int64_t parent, const CheckStep* last,
                  const char* invariant, std::string detail) {
    res.violations.push_back({invariant, std::move(detail)});
    res.counterexample = trace_to(tree, parent, last);
  };
  auto probe_state = [&](const World& w, std::int64_t parent,
                         const CheckStep* last) {
    if (!cfg.probe_quiescent_reads) return true;
    if (!channels_empty(w) || any_pending(w)) return true;
    for (NodeId client = 0; client < cfg.num_clients; ++client) {
      ++res.probes;
      std::string detail;
      const char* inv = probe_read(w, client, cfg, detail);
      if (inv != nullptr) {
        fail(parent, last, inv, std::move(detail));
        return false;
      }
    }
    return true;
  };

  std::vector<std::uint8_t> key;
  encode_key(init, key);
  visited.emplace(key.begin(), key.end());
  tree.push_back({});
  record_names(init);
  {
    std::string detail;
    const char* inv = check_state(init, cfg, detail);
    if (inv != nullptr)
      fail(0, nullptr, inv, std::move(detail));
    else
      probe_state(init, 0, nullptr);
  }
  if (res.violations.empty()) frontier.emplace_back(std::move(init), 0);

  std::vector<Candidate> candidates;
  while (!frontier.empty() && res.violations.empty()) {
    auto [w, index] = std::move(frontier.front());
    frontier.pop_front();
    const std::size_t depth = tree[index].depth;
    enumerate_candidates(w, candidates);

    for (const Candidate& cand : candidates) {
      World s = w.clone();
      StepOutcome out;
      CheckStep step;
      step.kind = cand.kind;
      step.node = cand.node;
      ++res.transitions;
      if (cand.kind == CheckStep::Kind::kIssue) {
        step.op = cand.op;
        apply_issue(s, cand.node, cand.op, cfg.channel_capacity, out,
                    step.msg);
      } else {
        step.src = cand.src;
        apply_deliver(s, cand.src, cand.node, cfg.channel_capacity, out,
                      step.msg);
      }
      if (out.truncated) {
        ++res.truncated;
        continue;
      }
      if (out.invariant != nullptr) {
        fail(static_cast<std::int64_t>(index), &step, out.invariant,
             std::move(out.detail));
        break;
      }
      {
        std::string detail;
        const char* inv = check_state(s, cfg, detail);
        if (inv != nullptr) {
          fail(static_cast<std::int64_t>(index), &step, inv,
               std::move(detail));
          break;
        }
      }
      encode_key(s, key);
      if (!visited.emplace(key.begin(), key.end()).second) continue;
      record_names(s);
      if (!probe_state(s, static_cast<std::int64_t>(index), &step)) break;
      if (visited.size() >= cfg.max_states) {
        res.hit_state_cap = true;
        break;
      }
      tree.push_back({static_cast<std::int64_t>(index), step, depth + 1});
      res.max_depth = std::max(res.max_depth, depth + 1);
      frontier.emplace_back(std::move(s), tree.size() - 1);
    }
    if (res.hit_state_cap) break;
  }

  res.states = visited.size();
  res.visited_state_names.assign(names.begin(), names.end());
  return res;
}

/// One queued frontier state: its exact byte snapshot plus its
/// search-tree index.
struct Entry {
  std::vector<std::uint8_t> bytes;
  std::size_t tree = 0;
};

/// One successor whose ranked claim held its key when the worker made
/// it, pending the serial merge: if a lower rank took the key later in
/// the depth, the merge drops it; otherwise it assigns its tree node.
struct SuccessorOut {
  CheckStep step;
  std::uint64_t rank = 0;
  const std::atomic<std::uint64_t>* owner = nullptr;  // the key's rank cell
  bool nontrivial = false;  // a non-identity permutation gave the key
  std::vector<std::uint8_t> bytes;
  std::vector<const char*> names;  // state_name() literals
  std::size_t probes = 0;
  const char* probe_invariant = nullptr;
  std::string probe_detail;
};

/// Everything a worker learned expanding one frontier entry.  Workers
/// write only their own slot; the depth-barrier merge folds the slots in
/// entry order.
struct EntryResult {
  std::vector<SuccessorOut> succs;
  std::size_t transitions = 0;
  std::size_t truncated = 0;
  std::size_t por_pruned = 0;
  std::size_t symmetry_hits = 0;  // dedups the worker already saw
  const char* invariant = nullptr;  // step/state violation ending the
  std::string detail;               // entry's candidates (after succs)
  CheckStep bad_step;
  bool overflow = false;
};

/// The scaled engine: canonical-hash dedup (lock-free StateStore),
/// pure-absorption POR, per-depth parallel expansion, a frontier of byte
/// snapshots.
CheckResult check_reduced(const CheckConfig& cfg) {
  World init = make_initial_world(cfg);

  // The reductions require trusted state encodings, so both are gated on
  // the stock protocol machines (a machine_factory can inject fragments
  // whose visit_fields declares less state than they hold).
  // trust_factory_encodings lifts the gate for factories whose machines
  // declare all of it (the migration wrappers).
  const bool trusted = !cfg.machine_factory || cfg.trust_factory_encodings;
  const bool symmetry =
      cfg.symmetry_reduction && trusted && cfg.num_clients >= 2;
  const bool por = cfg.partial_order_reduction && trusted;

  std::vector<std::vector<NodeId>> perms;
  if (symmetry) perms = client_permutations(cfg.num_clients);

  // Hash of the dedup key: canonical over the permutation orbit when
  // symmetry applies, plain behaviour key otherwise.
  auto state_hash = [&](const World& w, std::vector<std::uint8_t>& scratch,
                        bool& nontrivial) {
    if (symmetry) {
      const CanonicalHash ch = canonical_hash(w, perms, scratch);
      nontrivial = ch.nontrivial;
      return ch.hash;
    }
    nontrivial = false;
    encode_key(w, scratch);
    return hash_bytes(scratch.data(), scratch.size());
  };

  exec::ThreadPool pool(cfg.threads);

  CheckResult res;
  res.symmetry_applied = symmetry;
  res.por_applied = por;
  res.threads_used = pool.threads();

  // Upper bound on successors of one state: every client issuing plus
  // every directed channel delivering its head.  reserve()ing for
  // width * bound before each depth means claim() can never spuriously
  // overflow mid-depth, while small runs never pay for the full
  // max_states allocation.
  const std::size_t succ_bound =
      cfg.num_clients + (cfg.num_clients + 1) * (cfg.num_clients + 1);
  StateStore store(std::min<std::size_t>(cfg.max_states, 1u << 15));
  std::vector<TreeNode> tree;
  std::set<std::string> names;

  auto record_names = [&](const World& w) {
    for (const auto& machine : w.machines) names.insert(machine->state_name());
  };
  auto fail = [&](std::int64_t parent, const CheckStep* last,
                  const char* invariant, std::string detail) {
    res.violations.push_back({invariant, std::move(detail)});
    res.counterexample = trace_to(tree, parent, last);
  };

  {
    std::vector<std::uint8_t> scratch;
    bool nontrivial = false;
    store.claim(state_hash(init, scratch, nontrivial));  // rank 0
  }
  std::size_t states = 1;
  tree.push_back({});
  record_names(init);
  {
    std::string detail;
    const char* inv = check_state(init, cfg, detail);
    if (inv != nullptr) {
      fail(0, nullptr, inv, std::move(detail));
    } else if (cfg.probe_quiescent_reads && channels_empty(init) &&
               !any_pending(init)) {
      for (NodeId client = 0; client < cfg.num_clients; ++client) {
        ++res.probes;
        std::string probe_detail;
        const char* probe_inv = probe_read(init, client, cfg, probe_detail);
        if (probe_inv != nullptr) {
          fail(0, nullptr, probe_inv, std::move(probe_detail));
          break;
        }
      }
    }
  }

  std::vector<Entry> frontier;
  if (res.violations.empty()) {
    Entry e;
    serialize_world(init, e.bytes);
    frontier.push_back(std::move(e));
  }

  // When the pool is one thread, parallel_for degenerates to an in-order
  // inline loop: ranks are offered in increasing order, a claim that
  // holds its key keeps it, and a shared stop flag skips everything after
  // the first violation exactly as the reference engine does.  With real
  // parallelism every entry runs to completion, and the merge stops at
  // the lowest-(entry, candidate) violation.
  const bool serial = pool.threads() == 1;

  // Rank of candidate c of entry i at depth d: (d + 1, i, c), packed so
  // that every rank of a depth exceeds every rank of the depths before.
  constexpr int kEntryShift = 16;  // candidates per entry < 2^16
  constexpr int kDepthShift = 48;  // entries per depth < 2^32
  // Candidates per state are at most 2N issues plus (N+1)^2 channel
  // heads, and check_protocol caps N at 250.
  static_assert(2 * 250 + 251 * 251 < (1 << kEntryShift));

  std::size_t depth = 0;
  while (!frontier.empty() && res.violations.empty() &&
         !res.hit_state_cap) {
    const std::size_t width = frontier.size();
    DRSM_CHECK(width < (std::size_t{1} << (kDepthShift - kEntryShift)) &&
                   depth + 1 < (std::size_t{1} << (64 - kDepthShift)),
               "check: frontier too wide or deep to rank");
    const std::uint64_t depth_rank = std::uint64_t{depth + 1} << kDepthShift;
    store.reserve(store.size() + width * succ_bound);
    std::vector<EntryResult> results(width);
    std::atomic<bool> stop{false};

    auto expand = [&](std::size_t i) {
      if (stop.load(std::memory_order_relaxed)) return;
      EntryResult& r = results[i];
      const Entry& entry = frontier[i];

      World w;
      deserialize_world(cfg, entry.bytes.data(),
                        entry.bytes.data() + entry.bytes.size(), w);

      std::vector<Candidate> candidates;
      enumerate_candidates(w, candidates);
      if (por && candidates.size() > 1) {
        for (const Candidate& cand : candidates) {
          if (cand.kind != CheckStep::Kind::kDeliver) continue;
          if (!pure_absorption(w, cand.src, cand.node)) continue;
          r.por_pruned += candidates.size() - 1;
          const Candidate chosen = cand;
          candidates.assign(1, chosen);
          break;
        }
      }

      std::vector<std::uint8_t> scratch;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const Candidate& cand = candidates[c];
        World s = w.clone();
        StepOutcome out;
        CheckStep step;
        step.kind = cand.kind;
        step.node = cand.node;
        ++r.transitions;
        if (cand.kind == CheckStep::Kind::kIssue) {
          step.op = cand.op;
          apply_issue(s, cand.node, cand.op, cfg.channel_capacity, out,
                      step.msg);
        } else {
          step.src = cand.src;
          apply_deliver(s, cand.src, cand.node, cfg.channel_capacity, out,
                        step.msg);
        }
        if (out.truncated) {
          ++r.truncated;
          continue;
        }
        if (out.invariant != nullptr) {
          r.invariant = out.invariant;
          r.detail = std::move(out.detail);
          r.bad_step = step;
          if (serial) stop.store(true, std::memory_order_relaxed);
          return;
        }
        {
          std::string detail;
          const char* inv = check_state(s, cfg, detail);
          if (inv != nullptr) {
            r.invariant = inv;
            r.detail = std::move(detail);
            r.bad_step = step;
            if (serial) stop.store(true, std::memory_order_relaxed);
            return;
          }
        }
        SuccessorOut succ;
        succ.rank = depth_rank | std::uint64_t{i} << kEntryShift | c;
        const StateStore::Ticket ticket =
            store.claim_ranked(state_hash(s, scratch, succ.nontrivial),
                               succ.rank);
        if (ticket.claim == StateStore::Claim::kOverflow) {
          r.overflow = true;
          stop.store(true, std::memory_order_relaxed);
          return;
        }
        if (ticket.claim == StateStore::Claim::kPresent) {
          if (succ.nontrivial) ++r.symmetry_hits;
          continue;
        }
        succ.owner = ticket.rank;
        succ.step = step;
        for (const auto& machine : s.machines)
          succ.names.push_back(machine->state_name());
        if (cfg.probe_quiescent_reads && channels_empty(s) &&
            !any_pending(s)) {
          for (NodeId client = 0; client < cfg.num_clients; ++client) {
            ++succ.probes;
            succ.probe_invariant =
                probe_read(s, client, cfg, succ.probe_detail);
            if (succ.probe_invariant != nullptr) break;
          }
        }
        const bool probe_failed = succ.probe_invariant != nullptr;
        serialize_world(s, succ.bytes);
        r.succs.push_back(std::move(succ));
        if (probe_failed && serial) {
          stop.store(true, std::memory_order_relaxed);
          return;
        }
      }
    };
    pool.parallel_for(width, expand);

    // Serial in-order merge: keep the successors that still own their
    // key, fold counters, stop at the lowest-index violation or the state
    // cap, assign tree nodes and the next frontier.  A violating entry
    // adds no tree nodes.
    std::vector<Entry> next;
    std::vector<SuccessorOut*> won;
    bool halted = false;
    for (std::size_t i = 0; i < width && !halted; ++i) {
      EntryResult& r = results[i];
      res.transitions += r.transitions;
      res.truncated += r.truncated;
      res.por_pruned += r.por_pruned;
      res.symmetry_hits += r.symmetry_hits;
      if (r.overflow) {
        res.hit_state_cap = true;
        halted = true;
      }
      const auto parent = static_cast<std::int64_t>(frontier[i].tree);
      won.clear();
      for (SuccessorOut& succ : r.succs) {
        if (succ.owner->load(std::memory_order_relaxed) != succ.rank) {
          if (succ.nontrivial) ++res.symmetry_hits;  // a lower index won
          continue;
        }
        names.insert(succ.names.begin(), succ.names.end());
        res.probes += succ.probes;
        if (succ.probe_invariant != nullptr) {
          fail(parent, &succ.step, succ.probe_invariant,
               std::move(succ.probe_detail));
          halted = true;
          break;
        }
        won.push_back(&succ);
        if (++states >= cfg.max_states) {
          // Keep this last successor: it was claimed before the cap hit.
          res.hit_state_cap = true;
          halted = true;
          break;
        }
      }
      if (!halted && r.invariant != nullptr) {
        fail(parent, &r.bad_step, r.invariant, std::move(r.detail));
        halted = true;
      }
      if (!res.violations.empty()) break;
      for (SuccessorOut* succ : won) {
        tree.push_back({parent, succ->step, depth + 1});
        res.max_depth = std::max(res.max_depth, depth + 1);
        Entry e;
        e.bytes = std::move(succ->bytes);
        e.tree = tree.size() - 1;
        next.push_back(std::move(e));
      }
    }
    frontier = std::move(next);
    ++depth;
  }

  res.states = states;
  res.visited_state_names.assign(names.begin(), names.end());
  return res;
}

void publish_metrics(const CheckConfig& cfg, const CheckResult& res) {
  if (cfg.metrics == nullptr) return;
  obs::MetricsRegistry& m = *cfg.metrics;
  m.counter("check.states").inc(res.states);
  m.counter("check.transitions").inc(res.transitions);
  m.counter("check.symmetry_hits").inc(res.symmetry_hits);
  m.counter("check.por_pruned").inc(res.por_pruned);
  m.gauge("check.states_per_sec").set(res.states_per_sec());
  m.gauge("check.wall_ms").set(res.wall_seconds * 1e3);
  m.gauge("check.max_depth").set(static_cast<double>(res.max_depth));
}

}  // namespace

CheckResult check_protocol(const CheckConfig& cfg) {
  DRSM_CHECK(cfg.num_clients >= 1, "check: need at least one client");
  DRSM_CHECK(cfg.num_clients <= 250, "check: too many clients");
  DRSM_CHECK(cfg.channel_capacity >= 1 && cfg.channel_capacity <= 255,
             "check: channel_capacity must be in [1, 255]");
  DRSM_CHECK(cfg.reads_per_client <= 255 && cfg.writes_per_client <= 255,
             "check: per-client budgets must fit a byte");

  const auto start = std::chrono::steady_clock::now();
  CheckResult res = cfg.expansion == CheckConfig::Expansion::kFullExpansion
                        ? check_full(cfg)
                        : check_reduced(cfg);
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  publish_metrics(cfg, res);
  return res;
}

void export_counterexample(const CheckResult& result, obs::EventSink& out) {
  if (result.ok()) return;
  for (std::size_t i = 0; i < result.counterexample.size(); ++i) {
    const CheckStep& step = result.counterexample[i];
    obs::TraceEvent event;
    event.time = static_cast<double>(i);
    event.kind = obs::EventKind::kCheckStep;
    event.node = step.node;
    event.peer = step.src;
    event.token = step.msg.token;
    event.op = step.op;
    event.detail =
        step.kind == CheckStep::Kind::kIssue ? "issue" : "deliver";
    out.on_event(event);
  }
  obs::TraceEvent event;
  event.time = static_cast<double>(result.counterexample.size());
  event.kind = obs::EventKind::kViolation;
  event.detail = result.violations.front().invariant;
  out.on_event(event);
}

std::string dump_counterexample(const CheckResult& result,
                                obs::FlightRecorder& recorder,
                                const std::string& path) {
  if (result.ok()) return {};
  export_counterexample(result, recorder);
  const Violation& v = result.violations.front();
  return recorder.dump(path, std::string(v.invariant) +
                                 (v.detail.empty() ? "" : ": " + v.detail));
}

}  // namespace drsm::check
