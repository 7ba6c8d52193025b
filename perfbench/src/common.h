// Shared pieces of drsm_perfbench, the benchmark program: clocks, exact
// order statistics, the run outcome (metrics, correctness checks, unit counts)
// and the in-memory span tracer used by traced runs.
//
// The tracer lives entirely in the benchmark: spans are recorded around
// calls into drsm's public functions, never inside the library.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t now_ns();
double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns);

/// Exact quantile with linear interpolation between order statistics
/// (the "inclusive" definition).  Returns 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Each unit's median over the passes, for the units every pass timed.
/// `per_pass[p][u]` is unit u's value in pass p; units are listed in the
/// same order in each pass.  A stall of the host that hits different units
/// in each pass moves none of the medians.
std::vector<double> unit_medians(
    const std::vector<std::vector<double>>& per_pass);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// How much work a run does.  kFull is the measured benchmark; kProbe is
/// the small pass a traced run makes of the engines its workload does not
/// exercise, so every layer metric is measured on every traced run; kTiny
/// is the self-test size.
enum class Scale { kFull, kProbe, kTiny };

class Tracer;

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measuring budget of the run
  Scale scale = Scale::kFull;
  /// Set in traced runs: passes alternate between untraced and traced,
  /// and the traced ones record spans here.
  Tracer* tracer = nullptr;
};

/// Runs `pass(traced)` until the measuring budget is spent: at
/// least `min_passes`, at most `max_passes`, and no pass is started that
/// would, at the previous pass's length, end past the budget.  In a traced
/// run every odd pass is traced, so traced and untraced passes interleave
/// and their difference is the tracing overhead.
template <class Pass>
void run_passes(const Context& ctx, std::size_t min_passes,
                std::size_t max_passes, Pass&& pass) {
  const std::uint64_t start = now_ns();
  std::uint64_t last_ns = 0;
  for (std::size_t done = 0; done < max_passes; ++done) {
    const std::uint64_t begin = now_ns();
    if (done >= min_passes &&
        seconds_between(start, begin + last_ns) > ctx.seconds)
      break;
    pass(ctx.tracer != nullptr && done % 2 == 1);
    last_ns = now_ns() - begin;
  }
}

/// Tracing overhead in percent: traced over untraced median pass time.
double overhead_pct(const std::vector<double>& traced_s,
                    const std::vector<double>& untraced_s);

/// What one workload run produced.
class Outcome {
 public:
  /// Records a correctness check.  Every check a workload runs is listed
  /// in the output, so the self-test can assert that it ran.
  void check(const std::string& name, bool ok, const std::string& detail);

  void set_e2e(const std::string& name, double value, std::size_t samples);
  /// p50_us and p99_us: the percentiles over units of unit_medians().
  void set_latency_us(const std::vector<std::vector<double>>& per_pass_us);
  void set_layer(const std::string& name, double value);

  /// Adopts the layer metrics of `probe` this outcome does not have yet,
  /// and its correctness checks (prefixed), but not its units or e2e.
  void absorb_probe(const Outcome& probe, const std::string& prefix);

  bool correct() const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, std::size_t> samples;  // behind an e2e metric
  std::map<std::string, double> layer;
  std::vector<double> pass_s;  // every untraced pass's run_s, in order

  struct CheckRecord {
    std::string name;
    bool ok = true;
    std::string detail;
  };
  std::vector<CheckRecord> checks;
};

/// One recorded span.  `parent` is the id of the span that caused it (0
/// for a root); spans of one pass share the pass span as their root.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;
};

/// In-memory span recorder.  Each recording thread owns one Log (no
/// synchronisation on the hot path).  Every span's duration is added to
/// an exact per-name total; the spans themselves are kept for every
/// `keep_every`-th call of a name, up to a fixed cap per thread, and are
/// written out when the run ends.
class Tracer {
 public:
  class Log {
   public:
    /// A fresh span id, unique across logs.
    std::uint64_t new_id() {
      return (static_cast<std::uint64_t>(thread_) + 1) << 40 | ++seq_;
    }
    void record(const char* name, std::uint64_t id, std::uint64_t parent,
                std::uint64_t start_ns, std::uint64_t end_ns,
                std::uint32_t keep_every = 1);

   private:
    friend class Tracer;
    struct Total {
      const char* name = "";
      std::uint64_t calls = 0;
      std::uint64_t ns = 0;
    };
    std::uint32_t thread_ = 0;
    std::uint64_t seq_ = 0;
    std::vector<Span> spans_;
    std::vector<Total> totals_;  // few names per thread: linear search
    std::uint64_t dropped_ = 0;
  };

  /// A new per-thread log, owned by the tracer.
  Log& new_log();

  /// Summed nanoseconds of every recorded span of `name`, over all logs.
  std::uint64_t total_ns(const std::string& name) const;
  /// Durations (ns) of the kept spans of `name`.
  std::vector<double> durations(const std::string& name) const;

  /// Writes every kept span as CSV (name,id,parent,thread,start,end).
  /// Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;
  std::size_t kept() const;
  std::uint64_t dropped() const;

  static constexpr std::size_t kMaxSpansPerThread = 1 << 17;

 private:
  mutable std::mutex mutex_;  // guards logs_
  std::vector<std::unique_ptr<Log>> logs_;
};

}  // namespace perfbench
