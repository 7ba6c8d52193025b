#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::vector<double> unit_medians(
    const std::vector<std::vector<double>>& per_pass) {
  std::size_t units = per_pass.empty() ? 0 : per_pass.front().size();
  for (const std::vector<double>& pass : per_pass)
    units = std::min(units, pass.size());
  std::vector<double> medians, values;
  for (std::size_t u = 0; u < units; ++u) {
    values.clear();
    for (const std::vector<double>& pass : per_pass) values.push_back(pass[u]);
    medians.push_back(median(values));
  }
  return medians;
}

double overhead_pct(const std::vector<double>& traced_s,
                    const std::vector<double>& untraced_s) {
  const double base = median(untraced_s);
  return base > 0.0 ? (median(traced_s) / base - 1.0) * 100.0 : 0.0;
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would also
  // carry the launching process's peak across exec.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

// ---------------------------------------------------------------------------
// Outcome

void Outcome::check(const std::string& name, bool ok,
                    const std::string& detail) {
  checks.push_back({name, ok, detail});
}

void Outcome::set_e2e(const std::string& name, double value,
                      std::size_t sample_count) {
  e2e[name] = value;
  samples[name] = sample_count;
}

void Outcome::set_latency_us(
    const std::vector<std::vector<double>>& per_pass_us) {
  std::size_t count = 0;
  for (const std::vector<double>& pass : per_pass_us) count += pass.size();
  std::vector<double> unit_us = unit_medians(per_pass_us);
  set_e2e("p50_us", quantile(unit_us, 0.5), count);
  set_e2e("p99_us", quantile(std::move(unit_us), 0.99), count);
}

void Outcome::set_layer(const std::string& name, double value) {
  layer[name] = value;
}

void Outcome::absorb_probe(const Outcome& probe, const std::string& prefix) {
  for (const auto& [name, value] : probe.layer) layer.emplace(name, value);
  for (const CheckRecord& record : probe.checks)
    checks.push_back({prefix + record.name, record.ok, record.detail});
}

bool Outcome::correct() const {
  for (const CheckRecord& record : checks)
    if (!record.ok) return false;
  return !checks.empty();
}

// ---------------------------------------------------------------------------
// Tracer

void Tracer::Log::record(const char* name, std::uint64_t id,
                         std::uint64_t parent, std::uint64_t start_ns,
                         std::uint64_t end_ns, std::uint32_t keep_every) {
  Total* total = nullptr;
  for (Total& t : totals_)
    if (t.name == name) total = &t;
  if (total == nullptr) {
    totals_.push_back({name, 0, 0});
    total = &totals_.back();
  }
  const bool keep = total->calls % keep_every == 0;
  ++total->calls;
  total->ns += end_ns - start_ns;
  if (!keep) return;
  if (spans_.size() >= kMaxSpansPerThread) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, id, parent, start_ns, end_ns, thread_});
}

Tracer::Log& Tracer::new_log() {
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.push_back(std::make_unique<Log>());
  Log& log = *logs_.back();
  log.thread_ = static_cast<std::uint32_t>(logs_.size() - 1);
  log.spans_.reserve(1024);
  return log;
}

std::uint64_t Tracer::total_ns(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t ns = 0;
  for (const auto& log : logs_)
    for (const Log::Total& t : log->totals_)
      if (name == t.name) ns += t.ns;
  return ns;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const auto& log : logs_)
    for (const Span& span : log->spans_)
      if (name == span.name)
        out.push_back(static_cast<double>(span.end_ns - span.start_ns));
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,id,parent,thread,start_ns,end_ns\n");
  for (const auto& log : logs_)
    for (const Span& s : log->spans_)
      std::fprintf(f, "%s,%llu,%llu,%u,%llu,%llu\n", s.name,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.thread,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
  return std::fclose(f) == 0;
}

std::size_t Tracer::kept() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& log : logs_) n += log->spans_.size();
  return n;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& log : logs_) n += log->dropped_;
  return n;
}

}  // namespace perfbench
