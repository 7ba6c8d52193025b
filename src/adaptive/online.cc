#include "adaptive/online.h"

#include <iterator>

#include "support/error.h"

namespace drsm::adaptive {

using protocols::ProtocolKind;

OnlineController::OnlineController(dsm::ConcurrentSharedMemory& memory,
                                   const Options& options)
    : SelfTuner(options.policy, memory.options().num_clients,
                memory.options().num_objects, memory.options().costs,
                memory.options().protocol),
      memory_(memory),
      metrics_(options.metrics),
      ring_(kRingCapacity) {}

OnlineController::~OnlineController() { stop(); }

std::size_t OnlineController::drain() {
  Record batch[256];
  std::size_t total = 0;
  for (;;) {
    const std::size_t n = ring_.pop_batch(batch, std::size(batch));
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i)
      observe(batch[i].node, batch[i].object, batch[i].op);
    total += n;
  }
  records_ += total;
  return total;
}

void OnlineController::decide_due() {
  while (pass_due()) {
    decide_objects([this](ObjectId object, ProtocolKind to) {
      memory_.migrate(object, to);
    });
  }
}

void OnlineController::run() {
  for (;;) {
    const std::size_t n = drain();
    decide_due();
    if (n != 0) continue;
    if (stop_.load(std::memory_order_acquire)) break;
    const std::uint32_t ticket = ring_.prepare_wait();
    if (ring_.can_pop() || stop_.load(std::memory_order_acquire)) {
      ring_.cancel_wait();
      continue;
    }
    ring_.wait(ticket);
  }
}

void OnlineController::start() {
  DRSM_CHECK(!thread_.joinable(), "controller already started");
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void OnlineController::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_release);
    ring_.poke();
    thread_.join();
  }
  drain();  // anything recorded after the loop exited
  if (metrics_ == nullptr) return;
  obs::MetricsRegistry& m = *metrics_;
  m.counter("adaptive.records").inc(records_);
  m.counter("adaptive.dropped").inc(dropped());
  m.counter("adaptive.passes").inc(passes());
  m.counter("adaptive.migrations").inc(migrations());
  m.gauge("adaptive.reclassify_ms").set(reclassify_ms());
}

void OnlineController::poll() {
  DRSM_CHECK(!thread_.joinable(), "poll() races the controller thread");
  drain();
  decide_due();
}

}  // namespace drsm::adaptive
