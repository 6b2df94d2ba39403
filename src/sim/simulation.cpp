#include "sim/simulation.h"

#include <utility>

namespace dts::sim {

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {}

void Simulation::schedule(Duration delay, Callback fn) {
  schedule_at(now_ + (delay.is_negative() ? Duration{} : delay), std::move(fn));
}

void Simulation::schedule_at(TimePoint at, Callback fn) {
  if (at < now_) at = now_;
  queue_.push(at, std::move(fn));
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  TimePoint at;
  auto fn = queue_.pop(&at);
  now_ = at;
  ++events_processed_;
  if (events_processed_ > event_budget_) throw SimBudgetExhausted{};
  fn();
  return true;
}

void Simulation::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulation::run_until(TimePoint t) {
  stopped_ = false;
  while (!stopped_ && !queue_.empty() && queue_.next_time() <= t) {
    step();
  }
  if (now_ < t) now_ = t;
}

}  // namespace dts::sim
