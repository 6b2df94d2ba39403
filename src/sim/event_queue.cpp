#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dts::sim {

std::uint64_t EventQueue::push(TimePoint at, Callback fn) {
  const std::uint64_t id = next_seq_++;
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(fn);
  }
  heap_.push_back(Event{at, id, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

TimePoint EventQueue::next_time() const {
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time on empty queue");
  return heap_.front().at;
}

Callback EventQueue::pop(TimePoint* at) {
  if (heap_.empty()) throw std::logic_error("EventQueue::pop on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event e = heap_.back();
  heap_.pop_back();
  if (at != nullptr) *at = e.at;
  // Moved out before it runs: the callback may push events, which can reuse
  // this slot or grow the slab.
  Callback fn = std::move(slots_[e.slot]);
  free_.push_back(e.slot);
  return fn;
}

void EventQueue::clear() {
  heap_.clear();
  slots_.clear();
  free_.clear();
}

}  // namespace dts::sim
