// Priority queue of timed simulation events.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace dts::sim {

/// Timed callback queue. Ties are broken by insertion order so that
/// same-instant events run FIFO — required for deterministic replay.
///
/// The heap is an explicit vector of trivially copyable `{at, seq, slot}`
/// keys (std::push_heap/pop_heap — the algorithm std::priority_queue wraps,
/// so pop order and the raw heap array that snapshot digests fold are those
/// of a queue of whole events). Callbacks live in a slab indexed by `slot`;
/// a popped slot goes on a free list and the next push reuses it, so sifting
/// moves 24-byte keys and a steady-state push/pop allocates nothing.
///
/// A Snapshot copies the keys, the slab and the free list. Copying a
/// Callback copies its closure, which is a shallow copy of whatever the
/// closure points at — restoring one is only meaningful within the world
/// the capture came from (cross-world resume uses process-level fork).
class EventQueue {
 public:
  /// Heap key of one pending event.
  struct Event {
    TimePoint at;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;  // index into the callback slab
  };

  struct Snapshot {
    std::vector<Event> heap;  // raw heap array, not sorted
    std::vector<Callback> slots;
    std::vector<std::uint32_t> free_slots;
    std::uint64_t next_seq = 0;
  };

  /// Enqueues `fn` to run at time `at`. Returns a unique event id.
  std::uint64_t push(TimePoint at, Callback fn);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event. Requires !empty().
  TimePoint next_time() const;

  /// Removes and returns the earliest event's callback. Requires !empty().
  Callback pop(TimePoint* at = nullptr);

  void clear();

  Snapshot capture() const { return Snapshot{heap_, slots_, free_, next_seq_}; }
  void restore(const Snapshot& s) {
    heap_ = s.heap;
    slots_ = s.slots;
    free_ = s.free_slots;
    next_seq_ = s.next_seq;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::vector<Event> heap_;
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dts::sim
