#include "snap/snapshot.h"

#include <cstring>
#include <string_view>

namespace dts::snap {

namespace {

// FNV-1a, folded field by field. Every variable-length field is preceded by
// its length so adjacent fields cannot alias ("ab"+"c" vs "a"+"bc").
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fold_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fold_u64(std::uint64_t& h, std::uint64_t v) { fold_bytes(h, &v, sizeof v); }

void fold_i64(std::uint64_t& h, std::int64_t v) {
  fold_u64(h, static_cast<std::uint64_t>(v));
}

void fold_str(std::uint64_t& h, std::string_view s) {
  fold_u64(h, s.size());
  fold_bytes(h, s.data(), s.size());
}

void fold_machine(std::uint64_t& h, const nt::Machine::Snapshot& m) {
  // Filesystem: keys, display paths and full contents.
  fold_u64(h, m.fs.files.size());
  for (const auto& [key, node] : m.fs.files) {
    fold_str(h, key);
    fold_str(h, node.display_path);
    fold_str(h, node.data());
  }
  fold_u64(h, m.fs.dirs.size());
  for (const auto& [key, display] : m.fs.dirs) {
    fold_str(h, key);
    fold_str(h, display);
  }

  // Registry hive.
  fold_u64(h, m.registry.keys.size());
  for (const auto& [path, key] : m.registry.keys) {
    fold_str(h, path);
    fold_str(h, key.display);
    fold_u64(h, key.values.size());
    for (const auto& [name, value] : key.values) {
      fold_str(h, name);
      fold_u64(h, value.index());
      if (const auto* dw = std::get_if<nt::Dword>(&value)) {
        fold_u64(h, *dw);
      } else {
        fold_str(h, std::get<std::string>(value));
      }
    }
  }

  // Event log.
  fold_u64(h, m.event_log.entries.size());
  for (const auto& e : m.event_log.entries) {
    fold_i64(h, e.time.count_micros());
    fold_u64(h, static_cast<std::uint64_t>(e.severity));
    fold_str(h, e.source);
    fold_u64(h, e.event_id);
    fold_str(h, e.message);
  }
  fold_u64(h, m.event_log.retention);

  // SCM service database.
  fold_u64(h, m.scm.services.size());
  for (const auto& [name, rec] : m.scm.services) {
    fold_str(h, name);
    fold_str(h, rec.cfg.image);
    fold_str(h, rec.cfg.command_line);
    fold_i64(h, rec.cfg.start_wait_hint.count_micros());
    fold_u64(h, static_cast<std::uint64_t>(rec.state));
    fold_u64(h, rec.pid);
    fold_u64(h, rec.pending_epoch);
  }
  fold_u64(h, m.scm.starts);

  // Processes: address-space contents and handle tables. Handles fold their
  // value and object *type* (not the object pointer — pointers would make the
  // digest depend on allocator layout rather than on simulated state).
  fold_u64(h, m.processes.size());
  for (const auto& [pid, ps] : m.processes) {
    fold_u64(h, pid);
    fold_str(h, ps.image);
    fold_u64(h, ps.mem.next_addr);
    fold_u64(h, ps.mem.bytes_in_use);
    fold_u64(h, ps.mem.blocks.size());
    for (const nt::VirtualMemory::Block& block : ps.mem.blocks) {
      fold_u64(h, block.base);
      fold_u64(h, block.size);
      fold_u64(h, block.size);  // payload length (== size; kept for digest stability)
      fold_bytes(h, block.bytes.get(), block.size);
    }
    fold_u64(h, ps.handles.next);
    fold_u64(h, ps.handles.table.size());
    for (const auto& [handle, obj] : ps.handles.table) {
      fold_u64(h, handle);
      fold_u64(h, static_cast<std::uint64_t>(obj->type()));
    }
  }

  fold_u64(h, m.next_pid);
  fold_u64(h, m.syscalls);
  fold_u64(h, m.exits.size());
  for (const auto& e : m.exits) {
    fold_u64(h, e.pid);
    fold_str(h, e.image);
    fold_u64(h, e.exit_code);
    fold_str(h, e.reason);
    fold_i64(h, e.at.count_micros());
  }
  fold_u64(h, m.starts.size());
  for (const auto& s : m.starts) {
    fold_u64(h, s.pid);
    fold_str(h, s.image);
    fold_i64(h, s.at.count_micros());
  }
}

}  // namespace

WorldSnapshot capture_world(core::FaultInjectionRun& run, std::uint64_t site) {
  WorldSnapshot snap;
  snap.site = site;
  snap.sim = run.simulation().capture();
  snap.target = run.target().capture(&snap.cow);
  snap.control = run.control().capture(&snap.cow);
  snap.network = run.network().capture();
  snap.digest = world_digest(snap);
  return snap;
}

bool restore_world(core::FaultInjectionRun& run, const WorldSnapshot& snap) {
  if (!run.target().restore(snap.target)) return false;
  if (!run.control().restore(snap.control)) return false;
  if (!run.network().restore(snap.network)) return false;
  run.simulation().restore(snap.sim);
  return true;
}

std::uint64_t world_digest(const WorldSnapshot& snap) {
  std::uint64_t h = kFnvOffset;
  fold_u64(h, snap.site);

  // Simulation kernel: clock, RNG value state + cursor, pending events by
  // (time, seq) — callbacks are code, not state.
  fold_i64(h, snap.sim.now.count_micros());
  for (std::uint64_t w : snap.sim.rng.state()) fold_u64(h, w);
  fold_u64(h, snap.sim.rng.cursor());
  fold_u64(h, snap.sim.queue.next_seq);
  fold_u64(h, snap.sim.queue.heap.size());
  for (const auto& e : snap.sim.queue.heap) {
    fold_i64(h, e.at.count_micros());
    fold_u64(h, e.seq);
  }
  fold_u64(h, snap.sim.stopped ? 1 : 0);
  fold_u64(h, snap.sim.events_processed);
  fold_u64(h, snap.sim.semantic_rng_draws);

  fold_machine(h, snap.target);
  fold_machine(h, snap.control);

  fold_u64(h, snap.network.connections);
  fold_u64(h, snap.network.bound_ports.size());
  for (const auto& [machine, port] : snap.network.bound_ports) {
    fold_str(h, machine);
    fold_u64(h, port);
  }
  return h;
}

}  // namespace dts::snap
