// Unit-cost probes: each times a loop over one layer's public calls, from
// outside the layer. Together with the per-run counts of the traced pass they
// form the layer cost model (count x unit cost, see README.md).
#pragma once

#include <cstdint>
#include <string>

#include "exec/journal.h"

namespace dtsbench {

/// Unit costs of the layers' public calls. Every probe runs one batch per
/// round, round-robin, until the time budget is spent, so all probes sample
/// the same stretches of host speed; each figure is the median over rounds.
/// Self costs subtract the sim events a probe drives, paired round by round,
/// because the sim layer already charges those per event.
struct UnitCosts {
  double event_ns = 0.0;           // Simulation::schedule + step
  double dispatch_ns = 0.0;        // Kernel32::call(GetCurrentProcessId), no hook
  double dispatch_self_ns = 0.0;   //   minus its sim events
  double hook_ns = 0.0;            // hooked minus unhooked dispatch
  double events_per_call = 0.0;
  double vm_alloc_free_ns = 0.0;   // VirtualMemory alloc(256)+write_u32+read_u32+free
  double net_message_ns = 0.0;     // netsim Socket::send + peer recv_until
  double net_self_ns = 0.0;        //   minus its sim events
  double events_per_message = 0.0;
  double span_ns = 0.0;            // rtrace TraceLog::begin_span + end_span
  double http_parse_ns = 0.0;      // apps::http::parse_request
  double journal_append_us = 0.0;  // RunJournal::append (flushes) of `record`
};

/// Measures every unit cost within `budget_s`. The journal probe appends
/// `record` to a journal at `journal_path`, truncated between batches.
UnitCosts measure_unit_costs(double budget_s, const dts::exec::JournalRecord& record,
                             const std::string& journal_path);

/// ntsim: the same op sequence `ops` times on ONE long-lived address space.
/// An op whose alloc throws std::bad_alloc counts as failed instead of
/// aborting the probe — the bump allocator never reuses freed address space,
/// so failures start once the space is exhausted.
struct VmLifetime {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t first_failure = 0;  // 1-based op index; 0 = none failed
};
VmLifetime vm_lifetime(std::uint64_t ops);

}  // namespace dtsbench
