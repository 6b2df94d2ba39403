#include "exec/executor.h"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>

#include "exec/recorder.h"
#include "plan/checkpoints.h"
#include "sim/rng.h"
#include "snap/fork_runner.h"

namespace dts::exec {

namespace {

core::RunResult skipped_result(const inject::FaultSpec& fault) {
  core::RunResult r;
  r.fault = fault;
  r.activated = false;
  r.detail = "skipped: function not called by this workload";
  return r;
}

// Deterministic initial sharding with range stealing: worker w starts with a
// contiguous slice of the work items; a worker whose slice runs dry steals
// the tail half of the fattest remaining slice. All bookkeeping sits behind
// one mutex — at milliseconds per simulated run the lock is invisible, and
// the shared state stays trivially correct (results never depend on who ran
// what; see the merge step).
class ShardQueue {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  ShardQueue(std::size_t item_count, int workers)
      : ranges_(workers), remaining_(item_count) {
    for (int w = 0; w < workers; ++w) {
      ranges_[w].next = item_count * static_cast<std::size_t>(w) / workers;
      ranges_[w].end = item_count * (static_cast<std::size_t>(w) + 1) / workers;
    }
  }

  /// Optional observability hooks, set before workers start: `steals` counts
  /// range-stealing events, `depth` tracks unclaimed items. Updated under
  /// the queue mutex (handle updates themselves are relaxed atomics).
  void set_metrics(obs::Counter* steals, obs::Gauge* depth) {
    steals_ = steals;
    depth_ = depth;
    if (depth_ != nullptr) depth_->set(static_cast<double>(remaining_));
  }

  /// Next item for `worker`, stealing if its own range is exhausted;
  /// npos when no work is left anywhere.
  std::size_t pop(int worker) {
    std::lock_guard<std::mutex> lock(mu_);
    Range& own = ranges_[worker];
    if (own.next < own.end) return take(own);
    Range* victim = nullptr;
    std::size_t victim_size = 0;
    for (Range& r : ranges_) {
      const std::size_t size = r.end - r.next;
      if (size > victim_size) {
        victim = &r;
        victim_size = size;
      }
    }
    if (victim == nullptr) return npos;
    const std::size_t half = (victim_size + 1) / 2;
    own.end = victim->end;
    own.next = victim->end - half;
    victim->end = own.next;
    if (steals_ != nullptr) steals_->inc();
    return take(own);
  }

 private:
  struct Range {
    std::size_t next = 0;
    std::size_t end = 0;
  };

  std::size_t take(Range& r) {
    --remaining_;
    if (depth_ != nullptr) depth_->set(static_cast<double>(remaining_));
    return r.next++;
  }

  std::mutex mu_;
  std::vector<Range> ranges_;
  std::size_t remaining_ = 0;
  obs::Counter* steals_ = nullptr;
  obs::Gauge* depth_ = nullptr;
};

// Latest golden call site (max syscall seq the profile observed) — the
// checkpoint that lets profile-proven never-firing faults replay only the
// run's tail.
std::uint64_t profile_tail_site(const plan::GoldenProfile& profile) {
  std::uint64_t tail = 0;
  for (const auto& [fn, calls] : profile.calls) {
    for (const plan::GoldenCall& c : calls) tail = std::max(tail, c.call_site);
  }
  return tail;
}

void emit_snap_metrics(obs::MetricsRegistry* metrics, const obs::Labels& set_labels,
                       const snap::ForkStats& st) {
  if (metrics == nullptr) return;
  const struct {
    const char* name;
    std::uint64_t value;
    const char* help;
  } series[] = {
      {"dts_snap_checkpoints_total", st.checkpoints_planned,
       "checkpoints planned across host golden runs"},
      {"dts_snap_snapshots_total", st.snapshots_taken,
       "COW world snapshots captured at checkpoints"},
      {"dts_snap_forked_runs_total", st.forked_runs,
       "campaign runs executed as forked snapshot children"},
      {"dts_snap_synthesized_runs_total", st.synthesized_runs,
       "never-firing runs synthesized from the host golden run"},
      {"dts_snap_fallback_runs_total", st.fallback_runs,
       "snapshot-phase runs that fell back to full execution"},
      {"dts_snap_identity_checks_total", st.identity_checks,
       "snapshot-identity validations (child pre-arm + parent self-check)"},
      {"dts_snap_cow_violations_total", st.cow_violations,
       "snapshot digests invalidated by in-place payload mutation"},
      {"dts_snap_shared_blocks_total", st.shared_blocks,
       "memory/file payloads structure-shared at capture"},
      {"dts_snap_copied_blocks_total", st.copied_blocks,
       "memory/file payloads deep-copied at capture"},
      {"dts_snap_shared_bytes_total", st.shared_bytes,
       "payload bytes structure-shared at capture"},
      {"dts_snap_copied_bytes_total", st.copied_bytes,
       "payload bytes deep-copied at capture"},
      {"dts_snap_skipped_sim_us_total", st.skipped_sim_us,
       "golden-prefix simulated microseconds not re-executed"},
  };
  for (const auto& s : series) metrics->counter(s.name, set_labels, s.help).inc(s.value);
}

// True when the campaign's cancellation flag is raised.
bool cancel_requested(const ExecOptions& options) {
  return options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed);
}

// The snapshot/fork phase: one host golden run captures COW snapshots at
// planned checkpoints; each fault whose injection site the profile resolves
// forks from the nearest checkpoint and executes only the suffix, and a
// profile-proven never-firing fault is synthesized from the golden run's end
// state. Every result is recorded exactly as a full run is. Returns the
// indices that still need a full run, ascending.
std::vector<std::size_t> run_snapshot_phase(const core::RunConfig& base,
                                            const ExecOptions& options,
                                            std::uint64_t campaign_seed,
                                            std::uint64_t campaign_digest,
                                            const inject::FaultList& faults,
                                            RunRecorder& recorder,
                                            std::vector<std::size_t> pending) {
  const plan::GoldenProfile& profile = *options.snapshot_profile;
  const std::uint64_t tail_site = profile_tail_site(profile);
  std::vector<snap::ForkItem> items;
  std::vector<std::size_t> full_runs;
  for (std::size_t i : pending) {
    const inject::FaultSpec& fault = faults.faults[i];
    snap::ForkItem item;
    item.index = i;
    item.fault = fault;
    item.seed = sim::Rng::mix(campaign_seed, sim::Rng::hash(fault.id()));
    if (auto site = plan::injection_site(profile, fault)) {
      item.mode = snap::ForkItem::Mode::kAtSite;
      item.site = *site;
      items.push_back(item);
      continue;
    }
    const auto cnt = profile.invocation_counts.find(fault.fn);
    const int count = cnt == profile.invocation_counts.end() ? 0 : cnt->second;
    if (tail_site > 0 && fault.invocation > count) {
      // Profile-proven never-firing: the run IS the golden run; its result
      // is synthesized from the host run's end state.
      item.mode = snap::ForkItem::Mode::kGoldenTail;
      item.fn_called = count > 0;
      items.push_back(item);
      continue;
    }
    // Reached but outside the profile's capture window: full run.
    full_runs.push_back(i);
  }
  if (items.empty()) return pending;

  snap::ForkRunner::Options ropts;
  ropts.campaign_seed = campaign_seed;
  ropts.campaign_digest = campaign_digest;
  ropts.max_checkpoints = options.snapshot_max_checkpoints;
  ropts.jobs = effective_jobs(options.jobs);
  ropts.tail_site = tail_site;
  snap::ForkRunner runner(base, ropts);
  const std::vector<std::size_t> fallbacks =
      runner.run(items, [&recorder](const snap::ChildOutcome& o) {
        ExecutedRun run;
        run.result = o.result;
        run.fn_called = o.fn_called;
        run.wall_us = o.wall_us;
        run.trace_digest = o.trace_digest;
        run.call_context = o.call_context;
        recorder.record(recorder.identity(o.index), std::move(run));
      });
  emit_snap_metrics(options.metrics,
                    {{"workload", base.workload.name}, {"middleware", middleware_label(base)}},
                    runner.stats());
  full_runs.insert(full_runs.end(), fallbacks.begin(), fallbacks.end());
  std::sort(full_runs.begin(), full_runs.end());
  return full_runs;
}

// The one execution path behind run() and run_plan(): executes the faults at
// `pending` (ascending indices without a result) — first through the
// snapshot phase when it applies, then on the ShardQueue pool — recording
// every run through `recorder`. With `elide_uncalled`, a worker skips a fault
// whose function an earlier executed run proved uncalled (paper §4; the
// merge replays the rule serially). Returns false when cancelled; rethrows
// the first exception a worker raised.
bool execute_pending(const core::RunConfig& base, const ExecOptions& options,
                     std::uint64_t campaign_seed, std::uint64_t campaign_digest,
                     const inject::FaultList& faults, RunRecorder& recorder,
                     std::vector<std::size_t> pending, bool elide_uncalled) {
  if (pending.empty()) return true;
  if (cancel_requested(options)) return false;
  if (options.trace != obs::TraceMode::kOff && !options.forensics_dir.empty()) {
    std::filesystem::create_directories(options.forensics_dir);
  }
  // The snapshot phase costs one host golden run, so a single pending fault
  // never pays.
  if (options.snapshots && options.snapshot_profile != nullptr && pending.size() >= 2 &&
      snap::unsupported_reason(base, options.trace != obs::TraceMode::kOff).empty()) {
    pending = run_snapshot_phase(base, options, campaign_seed, campaign_digest, faults,
                                 recorder, std::move(pending));
  }
  if (pending.empty()) return true;

  const int workers = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(effective_jobs(options.jobs)), pending.size()));
  ShardQueue queue(pending.size(), workers);
  if (options.metrics != nullptr) {
    queue.set_metrics(
        &options.metrics->counter("dts_exec_steals_total", {},
                                  "work-stealing events across exec workers"),
        &options.metrics->gauge("dts_exec_queue_depth", {},
                                "unclaimed faults remaining in the shard queue"));
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> cancelled{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto worker_loop = [&](int worker) {
    try {
      recorder.attach_worker(worker);
      for (;;) {
        if (stop.load(std::memory_order_relaxed)) return;
        if (cancel_requested(options)) {
          cancelled.store(true, std::memory_order_relaxed);
          stop.store(true, std::memory_order_relaxed);
          return;
        }
        const std::size_t item = queue.pop(worker);
        if (item == ShardQueue::npos) return;
        const std::size_t i = pending[item];
        if (elide_uncalled && recorder.proven_uncalled_before(i)) {
          recorder.progress(/*fresh=*/false);
          continue;
        }
        const RunIdentity id = recorder.identity(i);
        recorder.record(id, execute_one(base, campaign_seed, faults.faults[i], id, options),
                        worker);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
      stop.store(true, std::memory_order_relaxed);
    }
  };

  if (workers == 1) {
    // jobs=1 stays on the calling thread and visits faults in list order —
    // the pre-subsystem serial campaign loop, exactly.
    worker_loop(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (int w = 0; w < workers; ++w) threads.emplace_back(worker_loop, w);
    for (auto& t : threads) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  return !cancelled.load();
}

}  // namespace

std::string_view outcome_label(core::Outcome o) {
  switch (o) {
    case core::Outcome::kNormalSuccess: return "normal";
    case core::Outcome::kRestartSuccess: return "restart";
    case core::Outcome::kRestartRetrySuccess: return "restart_retry";
    case core::Outcome::kRetrySuccess: return "retry";
    case core::Outcome::kFailure: return "failure";
  }
  return "?";
}

std::string middleware_label(const core::RunConfig& base) {
  switch (base.middleware) {
    case mw::MiddlewareKind::kNone: return "none";
    case mw::MiddlewareKind::kMscs: return "mscs";
    case mw::MiddlewareKind::kWatchd:
      return "watchd" + std::to_string(static_cast<int>(base.watchd_version));
  }
  return "?";
}

int effective_jobs(int jobs, unsigned hardware_threads) {
  if (jobs >= 1) return jobs;
  return hardware_threads >= 1 ? static_cast<int>(hardware_threads) : 1;
}

int effective_jobs(int jobs) {
  return effective_jobs(jobs, std::thread::hardware_concurrency());
}

CampaignResult merge_completed_runs(const core::RunConfig& base,
                                    const inject::FaultList& list,
                                    std::uint64_t campaign_seed, bool skip_uncalled,
                                    std::vector<CompletedRun> completed) {
  const std::size_t n = list.faults.size();
  CampaignResult out;
  std::set<nt::Fn> uncalled;
  out.runs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const inject::FaultSpec& fault = list.faults[i];
    if (skip_uncalled && uncalled.contains(fault.fn)) {
      out.runs.push_back(skipped_result(fault));
      ++out.skipped;
      continue;
    }
    CompletedRun& slot = completed[i];
    if (!slot.executed) {
      // Defensive: an elided fault always has an earlier uncalled proof, so
      // this branch is unreachable unless that invariant breaks — in which
      // case run the fault now rather than emit a wrong record.
      RunIdentity id;
      id.index = i;
      id.fault_id = fault.id();
      ExecutedRun run = execute_one(base, campaign_seed, fault, id, ExecOptions{});
      slot.result = std::move(run.result);
      slot.fn_called = run.fn_called;
      slot.executed = true;
      ++out.executed;
    }
    if (!slot.result.activated && !slot.fn_called) uncalled.insert(fault.fn);
    out.runs.push_back(std::move(slot.result));
  }
  return out;
}

CampaignResult CampaignExecutor::run(const core::RunConfig& base,
                                     const inject::FaultList& list,
                                     std::uint64_t campaign_seed) {
  const std::size_t n = list.faults.size();
  // Causal span: every journal record, forensics dump and trace event names
  // its run as campaign_digest/lease_id/fault_index (lease 0 = in-process),
  // the same identifier a distributed worker's record carries.
  const std::uint64_t campaign_digest = plan::sweep_digest(list);
  RunRecorder recorder(base, options_, list, campaign_seed, campaign_digest);
  CampaignResult out;
  out.reused = recorder.open();
  recorder.start_progress(n, out.reused);

  std::vector<std::size_t> pending;
  pending.reserve(n - out.reused);
  for (std::size_t i = 0; i < n; ++i) {
    if (!recorder.has_result(i)) pending.push_back(i);
  }
  // Fully resumed: no run will fire the callback, so report the final state
  // directly (done == total, everything reused).
  if (pending.empty()) recorder.announce_progress();
  const bool finished = execute_pending(base, options_, campaign_seed, campaign_digest,
                                        list, recorder, std::move(pending),
                                        options_.skip_uncalled);
  out.executed = recorder.progress_snapshot().executed;
  if (!finished) {
    out.interrupted = true;
    return out;
  }

  // Merge: replay the paper-§4 skip rule serially over the completed results
  // so the output is byte-identical to a one-worker sweep regardless of how
  // the faults were scheduled above (shared with the distributed coordinator).
  CampaignResult merged = merge_completed_runs(base, list, campaign_seed,
                                               options_.skip_uncalled,
                                               recorder.take_slots());
  out.runs = std::move(merged.runs);
  out.skipped = merged.skipped;
  out.executed += merged.executed;
  return out;
}

PlanCampaignResult CampaignExecutor::run_plan(const core::RunConfig& base,
                                              const plan::Plan& plan,
                                              std::uint64_t campaign_seed,
                                              const plan::SamplerOptions& sampler_options) {
  const std::size_t n = plan.entries.size();
  PlanCampaignResult out;

  // The journal key's fault count is the plan's entry count (the raw sweep),
  // which never equals a profile-restricted exhaustive journal's count — a
  // planned campaign can only resume another planned campaign. The plan
  // digest (folds in dispositions) is the plan-campaign analogue of the sweep
  // digest stamped into exec indices by run().
  inject::FaultList faults;
  faults.faults.reserve(n);
  for (const plan::PlanEntry& e : plan.entries) faults.faults.push_back(e.fault);
  const std::uint64_t campaign_digest = plan::sweep_digest(plan);
  RunRecorder recorder(base, options_, faults, campaign_seed, campaign_digest,
                       {.stratified = true});
  out.reused = recorder.open([&plan](std::size_t i) {
    return plan.entries[i].disposition == plan::Disposition::kExecute;
  });
  recorder.start_progress(plan.executable_count(), 0);

  // Round loop: issue one sampler batch, execute its fresh members, then
  // record the whole round back into the sampler (in entry order) before
  // asking for the next one. The barrier is what keeps the executed-run set
  // independent of the worker count: batch composition only ever depends on
  // fully-recorded earlier rounds.
  plan::AdaptiveSampler sampler(plan, sampler_options);
  bool cancelled = false;
  for (;;) {
    if (cancel_requested(options_)) {
      cancelled = true;
      break;
    }
    const std::vector<std::size_t> batch = sampler.next_batch();
    if (batch.empty()) break;
    std::vector<std::size_t> fresh;
    for (std::size_t idx : batch) {
      if (recorder.has_result(idx)) {
        recorder.progress(/*fresh=*/false);
      } else {
        fresh.push_back(idx);
      }
    }
    if (!execute_pending(base, options_, campaign_seed, campaign_digest, faults, recorder,
                         std::move(fresh), /*elide_uncalled=*/false)) {
      cancelled = true;
      break;
    }
    for (std::size_t idx : batch) {
      const core::RunResult& r = recorder.slot(idx).result;
      sampler.record(idx, r.activated, r.outcome == core::Outcome::kFailure);
    }
  }

  out.executed = recorder.progress_snapshot().executed;
  out.strata = sampler.progress();
  if (cancelled) {
    out.interrupted = true;
    return out;
  }
  std::vector<CompletedRun> results = recorder.take_slots();

  // Assemble plan-entry-order output: executed results as-is, duplicates
  // attributed to their representative's run, pruned entries synthesized as
  // non-activated records (what executing them would have classified as).
  out.runs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const plan::PlanEntry& e = plan.entries[i];
    switch (e.disposition) {
      case plan::Disposition::kExecute:
        if (results[i].executed) {
          out.runs.push_back(std::move(results[i].result));
        } else {
          ++out.unsampled;
        }
        break;
      case plan::Disposition::kDuplicate:
        if (results[e.duplicate_of].executed) {
          core::RunResult r = results[e.duplicate_of].result;
          r.fault = e.fault;
          r.detail = "deduplicated: same corrupted word as " +
                     plan.entries[e.duplicate_of].fault.id();
          out.runs.push_back(std::move(r));
          ++out.deduped;
        } else {
          ++out.unsampled;
        }
        break;
      case plan::Disposition::kPruned: {
        core::RunResult r;
        r.fault = e.fault;
        r.activated = false;
        r.outcome = core::Outcome::kNormalSuccess;
        r.client_finished = true;
        r.detail = "pruned: " + std::string(plan::to_string(e.reason));
        out.runs.push_back(std::move(r));
        ++out.pruned;
        break;
      }
    }
  }

  if (obs::MetricsRegistry* metrics = options_.metrics) {
    const obs::Labels set_labels = {{"workload", base.workload.name},
                                    {"middleware", middleware_label(base)}};
    for (const auto& [reason, count] : plan.prune_histogram()) {
      obs::Labels labels = set_labels;
      labels.emplace_back("reason", std::string(plan::to_string(reason)));
      metrics->counter("dts_plan_pruned_total", labels,
                       "faults pruned from the sweep, by proof")
          .inc(count);
    }
    metrics->counter("dts_plan_dedup_total", set_labels,
                     "faults attributed to an equivalent run instead of executing")
        .inc(out.deduped);
    metrics->counter("dts_plan_unsampled_total", set_labels,
                     "faults skipped by adaptive early stopping")
        .inc(out.unsampled);
    metrics->counter("dts_plan_runs_saved_total", set_labels,
                     "sweep entries that did not need a fresh simulation")
        .inc(n - out.executed - out.reused);
    for (const plan::StratumProgress& s : out.strata) {
      obs::Labels labels = set_labels;
      labels.emplace_back("stratum", plan::to_string(s.key));
      metrics->gauge("dts_plan_stratum_ci_half_width", labels,
                     "Wilson 95% CI half-width on the stratum failure rate")
          .set(s.ci_half_width);
      metrics->gauge("dts_plan_stratum_trials", labels,
                     "activated runs recorded in the stratum")
          .set(static_cast<double>(s.trials));
    }
  }
  return out;
}

}  // namespace dts::exec
