#include "exec/recorder.h"

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "core/campaign.h"
#include "fault/model.h"
#include "forensics/signature.h"
#include "obs/fleet/span.h"
#include "obs/fleet/stall.h"
#include "obs/fleet/status.h"
#include "sim/rng.h"

namespace dts::exec {

namespace {

bool forensics_wanted(obs::TraceMode mode, const core::RunResult& r) {
  switch (mode) {
    case obs::TraceMode::kOff: return false;
    case obs::TraceMode::kAll: return true;
    case obs::TraceMode::kFailures:
      return r.outcome == core::Outcome::kFailure || r.restarts > 0;
  }
  return false;
}

/// Whether this run's trace is journaled. kFailures keeps the journal lean:
/// only runs that failed outright or whose users saw degraded service carry
/// their span tree (masked runs still contributed to the path digest axis of
/// live signatures, which needs no journal bytes).
bool rtrace_wanted(obs::rtrace::RtraceMode mode, const core::RunResult& r) {
  switch (mode) {
    case obs::rtrace::RtraceMode::kOff: return false;
    case obs::rtrace::RtraceMode::kAll: return true;
    case obs::rtrace::RtraceMode::kFailures:
      return r.outcome == core::Outcome::kFailure ||
             (r.topo && r.topo->user_outcome != "masked");
  }
  return false;
}

std::vector<std::string> forensics_context(const core::RunResult& r) {
  std::vector<std::string> out;
  std::string line = "outcome: ";
  line += outcome_label(r.outcome);
  if (r.outcome == core::Outcome::kFailure) {
    line += r.response_received ? " (wrong response)" : " (no response)";
  }
  out.push_back(std::move(line));
  out.push_back(std::string("activated: ") + (r.activated ? "yes" : "no"));
  out.push_back("response_time: " + sim::to_string(r.response_time) +
                "  sim_elapsed: " + sim::to_string(r.sim_elapsed));
  out.push_back("restarts: " + std::to_string(r.restarts) +
                "  retries: " + std::to_string(r.retries));
  if (!r.detail.empty()) out.push_back("detail: " + r.detail);
  return out;
}

/// File name for an on-disk forensics dump: fault ids contain '.'/'#'/':',
/// which stay readable, but nothing path-hostile survives.
std::string forensics_file_name(std::size_t index, const std::string& fault_id) {
  std::string name = "run-" + std::to_string(index) + "-";
  for (char c : fault_id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '#' || c == '-' ||
                    c == '_';
    name += ok ? c : '_';
  }
  return name + ".txt";
}

/// True when a journal record's execution index names a different campaign
/// digest — merging it on resume would silently mix another campaign's
/// results into this one. Records without an index (v1/v2 journals, or a
/// corrupted field) pass: the JournalKey header check already vouched for
/// them at file granularity.
bool foreign_record(const JournalRecord& rec, std::uint64_t campaign_digest) {
  if (rec.exec_index.empty()) return false;
  const auto ei = obs::fleet::ExecutionIndex::parse(rec.exec_index);
  return ei && ei->campaign_digest != campaign_digest;
}

/// Stamps the run's failure signature (src/forensics/), tier outcome and
/// request trace into the live status board.
void record_status_signature(obs::fleet::StatusBoard& status,
                             const core::RunResult& result, const RunIdentity& id,
                             const std::string& call_context) {
  const forensics::SignatureKey key = forensics::signature_of(result, call_context);
  obs::fleet::SignatureEntry sig;
  sig.id = forensics::signature_id(key);
  sig.fault_class = key.fault_class;
  sig.call_context = key.call_context;
  sig.outcome = key.outcome;
  sig.span = key.span;
  sig.example_fault = id.fault_id;
  sig.example_xi = id.exec_index;
  status.record_signature(sig);
  if (result.topo) {
    status.record_topology(result.topo->tier, result.topo->user_outcome);
  }
  if (result.rtrace) {
    obs::fleet::TraceEntry tr;
    tr.fault_id = id.fault_id;
    tr.tier = result.topo ? result.topo->tier : "";
    tr.user_outcome = result.topo ? result.topo->user_outcome : "";
    tr.digest = obs::rtrace::digest_hex(result.rtrace->digest);
    tr.spans = result.rtrace->spans.size();
    tr.requests = result.rtrace->requests.size();
    tr.injected = result.rtrace->injected_span != 0;
    status.record_trace(std::move(tr));
  }
}

}  // namespace

std::uint64_t journal_version(const core::RunConfig& base) {
  if (base.topo.empty()) return 5;
  return base.rtrace == obs::rtrace::RtraceMode::kOff ? 6 : 7;
}

ExecutedRun execute_one(const core::RunConfig& base, std::uint64_t campaign_seed,
                        const inject::FaultSpec& fault, const RunIdentity& id,
                        const ExecOptions& options) {
  core::RunConfig cfg = base;
  cfg.seed = sim::Rng::mix(campaign_seed, sim::Rng::hash(id.fault_id));
  if (options.trace != obs::TraceMode::kOff && cfg.trace_limit < options.forensics_depth) {
    cfg.trace_limit = options.forensics_depth;
  }
  ExecutedRun out;
  if (options.metrics != nullptr) out.start_us = options.metrics->now_us();
  const auto wall_start = std::chrono::steady_clock::now();
  core::FaultInjectionRun run(cfg);
  out.result = run.execute(fault);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  out.wall_us = static_cast<std::uint64_t>(std::llround(wall_s * 1e6));
  out.fn_called = run.interceptor().target_function_called();
  out.trace_digest = run.interceptor().trace_digest();
  if (const auto& ctx = run.interceptor().injection_context()) {
    out.call_context = ctx->to_string();
  }
  if (forensics_wanted(options.trace, out.result)) {
    std::vector<std::string> context = forensics_context(out.result);
    context.push_back("exec_index: " + id.exec_index);
    if (!out.call_context.empty()) context.push_back("call_context: " + out.call_context);
    out.forensics = obs::forensics_dump(id.fault_id, context, &run.spans(),
                                        run.interceptor().syscall_trace());
    if (!options.forensics_dir.empty()) {
      std::ofstream fx(options.forensics_dir + "/" +
                       forensics_file_name(id.index, id.fault_id));
      fx << out.forensics;
    }
  }
  if (options.metrics != nullptr) {
    out.replica = run.interceptor().injection_machine();
    out.spans = run.spans().spans();
  }
  return out;
}

RunRecorder::RunRecorder(const core::RunConfig& base, const ExecOptions& options,
                         const inject::FaultList& faults, std::uint64_t campaign_seed,
                         std::uint64_t campaign_digest, RecorderOptions recorder)
    : base_(base),
      options_(options),
      faults_(faults),
      campaign_seed_(campaign_seed),
      digest_(campaign_digest),
      recorder_(recorder),
      slots_(faults.faults.size()),
      metrics_(options.metrics) {
  tracker_ = std::make_unique<ProgressTracker>(faults.faults.size(), 0);

  // Resolve every per-campaign metric handle once — registry lookups (label
  // rendering + a mutex + a map walk) cost tens of microseconds and would
  // eat the near-zero-overhead budget on short runs; only rare events
  // (middleware spans) still look up lazily.
  if (metrics_ == nullptr || !recorder_.run_metrics) return;
  set_labels_ = {{"workload", base.workload.name}, {"middleware", middleware_label(base)}};
  resp_hist_ = &metrics_->histogram("dts_response_time_seconds", set_labels_,
                                    obs::response_time_buckets(),
                                    "client response time per run (seconds)");
  wall_hist_ = &metrics_->histogram("dts_run_wall_seconds", set_labels_,
                                    obs::wall_time_buckets(),
                                    "host wall-clock time per executed run (seconds)");
  for (core::Outcome o : core::kAllOutcomes) {
    obs::Labels run_labels = set_labels_;
    run_labels.emplace_back("outcome", std::string(outcome_label(o)));
    outcome_counters_[static_cast<std::size_t>(o)] =
        &metrics_->counter("dts_runs_total", run_labels, "executed runs by outcome");
  }
  for (const inject::FaultSpec& fault : faults.faults) {
    if (!activation_counters_.contains(fault.fn)) {
      activation_counters_[fault.fn] = &metrics_->counter(
          "dts_activations_total", {{"fn", std::string(nt::to_string(fault.fn))}},
          "fired faults per injection-site function");
    }
  }
  worker_runs_.assign(static_cast<std::size_t>(effective_jobs(options.jobs)), nullptr);
}

std::size_t RunRecorder::open(const std::function<bool(std::size_t)>& resumable) {
  JournalKey key;
  key.workload = base_.workload.name;
  key.middleware = static_cast<int>(base_.middleware);
  key.watchd_version = static_cast<int>(base_.watchd_version);
  key.seed = campaign_seed_;
  key.fault_count = slots_.size();

  std::size_t reused = 0;
  if (!options_.journal_path.empty() && options_.resume) {
    std::string error;
    auto records = read_journal(options_.journal_path, key, &error);
    if (!records) throw std::runtime_error(error);
    std::size_t foreign = 0;
    for (const JournalRecord& rec : *records) {
      if (rec.index >= slots_.size() || faults_.faults[rec.index].id() != rec.fault_id) {
        continue;
      }
      if (resumable && !resumable(rec.index)) continue;
      if (foreign_record(rec, digest_)) {
        ++foreign;
        continue;
      }
      CompletedRun& slot = slots_[rec.index];
      if (slot.executed) continue;  // duplicate record: the first one wins
      if (!core::parse_run_line(base_.workload.target_image, rec.run_line, &slot.result,
                                nullptr)) {
        continue;
      }
      slot.fn_called = rec.fn_called;
      slot.executed = true;
      if (!slot.result.activated && !slot.fn_called) note_uncalled(rec.index);
      ++reused;
    }
    if (foreign > 0) {
      std::cerr << "warning: " << options_.journal_path << ": skipped " << foreign
                << " journal record(s) whose execution index names a foreign "
                   "campaign digest\n";
      if (metrics_ != nullptr) {
        metrics_
            ->counter("dts_report_foreign_records_total", {},
                      "journal records skipped for carrying a foreign campaign "
                      "digest in their execution index")
            .inc(foreign);
      }
    }
  }

  if (!options_.journal_path.empty()) {
    std::string error;
    if (!journal_.open(options_.journal_path, key, options_.resume, &error,
                       options_.config_text, journal_version(base_))) {
      throw std::runtime_error(error);
    }
  }
  return reused;
}

void RunRecorder::start_progress(std::size_t total, std::size_t reused) {
  std::lock_guard<std::mutex> lock(progress_mu_);
  tracker_ = std::make_unique<ProgressTracker>(total, reused);
}

RunIdentity RunRecorder::identity(std::size_t index, std::uint64_t lease,
                                  int fleet_worker) const {
  return RunIdentity{index, lease, fleet_worker, faults_.faults[index].id(),
                     obs::fleet::ExecutionIndex{digest_, lease, index}.to_string()};
}

bool RunRecorder::proven_uncalled_before(std::size_t index) const {
  std::lock_guard<std::mutex> lock(proofs_mu_);
  const auto it = proofs_.find(faults_.faults[index].fn);
  return it != proofs_.end() && it->second < index;
}

void RunRecorder::note_uncalled(std::size_t index) {
  std::lock_guard<std::mutex> lock(proofs_mu_);
  auto [it, inserted] = proofs_.emplace(faults_.faults[index].fn, index);
  if (!inserted && index < it->second) it->second = index;
}

void RunRecorder::attach_worker(int worker) {
  if (worker_runs_.empty()) return;
  worker_runs_[static_cast<std::size_t>(worker)] = &metrics_->counter(
      "dts_exec_worker_runs_total", {{"worker", std::to_string(worker)}},
      "fresh runs executed per exec worker");
  metrics_->set_thread_name(worker, "worker-" + std::to_string(worker));
}

void RunRecorder::record(const RunIdentity& id, ExecutedRun run, int pool_worker) {
  const std::size_t i = id.index;
  const inject::FaultSpec& fault = faults_.faults[i];
  const core::RunResult& result = run.result;

  if (journal_.is_open()) {
    JournalRecord rec;
    rec.index = i;
    rec.fault_id = id.fault_id;
    rec.fn_called = run.fn_called;
    rec.run_line = core::serialize_run_line(result);
    rec.wall_us = run.wall_us;
    rec.sim_us = static_cast<std::uint64_t>(result.sim_elapsed.count_micros());
    rec.exec_index = id.exec_index;
    if (recorder_.stratified) {
      rec.stratum = plan::to_string(plan::StratumKey{fault.fn, fault.type});
    }
    rec.trace_digest = run.trace_digest;
    rec.call_context = run.call_context;
    rec.forensics = std::move(run.forensics);
    rec.model = fault::model_annotation(fault);
    rec.tier = fault.tier;
    if (result.rtrace && rtrace_wanted(base_.rtrace, result)) {
      rec.rtrace = result.rtrace->serialize();
    }
    journal_.append(rec);
  }

  const double wall_s = static_cast<double>(run.wall_us) * 1e-6;
  if (options_.stall != nullptr) {
    options_.stall->observe(plan::StratumKey{fault.fn, fault.type}, wall_s, id.fault_id,
                            id.exec_index);
  }
  if (options_.status != nullptr) {
    obs::fleet::RunEntry entry;
    entry.index = i;
    entry.fault_id = id.fault_id;
    entry.outcome = std::string(outcome_label(result.outcome));
    entry.wall_us = run.wall_us;
    entry.worker_id = id.fleet_worker;
    entry.lease_id = id.lease;
    entry.exec_index = id.exec_index;
    options_.status->record_run(std::move(entry));
    record_status_signature(*options_.status, result, id, run.call_context);
  }

  if (resp_hist_ != nullptr) {
    outcome_counters_[static_cast<std::size_t>(result.outcome)]->inc();
    if (result.activated) activation_counters_.at(fault.fn)->inc();
    resp_hist_->observe(result.response_time.to_seconds());
    wall_hist_->observe(wall_s);
    if (pool_worker >= 0) {
      worker_runs_[static_cast<std::size_t>(pool_worker)]->inc();
      for (const obs::Span& span : run.spans) {
        obs::Labels span_labels = set_labels_;
        span_labels.emplace_back("span", span.name);
        metrics_->histogram("dts_middleware_span_seconds", span_labels,
                            obs::response_time_buckets(),
                            "middleware detection/recovery latency (sim seconds)")
            .observe(span.duration().to_seconds());
      }
      obs::Labels event_args = {{"outcome", std::string(outcome_label(result.outcome))},
                                {"sim_s", sim::to_string(result.sim_elapsed)},
                                {"xi", id.exec_index}};
      if (result.topo) {
        // Topology runs label their timeline slice with the targeted tier and
        // replica, so a Perfetto row reads "db fault on sql_server-0
        // degraded" without a journal cross-reference.
        event_args.emplace_back("tier", result.topo->tier);
        if (!run.replica.empty()) event_args.emplace_back("replica", run.replica);
        event_args.emplace_back("user_outcome", result.topo->user_outcome);
      }
      metrics_->add_complete_event(id.fault_id, "run", pool_worker, run.start_us,
                                   static_cast<double>(run.wall_us), event_args);
    }
  }

  CompletedRun& slot = slots_[i];
  slot.fn_called = run.fn_called;
  if (!run.result.activated && !run.fn_called) note_uncalled(i);
  slot.result = std::move(run.result);
  slot.executed = true;
  progress(/*fresh=*/true);
}

void RunRecorder::progress(bool fresh) {
  std::lock_guard<std::mutex> lock(progress_mu_);
  const ProgressSnapshot s = tracker_->completed(fresh);
  if (options_.on_progress) options_.on_progress(s);
  if (options_.status != nullptr) {
    obs::fleet::CampaignStatus cs;
    cs.done = s.done;
    cs.total = s.total;
    cs.executed = s.executed;
    cs.reused = s.reused;
    cs.elapsed_s = s.elapsed_s;
    cs.runs_per_sec = s.runs_per_sec;
    cs.eta_s = s.eta_s;
    options_.status->update_campaign(cs);
  }
}

void RunRecorder::announce_progress() {
  std::lock_guard<std::mutex> lock(progress_mu_);
  if (options_.on_progress) options_.on_progress(tracker_->snapshot());
}

ProgressSnapshot RunRecorder::progress_snapshot() const {
  std::lock_guard<std::mutex> lock(progress_mu_);
  return tracker_->snapshot();
}

}  // namespace dts::exec
