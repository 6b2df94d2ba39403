// One run pipeline, one record site. Every execution mode — the in-process
// worker pool, the snapshot/fork phase, planned rounds and the distributed
// coordinator — executes a run through execute_one (or a forked child, or a
// remote worker calling execute_one) and records it through a RunRecorder.
// The recorder is the only code that builds an exec::JournalRecord, chooses
// the journal version, reloads a resume journal, and feeds the stall
// detector, the status board, the campaign metrics and progress — so every
// mode writes the same journal for the same campaign by construction.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/journal.h"

namespace dts::exec {

/// Journal schema version for this campaign — the only place it is chosen:
/// classic campaigns stay v5 byte-for-byte, untraced topology campaigns stay
/// v6 byte-for-byte, and only topology campaigns with request tracing enabled
/// mint v7 (the "rt" trailer).
std::uint64_t journal_version(const core::RunConfig& base);

/// The name of one run, built once and shared by execution and recording:
/// its position in the campaign, the shard lease and fleet worker that ran it
/// (0 / -1 in-process), its fault id and its execution index
/// "campaign_digest/lease/index" (obs/fleet/span.h).
struct RunIdentity {
  std::size_t index = 0;
  std::uint64_t lease = 0;
  int fleet_worker = -1;
  std::string fault_id;
  std::string exec_index;
};

/// One finished run: what execute_one, a forked snapshot child or a remote
/// worker's streamed result reports, and everything RunRecorder::record
/// needs. The trailing fields exist only for runs execute_one ran in this
/// process with metrics on (a forked child or remote worker leaves them empty).
struct ExecutedRun {
  core::RunResult result;
  bool fn_called = false;
  std::uint64_t wall_us = 0;       // host wall clock of the run
  std::uint64_t trace_digest = 0;  // interceptor trajectory fingerprint
  std::string call_context;        // corrupted call's context ("" = never fired)
  std::string forensics;           // dump, when the trace mode selects the run

  double start_us = 0.0;         // metrics clock at run start (trace event)
  std::string replica;           // machine the fault fired on (topology runs)
  std::vector<obs::Span> spans;  // middleware latency spans
};

/// Executes `fault` as one fresh simulation: derives the run's seed from
/// (campaign seed, fault id), raises the syscall-trace ring to the forensics
/// depth when tracing, times the run, and captures fn_called, the trace
/// digest, the corrupted call's context and — when options.trace selects the
/// run — the forensics dump (also written under options.forensics_dir,
/// which must exist).
ExecutedRun execute_one(const core::RunConfig& base, std::uint64_t campaign_seed,
                        const inject::FaultSpec& fault, const RunIdentity& id,
                        const ExecOptions& options);

struct RecorderOptions {
  /// Tag records with their sampling stratum "fn/type" (planned campaigns).
  bool stratified = false;
  /// Feed the per-run metric series (outcomes, activations, histograms,
  /// per-worker runs, trace events). Off where the runs execute elsewhere
  /// and ship those series themselves (a distributed worker's telemetry).
  bool run_metrics = true;
};

class RunRecorder {
 public:
  /// `faults` is the campaign in journal-index order (a planned campaign
  /// passes its plan entries' faults); `campaign_digest` names it in every
  /// execution index. The recorder must outlive every record() call; the
  /// objects `options` points at must outlive the recorder.
  RunRecorder(const core::RunConfig& base, const ExecOptions& options,
              const inject::FaultList& faults, std::uint64_t campaign_seed,
              std::uint64_t campaign_digest, RecorderOptions recorder = {});

  /// With options.resume, reloads the journal's records for this campaign
  /// (refusing a foreign journal by throwing std::runtime_error; skipping
  /// records whose execution index names another campaign, duplicates, and
  /// indices `resumable` rejects), then opens the journal for appending.
  /// Returns how many runs were reused.
  std::size_t open(const std::function<bool(std::size_t)>& resumable = {});

  /// Starts the progress clock: `total` faults, `reused` already done.
  void start_progress(std::size_t total, std::size_t reused);

  RunIdentity identity(std::size_t index, std::uint64_t lease = 0,
                       int fleet_worker = -1) const;

  /// Whether fault `index` already has a result (reused or recorded).
  bool has_result(std::size_t index) const { return slots_[index].executed; }
  const CompletedRun& slot(std::size_t index) const { return slots_[index]; }

  /// Paper-§4 skip rule: an executed run at an earlier index proved the
  /// fault's function uncalled, so the serial sweep would skip `index`.
  bool proven_uncalled_before(std::size_t index) const;

  /// Resolves pool worker `worker`'s per-worker series and names its trace
  /// row. Call once per pool worker before its first record().
  void attach_worker(int worker);

  /// Records one finished run: journal record, stall detector, status board
  /// and signature, metrics, the result slot and progress. Thread-safe for
  /// distinct indices. `pool_worker` >= 0 names the in-process pool worker
  /// that ran it (per-worker runs and its trace event).
  void record(const RunIdentity& id, ExecutedRun run, int pool_worker = -1);

  /// Progress for a fault that finished without a fresh record (elided by
  /// the skip rule, or reused from the journal when its round came up).
  void progress(bool fresh);
  /// Reports the current progress unchanged (a campaign with nothing left).
  void announce_progress();
  ProgressSnapshot progress_snapshot() const;

  /// Moves the completed slots out (fault-list order) for merging.
  std::vector<CompletedRun> take_slots() { return std::move(slots_); }

 private:
  const core::RunConfig& base_;
  const ExecOptions& options_;
  const inject::FaultList& faults_;
  std::uint64_t campaign_seed_ = 0;
  std::uint64_t digest_ = 0;
  RecorderOptions recorder_;

  /// Records `index` as proof that its fault's function went uncalled.
  void note_uncalled(std::size_t index);

  std::vector<CompletedRun> slots_;
  RunJournal journal_;

  mutable std::mutex proofs_mu_;
  std::map<nt::Fn, std::size_t> proofs_;  // fn -> lowest uncalled index

  mutable std::mutex progress_mu_;
  std::unique_ptr<ProgressTracker> tracker_;

  // Pre-resolved metric handles (null when metrics are off): the record
  // path does only relaxed atomic updates.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Labels set_labels_;
  obs::Histogram* resp_hist_ = nullptr;
  obs::Histogram* wall_hist_ = nullptr;
  std::array<obs::Counter*, std::size(core::kAllOutcomes)> outcome_counters_{};
  std::map<nt::Fn, obs::Counter*> activation_counters_;
  std::vector<obs::Counter*> worker_runs_;
};

}  // namespace dts::exec
