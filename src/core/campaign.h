// Campaign orchestration — the paper's experiment flow chart (Fig. 1):
// for each workload, for each function, for each parameter, for each
// iteration, for each fault type: one fault-injection run.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include <optional>

#include "core/run.h"
#include "exec/progress.h"
#include "inject/fault_list.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "plan/sampler.h"

namespace dts::obs::fleet {
class StallDetector;
class StatusBoard;
}  // namespace dts::obs::fleet

namespace dts::exec {
struct ExecOptions;
}  // namespace dts::exec

namespace dts::plan {
struct GoldenProfile;
}  // namespace dts::plan

namespace dts::core {

/// Summary of the campaign plan a workload set ran under (absent for
/// exhaustive campaigns) — what `ntdts plan` and the run report print.
struct PlanDigest {
  std::size_t entries = 0;     // raw sweep size
  std::size_t executable = 0;  // faults the plan schedules for execution
  std::size_t pruned = 0;
  std::size_t deduped = 0;
  std::size_t executed = 0;   // fresh simulations actually run
  std::size_t reused = 0;     // reloaded from the journal
  std::size_t unsampled = 0;  // skipped by adaptive early stopping
  std::map<plan::PruneReason, std::size_t> prune_histogram;
  std::vector<plan::StratumProgress> strata;
};

/// All runs of one workload set (one workload × one middleware config).
struct WorkloadSetResult {
  RunConfig base_config;
  std::set<nt::Fn> activated_functions;  // paper Table 1
  std::vector<RunResult> runs;           // in fault-list order

  /// Faults that actually fired (the denominator for outcome percentages —
  /// the paper reports "percentage of the total number of activated faults").
  std::size_t activated_faults() const;
  std::map<Outcome, std::size_t> outcome_counts() const;
  double percent(Outcome o) const;
  /// Failure split for Fig. 4.
  std::size_t failures_with_response() const;
  std::size_t failures_without_response() const;

  std::string label() const;  // e.g. "Apache1/MSCS"

  /// Fresh simulations this campaign ran (not serialized; 0 after a cache
  /// load). The planner's whole point is making this smaller than runs.size().
  std::size_t executed_runs = 0;

  /// Present when the campaign ran under a plan (not serialized).
  std::optional<PlanDigest> plan_digest;
};

struct CampaignOptions {
  /// How many invocations of each function to inject (the I axis). The paper
  /// uses 1: "only the first invocation of each function was injected".
  int iterations = 1;

  /// Run one fault-free profiling pass first and restrict the fault list to
  /// functions the target actually calls. Equivalent to the paper's dynamic
  /// skip-uncalled-functions rule, minus the probe runs.
  bool profile_first = true;

  /// Root seed; each run derives its own from this and the fault id.
  std::uint64_t seed = 1;

  /// Optional progress callback (runs completed, total runs). Invoked for
  /// every completed fault, including skip-uncalled ones.
  std::function<void(std::size_t, std::size_t)> on_progress;

  /// Optional richer progress callback with throughput (runs/sec) and ETA.
  std::function<void(const exec::ProgressSnapshot&)> on_snapshot;

  /// Optional cap on the number of faults (for quick smoke experiments);
  /// 0 = no cap. Capped lists sample evenly across the sweep.
  std::size_t max_faults = 0;

  /// Parallel workers executing the sweep (each run is a fresh, seed-isolated
  /// simulation). 1 = serial on the calling thread; 0 = one worker per
  /// hardware thread. Results are byte-identical at any job count: per-run
  /// seeds derive from the fault id, never from worker id or schedule.
  int jobs = 1;

  /// Resumable run journal (JSONL, one record per completed run); empty =
  /// none. With `resume`, completed runs found in the journal are reused and
  /// only the missing faults execute.
  std::string journal_path;
  bool resume = false;

  /// Observability passthrough to the executor (see exec::ExecOptions):
  /// campaign metrics sink, per-run syscall trace mode, forensics ring depth
  /// and the optional per-run forensics dump directory.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceMode trace = obs::TraceMode::kOff;
  std::size_t forensics_depth = 32;
  std::string forensics_dir;

  /// Fleet observability passthrough (src/obs/fleet/): stall/anomaly
  /// detector and live status board, both fed per executed run. Null = off.
  obs::fleet::StallDetector* stall = nullptr;
  obs::fleet::StatusBoard* status = nullptr;

  /// Campaign planning (src/plan/): golden-run profiling, equivalence
  /// pruning, optional adaptive sampling. The default mode (kExhaustive)
  /// bypasses the planner entirely and reproduces the plain sweep.
  plan::PlanOptions plan;

  /// Snapshot/fork execution (src/snap/): execute the fault-free golden
  /// prefix once, capture COW snapshots at checkpoints, and fork each run
  /// from the checkpoint nearest below its injection site instead of
  /// replaying the prefix. Output is byte-identical to the default path at
  /// any jobs count (anything not provably resumable falls back to a full
  /// run), so the result cache key deliberately ignores this flag.
  bool snapshots = false;

  /// Fault-model selection (src/fault/): CSV of model names expanded by the
  /// registry's sweep enumerators ("paper,oserror"). Empty = the paper
  /// default, whose sweep is byte-identical to the pre-registry code. Parsed
  /// with fault::ModelSet::parse; run_workload_set throws std::runtime_error
  /// on unknown names. Part of the result cache key — different model sets
  /// are different campaigns.
  std::string models;
};

/// The campaign's fault sweep: the model registry's enumeration over
/// `activated` (null = every injectable function, the raw sweep a plan
/// covers), sampled evenly down to options.max_faults, with every fault
/// stamped with the topology's faulted tier. Throws std::runtime_error on an
/// unknown model name.
inject::FaultList campaign_sweep(const RunConfig& base, const CampaignOptions& options,
                                 const std::set<nt::Fn>* activated);

/// Executor options for a campaign: jobs, journal, resume, observability
/// sinks and progress from `options`, and the serialized campaign config
/// (core::serialize_config) the journal header embeds for `ntdts replay`.
/// Snapshot execution is on only when options.snapshots and `profile` (which
/// must outlive the executor) are both set. A campaign that runs an explicit
/// fault list passes the list's `fault_list_file`, which the config names.
/// Shared by every execution mode, so in-process and distributed journals
/// carry the same header.
exec::ExecOptions exec_options_from(const RunConfig& base, const CampaignOptions& options,
                                    const plan::GoldenProfile* profile = nullptr,
                                    const std::string& fault_list_file = {});

/// Runs a complete workload set and returns its results.
WorkloadSetResult run_workload_set(const RunConfig& base, const CampaignOptions& options = {});

/// Runs exactly `list`, the explicit fault list read from `fault_list_file`:
/// every listed fault executes (no skip-uncalled rule — the user asked for
/// precisely these). dist::run_workload_set_distributed is the distributed
/// twin and writes the same journal.
WorkloadSetResult run_fault_list(const RunConfig& base, const CampaignOptions& options,
                                 const inject::FaultList& list,
                                 const std::string& fault_list_file);

/// Profiling only: the set of activated functions (no faults injected).
std::set<nt::Fn> profile_workload(const RunConfig& base, std::uint64_t seed = 1);

/// Builds the campaign plan for `base` — golden profile plus equivalence
/// pruning over the raw sweep (honouring iterations and max_faults) — or,
/// in kFromFile mode, loads options.plan.plan_file and validates it against
/// the campaign. Throws std::runtime_error on load/validation failure.
/// `ntdts plan` calls this directly; run_workload_set calls it for the
/// non-exhaustive modes.
plan::Plan build_campaign_plan(const RunConfig& base, const CampaignOptions& options);

/// Text serialization of a workload-set result (configuration identity,
/// activated functions, one line per run). Round-trips through
/// deserialize_workload_set; used by the benchmark harness cache so each
/// table/figure binary can reuse campaign data instead of re-running it.
std::string serialize_workload_set(const WorkloadSetResult& set);
std::optional<WorkloadSetResult> deserialize_workload_set(const std::string& text,
                                                          std::string* error = nullptr);

/// One-run payload of the campaign file format (the fields after "run ") —
/// also the record payload of the exec run journal. parse_run_line accepts
/// exactly what serialize_run_line emits; `detail` and per-request results
/// are not round-tripped (as for the whole-set serialization).
std::string serialize_run_line(const RunResult& r);
bool parse_run_line(const std::string& target_image, const std::string& line,
                    RunResult* out, std::string* error);

/// Runs the workload set, or loads it from `cache_dir` if an identical
/// configuration was run before (empty cache_dir = always run). The cache
/// key covers workload, middleware, watchd version, seed, iterations and
/// fault cap.
WorkloadSetResult load_or_run_workload_set(const RunConfig& base,
                                           const CampaignOptions& options,
                                           const std::string& cache_dir);

}  // namespace dts::core
