// dtsbench — the campaign benchmark driver (see README.md in this directory).
//
// One invocation measures ONE workload in this process, so the peak RSS it
// reports is that workload's own. Two modes:
//
//   --mode e2e     repeats the workload's campaign through the public entry
//                  core::run_workload_set (tracing and metrics off) for
//                  --seconds, and reports the end-to-end metrics as medians
//                  over the repetitions;
//   --mode traced  drives the same sweep run by run through
//                  core::FaultInjectionRun at jobs=1, timing each layer call
//                  from outside and reading the layers' public counters,
//                  reruns the campaign with a benchmark-owned metrics
//                  registry, and times unit-cost loops over each layer's
//                  public calls; from these it reports the per-layer metrics
//                  and the layer cost model.
//
// Both modes check the campaign output: every repetition's
// serialize_workload_set bytes must equal the first's and an in-process
// jobs=1, snapshots-off reference of the same workload. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   dtsbench --workload iis_mscs [--mode e2e|traced] [--seed 7] [--seconds 10]
//            [--fault-cap 0] [--scratch DIR] [--git-rev REV]
//   dtsbench --list
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/config.h"
#include "exec/executor.h"
#include "exec/journal.h"
#include "fault/model.h"
#include "obs/metrics.h"
#include "plan/profiler.h"
#include "probes.h"
#include "sim/rng.h"

namespace {

using namespace dts;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads. Each is a DTS configuration (the [test] keys below plus the
// seed) and the snapshot switch, which has no config-file key.

struct Workload {
  const char* name;
  const char* test_keys;  // [test] section body, seed excluded
  const char* sections;   // further sections
  bool snapshots;
};

constexpr Workload kWorkloads[] = {
    {"iis_mscs",
     "workload = IIS\nmiddleware = mscs\niterations = 4\njobs = 2\n", "", false},
    {"apache1_snap",
     "workload = Apache1\nmiddleware = none\niterations = 48\njobs = 2\n", "", true},
    {"three_tier_traced", "middleware = none\niterations = 1\njobs = 1\n",
     "[topology]\ntopology = lb:2*apache -> app:2*iis -> db:1*sql_server\n"
     "tier = app\nrtrace = failures\n",
     false},
    {"sql_mscs", "workload = SQL\nmiddleware = mscs\niterations = 1\njobs = 1\n", "",
     false},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

core::DtsConfig workload_config(const Workload& w, std::uint64_t seed,
                                std::size_t fault_cap) {
  const std::string text = std::string("[test]\n") + w.test_keys +
                           "seed = " + std::to_string(seed) + "\nmax_faults = " +
                           std::to_string(fault_cap) + "\n" + w.sections;
  std::string error;
  auto cfg = core::parse_config(text, &error);
  if (!cfg) throw std::runtime_error(std::string(w.name) + ": bad config: " + error);
  cfg->campaign.snapshots = w.snapshots;
  return *cfg;
}

// ---------------------------------------------------------------------------
// Small helpers.

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `v` (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Peak resident memory of this process and of its waited-for children
/// (forked snapshot runs), whichever is larger, in MB (2^20 bytes).
double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

/// The sweep run_workload_set executes for `activated`: the fault list a
/// complete campaign must produce one record for, in order.
inject::FaultList campaign_sweep(const core::DtsConfig& cfg,
                                 const std::set<nt::Fn>& activated) {
  std::string error;
  const auto models = fault::ModelSet::parse(cfg.campaign.models, &error);
  if (!models) throw std::runtime_error(error);
  inject::FaultList list =
      fault::build_sweep(cfg.run.workload.target_image, *models, &activated,
                         cfg.campaign.iterations)
          .sampled(cfg.campaign.max_faults);
  if (!cfg.run.topo.empty()) {
    for (auto& f : list.faults) f.tier = cfg.run.topo.fault_tier;
  }
  return list;
}

// ---------------------------------------------------------------------------
// One timed campaign through the public entry point.

struct CampaignRun {
  bool ok = false;  // run_workload_set returned
  std::string error;
  std::string bytes;  // serialize_workload_set output
  double campaign_s = 0.0;
  double setup_s = 0.0;  // call -> first completed run (progress callback)
  std::size_t attempted = 0;  // faults in the sweep
  std::size_t valid = 0;      // faults with a matching run record
  std::size_t runs = 0;
  std::map<std::string, std::size_t> outcomes;

  double runs_per_s() const {
    const double after_setup = campaign_s - setup_s;
    return after_setup > 0.0 ? static_cast<double>(runs) / after_setup : 0.0;
  }
};

CampaignRun run_campaign(const core::DtsConfig& cfg, core::CampaignOptions opt,
                         const std::function<void()>& on_progress = {}) {
  CampaignRun out;
  std::optional<Clock::time_point> first_run;
  opt.on_progress = [&](std::size_t, std::size_t) {
    if (!first_run) first_run = Clock::now();
    if (on_progress) on_progress();
  };
  if (!opt.journal_path.empty()) std::filesystem::remove(opt.journal_path);

  const Clock::time_point t0 = Clock::now();
  core::WorkloadSetResult set;
  try {
    set = core::run_workload_set(cfg.run, opt);
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  const Clock::time_point t1 = Clock::now();
  out.campaign_s = seconds_between(t0, t1);
  out.setup_s = seconds_between(t0, first_run.value_or(t1));
  if (!out.ok) return out;

  const inject::FaultList list = campaign_sweep(cfg, set.activated_functions);
  out.attempted = list.faults.size();
  out.runs = set.runs.size();
  for (std::size_t i = 0; i < std::min(out.runs, out.attempted); ++i) {
    if (set.runs[i].fault.id() == list.faults[i].id()) ++out.valid;
  }
  for (const auto& [o, n] : set.outcome_counts()) {
    out.outcomes[std::string(exec::outcome_label(o))] += n;
  }
  for (const core::RunResult& r : set.runs) {
    if (r.topo) ++out.outcomes["user:" + r.topo->user_outcome];
  }
  out.bytes = core::serialize_workload_set(set);
  return out;
}

std::string outcome_line(const std::map<std::string, std::size_t>& outcomes) {
  std::string s;
  for (const auto& [name, n] : outcomes) {
    if (!s.empty()) s += ' ';
    s += name + "=" + std::to_string(n);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Output: the final JSON line.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

void fail_check(Result* r, const std::string& what) {
  r->correct = false;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

void print_metrics_table(const Result& r) {
  for (const Metric& m : r.metrics) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// ---------------------------------------------------------------------------
// Options and host facts.

struct Options {
  std::string workload;
  std::string mode = "e2e";
  std::uint64_t seed = 7;
  double seconds = 10.0;
  std::size_t fault_cap = 0;
  std::string scratch = ".bench_build/dtsbench-scratch";
  std::string git_rev = "unknown";
};

void print_host(const Options& o, const core::DtsConfig& cfg) {
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_size = sysconf(_SC_PAGE_SIZE);
  std::printf("host: nproc=%ld ram_gib=%.1f build=%s compiler=\"%s\" git_rev=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              static_cast<double>(pages) * static_cast<double>(page_size) /
                  (1024.0 * 1024.0 * 1024.0),
              DTSBENCH_BUILD_TYPE, DTSBENCH_COMPILER, o.git_rev.c_str());
  std::printf("workload: %s mode=%s seed=%llu seconds=%g fault_cap=%zu jobs=%d "
              "snapshots=%s iterations=%d\n",
              o.workload.c_str(), o.mode.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.fault_cap, cfg.campaign.jobs,
              cfg.campaign.snapshots ? "on" : "off", cfg.campaign.iterations);
}

core::CampaignOptions reference_options(const core::DtsConfig& cfg) {
  core::CampaignOptions opt = cfg.campaign;
  opt.jobs = 1;
  opt.snapshots = false;
  opt.journal_path.clear();
  return opt;
}

/// Checks a campaign against the reference bytes and folds its record
/// accounting into `r`.
void check_campaign(Result* r, const CampaignRun& run, const std::string& reference,
                    const std::string& label) {
  r->attempted += std::max<std::size_t>(run.attempted, 1);
  r->failed += std::max<std::size_t>(run.attempted, 1) - run.valid;
  if (!run.ok) {
    fail_check(r, label + ": campaign threw: " + run.error);
  } else if (run.bytes != reference) {
    fail_check(r, label + ": serialize_workload_set digest " + fnv1a_hex(run.bytes) +
                      " != reference " + fnv1a_hex(reference));
  }
}

// ---------------------------------------------------------------------------
// End-to-end mode.

Result run_e2e(const Options& o, const core::DtsConfig& cfg) {
  Result r;
  core::CampaignOptions opt = cfg.campaign;
  opt.journal_path = o.scratch + "/" + o.workload + ".journal.jsonl";

  // The timed repetitions come first, so no earlier campaign in this process
  // (such as the reference) leaves its heap behind for them to work around.
  // The first campaign in a fresh process pays one-off costs (lazy statics,
  // heap growth, first-touch page faults); it is checked but not timed.
  const CampaignRun warmup = run_campaign(cfg, opt);
  const std::string first_bytes = warmup.bytes;
  check_campaign(&r, warmup, first_bytes, "warm-up");
  std::printf("warm-up: campaign %.4fs runs %zu digest %s\n", warmup.campaign_s,
              warmup.runs, fnv1a_hex(warmup.bytes).c_str());

  constexpr std::size_t kMinReps = 3;
  std::vector<double> campaign_s, setup_s, runs_per_s;
  const Clock::time_point start = Clock::now();
  while (r.correct &&
         (campaign_s.size() < kMinReps || seconds_between(start, Clock::now()) < o.seconds)) {
    const CampaignRun rep = run_campaign(cfg, opt);
    check_campaign(&r, rep, first_bytes,
                   "repetition " + std::to_string(campaign_s.size() + 1));
    campaign_s.push_back(rep.campaign_s);
    setup_s.push_back(rep.setup_s);
    runs_per_s.push_back(rep.runs_per_s());
    std::printf("rep %2zu: campaign %.4fs setup %.4fs runs %zu (%.1f runs/s) digest %s\n",
                campaign_s.size(), rep.campaign_s, rep.setup_s, rep.runs, rep.runs_per_s(),
                fnv1a_hex(rep.bytes).c_str());
  }
  std::filesystem::remove(opt.journal_path);
  const double peak_mb = peak_rss_mb();

  const CampaignRun ref = run_campaign(cfg, reference_options(cfg));
  check_campaign(&r, ref, first_bytes, "reference (jobs=1, snapshots off)");
  std::printf("reference (jobs=1, snapshots off): runs=%zu digest=%s %.3fs\n", ref.runs,
              fnv1a_hex(ref.bytes).c_str(), ref.campaign_s);
  std::printf("outcomes: %s\n", outcome_line(ref.outcomes).c_str());

  const double error_rate =
      static_cast<double>(r.failed) / static_cast<double>(std::max<std::uint64_t>(r.attempted, 1));
  std::printf("repetitions=%zu faults/rep=%zu error_rate=%.6g (faults without a valid "
              "run record / faults attempted)\n",
              campaign_s.size(), ref.attempted, error_rate);
  r.metrics = {
      {"campaign_s", median(campaign_s), "s"},
      {"runs_per_s", median(runs_per_s), "runs/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_mb, "MB"},
      {"valid_record_share", 1.0 - error_rate, "ratio"},
  };
  return r;
}

// ---------------------------------------------------------------------------
// Traced mode.

struct TracedRun {
  std::string fault_id;
  double build_s = 0.0;  // FaultInjectionRun constructor
  double exec_s = 0.0;   // execute()
  std::uint64_t events = 0;
  std::uint64_t k32_calls = 0;
  std::uint64_t connections = 0;
  std::uint64_t spans = 0;
  std::uint64_t http_attempts = 0;
  double sim_s = 0.0;
};

/// Sum of the registry's samples named `name`, over all label sets.
double registry_total(const obs::MetricsRegistry& reg, const std::string& name) {
  double total = 0.0;
  for (const obs::MetricSample& s : reg.snapshot()) {
    if (s.name != name) continue;
    total += s.kind == 'g' ? s.gauge_value : static_cast<double>(s.counter_value);
  }
  return total;
}

Result run_traced(const Options& o, const core::DtsConfig& cfg) {
  Result r;
  const core::RunConfig& base = cfg.run;
  const std::uint64_t seed = cfg.campaign.seed;
  const int jobs = exec::effective_jobs(cfg.campaign.jobs);
  const double probe_budget = std::clamp(o.seconds / 4.0, 0.1, 5.0);

  // 1. A warm-up campaign: the first in a fresh process pays one-off costs.
  core::CampaignOptions opt = cfg.campaign;
  opt.journal_path = o.scratch + "/" + o.workload + ".journal.jsonl";
  const CampaignRun warmup = run_campaign(cfg, opt);

  // 2. plan: the set-up pass (golden profile with snapshots, else profiling).
  std::vector<double> profile_times;
  std::set<nt::Fn> activated;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    if (cfg.campaign.snapshots) {
      activated = plan::golden_profile(base, seed, cfg.campaign.iterations).activated;
    } else {
      activated = core::profile_workload(base, seed);
    }
    profile_times.push_back(seconds_between(t0, Clock::now()));
  }
  const double profile_s = median(profile_times);

  // 3. The sweep, run by run, timed around each layer boundary from outside.
  const inject::FaultList list = campaign_sweep(cfg, activated);
  std::vector<TracedRun> traced;
  std::vector<exec::CompletedRun> completed;
  traced.reserve(list.faults.size());
  completed.reserve(list.faults.size());
  const bool http = base.topo.empty() && base.workload.client == core::ClientKind::kHttp;
  const Clock::time_point sweep_t0 = Clock::now();
  for (const inject::FaultSpec& fault : list.faults) {
    TracedRun t;
    t.fault_id = fault.id();
    core::RunConfig run_cfg = base;
    run_cfg.seed = sim::Rng::mix(seed, sim::Rng::hash(t.fault_id));
    exec::CompletedRun done;
    try {
      const Clock::time_point t0 = Clock::now();
      core::FaultInjectionRun run(run_cfg);
      const Clock::time_point t1 = Clock::now();
      done.result = run.execute(fault);
      const Clock::time_point t2 = Clock::now();
      t.build_s = seconds_between(t0, t1);
      t.exec_s = seconds_between(t1, t2);
      t.events = run.simulation().events_processed();
      t.k32_calls = run.interceptor().calls_observed();
      t.connections = run.network().connections_made();
      done.fn_called = run.interceptor().target_function_called();
      done.executed = true;
    } catch (const std::exception& e) {
      ++r.failed;
      fail_check(&r, "traced run " + t.fault_id + " threw: " + e.what());
      continue;
    }
    if (done.result.rtrace) t.spans = done.result.rtrace->spans.size();
    if (http) {
      for (const core::RequestResult& req : done.result.requests) {
        t.http_attempts += static_cast<std::uint64_t>(req.attempts);
      }
    }
    t.sim_s = done.result.sim_elapsed.to_seconds();
    traced.push_back(std::move(t));
    completed.push_back(std::move(done));
  }
  const double sweep_s = seconds_between(sweep_t0, Clock::now());
  r.attempted += list.faults.size();

  // The traced sweep at jobs=1 without snapshots, merged under the campaign's
  // skip rule, is the reference every campaign of this workload must equal.
  std::string reference;
  if (completed.size() == list.faults.size()) {
    core::WorkloadSetResult ref_set;
    ref_set.base_config = base;
    ref_set.activated_functions = activated;
    ref_set.runs = exec::merge_completed_runs(base, list, seed, /*skip_uncalled=*/true,
                                              std::move(completed))
                       .runs;
    reference = core::serialize_workload_set(ref_set);
  }
  check_campaign(&r, warmup, reference, "warm-up campaign");
  std::printf("reference (traced sweep, jobs=1, snapshots off): runs=%zu digest=%s\n",
              list.faults.size(), fnv1a_hex(reference).c_str());
  std::printf("outcomes: %s\n", outcome_line(warmup.outcomes).c_str());

  // The untraced campaign the traced pass is compared with, right after it.
  const CampaignRun untraced = run_campaign(cfg, opt);
  check_campaign(&r, untraced, reference, "untraced campaign");

  // 4. The campaign again, with a benchmark-owned metrics registry attached.
  obs::MetricsRegistry registry;
  obs::Gauge& queue_depth = registry.gauge("dts_exec_queue_depth");
  double queue_depth_max = 0.0;
  opt.metrics = &registry;
  const CampaignRun metered = run_campaign(cfg, opt, [&] {
    queue_depth_max = std::max(queue_depth_max, queue_depth.value());
  });
  check_campaign(&r, metered, reference, "metered campaign");
  const double runs = static_cast<double>(std::max<std::size_t>(metered.runs, 1));
  const double steals = registry_total(registry, "dts_exec_steals_total");
  const double forked = registry_total(registry, "dts_snap_forked_runs_total");
  const double synthesized = registry_total(registry, "dts_snap_synthesized_runs_total");
  const double fallback = registry_total(registry, "dts_snap_fallback_runs_total");
  const double copied_bytes = registry_total(registry, "dts_snap_copied_bytes_total");

  std::string error;
  const auto journal = exec::read_journal_file(opt.journal_path, &error);
  if (!journal || journal->records.empty()) {
    fail_check(&r, "campaign journal unreadable: " + error);
  }
  std::error_code size_error;
  const std::uintmax_t journal_size = std::filesystem::file_size(opt.journal_path, size_error);
  const double journal_bytes = size_error ? 0.0 : static_cast<double>(journal_size);
  const std::size_t journal_records = journal ? journal->records.size() : 0;
  // Representative record for the append probe: the median-sized one.
  exec::JournalRecord sample;
  if (journal_records > 0) {
    std::vector<exec::JournalRecord> recs = journal->records;
    std::sort(recs.begin(), recs.end(), [](const auto& a, const auto& b) {
      return a.run_line.size() + a.rtrace.size() < b.run_line.size() + b.rtrace.size();
    });
    sample = recs[recs.size() / 2];
  }

  // 5. Unit costs.
  const std::string append_path = o.scratch + "/" + o.workload + ".append.jsonl";
  const dtsbench::UnitCosts unit = dtsbench::measure_unit_costs(probe_budget, sample, append_path);
  const dtsbench::VmLifetime vm_life = dtsbench::vm_lifetime(1u << 20);
  std::filesystem::remove(append_path);
  std::filesystem::remove(opt.journal_path);

  // 6. Per-run counts and the layer cost model, each layer charged its self
  // cost (see README.md).
  const double n = static_cast<double>(std::max<std::size_t>(traced.size(), 1));
  std::vector<double> build_ms, exec_ms;
  double exec_total = 0.0, build_total = 0.0, sim_total = 0.0;
  double events = 0, k32 = 0, conns = 0, spans = 0, http_attempts = 0;
  for (const TracedRun& t : traced) {
    build_ms.push_back(t.build_s * 1e3);
    exec_ms.push_back(t.exec_s * 1e3);
    exec_total += t.exec_s;
    build_total += t.build_s;
    sim_total += t.sim_s;
    events += static_cast<double>(t.events);
    k32 += static_cast<double>(t.k32_calls);
    conns += static_cast<double>(t.connections);
    spans += static_cast<double>(t.spans);
    http_attempts += static_cast<double>(t.http_attempts);
  }
  struct LayerTerm {
    const char* layer;
    double count;
    double unit_ns;
  };
  // Two netsim messages (request and reply) per connection.
  const LayerTerm terms[] = {
      {"sim events", events, unit.event_ns},
      {"ntsim dispatch (self)", k32, unit.dispatch_self_ns},
      {"inject hook", k32, unit.hook_ns},
      {"ntsim netsim (self)", 2 * conns, unit.net_self_ns},
      {"rtrace spans", spans, unit.span_ns},
      {"apps http parse", http_attempts, unit.http_parse_ns},
  };
  double modeled_s = 0.0;
  std::printf("layer cost model (per run; execute() mean %.4f ms):\n", exec_total / n * 1e3);
  for (const LayerTerm& t : terms) {
    const double s = t.count * t.unit_ns * 1e-9;
    modeled_s += s;
    std::printf("  %-22s count/run %12.1f x %9.1f ns = %9.4f ms/run (%5.1f%%)\n", t.layer,
                t.count / n, t.unit_ns, s / n * 1e3,
                exec_total > 0 ? 100.0 * s / exec_total : 0.0);
  }

  // The costliest runs, by execute() time.
  std::vector<const TracedRun*> by_cost;
  for (const TracedRun& t : traced) by_cost.push_back(&t);
  std::sort(by_cost.begin(), by_cost.end(),
            [](const TracedRun* a, const TracedRun* b) { return a->exec_s > b->exec_s; });
  double top3 = 0.0;
  std::printf("costliest runs:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(3, by_cost.size()); ++i) {
    top3 += by_cost[i]->exec_s;
    std::printf("  %-40s %10.3f ms  events %llu  k32 %llu\n", by_cost[i]->fault_id.c_str(),
                by_cost[i]->exec_s * 1e3,
                static_cast<unsigned long long>(by_cost[i]->events),
                static_cast<unsigned long long>(by_cost[i]->k32_calls));
  }
  std::printf("vm lifetime: %llu of %llu ops failed with bad_alloc, first at op %llu\n",
              static_cast<unsigned long long>(vm_life.failed),
              static_cast<unsigned long long>(vm_life.ops),
              static_cast<unsigned long long>(vm_life.first_failure));
  std::printf("traced sweep %.3fs + profile %.3fs vs untraced campaign %.3fs; "
              "snapshot runs forked=%g synthesized=%g fallback=%g\n",
              sweep_s, profile_s, untraced.campaign_s, forked, synthesized, fallback);

  const double executor_wall = std::max(untraced.campaign_s - profile_s, 1e-9);
  r.metrics = {
      {"sim.event_ns", unit.event_ns, "ns"},
      {"sim.events_per_run", events / n, "count"},
      {"ntsim.dispatch_ns", unit.dispatch_ns, "ns"},
      {"inject.hook_ns", unit.hook_ns, "ns"},
      {"ntsim.k32_calls_per_run", k32 / n, "count"},
      {"ntsim.vm_alloc_free_ns", unit.vm_alloc_free_ns, "ns"},
      {"ntsim.vm_op_fail_ratio",
       static_cast<double>(vm_life.failed) / static_cast<double>(vm_life.ops), "ratio"},
      {"ntsim.net_send_ns", unit.net_message_ns, "ns"},
      {"ntsim.net_conns_per_run", conns / n, "count"},
      {"rtrace.span_ns", unit.span_ns, "ns"},
      {"rtrace.spans_per_run", spans / n, "count"},
      {"core.world_build_ms", median(build_ms), "ms"},
      {"core.run_ms_p50", percentile(exec_ms, 50), "ms"},
      {"core.run_ms_p99", percentile(exec_ms, 99), "ms"},
      {"core.run_ms_max", percentile(exec_ms, 100), "ms"},
      {"core.top3_run_share", exec_total > 0 ? top3 / exec_total : 0.0, "ratio"},
      {"core.run_sim_s", sim_total, "s"},
      {"plan.profile_s", profile_s, "s"},
      {"exec.overhead_share",
       1.0 - (exec_total + build_total) / (jobs * executor_wall), "ratio"},
      {"exec.steals", steals, "count"},
      {"exec.queue_depth_max", queue_depth_max, "count"},
      {"exec.journal_append_us", unit.journal_append_us, "us"},
      {"exec.journal_bytes_per_run",
       journal_bytes / static_cast<double>(std::max<std::size_t>(journal_records, 1)), "B"},
      {"snap.forked_share", forked / runs, "ratio"},
      {"snap.synthesized_share", synthesized / runs, "ratio"},
      {"snap.fallback_share", fallback / runs, "ratio"},
      {"snap.copied_mb", copied_bytes / (1024.0 * 1024.0), "MB"},
      {"apps.http_parse_ns", unit.http_parse_ns, "ns"},
      {"model.explained_share", exec_total > 0 ? modeled_s / exec_total : 0.0, "ratio"},
      {"trace.overhead_share",
       (sweep_s + profile_s) / std::max(untraced.campaign_s, 1e-9) - 1.0, "ratio"},
  };
  return r;
}

// ---------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: dtsbench --workload NAME [--mode e2e|traced] [--seed N] "
               "[--seconds S] [--fault-cap N] [--scratch DIR] [--git-rev REV]\n"
               "       dtsbench --list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list") {
      for (const Workload& w : kWorkloads) std::printf("%s\n", w.name);
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--mode") {
      o.mode = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--fault-cap") {
      o.fault_cap = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--scratch") {
      o.scratch = v;
    } else if (a == "--git-rev") {
      o.git_rev = v;
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(o.workload);
  if (w == nullptr || (o.mode != "e2e" && o.mode != "traced")) return usage();

  try {
    std::filesystem::create_directories(o.scratch);
    const core::DtsConfig cfg = workload_config(*w, o.seed, o.fault_cap);
    print_host(o, cfg);
    const Result r = o.mode == "e2e" ? run_e2e(o, cfg) : run_traced(o, cfg);
    std::printf("metrics (%s, %s):\n", o.workload.c_str(), o.mode.c_str());
    print_metrics_table(r);
    std::fflush(stdout);
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dtsbench: %s\n", e.what());
    return 1;
  }
}
