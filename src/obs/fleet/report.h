// Campaign report generator: merges one or more run journals (any schema
// version, any mix of campaigns) into a single Markdown or HTML report —
// outcome matrix per workload×configuration group plus response-time
// histograms. Merging follows the journal's own first-record-wins rule:
// within a (campaign, fault index) pair the record from the earliest file
// wins and later duplicates are counted but dropped, so re-reporting over a
// journal plus its resumed continuation is exact, never double-counted.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/outcome.h"
#include "exec/journal.h"
#include "forensics/signature.h"
#include "obs/rtrace/rtrace.h"

namespace dts::obs {
class MetricsRegistry;
}

namespace dts::obs::fleet {

/// Aggregates for one campaign configuration (one JournalKey).
struct ReportGroup {
  exec::JournalKey key;
  std::uint64_t min_version = 0;  // journal schema versions merged into this
  std::uint64_t max_version = 0;  // group (differ on mixed-version merges)
  std::uint64_t records = 0;      // deduplicated records
  std::uint64_t duplicates = 0;   // dropped (same fault index seen again)
  std::uint64_t foreign = 0;      // excluded: execution index names a foreign
                                  // campaign digest (see build_report)
  std::uint64_t unparsed = 0;     // records whose run payload did not parse
  std::uint64_t uncalled = 0;     // fn never called (skip-uncalled rule)
  std::array<std::uint64_t, 5> outcomes{};  // indexed like core::kAllOutcomes
  /// Fault-model axis (journal v5 "fm"): outcome counts per model annotation;
  /// records without the field count under the default "paper:transient".
  /// The per-model matrix renders only when a non-default annotation exists,
  /// so default-model reports are unchanged.
  std::map<std::string, std::array<std::uint64_t, 5>> model_outcomes;
  std::vector<std::uint64_t> response_buckets;  // over response_time_buckets,
                                                // +Inf last; responses only
  std::uint64_t responses = 0;
  double response_sum_s = 0.0;

  /// Multi-tier axis (journal v6 / topo run-line extras): per-tier counts of
  /// the four user-visible propagation outcomes, indexed like
  /// core::kTopoOutcomes. Empty for classic campaigns — the propagation
  /// matrix renders only when some record carries topology stats, so classic
  /// reports are byte-identical to before.
  std::map<std::string, std::array<std::uint64_t, 4>> tier_outcomes;
  std::uint64_t topo_runs = 0;  // records carrying topology stats
                                // (== Σ tier_outcomes counts, the matrix
                                // reconciliation figure)
  /// Degradation curve per tier: end-to-end p95 of each run bucketed over
  /// response_time_buckets (+Inf last), successful-request latencies only.
  std::map<std::string, std::vector<std::uint64_t>> tier_p95_buckets;

  /// Request-trace axis (journal v7 "rt"): per-tier critical-path attribution
  /// summed over every traced run, plus one exemplar — the worst-severity
  /// traced run merged (outage > partial > degraded > masked, ties to the
  /// lowest fault index, so record order — which --jobs and distributed
  /// runs shuffle — never changes it) — rendered as a span waterfall. Empty
  /// for untraced campaigns, so their reports are byte-identical to before.
  std::uint64_t traced_runs = 0;
  std::vector<obs::rtrace::TierAttribution> rtrace_totals;
  std::string rtrace_example;          // serialized RunTrace ("rt" payload)
  std::string rtrace_example_fault;    // its fault id
  std::string rtrace_example_outcome;  // its user-visible outcome
  int rtrace_example_rank = -1;        // severity rank of the exemplar
  std::size_t rtrace_example_index = 0;  // its fault index
};

struct FleetReport {
  std::vector<ReportGroup> groups;          // in first-seen order
  std::array<std::uint64_t, 5> outcomes{};  // aggregate across groups
  std::uint64_t records = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t foreign = 0;  // Σ groups' foreign-digest exclusions

  /// Failure-signature clusters across every merged record (ranked failures
  /// first). Every deduplicated record maps to exactly one signature, so
  /// signature_runs == records — the reconciliation invariant `ntdts report`
  /// asserts before rendering.
  std::vector<forensics::SignatureCluster> signatures;
  std::uint64_t signature_runs = 0;
};

/// Merges journals into a report. Records whose execution index carries a
/// campaign digest different from the group's own (first xi-bearing record
/// wins) are NOT merged: they are counted per group as `foreign`, reported
/// as a warning, and — when `metrics` is given — counted on the
/// `dts_report_foreign_records_total` counter.
FleetReport build_report(const std::vector<exec::JournalFile>& files,
                         obs::MetricsRegistry* metrics = nullptr);

std::string render_report_markdown(const FleetReport& report);
std::string render_report_html(const FleetReport& report);

}  // namespace dts::obs::fleet
