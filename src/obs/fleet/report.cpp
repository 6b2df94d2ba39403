#include "obs/fleet/report.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/campaign.h"
#include "core/workload.h"
#include "fault/model.h"
#include "obs/fleet/span.h"
#include "obs/metrics.h"

namespace dts::obs::fleet {

namespace {

std::size_t outcome_slot(core::Outcome o) { return static_cast<std::size_t>(o); }

std::string config_label(const exec::JournalKey& key) {
  std::ostringstream out;
  out << key.workload << " mw=" << key.middleware << " wd=" << key.watchd_version
      << " seed=" << key.seed;
  return out.str();
}

std::string bound_label(double bound) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", bound);
  return buf;
}

std::string bar(std::uint64_t count, std::uint64_t max_count) {
  if (count == 0 || max_count == 0) return "";
  const std::size_t width =
      std::max<std::size_t>(1, static_cast<std::size_t>(40.0 * static_cast<double>(count) /
                                                        static_cast<double>(max_count)));
  return std::string(width, '#');
}

// Full five-character escape: workload/fault/context strings come from
// journals on disk, which nothing guarantees are tame — a workload named
// `<script>` or a detail string with a stray quote must render inert, both
// in element content and inside attribute values.
std::string html_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&#39;"; break;
      default: out += c;
    }
  }
  return out;
}

std::size_t topo_outcome_slot(const std::string& label) {
  for (std::size_t i = 0; i < 4; ++i) {
    if (label == core::kTopoOutcomes[i]) return i;
  }
  return 0;  // unreachable: parse_run_line validated the label
}

// The propagation matrix renders only when some record actually carries
// topology stats; classic reports are unchanged.
bool has_topo_axis(const FleetReport& report) {
  for (const ReportGroup& g : report.groups) {
    if (g.topo_runs > 0) return true;
  }
  return false;
}

// The per-model matrix is worth a section only when some record actually
// carries a non-default model annotation; a pure paper-model report would
// just repeat the outcome matrix row for row.
bool has_model_axis(const FleetReport& report) {
  for (const ReportGroup& g : report.groups) {
    for (const auto& [label, counts] : g.model_outcomes) {
      if (label != fault::kDefaultAnnotation) return true;
    }
  }
  return false;
}

// The request-trace sections render only when some record carries a v7 "rt"
// payload; untraced reports are unchanged.
bool has_rtrace_axis(const FleetReport& report) {
  for (const ReportGroup& g : report.groups) {
    if (g.traced_runs > 0) return true;
  }
  return false;
}

std::string ms(std::int64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1fms", static_cast<double>(us) / 1e3);
  return buf;
}

/// The request a human debugs first: injected beats clean, failed beats ok,
/// then slowest wins.
const obs::rtrace::RequestTrace* worst_request(const obs::rtrace::RunTrace& rt) {
  const auto score = [](const obs::rtrace::RequestTrace& r) {
    return (r.injected ? 4 : 0) + (r.ok ? 0 : 2);
  };
  const obs::rtrace::RequestTrace* best = nullptr;
  for (const obs::rtrace::RequestTrace& r : rt.requests) {
    if (best == nullptr || score(r) > score(*best) ||
        (score(r) == score(*best) && r.elapsed_us > best->elapsed_us)) {
      best = &r;
    }
  }
  return best;
}

/// Plain-text span waterfall of the exemplar's worst request, plus that
/// request's per-tier critical-path attribution. Span ids are minted in
/// begin order, so a parent's id is always below its children's — one pass
/// computes nesting depth.
std::string waterfall_text(const obs::rtrace::RunTrace& rt) {
  const obs::rtrace::RequestTrace* req = worst_request(rt);
  if (req == nullptr) return "";
  std::ostringstream out;
  out << "request #" << req->trace << " (" << (req->ok ? "ok" : "failed") << ", "
      << ms(req->elapsed_us) << (req->injected ? ", carries the injection" : "")
      << ")\n";
  std::map<int, int> depth;
  std::int64_t origin = 0;
  bool have_origin = false;
  for (const obs::rtrace::TraceSpan& s : rt.spans) {
    if (s.trace != req->trace) continue;
    if (!have_origin) {
      origin = s.begin_us;
      have_origin = true;
    }
    const auto it = depth.find(s.parent);
    const int d = s.parent == 0 || it == depth.end() ? 0 : it->second + 1;
    depth[s.id] = d;
    char line[200];
    std::snprintf(line, sizeof line, "  %*s%-9s %-8s %-14s [%9.1f -%9.1f ms] %s%s\n",
                  d * 2, "", s.name.c_str(), s.tier.c_str(), s.replica.c_str(),
                  static_cast<double>(s.begin_us - origin) / 1e3,
                  static_cast<double>(s.end_us - origin) / 1e3, s.outcome.c_str(),
                  s.injected ? "   <-- fault injected here" : "");
    out << line;
  }
  out << "critical-path attribution:\n";
  for (const obs::rtrace::TierAttribution& t : req->tiers) {
    char line[200];
    std::snprintf(line, sizeof line,
                  "  %-8s service %10s   failover-retry %10s   queue %10s\n",
                  t.tier.c_str(), ms(t.service_us).c_str(), ms(t.retry_us).c_str(),
                  ms(t.queue_us).c_str());
    out << line;
  }
  return out.str();
}

void render_histogram_lines(const ReportGroup& g,
                            const std::function<void(const std::string&, std::uint64_t,
                                                     const std::string&)>& emit) {
  const std::vector<double>& bounds = obs::response_time_buckets();
  std::uint64_t max_count = 0;
  for (std::uint64_t c : g.response_buckets) max_count = std::max(max_count, c);
  for (std::size_t i = 0; i < g.response_buckets.size(); ++i) {
    const std::string label =
        i < bounds.size() ? "<= " + bound_label(bounds[i]) + "s" : "> last";
    emit(label, g.response_buckets[i], bar(g.response_buckets[i], max_count));
  }
}

}  // namespace

FleetReport build_report(const std::vector<exec::JournalFile>& files,
                         obs::MetricsRegistry* metrics) {
  FleetReport report;
  const std::vector<double>& bounds = obs::response_time_buckets();

  // Group index by campaign identity; per-group set of seen fault indices
  // implements first-record-wins across files.
  std::map<std::string, std::size_t> group_of;
  std::vector<std::set<std::size_t>> seen;
  // Per group: the campaign digest its first xi-bearing record carries.
  // Records naming any OTHER digest were appended to the wrong file (or the
  // file was concatenated from two campaigns); merging them would silently
  // blend foreign results, so they are excluded and counted instead.
  // 0 = no xi seen yet (v1/v2 journals never resolve one — every record
  // passes, as the JournalKey header check vouched at file granularity).
  std::vector<std::uint64_t> group_digest;
  forensics::SignatureIndex signatures;

  for (const exec::JournalFile& file : files) {
    std::ostringstream id;
    id << file.key.workload << '\0' << file.key.middleware << '\0'
       << file.key.watchd_version << '\0' << file.key.seed << '\0'
       << file.key.fault_count;
    auto [it, inserted] = group_of.try_emplace(id.str(), report.groups.size());
    if (inserted) {
      ReportGroup g;
      g.key = file.key;
      g.min_version = g.max_version = file.version;
      g.response_buckets.assign(bounds.size() + 1, 0);
      report.groups.push_back(std::move(g));
      seen.emplace_back();
      group_digest.push_back(0);
    }
    ReportGroup& g = report.groups[it->second];
    g.min_version = std::min(g.min_version, file.version);
    g.max_version = std::max(g.max_version, file.version);

    std::string target_image;
    bool known_workload = true;
    try {
      target_image = core::workload_by_name(file.key.workload).target_image;
    } catch (const std::invalid_argument&) {
      known_workload = false;
    }

    const std::string campaign = config_label(file.key);
    for (const exec::JournalRecord& rec : file.records) {
      if (!rec.exec_index.empty()) {
        const auto ei = ExecutionIndex::parse(rec.exec_index);
        if (ei) {
          std::uint64_t& expected = group_digest[it->second];
          if (expected == 0) expected = ei->campaign_digest;
          if (ei->campaign_digest != expected) {
            ++g.foreign;
            ++report.foreign;
            continue;
          }
        }
      }
      if (!seen[it->second].insert(rec.index).second) {
        ++g.duplicates;
        ++report.duplicates;
        continue;
      }
      ++g.records;
      ++report.records;
      if (!rec.fn_called) ++g.uncalled;

      core::RunResult run;
      std::string error;
      if (!known_workload ||
          !core::parse_run_line(target_image, rec.run_line, &run, &error)) {
        ++g.unparsed;
        // Reserved signature keeps Σ cluster counts == merged records.
        signatures.add(forensics::unparsed_signature(), rec.fault_id,
                       rec.exec_index, campaign);
        continue;
      }
      forensics::SignatureKey sig_key =
          forensics::signature_of(run, rec.call_context);
      // The propagation-path axis: parsed run lines never carry the trace, so
      // the journal record's "rt" payload supplies it here (exactly what the
      // live path of signature_of reads from RunResult::rtrace).
      if (!rec.rtrace.empty()) {
        const std::uint64_t path = obs::rtrace::digest_of_serialized(rec.rtrace);
        if (path != 0) sig_key.path = obs::rtrace::digest_hex(path);
      }
      signatures.add(sig_key, rec.fault_id, rec.exec_index, campaign);
      if (!rec.rtrace.empty()) {
        if (const auto rt = obs::rtrace::RunTrace::parse(rec.rtrace)) {
          ++g.traced_runs;
          for (const obs::rtrace::TierAttribution& t : rt->totals) {
            bool found = false;
            for (obs::rtrace::TierAttribution& agg : g.rtrace_totals) {
              if (agg.tier == t.tier) {
                agg.service_us += t.service_us;
                agg.retry_us += t.retry_us;
                agg.queue_us += t.queue_us;
                found = true;
                break;
              }
            }
            if (!found) g.rtrace_totals.push_back(t);
          }
          const int rank = run.topo ? static_cast<int>(topo_outcome_slot(
                                          run.topo->user_outcome))
                                    : 0;
          if (rank > g.rtrace_example_rank ||
              (rank == g.rtrace_example_rank && rec.index < g.rtrace_example_index)) {
            g.rtrace_example_rank = rank;
            g.rtrace_example_index = rec.index;
            g.rtrace_example = rec.rtrace;
            g.rtrace_example_fault = rec.fault_id;
            g.rtrace_example_outcome =
                run.topo ? run.topo->user_outcome : std::string("-");
          }
        }
      }
      ++g.outcomes[outcome_slot(run.outcome)];
      ++report.outcomes[outcome_slot(run.outcome)];
      ++g.model_outcomes[rec.model.empty() ? std::string(fault::kDefaultAnnotation)
                                           : rec.model][outcome_slot(run.outcome)];
      if (run.topo) {
        ++g.topo_runs;
        ++g.tier_outcomes[run.topo->tier][topo_outcome_slot(run.topo->user_outcome)];
        auto& curve = g.tier_p95_buckets[run.topo->tier];
        if (curve.empty()) curve.assign(bounds.size() + 1, 0);
        const double p95_s = static_cast<double>(run.topo->p95_us) / 1e6;
        std::size_t slot = bounds.size();
        for (std::size_t b = 0; b < bounds.size(); ++b) {
          if (p95_s <= bounds[b]) {
            slot = b;
            break;
          }
        }
        ++curve[slot];
      }
      if (run.response_received) {
        ++g.responses;
        const double rt_s = run.response_time.to_seconds();
        g.response_sum_s += rt_s;
        std::size_t slot = bounds.size();
        for (std::size_t b = 0; b < bounds.size(); ++b) {
          if (rt_s <= bounds[b]) {
            slot = b;
            break;
          }
        }
        ++g.response_buckets[slot];
      }
    }
  }
  report.signatures = signatures.ranked();
  report.signature_runs = signatures.total();
  if (metrics != nullptr && report.foreign > 0) {
    metrics
        ->counter("dts_report_foreign_records_total", {},
                  "journal records skipped for carrying a foreign campaign "
                  "digest in their execution index")
        .inc(report.foreign);
  }
  return report;
}

std::string render_report_markdown(const FleetReport& report) {
  std::ostringstream out;
  out << "# DTS campaign report\n\n";
  out << "Merged " << report.records << " runs";
  if (report.duplicates > 0) {
    out << " (" << report.duplicates << " duplicate records dropped)";
  }
  out << " across " << report.groups.size() << " campaign configuration"
      << (report.groups.size() == 1 ? "" : "s") << ".\n\n";
  if (report.foreign > 0) {
    out << "**Warning:** " << report.foreign << " record"
        << (report.foreign == 1 ? "" : "s")
        << " excluded — execution index names a foreign campaign digest.\n\n";
  }

  out << "## Outcome matrix\n\n";
  out << "| configuration | runs |";
  for (core::Outcome o : core::kAllOutcomes) out << " " << core::short_label(o) << " |";
  out << " uncalled | unparsed |\n";
  out << "|---|---:|";
  for (std::size_t i = 0; i < 5; ++i) out << "---:|";
  out << "---:|---:|\n";
  for (const ReportGroup& g : report.groups) {
    out << "| " << config_label(g.key) << " | " << g.records << " |";
    for (std::uint64_t c : g.outcomes) out << " " << c << " |";
    out << " " << g.uncalled << " | " << g.unparsed << " |\n";
  }
  if (report.groups.size() > 1) {
    out << "| total | " << report.records << " |";
    for (std::uint64_t c : report.outcomes) out << " " << c << " |";
    out << "  |  |\n";
  }

  if (has_model_axis(report)) {
    out << "\n## Outcomes by fault model\n\n";
    out << "| configuration | model | runs |";
    for (core::Outcome o : core::kAllOutcomes) out << " " << core::short_label(o) << " |";
    out << "\n|---|---|---:|";
    for (std::size_t i = 0; i < 5; ++i) out << "---:|";
    out << "\n";
    for (const ReportGroup& g : report.groups) {
      for (const auto& [label, counts] : g.model_outcomes) {
        std::uint64_t runs = 0;
        for (std::uint64_t c : counts) runs += c;
        out << "| " << config_label(g.key) << " | " << label << " | " << runs << " |";
        for (std::uint64_t c : counts) out << " " << c << " |";
        out << "\n";
      }
    }
  }

  if (has_topo_axis(report)) {
    out << "\n## Per-tier fault propagation\n\n";
    out << "| configuration | tier | runs |";
    for (std::string_view o : core::kTopoOutcomes) out << " " << o << " |";
    out << "\n|---|---|---:|";
    for (std::size_t i = 0; i < 4; ++i) out << "---:|";
    out << "\n";
    for (const ReportGroup& g : report.groups) {
      for (const auto& [tier, counts] : g.tier_outcomes) {
        std::uint64_t runs = 0;
        for (std::uint64_t c : counts) runs += c;
        out << "| " << config_label(g.key) << " | " << tier << " | " << runs << " |";
        for (std::uint64_t c : counts) out << " " << c << " |";
        out << "\n";
      }
    }
    for (const ReportGroup& g : report.groups) {
      for (const auto& [tier, curve] : g.tier_p95_buckets) {
        out << "\n### Degradation curve: " << config_label(g.key) << ", tier " << tier
            << " (per-run p95)\n\n```\n";
        const std::vector<double>& bounds = obs::response_time_buckets();
        std::uint64_t max_count = 0;
        for (std::uint64_t c : curve) max_count = std::max(max_count, c);
        for (std::size_t i = 0; i < curve.size(); ++i) {
          const std::string label =
              i < bounds.size() ? "<= " + bound_label(bounds[i]) + "s" : "> last";
          char line[160];
          std::snprintf(line, sizeof line, "%10s %8llu %s\n", label.c_str(),
                        static_cast<unsigned long long>(curve[i]),
                        bar(curve[i], max_count).c_str());
          out << line;
        }
        out << "```\n";
      }
    }
  }

  if (has_rtrace_axis(report)) {
    out << "\n## Request traces\n\n";
    out << "| configuration | traced runs | tier | service | failover retry | "
           "queue |\n";
    out << "|---|---:|---|---:|---:|---:|\n";
    for (const ReportGroup& g : report.groups) {
      for (const auto& t : g.rtrace_totals) {
        out << "| " << config_label(g.key) << " | " << g.traced_runs << " | "
            << t.tier << " | " << ms(t.service_us) << " | " << ms(t.retry_us)
            << " | " << ms(t.queue_us) << " |\n";
      }
    }
    for (const ReportGroup& g : report.groups) {
      if (g.rtrace_example.empty()) continue;
      const auto rt = obs::rtrace::RunTrace::parse(g.rtrace_example);
      if (!rt) continue;
      out << "\n### Critical path: " << config_label(g.key) << ", fault "
          << g.rtrace_example_fault << " (" << g.rtrace_example_outcome
          << ")\n\n```\n" << waterfall_text(*rt) << "```\n";
    }
  }

  if (!report.signatures.empty()) {
    out << "\n## Failure signatures\n\n";
    out << report.signature_runs << " runs collapse into "
        << report.signatures.size() << " distinct signature"
        << (report.signatures.size() == 1 ? "" : "s") << ".\n\n";
    out << "| signature | fault class | call context | outcome | span | runs "
           "| campaigns | example |\n";
    out << "|---|---|---|---|---|---:|---:|---|\n";
    for (const forensics::SignatureCluster& s : report.signatures) {
      out << "| " << s.id << " | " << s.key.fault_class << " | "
          << s.key.call_context << " | " << s.key.outcome << " | " << s.key.span
          << " | " << s.count << " | " << s.campaigns << " | " << s.example_fault
          << " |\n";
    }
  }

  for (const ReportGroup& g : report.groups) {
    out << "\n## Response times: " << config_label(g.key) << "\n\n";
    if (g.min_version != g.max_version) {
      out << "Merged from journal schema versions " << g.min_version << ".."
          << g.max_version << ".\n\n";
    }
    if (g.responses == 0) {
      out << "No responses recorded.\n";
      continue;
    }
    char mean[48];
    std::snprintf(mean, sizeof mean, "%.3f",
                  g.response_sum_s / static_cast<double>(g.responses));
    out << g.responses << " responses, mean " << mean << "s.\n\n```\n";
    render_histogram_lines(g, [&](const std::string& label, std::uint64_t count,
                                  const std::string& bar_text) {
      char line[160];
      std::snprintf(line, sizeof line, "%10s %8llu %s\n", label.c_str(),
                    static_cast<unsigned long long>(count), bar_text.c_str());
      out << line;
    });
    out << "```\n";
  }
  return out.str();
}

std::string render_report_html(const FleetReport& report) {
  std::ostringstream out;
  out << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
      << "<title>DTS campaign report</title>\n"
      << "<style>body{font-family:sans-serif;margin:2em}"
      << "table{border-collapse:collapse}td,th{border:1px solid #999;"
      << "padding:4px 8px;text-align:right}th:first-child,td:first-child"
      << "{text-align:left}pre{background:#f4f4f4;padding:1em}</style>"
      << "</head><body>\n<h1>DTS campaign report</h1>\n";
  out << "<p>Merged " << report.records << " runs";
  if (report.duplicates > 0) {
    out << " (" << report.duplicates << " duplicate records dropped)";
  }
  out << " across " << report.groups.size() << " campaign configuration"
      << (report.groups.size() == 1 ? "" : "s") << ".</p>\n";
  if (report.foreign > 0) {
    out << "<p><strong>Warning:</strong> " << report.foreign << " record"
        << (report.foreign == 1 ? "" : "s")
        << " excluded &mdash; execution index names a foreign campaign "
           "digest.</p>\n";
  }

  out << "<h2>Outcome matrix</h2>\n<table>\n<tr><th>configuration</th><th>runs</th>";
  for (core::Outcome o : core::kAllOutcomes) {
    out << "<th>" << html_escape(std::string(core::short_label(o))) << "</th>";
  }
  out << "<th>uncalled</th><th>unparsed</th></tr>\n";
  for (const ReportGroup& g : report.groups) {
    out << "<tr><td>" << html_escape(config_label(g.key)) << "</td><td>" << g.records
        << "</td>";
    for (std::uint64_t c : g.outcomes) out << "<td>" << c << "</td>";
    out << "<td>" << g.uncalled << "</td><td>" << g.unparsed << "</td></tr>\n";
  }
  if (report.groups.size() > 1) {
    out << "<tr><td>total</td><td>" << report.records << "</td>";
    for (std::uint64_t c : report.outcomes) out << "<td>" << c << "</td>";
    out << "<td></td><td></td></tr>\n";
  }
  out << "</table>\n";

  if (has_model_axis(report)) {
    out << "<h2>Outcomes by fault model</h2>\n<table>\n"
        << "<tr><th>configuration</th><th>model</th><th>runs</th>";
    for (core::Outcome o : core::kAllOutcomes) {
      out << "<th>" << html_escape(std::string(core::short_label(o))) << "</th>";
    }
    out << "</tr>\n";
    for (const ReportGroup& g : report.groups) {
      for (const auto& [label, counts] : g.model_outcomes) {
        std::uint64_t runs = 0;
        for (std::uint64_t c : counts) runs += c;
        out << "<tr><td>" << html_escape(config_label(g.key)) << "</td><td>"
            << html_escape(label) << "</td><td>" << runs << "</td>";
        for (std::uint64_t c : counts) out << "<td>" << c << "</td>";
        out << "</tr>\n";
      }
    }
    out << "</table>\n";
  }

  if (has_topo_axis(report)) {
    out << "<h2>Per-tier fault propagation</h2>\n<table>\n"
        << "<tr><th>configuration</th><th>tier</th><th>runs</th>";
    for (std::string_view o : core::kTopoOutcomes) {
      out << "<th>" << html_escape(std::string(o)) << "</th>";
    }
    out << "</tr>\n";
    for (const ReportGroup& g : report.groups) {
      for (const auto& [tier, counts] : g.tier_outcomes) {
        std::uint64_t runs = 0;
        for (std::uint64_t c : counts) runs += c;
        out << "<tr><td>" << html_escape(config_label(g.key)) << "</td><td>"
            << html_escape(tier) << "</td><td>" << runs << "</td>";
        for (std::uint64_t c : counts) out << "<td>" << c << "</td>";
        out << "</tr>\n";
      }
    }
    out << "</table>\n";
    for (const ReportGroup& g : report.groups) {
      for (const auto& [tier, curve] : g.tier_p95_buckets) {
        out << "<h3>Degradation curve: " << html_escape(config_label(g.key))
            << ", tier " << html_escape(tier) << " (per-run p95)</h3>\n<pre>\n";
        const std::vector<double>& bounds = obs::response_time_buckets();
        std::uint64_t max_count = 0;
        for (std::uint64_t c : curve) max_count = std::max(max_count, c);
        for (std::size_t i = 0; i < curve.size(); ++i) {
          const std::string label =
              i < bounds.size() ? "<= " + bound_label(bounds[i]) + "s" : "> last";
          char line[160];
          std::snprintf(line, sizeof line, "%10s %8llu %s\n", label.c_str(),
                        static_cast<unsigned long long>(curve[i]),
                        bar(curve[i], max_count).c_str());
          out << html_escape(line);
        }
        out << "</pre>\n";
      }
    }
  }

  if (has_rtrace_axis(report)) {
    out << "<h2>Request traces</h2>\n<table>\n"
        << "<tr><th>configuration</th><th>traced runs</th><th>tier</th>"
        << "<th>service</th><th>failover retry</th><th>queue</th></tr>\n";
    for (const ReportGroup& g : report.groups) {
      for (const auto& t : g.rtrace_totals) {
        out << "<tr><td>" << html_escape(config_label(g.key)) << "</td><td>"
            << g.traced_runs << "</td><td>" << html_escape(t.tier) << "</td><td>"
            << ms(t.service_us) << "</td><td>" << ms(t.retry_us) << "</td><td>"
            << ms(t.queue_us) << "</td></tr>\n";
      }
    }
    out << "</table>\n";
    for (const ReportGroup& g : report.groups) {
      if (g.rtrace_example.empty()) continue;
      const auto rt = obs::rtrace::RunTrace::parse(g.rtrace_example);
      if (!rt) continue;
      out << "<h3>Critical path: " << html_escape(config_label(g.key))
          << ", fault " << html_escape(g.rtrace_example_fault) << " ("
          << html_escape(g.rtrace_example_outcome) << ")</h3>\n<pre>\n"
          << html_escape(waterfall_text(*rt)) << "</pre>\n";
    }
  }

  if (!report.signatures.empty()) {
    out << "<h2>Failure signatures</h2>\n<p>" << report.signature_runs
        << " runs collapse into " << report.signatures.size()
        << " distinct signature" << (report.signatures.size() == 1 ? "" : "s")
        << ".</p>\n<table>\n<tr><th>signature</th><th>fault class</th>"
        << "<th>call context</th><th>outcome</th><th>span</th><th>runs</th>"
        << "<th>campaigns</th><th>example</th></tr>\n";
    for (const forensics::SignatureCluster& s : report.signatures) {
      out << "<tr><td>" << html_escape(s.id) << "</td><td>"
          << html_escape(s.key.fault_class) << "</td><td>"
          << html_escape(s.key.call_context) << "</td><td>"
          << html_escape(s.key.outcome) << "</td><td>" << html_escape(s.key.span)
          << "</td><td>" << s.count << "</td><td>" << s.campaigns << "</td><td>"
          << html_escape(s.example_fault) << "</td></tr>\n";
    }
    out << "</table>\n";
  }

  for (const ReportGroup& g : report.groups) {
    out << "<h2>Response times: " << html_escape(config_label(g.key)) << "</h2>\n";
    if (g.responses == 0) {
      out << "<p>No responses recorded.</p>\n";
      continue;
    }
    out << "<pre>\n";
    render_histogram_lines(g, [&](const std::string& label, std::uint64_t count,
                                  const std::string& bar_text) {
      char line[160];
      std::snprintf(line, sizeof line, "%10s %8llu %s\n", label.c_str(),
                    static_cast<unsigned long long>(count), bar_text.c_str());
      out << html_escape(line);
    });
    out << "</pre>\n";
  }
  out << "</body></html>\n";
  return out.str();
}

}  // namespace dts::obs::fleet
