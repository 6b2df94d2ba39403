// Every execution mode writes the same journal for the same campaign: serial,
// --jobs=8, snapshot/fork and coordinator + worker processes all record
// through exec::RunRecorder, so their journals agree once wall times, lease
// ids and the header's `jobs` line are normalised away — not just their
// campaign.dts. A planned campaign's executed records match the exhaustive
// sweep's by fault id. Labelled `dist`, which both sanitizer presets select.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/config.h"
#include "dist/coordinator.h"
#include "exec/journal.h"
#include "forensics/replay.h"
#include "inject/fault_list.h"
#include "journal_norm.h"
#include "obs/fleet/report.h"
#include "snap/fork_runner.h"

namespace dts {
namespace {

using testing::NormalJournal;
using testing::normalise_journal;

constexpr char kClassic[] =
    "[test]\n"
    "workload = IIS\n"
    "middleware = mscs\n"
    "seed = 7\n"
    "max_faults = 96\n";

constexpr char kThreeTier[] =
    "[test]\n"
    "middleware = none\n"
    "seed = 7\n"
    "max_faults = 12\n"
    "\n"
    "[topology]\n"
    "topology = lb:2*apache -> app:2*iis -> db:1*sql_server\n"
    "tier = app\n";

const std::string kTracedThreeTier = std::string(kThreeTier) + "rtrace = all\n";

core::DtsConfig parse_or_die(const std::string& text) {
  std::string error;
  auto cfg = core::parse_config(text, &error);
  EXPECT_TRUE(cfg.has_value()) << error;
  return cfg.value();
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) /
          (name + "." + std::to_string(::getpid()) + ".jsonl"))
      .string();
}

enum class Mode { kSerial, kJobs8, kSnapshots, kDistributed };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kSerial: return "jobs=1";
    case Mode::kJobs8: return "jobs=8";
    case Mode::kSnapshots: return "snapshots=on";
    case Mode::kDistributed: return "coordinator + 2 workers";
  }
  return "?";
}

struct ModeRun {
  std::string journal;    // path
  std::string campaign;   // serialize_workload_set
};

ModeRun run_mode(const core::DtsConfig& cfg, Mode mode, const std::string& tag) {
  core::CampaignOptions opt = cfg.campaign;
  ModeRun out;
  out.journal = temp_path(tag + "_" + std::to_string(static_cast<int>(mode)));
  std::filesystem::remove(out.journal);
  opt.journal_path = out.journal;
  core::WorkloadSetResult set;
  switch (mode) {
    case Mode::kSerial:
      opt.jobs = 1;
      set = core::run_workload_set(cfg.run, opt);
      break;
    case Mode::kJobs8:
      opt.jobs = 8;
      set = core::run_workload_set(cfg.run, opt);
      break;
    case Mode::kSnapshots:
      opt.jobs = 2;
      opt.snapshots = true;
      set = core::run_workload_set(cfg.run, opt);
      break;
    case Mode::kDistributed: {
      dist::DistOptions d;
      d.spawn_workers = 2;
      set = dist::run_workload_set_distributed(cfg.run, opt, std::move(d));
      break;
    }
  }
  out.campaign = core::serialize_workload_set(set);
  return out;
}

/// Runs `config` in every mode and checks each journal against the serial one.
void expect_identical_journals(const std::string& config, const std::string& tag) {
  const core::DtsConfig cfg = parse_or_die(config);
  const ModeRun serial = run_mode(cfg, Mode::kSerial, tag);
  const NormalJournal want = normalise_journal(serial.journal);
  ASSERT_FALSE(want.header.empty());
  ASSERT_FALSE(want.records.empty());
  for (Mode mode : {Mode::kJobs8, Mode::kSnapshots, Mode::kDistributed}) {
    if (mode == Mode::kSnapshots && !snap::snapshots_supported()) continue;
    SCOPED_TRACE(mode_name(mode));
    const ModeRun got = run_mode(cfg, mode, tag);
    EXPECT_EQ(got.campaign, serial.campaign);
    const NormalJournal have = normalise_journal(got.journal);
    EXPECT_EQ(have.header, want.header);
    ASSERT_EQ(have.records.size(), want.records.size());
    for (std::size_t k = 0; k < want.records.size(); ++k) {
      EXPECT_EQ(have.records[k], want.records[k]);
    }
    std::filesystem::remove(got.journal);
  }
  std::filesystem::remove(serial.journal);
}

TEST(JournalIdentity, ClassicIisMscsAcrossModes) {
  expect_identical_journals(kClassic, "ji_classic");
}

TEST(JournalIdentity, ThreeTierAcrossModes) {
  expect_identical_journals(kThreeTier, "ji_topo");
}

TEST(JournalIdentity, TracedThreeTierAcrossModes) {
  expect_identical_journals(kTracedThreeTier, "ji_traced");
}

// An explicit fault list runs the same in-process (`ntdts run` without
// --workers) and distributed: both journal headers embed the config with its
// `fault_list_file` line, and the records agree.
TEST(JournalIdentity, ExplicitFaultListJobsMatchDistributed) {
  core::DtsConfig cfg = parse_or_die(kClassic);
  const inject::FaultList list =
      inject::FaultList::for_functions(cfg.run.workload.target_image,
                                       core::profile_workload(cfg.run, cfg.campaign.seed))
          .sampled(24);
  cfg.fault_list_file = temp_path("ji_explicit_list");
  std::ofstream(cfg.fault_list_file) << list.serialize();

  core::CampaignOptions opt = cfg.campaign;
  opt.jobs = 2;
  const std::string local_path = temp_path("ji_explicit_jobs");
  std::filesystem::remove(local_path);
  opt.journal_path = local_path;
  const core::WorkloadSetResult local =
      core::run_fault_list(cfg.run, opt, list, cfg.fault_list_file);

  const std::string remote_path = temp_path("ji_explicit_dist");
  std::filesystem::remove(remote_path);
  opt.journal_path = remote_path;
  dist::DistOptions d;
  d.spawn_workers = 2;
  const core::WorkloadSetResult remote = dist::run_workload_set_distributed(
      cfg.run, opt, std::move(d), list, cfg.fault_list_file);
  EXPECT_EQ(core::serialize_workload_set(remote), core::serialize_workload_set(local));

  const NormalJournal want = normalise_journal(local_path);
  const NormalJournal have = normalise_journal(remote_path);
  EXPECT_NE(want.header.find("fault_list_file = " + cfg.fault_list_file), std::string::npos);
  EXPECT_EQ(have.header, want.header);
  EXPECT_EQ(want.records.size(), list.faults.size());
  EXPECT_EQ(have.records, want.records);
  std::filesystem::remove(cfg.fault_list_file);
  std::filesystem::remove(local_path);
  std::filesystem::remove(remote_path);
}

/// Record lines keyed by fault id, with everything that names the record's
/// position in its campaign stripped: index, execution index, stratum.
std::map<std::string, std::string> records_by_fault(const NormalJournal& j) {
  static const std::regex fault(R"re("fault":"([^"]*)")re");
  static const std::regex position(R"re(^\{"i":\d+,|,"xi":"[^"]*"|,"st":"[^"]*")re");
  std::map<std::string, std::string> out;
  for (const std::string& line : j.records) {
    std::smatch m;
    if (!std::regex_search(line, m, fault)) continue;
    out.emplace(m[1].str(), std::regex_replace(line, position, ""));
  }
  return out;
}

// A plan is a sweep whose entries partly execute: every record the planned
// campaign executes equals the exhaustive sweep's record for the same fault.
TEST(JournalIdentity, PlannedRecordsMatchExhaustiveByFaultId) {
  const core::DtsConfig cfg = parse_or_die(
      "[test]\n"
      "workload = IIS\n"
      "middleware = mscs\n"
      "seed = 7\n");
  core::CampaignOptions opt = cfg.campaign;
  opt.jobs = 4;

  const std::string exhaustive_path = temp_path("ji_exhaustive");
  std::filesystem::remove(exhaustive_path);
  opt.journal_path = exhaustive_path;
  (void)core::run_workload_set(cfg.run, opt);

  const std::string planned_path = temp_path("ji_planned");
  std::filesystem::remove(planned_path);
  opt.journal_path = planned_path;
  opt.plan.mode = plan::PlanOptions::Mode::kAuto;
  const core::WorkloadSetResult planned = core::run_workload_set(cfg.run, opt);
  ASSERT_TRUE(planned.plan_digest.has_value());

  const auto exhaustive = records_by_fault(normalise_journal(exhaustive_path));
  const auto executed = records_by_fault(normalise_journal(planned_path));
  ASSERT_FALSE(executed.empty());
  EXPECT_EQ(executed.size(), planned.plan_digest->executed);
  std::size_t matched = 0;
  for (const auto& [fault, line] : executed) {
    const auto it = exhaustive.find(fault);
    ASSERT_NE(it, exhaustive.end()) << fault << " executed by the plan only";
    EXPECT_EQ(line, it->second);
    matched += line == it->second ? 1 : 0;
  }
  EXPECT_EQ(matched, executed.size());
  std::filesystem::remove(exhaustive_path);
  std::filesystem::remove(planned_path);
}

std::vector<std::string> section_headings(const std::string& markdown) {
  std::vector<std::string> out;
  std::istringstream in(markdown);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind('#', 0) == 0) out.push_back(line);
  }
  return out;
}

// The distributed journal of a traced campaign carries the request traces:
// replaying a record re-verifies the propagation-path digest, and the report
// renders the same sections (critical path, waterfall) as in-process.
TEST(JournalIdentity, DistributedTracedJournalReplaysAndReports) {
  const core::DtsConfig cfg = parse_or_die(kTracedThreeTier);
  const ModeRun local = run_mode(cfg, Mode::kSerial, "ji_report");
  const ModeRun remote = run_mode(cfg, Mode::kDistributed, "ji_report");

  std::string error;
  const auto local_file = exec::read_journal_file(local.journal, &error);
  ASSERT_TRUE(local_file) << error;
  const auto remote_file = exec::read_journal_file(remote.journal, &error);
  ASSERT_TRUE(remote_file) << error;
  EXPECT_EQ(remote_file->version, 7u);

  std::size_t replayed = 0;
  for (const exec::JournalRecord& rec : remote_file->records) {
    ASSERT_FALSE(rec.rtrace.empty()) << rec.fault_id;  // rtrace = all
    if (replayed == 3) continue;
    const auto replay = forensics::replay_record(*remote_file, rec, {}, &error);
    ASSERT_TRUE(replay) << error;
    EXPECT_TRUE(replay->rtrace_digest_match) << rec.fault_id;
    EXPECT_TRUE(replay->matches()) << rec.fault_id;
    ++replayed;
  }
  EXPECT_EQ(replayed, 3u);

  const std::string local_report =
      obs::fleet::render_report_markdown(obs::fleet::build_report({*local_file}));
  const std::string remote_report =
      obs::fleet::render_report_markdown(obs::fleet::build_report({*remote_file}));
  EXPECT_EQ(section_headings(remote_report), section_headings(local_report));
  // Workers finish out of order; the report's sections must not depend on it.
  exec::JournalFile reversed = *remote_file;
  std::reverse(reversed.records.begin(), reversed.records.end());
  EXPECT_EQ(section_headings(obs::fleet::render_report_markdown(
                obs::fleet::build_report({reversed}))),
            section_headings(remote_report));
  EXPECT_EQ(std::count(remote_report.begin(), remote_report.end(), '\n'),
            std::count(local_report.begin(), local_report.end(), '\n'));
  std::filesystem::remove(local.journal);
  std::filesystem::remove(remote.journal);
}

}  // namespace
}  // namespace dts
