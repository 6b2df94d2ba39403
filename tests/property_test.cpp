// Property-style tests (parameterized gtest sweeps) over the simulator's
// invariants: memory-safety bookkeeping, fault-id round trips, run
// determinism, outcome-classification consistency, serialization.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "core/campaign.h"
#include "core/report.h"
#include "inject/fault_list.h"
#include "ntsim/filesystem.h"
#include "ntsim/memory.h"

namespace dts {
namespace {

// ---------------------------------------------------------------------------
// P1: VirtualMemory bookkeeping survives arbitrary alloc/free/write storms.
// ---------------------------------------------------------------------------
class MemoryChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemoryChaos, BookkeepingInvariants) {
  sim::Rng rng{GetParam()};
  nt::VirtualMemory vm;
  // base -> (size, fill); a block holds `fill` bytes with a NUL at nul_at
  // (== size: no NUL), so read_cstr has a known answer.
  struct Model {
    nt::Word size;
    char fill;
    nt::Word nul_at;
  };
  std::map<nt::Word, Model> live;
  std::uint64_t expected_bytes = 0;
  // Captured partway through; restored later, after which the model must be
  // the one at capture time.
  std::optional<nt::VirtualMemory::Snapshot> snap;
  std::map<nt::Word, Model> snap_live;
  std::uint64_t snap_bytes = 0;

  auto pick = [&] {
    auto it = live.begin();
    std::advance(it, rng.uniform(0, static_cast<std::int64_t>(live.size()) - 1));
    return it;
  };

  for (int step = 0; step < 600; ++step) {
    if (step == 200) {
      snap = vm.capture();
      snap_live = live;
      snap_bytes = expected_bytes;
    } else if (step == 400) {
      vm.restore(*snap);
      live = snap_live;
      expected_bytes = snap_bytes;
    }
    const int action = static_cast<int>(rng.uniform(0, 3));
    if (action == 0 || live.empty()) {
      const auto size = static_cast<nt::Word>(rng.uniform(1, 2000));
      const char fill = static_cast<char>('a' + rng.uniform(0, 25));
      const auto nul_at = static_cast<nt::Word>(rng.uniform(0, size));
      const nt::Ptr p = vm.alloc(size);
      std::string data(size, fill);
      if (nul_at < size) data[nul_at] = '\0';
      vm.write_bytes(p, data);
      ASSERT_FALSE(live.contains(p.addr));  // no overlap with a live base
      live[p.addr] = {size, fill, nul_at};
      expected_bytes += size;
    } else if (action == 1) {
      // Free a random live block.
      auto it = pick();
      ASSERT_TRUE(vm.free(nt::Ptr{it->first}));
      EXPECT_THROW(vm.read_u32(nt::Ptr{it->first}), nt::AccessViolation);
      expected_bytes -= it->second.size;
      live.erase(it);
    } else if (action == 2) {
      // Verify a random live block still holds its fill pattern.
      auto it = pick();
      const Model m = it->second;
      std::string want(m.size, m.fill);
      if (m.nul_at < m.size) want[m.nul_at] = '\0';
      EXPECT_EQ(vm.read_bytes(nt::Ptr{it->first}, m.size), want);
    } else {
      // read_cstr from a random offset: stops at the NUL, truncates at
      // max_len, or faults at the first byte past the block.
      auto it = pick();
      const Model m = it->second;
      const auto off = static_cast<nt::Word>(rng.uniform(0, m.size - 1));
      const auto max_len = static_cast<nt::Word>(rng.uniform(0, 2100));
      const nt::Ptr p{it->first + off};
      const nt::Word stop = m.nul_at >= off ? m.nul_at : m.size;  // NUL ahead, or none
      if (std::min(stop, off + max_len) < m.size || off + max_len <= m.size) {
        const nt::Word len = std::min(stop, off + max_len) - off;
        EXPECT_EQ(vm.read_cstr(p, max_len), std::string(len, m.fill));
      } else {
        try {
          (void)vm.read_cstr(p, max_len);
          ADD_FAILURE() << "read_cstr ran off a block without faulting";
        } catch (const nt::AccessViolation& av) {
          EXPECT_EQ(av.address(), it->first + m.size);
        }
      }
    }
    ASSERT_EQ(vm.bytes_in_use(), expected_bytes);
    ASSERT_EQ(vm.live_blocks(), live.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryChaos, ::testing::Values(1, 2, 3, 17, 99));

// ---------------------------------------------------------------------------
// P2: every generated fault id round-trips through the parser, and ids are
// unique across the whole sweep.
// ---------------------------------------------------------------------------
TEST(FaultIdProperty, AllSweepIdsRoundTripUniquely) {
  const inject::FaultList list = inject::FaultList::full_sweep("img.exe", 2);
  std::set<std::string> seen;
  for (const auto& fault : list.faults) {
    const std::string id = fault.id();
    EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
    const auto& info = nt::Kernel32Registry::instance().info(fault.fn);
    if (!info.implemented) continue;  // catalogue-only names don't parse back
    auto parsed = inject::parse_fault_id("img.exe", id);
    ASSERT_TRUE(parsed.has_value()) << id;
    EXPECT_EQ(*parsed, fault) << id;
  }
}

// ---------------------------------------------------------------------------
// P3: filesystem path normalization is idempotent and fold is stable.
// ---------------------------------------------------------------------------
class PathProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(PathProperty, NormalizeIdempotent) {
  const auto once = nt::Filesystem::normalize(GetParam());
  ASSERT_TRUE(once.has_value());
  const auto twice = nt::Filesystem::normalize(*once);
  ASSERT_TRUE(twice.has_value());
  EXPECT_EQ(*once, *twice);
  EXPECT_EQ(nt::Filesystem::fold(*once), nt::Filesystem::fold(*twice));
}

INSTANTIATE_TEST_SUITE_P(Paths, PathProperty,
                         ::testing::Values("C:\\a\\b\\c", "c:/x//y/./z", "C:\\A\\..\\b",
                                           "C:/Inetpub/wwwroot/index.html",
                                           "C:\\WINNT\\system32\\..\\system32\\f.txt"));

// ---------------------------------------------------------------------------
// P4: fault-injection runs are deterministic and their classification is
// internally consistent, across fault types and functions.
// ---------------------------------------------------------------------------
struct SweepCase {
  const char* workload;
  const char* fault_id;
};

class RunConsistency : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RunConsistency, DeterministicAndConsistent) {
  const auto& p = GetParam();
  core::RunConfig cfg;
  cfg.workload = core::workload_by_name(p.workload);
  cfg.middleware = mw::MiddlewareKind::kWatchd;
  cfg.seed = 21;
  auto spec = inject::parse_fault_id(cfg.workload.target_image, p.fault_id);
  ASSERT_TRUE(spec.has_value());

  const core::RunResult a = core::execute_run(cfg, *spec);
  const core::RunResult b = core::execute_run(cfg, *spec);

  // Determinism: identical seed and fault => identical observable result.
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.activated, b.activated);
  EXPECT_EQ(a.response_time.count_micros(), b.response_time.count_micros());
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.retries, b.retries);

  // Classification consistency.
  switch (a.outcome) {
    case core::Outcome::kNormalSuccess:
      EXPECT_EQ(a.retries, 0);
      EXPECT_EQ(a.restarts, 0);
      EXPECT_TRUE(a.client_finished);
      break;
    case core::Outcome::kRestartSuccess:
      EXPECT_GT(a.restarts, 0);
      EXPECT_EQ(a.retries, 0);
      break;
    case core::Outcome::kRestartRetrySuccess:
      EXPECT_GT(a.restarts, 0);
      EXPECT_GT(a.retries, 0);
      break;
    case core::Outcome::kRetrySuccess:
      EXPECT_GT(a.retries, 0);
      EXPECT_EQ(a.restarts, 0);
      break;
    case core::Outcome::kFailure:
      break;  // any retry/restart combination can precede a failure
  }
  // A fault that never activated cannot have hurt the run.
  if (!a.activated) EXPECT_EQ(a.outcome, core::Outcome::kNormalSuccess);
}

INSTANTIATE_TEST_SUITE_P(
    FaultSweep, RunConsistency,
    ::testing::Values(SweepCase{"IIS", "GetStartupInfoA.lpStartupInfo#1:zero"},
                      SweepCase{"IIS", "GetStartupInfoA.lpStartupInfo#1:ones"},
                      SweepCase{"IIS", "GetStartupInfoA.lpStartupInfo#1:flip"},
                      SweepCase{"IIS", "CreateSemaphoreA.lInitialCount#1:ones"},
                      SweepCase{"IIS", "ReadFile.nNumberOfBytesToRead#1:zero"},
                      SweepCase{"IIS", "HeapCreate.dwInitialSize#1:ones"},
                      SweepCase{"Apache1", "CreateProcessA.lpCommandLine#1:flip"},
                      SweepCase{"Apache1", "WaitForSingleObject.hHandle#1:ones"},
                      SweepCase{"Apache2", "CreatePipe.hReadPipe#1:flip"},
                      SweepCase{"Apache2", "GetFileAttributesA.lpFileName#1:zero"},
                      SweepCase{"SQL", "ReadFileEx.nNumberOfBytesToRead#1:zero"},
                      SweepCase{"SQL", "CreateEventA.bManualReset#1:ones"}),
    [](const auto& info) {
      std::string name = std::string(info.param.workload) + "_" + info.param.fault_id;
      for (char& c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// P5: campaign serialization round-trips and preserves every aggregate.
// ---------------------------------------------------------------------------
class CampaignRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CampaignRoundTrip, PreservesAggregates) {
  core::RunConfig cfg;
  cfg.workload = core::workload_by_name("Apache1");
  cfg.middleware = mw::MiddlewareKind::kMscs;
  core::CampaignOptions opt;
  opt.seed = GetParam();
  opt.max_faults = 15;
  const core::WorkloadSetResult original = core::run_workload_set(cfg, opt);

  std::string error;
  auto restored = core::deserialize_workload_set(core::serialize_workload_set(original), &error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_EQ(restored->runs.size(), original.runs.size());
  EXPECT_EQ(restored->activated_faults(), original.activated_faults());
  EXPECT_EQ(restored->activated_functions, original.activated_functions);
  EXPECT_EQ(restored->outcome_counts(), original.outcome_counts());
  EXPECT_EQ(restored->label(), original.label());
  for (std::size_t i = 0; i < original.runs.size(); ++i) {
    EXPECT_EQ(restored->runs[i].fault, original.runs[i].fault);
    EXPECT_EQ(restored->runs[i].outcome, original.runs[i].outcome);
    EXPECT_EQ(restored->runs[i].response_time.count_micros(),
              original.runs[i].response_time.count_micros());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CampaignRoundTrip, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// P6: the KERNEL32 registry is internally consistent.
// ---------------------------------------------------------------------------
TEST(RegistryProperty, NamesUniqueAndLookupsAgree) {
  const auto& reg = nt::Kernel32Registry::instance();
  std::set<std::string_view> names;
  std::size_t zero_param = 0;
  for (const auto& info : reg.all()) {
    EXPECT_TRUE(names.insert(info.name).second) << "duplicate export " << info.name;
    EXPECT_EQ(reg.by_name(info.name), &info);
    EXPECT_LE(info.param_count(), nt::kMaxSyscallArgs);
    if (info.params.empty()) ++zero_param;
  }
  EXPECT_EQ(zero_param, reg.zero_param_functions());
  EXPECT_EQ(reg.total_functions() - zero_param, reg.injectable_functions());
  // Every implemented enum value maps to an implemented catalogue entry.
  for (std::uint16_t i = 0; i < nt::kImplementedFunctionCount; ++i) {
    EXPECT_TRUE(reg.info(static_cast<nt::Fn>(i)).implemented);
  }
}

}  // namespace
}  // namespace dts
