// A single fault-injection run: a fresh simulated world (target machine +
// control machine + network), one server under an optional middleware
// package, one armed fault, one client workload — then outcome
// classification. One run = one Simulation instance, the reproducibility
// guarantee DTS gets by restarting the workload programs for every fault.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apps/apache.h"
#include "apps/iis.h"
#include "apps/sql_server.h"
#include "core/clients.h"
#include "core/outcome.h"
#include "core/workload.h"
#include "inject/interceptor.h"
#include "middleware/middleware.h"
#include "middleware/mscs.h"
#include "middleware/watchd.h"
#include "obs/span.h"
#include "topo/topology.h"

namespace dts::core {

struct RunConfig {
  WorkloadSpec workload;
  mw::MiddlewareKind middleware = mw::MiddlewareKind::kNone;
  mw::WatchdVersion watchd_version = mw::WatchdVersion::kV3;

  std::uint64_t seed = 1;
  /// 1.0 models the paper's 100 MHz Pentium target; the control machine runs
  /// at 0.25 (their 400 MHz Pentium II class box).
  double target_cpu_scale = 1.0;

  /// Execution-time noise on the target machine (see MachineConfig::jitter).
  /// 0 by default: the calibrated experiments are bit-reproducible. The
  /// multi-process ablation turns it on to surface Apache's accept-race
  /// nondeterminism (paper §4.1).
  double target_jitter = 0.0;

  /// Hard cap on simulated time per run (a hung run ends here).
  sim::Duration run_timeout = sim::Duration::seconds(400);

  ClientConfig client;

  /// When nonzero, the interceptor keeps the last N KERNEL32 calls of the
  /// target image (post-corruption) — the paper's §4.3 debugging aid,
  /// readable via FaultInjectionRun::interceptor().trace().
  std::size_t trace_limit = 0;

  /// When nonzero, the interceptor records the argument words of the first N
  /// invocations of every injectable function the target image makes —
  /// the campaign planner's golden-run capture (src/plan/), readable via
  /// interceptor().captured_calls(). Off for injection runs.
  int golden_capture = 0;

  /// Snapshot-execution checkpoints (src/snap/): when non-null, the plan is
  /// installed on the interceptor at the start of execute(), firing the
  /// callback at each golden-run call site. The pointee must outlive the run.
  const inject::Interceptor::CheckpointPlan* checkpoints = nullptr;

  // Application tuning knobs (defaults reproduce the paper's setup).
  apps::ApacheConfig apache;
  apps::IisConfig iis;
  apps::SqlServerConfig sql;
  mw::MscsConfig mscs;      // service_name filled from the workload
  mw::WatchdConfig watchd;  // service_name/version filled from the config

  /// Multi-tier topology (src/topo/). Empty (the default) = the classic
  /// single-machine run above, byte-identical to the pre-topology pipeline.
  /// Non-empty replaces the target machine with the topology's machines and
  /// the paper client with the open-loop workload generator; `workload` is
  /// then derived from the faulted tier's application (so fault sweeps and
  /// activation accounting target the right image) and middleware must be
  /// none.
  topo::TopologySpec topo;

  /// Request tracing for topology runs (obs/rtrace/): off keeps the wire
  /// bytes — and therefore every campaign output — byte-identical to the
  /// untraced pipeline; failures/all collect per-hop causal spans. Ignored
  /// for classic runs (there is no request topology to trace).
  obs::rtrace::RtraceMode rtrace = obs::rtrace::RtraceMode::kOff;

  /// Global network parameters ([network] section); default matches the
  /// pre-configurable hard-coded values. `links` carries per-tier-pair
  /// overrides, expanded to machine pairs when the topology is built.
  nt::net::NetworkConfig net;
  std::vector<topo::LinkOverride> links;
};

/// Executes one run. Exposes the interceptor for activation accounting.
class FaultInjectionRun {
 public:
  explicit FaultInjectionRun(RunConfig config);
  ~FaultInjectionRun();

  FaultInjectionRun(const FaultInjectionRun&) = delete;
  FaultInjectionRun& operator=(const FaultInjectionRun&) = delete;

  /// Runs the workload with `fault` armed (or no fault for a profiling run).
  RunResult execute(const std::optional<inject::FaultSpec>& fault);

  /// Injectable functions the target image called during the run — the
  /// paper's "activated functions" (Table 1).
  std::set<nt::Fn> activated_functions() const;

  /// The world, accessible after execute() for inspection in tests — and
  /// *during* execute() from checkpoint callbacks (snapshot capture needs the
  /// live simulation, both machines and the network mid-run).
  nt::Machine& target();
  nt::Machine& control();
  sim::Simulation& simulation();
  nt::net::Network& network();
  const inject::Interceptor& interceptor() const { return interceptor_; }
  inject::Interceptor& interceptor() { return interceptor_; }

  /// Middleware latency spans recorded during the last execute() (detection
  /// windows, recovery times, heartbeat hang detection). Empty for
  /// stand-alone runs. Valid until the next execute().
  const obs::SpanLog& spans() const;

 private:
  struct World;

  /// Multi-tier path of execute(): builds the topology machines instead of
  /// the single target, drives them with the open-loop generator, classifies
  /// into RunResult::topo on top of the classic outcome axis.
  RunResult execute_topology(const std::optional<inject::FaultSpec>& fault);

  RunConfig cfg_;
  inject::Interceptor interceptor_;
  std::unique_ptr<World> world_;
};

/// Convenience: build + execute in one call.
RunResult execute_run(const RunConfig& config, const std::optional<inject::FaultSpec>& fault);

}  // namespace dts::core
