#include "probes.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <new>
#include <stdexcept>
#include <vector>

#include "apps/http.h"
#include "inject/interceptor.h"
#include "ntsim/kernel.h"
#include "ntsim/kernel32.h"
#include "ntsim/memory.h"
#include "ntsim/netsim.h"
#include "obs/rtrace/rtrace.h"
#include "sim/simulation.h"

namespace dtsbench {
namespace {

using namespace dts;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinRounds = 5;

// Results flow here so the optimiser cannot drop a probe's work.
volatile std::uint64_t g_sink = 0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Times `ops` operations of `body` and returns ns per operation.
template <typename Body>
double ns_per_op(std::uint64_t ops, Body&& body) {
  const Clock::time_point t0 = Clock::now();
  body();
  return seconds_since(t0) * 1e9 / static_cast<double>(ops);
}

/// A machine whose one program calls GetCurrentProcessId forever; stepping
/// the simulation advances it call by call.
struct DispatchWorld {
  sim::Simulation simu{1};
  inject::Interceptor interceptor;  // outlives the machine that hooks it
  nt::Machine machine{simu, nt::MachineConfig{}};
  std::uint64_t calls = 0;

  explicit DispatchWorld(bool hooked) {
    simu.set_event_budget(std::numeric_limits<std::uint64_t>::max());
    if (hooked) machine.k32().set_hook(&interceptor);
    machine.register_program("bench.exe", [this](nt::Ctx c) -> sim::Task {
      for (;;) {
        g_sink = co_await c.m().k32().call(c, nt::Fn::GetCurrentProcessId);
        ++calls;
      }
    });
    machine.start_process("bench.exe", "bench.exe");
  }

  /// ns per call over the next `n` calls; adds the events they took to
  /// `*events` when non-null.
  double batch(std::uint64_t n, std::uint64_t* events) {
    const std::uint64_t target = calls + n;
    const std::uint64_t events0 = simu.events_processed();
    const double ns = ns_per_op(n, [&] {
      while (calls < target) simu.step();
    });
    if (events != nullptr) *events += simu.events_processed() - events0;
    return ns;
  }
};

/// Two machines exchanging request/reply lines over one netsim connection;
/// stepping the simulation advances the exchange message by message.
struct NetWorld {
  sim::Simulation simu{1};
  nt::net::Network net{simu};  // must outlive the machines (see netsim.h)
  nt::Machine server{simu, nt::MachineConfig{.name = "b"}};
  nt::Machine client{simu, nt::MachineConfig{.name = "a"}};
  std::uint64_t messages = 0;

  NetWorld() {
    simu.set_event_budget(std::numeric_limits<std::uint64_t>::max());
    server.register_program("echo.exe", [this](nt::Ctx c) -> sim::Task {
      auto listener = net.listen("b", 1000);
      auto sock = co_await listener->accept(c);
      for (;;) {
        auto line = co_await sock->recv_until(c, "\n", 4096);
        if (!line) co_return;
        ++messages;
        sock->send("OK\n");
      }
    });
    client.register_program("client.exe", [this](nt::Ctx c) -> sim::Task {
      co_await nt::sleep_in_sim(c, sim::Duration::millis(10));  // let echo listen
      auto sock = co_await net.connect(c, "b", 1000);
      if (sock == nullptr) co_return;
      for (;;) {
        sock->send("REQ 1 rt=1:2\n");
        auto reply = co_await sock->recv_until(c, "\n", 4096);
        if (!reply) co_return;
        ++messages;
      }
    });
    server.start_process("echo.exe", "echo.exe");
    client.start_process("client.exe", "client.exe");
    while (messages == 0) {
      if (!simu.step()) throw std::runtime_error("netsim probe: no message exchanged");
    }
  }

  double batch(std::uint64_t n, std::uint64_t* events) {
    const std::uint64_t target = messages + n;
    const std::uint64_t events0 = simu.events_processed();
    const double ns = ns_per_op(n, [&] {
      while (messages < target) simu.step();
    });
    *events += simu.events_processed() - events0;
    return ns;
  }
};

double sim_event_batch() {
  constexpr int kEvents = 10000;
  sim::Simulation simu;
  std::uint64_t fired = 0;
  const double ns = ns_per_op(kEvents, [&] {
    for (int i = 0; i < kEvents; ++i) {
      simu.schedule(sim::Duration::micros(i), [&fired] { ++fired; });
    }
    while (simu.step()) {
    }
  });
  g_sink = fired;
  return ns;
}

double vm_batch() {
  constexpr std::uint64_t kOps = 4096;
  nt::VirtualMemory vm;  // fresh: well inside its allocation lifetime
  std::uint64_t sum = 0;
  const double ns = ns_per_op(kOps, [&] {
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const nt::Ptr p = vm.alloc(256);
      vm.write_u32(p, static_cast<nt::Word>(i));
      sum += vm.read_u32(p);
      vm.free(p);
    }
  });
  g_sink = sum;
  return ns;
}

double span_batch(obs::rtrace::TraceLog& log) {
  constexpr int kSpans = 10000;
  log.clear();
  const double ns = ns_per_op(kSpans, [&] {
    for (int i = 0; i < kSpans; ++i) {
      const int id = log.begin_span(1, 0, "attempt", "app", "iis-0", i);
      log.end_span(id, i + 1, "ok");
    }
  });
  g_sink = log.spans().size();
  return ns;
}

double http_batch(const std::string& raw) {
  constexpr int kParses = 2000;
  std::uint64_t parsed = 0;
  const double ns = ns_per_op(kParses, [&] {
    for (int i = 0; i < kParses; ++i) {
      if (apps::http::parse_request(raw)) ++parsed;
    }
  });
  g_sink = parsed;
  return ns;
}

double journal_batch(const exec::JournalRecord& rec, const std::string& path) {
  constexpr int kAppends = 1024;
  const exec::JournalKey key{"dtsbench", 0, 0, 1, 1};
  exec::RunJournal journal;
  std::string error;
  if (!journal.open(path, key, /*append=*/false, &error)) {
    throw std::runtime_error("journal probe: " + error);
  }
  return ns_per_op(kAppends, [&] {
    for (int i = 0; i < kAppends; ++i) journal.append(rec);
  });
}

}  // namespace

UnitCosts measure_unit_costs(double budget_s, const exec::JournalRecord& record,
                             const std::string& journal_path) {
  constexpr std::uint64_t kCalls = 2000;
  constexpr std::uint64_t kMessages = 1000;
  DispatchWorld unhooked(/*hooked=*/false);
  DispatchWorld hooked(/*hooked=*/true);
  NetWorld net;
  obs::rtrace::TraceLog log;
  log.set_enabled(true);
  const std::string raw =
      "GET /cgi-bin/test.cgi?id=42 HTTP/1.0\r\nHost: target\r\n"
      "User-Agent: DTS-HttpClient\r\nAccept: */*\r\n\r\n";

  std::vector<double> event, dispatch, hook, vm, message, span, http, append;
  std::uint64_t dispatch_events = 0, dispatch_calls = 0;
  std::uint64_t net_events = 0, net_messages = 0;
  const Clock::time_point start = Clock::now();
  while (event.size() < kMinRounds || seconds_since(start) < budget_s) {
    event.push_back(sim_event_batch());
    dispatch.push_back(unhooked.batch(kCalls, &dispatch_events));
    hook.push_back(hooked.batch(kCalls, nullptr) - dispatch.back());
    dispatch_calls += kCalls;
    vm.push_back(vm_batch());
    message.push_back(net.batch(kMessages, &net_events));
    net_messages += kMessages;
    span.push_back(span_batch(log));
    http.push_back(http_batch(raw));
    append.push_back(journal_batch(record, journal_path));
  }

  UnitCosts out;
  out.events_per_call =
      static_cast<double>(dispatch_events) / static_cast<double>(dispatch_calls);
  out.events_per_message =
      static_cast<double>(net_events) / static_cast<double>(net_messages);
  // Self costs pair each round's probe with the same round's event cost.
  std::vector<double> dispatch_self, net_self;
  for (std::size_t i = 0; i < event.size(); ++i) {
    dispatch_self.push_back(dispatch[i] - out.events_per_call * event[i]);
    net_self.push_back(message[i] - out.events_per_message * event[i]);
  }
  out.event_ns = median(event);
  out.dispatch_ns = median(dispatch);
  out.dispatch_self_ns = median(dispatch_self);
  out.hook_ns = median(hook);
  out.vm_alloc_free_ns = median(vm);
  out.net_message_ns = median(message);
  out.net_self_ns = median(net_self);
  out.span_ns = median(span);
  out.http_parse_ns = median(http);
  out.journal_append_us = median(append) / 1000.0;
  return out;
}

VmLifetime vm_lifetime(std::uint64_t ops) {
  VmLifetime out;
  out.ops = ops;
  nt::VirtualMemory vm;
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    try {
      const nt::Ptr p = vm.alloc(256);
      vm.write_u32(p, static_cast<nt::Word>(i));
      sum += vm.read_u32(p);
      vm.free(p);
    } catch (const std::bad_alloc&) {
      if (out.failed++ == 0) out.first_failure = i + 1;
    }
  }
  g_sink = sum;
  return out;
}

}  // namespace dtsbench
