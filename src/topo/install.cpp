#include "topo/install.h"

#include <utility>

#include "apps/http.h"

namespace dts::topo {

namespace {

using nt::Ctx;

/// Wire protocol between loadgen, balancers and relays: "REQ <id>\n" in,
/// "OK <id>\n" / "ERR <id>\n" out. With request tracing on the line carries
/// a trailing " rt=<trace>:<span>" token (ids are bare integers, so the
/// space truncation never changes an untraced id).
std::string request_id(const std::string& line) {
  if (line.rfind("REQ ", 0) != 0) return "?";
  std::string id = line.substr(4);
  while (!id.empty() && (id.back() == '\n' || id.back() == '\r')) id.pop_back();
  const std::size_t space = id.find(' ');
  if (space != std::string::npos) id.resize(space);
  return id.empty() ? "?" : id;
}

/// Current sim time in µs — the span timestamp base.
std::int64_t now_us(Ctx c) {
  return (c.m().sim().now() - sim::TimePoint{}).count_micros();
}

/// Daemon parameters. Each daemon builds its params once and shares them,
/// immutable, with every per-connection thread: `expected` holds the whole
/// served page, so copying it per connection would dominate the relay.
struct RelayParams {
  std::string self;            // this instance's machine name
  std::string tier;            // owning tier's name (span label)
  std::uint16_t app_port = 0;  // local application port
  std::string check_request;   // wire bytes exercising the local app
  bool http = false;           // verify as HTTP 200 + body vs exact reply
  std::shared_ptr<const std::string> expected;  // body (http) or whole reply (exact)
  std::string next_lb;         // next tier's balancer machine; empty = last tier
  sim::Duration ready_timeout;
  sim::Duration ready_poll;
  sim::Duration hop_timeout;
  obs::rtrace::TraceLog* trace = nullptr;  // null/disabled = tracing off
};

struct LbParams {
  std::string self;
  std::string tier;                   // owning tier's name (span label)
  std::vector<std::string> backends;  // instance machines of this tier
  sim::Duration ready_timeout;
  sim::Duration ready_poll;
  sim::Duration hop_timeout;
  obs::rtrace::TraceLog* trace = nullptr;  // null/disabled = tracing off
};

/// One request/reply exchange over a fresh connection; nullopt on refusal,
/// reset or timeout.
sim::CoTask<std::optional<std::string>> exchange(Ctx c, nt::net::Network* net,
                                                 const std::string& machine,
                                                 std::uint16_t port, const std::string& request,
                                                 sim::Duration timeout, bool until_eof) {
  const sim::TimePoint deadline = c.m().sim().now() + timeout;
  auto sock = co_await net->connect(c, machine, port);
  if (sock == nullptr) co_return std::nullopt;  // refused
  sock->send(request);
  if (!until_eof) {
    const sim::Duration remaining = deadline - c.m().sim().now();
    if (remaining <= sim::Duration{}) co_return std::nullopt;
    co_return co_await sock->recv_until(c, "\n", 4096, remaining);
  }
  std::string reply;
  for (;;) {
    const sim::Duration remaining = deadline - c.m().sim().now();
    if (remaining <= sim::Duration{}) co_return std::nullopt;
    auto chunk = co_await sock->recv(c, 65536, remaining);
    if (!chunk) co_return std::nullopt;  // timeout
    if (chunk->empty()) break;           // EOF: reply complete
    if (reply.empty()) {
      reply = std::move(*chunk);
    } else {
      reply += *chunk;
    }
  }
  if (reply.empty()) co_return std::nullopt;  // reset before any data
  co_return reply;
}

/// Serves one accepted relay connection: local application check first, then
/// the downstream chain; "OK" only when both succeed. With tracing on, the
/// connection, the local check and the downstream forward each become a span,
/// and the forwarded line carries the forward span as the new parent.
sim::Task relay_conn(Ctx c, nt::net::Network* net, std::shared_ptr<const RelayParams> params,
                     std::shared_ptr<nt::net::Socket> sock) {
  const RelayParams& p = *params;
  auto line = co_await sock->recv_until(c, "\n", 4096, p.hop_timeout);
  if (!line) co_return;
  const std::string id = request_id(*line);
  const auto wire = obs::rtrace::parse_wire(*line);
  obs::rtrace::TraceLog* tl =
      p.trace != nullptr && p.trace->enabled() && wire ? p.trace : nullptr;
  const int span = tl != nullptr ? tl->begin_span(wire->trace, wire->span, "relay",
                                                  p.tier, p.self, now_us(c))
                                 : 0;

  bool ok = false;
  const int check = tl != nullptr ? tl->begin_span(wire->trace, span, "app.check",
                                                   p.tier, p.self, now_us(c))
                                  : 0;
  auto reply = co_await exchange(c, net, p.self, p.app_port, p.check_request, p.hop_timeout,
                                 /*until_eof=*/true);
  if (reply) ok = p.http ? apps::http::is_ok_reply(*reply, *p.expected) : *reply == *p.expected;
  if (tl != nullptr) {
    tl->end_span(check, now_us(c), ok ? "ok" : (reply ? "err" : "timeout"));
  }

  if (ok && !p.next_lb.empty()) {
    const int fwd = tl != nullptr ? tl->begin_span(wire->trace, span, "forward",
                                                   p.tier, p.self, now_us(c))
                                  : 0;
    const std::string downstream =
        tl != nullptr ? obs::rtrace::rewrite_wire(id, wire->trace, fwd) : *line;
    auto down = co_await exchange(c, net, p.next_lb, kLbPort, downstream, p.hop_timeout,
                                  /*until_eof=*/false);
    ok = down && down->rfind("OK ", 0) == 0;
    if (tl != nullptr) {
      tl->end_span(fwd, now_us(c), ok ? "ok" : (down ? "err" : "timeout"));
    }
  }
  if (tl != nullptr) tl->end_span(span, now_us(c), ok ? "ok" : "err");
  sock->send((ok ? "OK " : "ERR ") + id + "\n");
}

sim::Task relay_program(Ctx c, nt::net::Network* net,
                        std::shared_ptr<const RelayParams> params) {
  const RelayParams& p = *params;
  // Wait (bounded) for the local application and the downstream balancer;
  // listen regardless once the deadline passes so a dead dependency shows up
  // as error replies, not refused connections the balancer cannot tell apart
  // from a crashed relay.
  const sim::TimePoint deadline = c.m().sim().now() + p.ready_timeout;
  for (;;) {
    const bool app_up = net->port_open(p.self, p.app_port);
    const bool next_up = p.next_lb.empty() || net->port_open(p.next_lb, kLbPort);
    if ((app_up && next_up) || c.m().sim().now() >= deadline) break;
    co_await nt::sleep_in_sim(c, p.ready_poll);
  }
  auto listener = net->listen(p.self, kRelayPort);
  if (listener == nullptr) co_return;
  for (;;) {
    auto sock = co_await listener->accept(c);
    if (sock == nullptr) continue;
    c.proc().spawn_thread(
        [net, params, sock](Ctx tc) { return relay_conn(tc, net, params, sock); });
  }
}

/// Serves one accepted balancer connection: round-robin over the backends,
/// failing over on refusal, timeout or an error reply. Redundancy masking
/// happens exactly here.
sim::Task lb_conn(Ctx c, nt::net::Network* net, std::shared_ptr<const LbParams> params,
                  std::shared_ptr<std::size_t> rr, std::shared_ptr<nt::net::Socket> sock) {
  const LbParams& p = *params;
  auto line = co_await sock->recv_until(c, "\n", 4096, p.hop_timeout);
  if (!line) co_return;
  const std::string id = request_id(*line);
  const auto wire = obs::rtrace::parse_wire(*line);
  obs::rtrace::TraceLog* tl =
      p.trace != nullptr && p.trace->enabled() && wire ? p.trace : nullptr;
  const int span = tl != nullptr ? tl->begin_span(wire->trace, wire->span, "lb",
                                                  p.tier, p.self, now_us(c))
                                 : 0;

  for (std::size_t attempt = 0; attempt < p.backends.size(); ++attempt) {
    const std::string& backend = p.backends[(*rr)++ % p.backends.size()];
    // One span per failover attempt, labelled with the backend tried — the
    // failed ones are the trace's record of redundancy masking at work.
    const int att = tl != nullptr ? tl->begin_span(wire->trace, span, "attempt",
                                                   p.tier, backend, now_us(c))
                                  : 0;
    const std::string request =
        tl != nullptr ? obs::rtrace::rewrite_wire(id, wire->trace, att) : *line;
    auto reply = co_await exchange(c, net, backend, kRelayPort, request, p.hop_timeout,
                                   /*until_eof=*/false);
    const bool ok = reply && reply->rfind("OK ", 0) == 0;
    if (tl != nullptr) {
      tl->end_span(att, now_us(c), ok ? "ok" : (reply ? "err" : "timeout"));
    }
    if (ok) {
      if (tl != nullptr) tl->end_span(span, now_us(c), "ok");
      sock->send(std::move(*reply));
      co_return;
    }
  }
  if (tl != nullptr) tl->end_span(span, now_us(c), "err");
  sock->send("ERR " + id + "\n");
}

sim::Task lb_program(Ctx c, nt::net::Network* net, std::shared_ptr<const LbParams> params) {
  const LbParams& p = *params;
  const sim::TimePoint deadline = c.m().sim().now() + p.ready_timeout;
  for (;;) {
    bool all_up = true;
    for (const auto& backend : p.backends) {
      all_up = all_up && net->port_open(backend, kRelayPort);
    }
    if (all_up || c.m().sim().now() >= deadline) break;
    co_await nt::sleep_in_sim(c, p.ready_poll);
  }
  auto listener = net->listen(p.self, kLbPort);
  if (listener == nullptr) co_return;
  auto rr = std::make_shared<std::size_t>(0);
  for (;;) {
    auto sock = co_await listener->accept(c);
    if (sock == nullptr) continue;
    c.proc().spawn_thread(
        [net, params, rr, sock](Ctx tc) { return lb_conn(tc, net, params, rr, sock); });
  }
}

}  // namespace

std::vector<nt::Machine*> TopologyRuntime::tier_instances(const std::string& tier) const {
  std::vector<nt::Machine*> out;
  for (const auto& [name, machine] : instance_machines_) {
    if (name == tier) out.push_back(machine);
  }
  return out;
}

TopologyRuntime install_topology(sim::Simulation& sim, nt::net::Network& net,
                                 std::vector<std::unique_ptr<nt::Machine>>& machines,
                                 const TopologySpec& topo, const TierHostParams& params) {
  TopologyRuntime rt;
  nt::net::Network* np = &net;
  for (std::size_t ti = 0; ti < topo.tiers.size(); ++ti) {
    const TierSpec& tier = topo.tiers[ti];
    TierRuntime tr;
    tr.spec = tier;
    tr.lb = lb_machine(tier);
    const std::string next_lb =
        ti + 1 < topo.tiers.size() ? lb_machine(topo.tiers[ti + 1]) : std::string();

    for (int r = 0; r < tier.replicas; ++r) {
      const std::string name = instance_machine(tier, r);
      machines.push_back(std::make_unique<nt::Machine>(
          sim, nt::MachineConfig{.name = name,
                                 .cpu_scale = params.cpu_scale,
                                 .jitter = params.jitter}));
      nt::Machine& m = *machines.back();

      RelayParams rp;
      rp.self = name;
      rp.tier = tier.name;
      rp.next_lb = next_lb;
      rp.ready_timeout = params.ready_timeout;
      rp.ready_poll = params.ready_poll;
      rp.hop_timeout = params.hop_timeout;
      rp.trace = params.trace;
      if (tier.app == "apache") {
        rp.expected = apps::install_apache(m, net, params.apache);
        m.scm().start_service(params.apache.service_name);
        rp.app_port = params.apache.port;
        rp.http = true;
        rp.check_request = "GET /index.html HTTP/1.0\r\nHost: target\r\n\r\n";
      } else if (tier.app == "iis") {
        rp.expected = apps::install_iis(m, net, params.iis);
        m.scm().start_service(params.iis.service_name);
        rp.app_port = params.iis.port;
        rp.http = true;
        rp.check_request = "GET /index.html HTTP/1.0\r\nHost: target\r\n\r\n";
      } else {  // sql_server (parse_topology admits nothing else)
        rp.expected = std::make_shared<const std::string>(
            apps::install_sql_server(m, net, params.sql));
        m.scm().start_service(params.sql.service_name);
        rp.app_port = params.sql.port;
        rp.http = false;
        rp.check_request = apps::sql_client_query() + "\n";
      }
      auto shared = std::make_shared<const RelayParams>(std::move(rp));
      m.register_program("relayd.exe",
                         [np, shared](Ctx c) { return relay_program(c, np, shared); });
      m.start_process("relayd.exe", "relayd.exe");

      tr.instances.push_back(name);
      rt.instance_machines_.emplace_back(tier.name, &m);
    }

    machines.push_back(std::make_unique<nt::Machine>(
        sim, nt::MachineConfig{.name = tr.lb,
                               .cpu_scale = params.cpu_scale,
                               .jitter = params.jitter}));
    nt::Machine& lb = *machines.back();
    LbParams lp;
    lp.self = tr.lb;
    lp.tier = tier.name;
    lp.backends = tr.instances;
    lp.ready_timeout = params.ready_timeout;
    lp.ready_poll = params.ready_poll;
    lp.hop_timeout = params.hop_timeout;
    lp.trace = params.trace;
    auto shared = std::make_shared<const LbParams>(std::move(lp));
    lb.register_program("lbd.exe", [np, shared](Ctx c) { return lb_program(c, np, shared); });
    lb.start_process("lbd.exe", "lbd.exe");

    rt.tiers.push_back(std::move(tr));
  }
  rt.front_machine = rt.tiers.front().lb;
  rt.front_port = kLbPort;
  return rt;
}

}  // namespace dts::topo
