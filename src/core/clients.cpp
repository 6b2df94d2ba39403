#include "core/clients.h"

#include "apps/ftp.h"
#include "apps/http.h"

#include <functional>

#include "ntsim/kernel.h"

namespace dts::core {

namespace {

using nt::Ctx;

/// Waits (bounded) for the server port to accept connections. The DTS agent
/// performed this "wait for server to be up" step before launching the
/// client programs (paper Fig. 1).
sim::CoTask<bool> wait_for_server(Ctx c, nt::net::Network* net, const ClientParams& p) {
  const sim::TimePoint deadline = c.m().sim().now() + p.config.server_up_timeout;
  while (c.m().sim().now() < deadline) {
    if (net->port_open(p.target_machine, p.port)) co_return true;
    co_await nt::sleep_in_sim(c, p.config.server_up_poll);
  }
  co_return false;
}

/// One request with the DTS retry protocol: up to max_attempts attempts,
/// `check` validates the raw reply, 15 s between attempts.
sim::CoTask<RequestResult> attempt_request(
    Ctx c, nt::net::Network* net, const ClientParams& p, const std::string& wire_request,
    const std::function<bool(const std::string&)>& check) {
  RequestResult result;
  const sim::TimePoint t0 = c.m().sim().now();
  for (int attempt = 1; attempt <= p.config.max_attempts; ++attempt) {
    result.attempts = attempt;
    if (attempt > 1) co_await nt::sleep_in_sim(c, p.config.retry_wait);

    auto sock = co_await net->connect(c, p.target_machine, p.port);
    if (sock == nullptr) {
      result.detail = "connection refused";
      continue;
    }
    sock->send(wire_request);

    // Collect the reply until EOF, bounded by the response timeout.
    const sim::TimePoint deadline = c.m().sim().now() + p.config.response_timeout;
    std::string reply;
    bool timed_out = false;
    for (;;) {
      const sim::Duration remaining = deadline - c.m().sim().now();
      if (remaining <= sim::Duration{}) {
        timed_out = true;
        break;
      }
      auto chunk = co_await sock->recv(c, 65536, remaining);
      if (!chunk) {
        timed_out = true;
        break;
      }
      if (chunk->empty()) break;  // EOF: reply complete (or connection reset)
      if (reply.empty()) {
        reply = std::move(*chunk);
      } else {
        reply += *chunk;
      }
    }

    if (!reply.empty()) result.any_response = true;
    if (timed_out) {
      result.detail = "timeout";
      continue;
    }
    if (reply.empty()) {
      result.detail = "connection reset";
      continue;
    }
    if (check(reply)) {
      result.ok = true;
      result.detail.clear();
      break;
    }
    result.detail = "incorrect reply (" + std::to_string(reply.size()) + " bytes)";
  }
  result.elapsed = c.m().sim().now() - t0;
  co_return result;
}

void finish(Ctx c, const ClientParams& p) {
  p.report->finished = true;
  p.report->finished_at = c.m().sim().now();
}

}  // namespace

sim::Task http_client_program(Ctx c, nt::net::Network* net, ClientParams params,
                              std::shared_ptr<const std::string> expected_index,
                              std::shared_ptr<const std::string> expected_cgi) {
  params.report->started_at = c.m().sim().now();
  co_await wait_for_server(c, net, params);
  // Whether or not the server came up, run the requests: a down server shows
  // up as refused connections and the retry protocol takes over.

  auto r1 = co_await attempt_request(
      c, net, params, "GET /index.html HTTP/1.0\r\nHost: target\r\n\r\n",
      [&](const std::string& reply) { return apps::http::is_ok_reply(reply, *expected_index); });
  params.report->requests.push_back(std::move(r1));

  auto r2 = co_await attempt_request(
      c, net, params, "GET /cgi-bin/test.cgi?id=42 HTTP/1.0\r\nHost: target\r\n\r\n",
      [&](const std::string& reply) { return apps::http::is_ok_reply(reply, *expected_cgi); });
  params.report->requests.push_back(std::move(r2));

  finish(c, params);
}

sim::Task ftp_client_program(Ctx c, nt::net::Network* net, ClientParams params,
                             std::string path, std::string expected_payload) {
  params.report->started_at = c.m().sim().now();
  co_await wait_for_server(c, net, params);

  RequestResult result;
  const sim::TimePoint t0 = c.m().sim().now();
  for (int attempt = 1; attempt <= params.config.max_attempts; ++attempt) {
    result.attempts = attempt;
    if (attempt > 1) co_await nt::sleep_in_sim(c, params.config.retry_wait);
    auto payload = co_await apps::ftp::ftp_fetch(c, net, params.target_machine,
                                                 params.port, path,
                                                 params.config.response_timeout * 2);
    if (payload) {
      result.any_response = true;
      if (*payload == expected_payload) {
        result.ok = true;
        result.detail.clear();
        break;
      }
      result.detail = "incorrect payload (" + std::to_string(payload->size()) + " bytes)";
    } else {
      result.detail = "transfer failed";
    }
  }
  result.elapsed = c.m().sim().now() - t0;
  params.report->requests.push_back(std::move(result));
  finish(c, params);
}

sim::Task sql_client_program(Ctx c, nt::net::Network* net, ClientParams params,
                             std::string query, std::string expected_reply) {
  params.report->started_at = c.m().sim().now();
  co_await wait_for_server(c, net, params);

  auto r = co_await attempt_request(
      c, net, params, query + "\n",
      [&](const std::string& reply) { return reply == expected_reply; });
  params.report->requests.push_back(std::move(r));

  finish(c, params);
}

}  // namespace dts::core
