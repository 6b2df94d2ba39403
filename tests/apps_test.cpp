// End-to-end (fault-free) tests of the simulated servers: Apache's
// two-process architecture, IIS, SQL Server — served over the simulated
// network, driven by ad-hoc clients.
#include <gtest/gtest.h>

#include "apps/apache.h"
#include "apps/http.h"
#include "apps/iis.h"
#include "apps/sql_server.h"
#include "ntsim/kernel.h"
#include "ntsim/netsim.h"
#include "ntsim/scm.h"

namespace dts::apps {
namespace {

using nt::Ctx;
using sim::Duration;

struct AppWorld {
  sim::Simulation simu{99};
  nt::net::Network net{simu};  // must outlive the machines (see netsim.h)
  nt::Machine target{simu, nt::MachineConfig{.name = "target", .cpu_scale = 1.0}};
  nt::Machine control{simu, nt::MachineConfig{.name = "control", .cpu_scale = 0.25}};
};

/// Fetches one URL (single attempt, 20 s timeout). Returns status line+body.
sim::CoTask<std::optional<std::string>> fetch(Ctx c, nt::net::Network& net,
                                              const std::string& path) {
  auto sock = co_await net.connect(c, "target", 80);
  if (sock == nullptr) co_return std::nullopt;
  sock->send("GET " + path + " HTTP/1.0\r\nHost: target\r\n\r\n");
  std::string response;
  for (;;) {
    auto chunk = co_await sock->recv(c, 65536, Duration::seconds(40));
    if (!chunk) co_return std::nullopt;  // timeout
    if (chunk->empty()) break;           // EOF
    response += *chunk;
  }
  co_return response;
}

TEST(Apache, ServesStaticAndCgi) {
  AppWorld w;
  const std::string index = *install_apache(w.target, w.net);
  ASSERT_EQ(w.target.scm().start_service("Apache"), nt::Win32Error::kSuccess);

  std::optional<std::string> static_resp, cgi_resp;
  w.control.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await nt::sleep_in_sim(c, Duration::seconds(5));  // let the server start
    static_resp = co_await fetch(c, w.net, "/index.html");
    cgi_resp = co_await fetch(c, w.net, "/cgi-bin/test.cgi?x=1");
  });
  w.control.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(120));

  ASSERT_TRUE(static_resp.has_value());
  EXPECT_NE(static_resp->find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(static_resp->find(index.substr(0, 60)), std::string::npos);
  EXPECT_GT(static_resp->size(), 115 * 1024u);

  ASSERT_TRUE(cgi_resp.has_value());
  EXPECT_NE(cgi_resp->find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(cgi_resp->find(http::expected_cgi_body("x=1")->substr(0, 60)),
            std::string::npos);

  // Two processes: master + worker.
  EXPECT_NE(w.target.find_process_by_image("apache.exe"), nullptr);
  EXPECT_NE(w.target.find_process_by_image("apache_child.exe"), nullptr);
  EXPECT_EQ(w.target.scm().query("Apache")->state, nt::ServiceState::kRunning);
}

TEST(Apache, MasterRespawnsDeadWorker) {
  AppWorld w;
  install_apache(w.target, w.net);
  w.target.scm().start_service("Apache");
  w.simu.run_until(w.simu.now() + Duration::seconds(10));

  nt::Process* worker = w.target.find_process_by_image("apache_child.exe");
  ASSERT_NE(worker, nullptr);
  const nt::Pid first_pid = worker->pid();
  w.target.request_process_exit(first_pid, nt::kExitCodeAccessViolation, "injected");
  w.simu.run_until(w.simu.now() + Duration::seconds(10));

  worker = w.target.find_process_by_image("apache_child.exe");
  ASSERT_NE(worker, nullptr);
  EXPECT_NE(worker->pid(), first_pid);
  // The service (the master) never stopped.
  EXPECT_EQ(w.target.scm().query("Apache")->state, nt::ServiceState::kRunning);
}

TEST(Apache, WorkerStillServesAfterRespawn) {
  AppWorld w;
  const std::string index = *install_apache(w.target, w.net);
  w.target.scm().start_service("Apache");
  w.simu.run_until(w.simu.now() + Duration::seconds(10));
  w.target.request_process_exit(w.target.find_process_by_image("apache_child.exe")->pid(),
                                nt::kExitCodeAccessViolation, "injected");

  std::optional<std::string> resp;
  w.control.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await nt::sleep_in_sim(c, Duration::seconds(5));
    resp = co_await fetch(c, w.net, "/index.html");
  });
  w.control.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(60));
  ASSERT_TRUE(resp.has_value());
  EXPECT_NE(resp->find("HTTP/1.0 200"), std::string::npos);
}

TEST(Apache, WorkerPoolModeServesAndRespawns) {
  // Apache's default multi-child pool (the paper pins it to 1 for
  // reproducibility; the pool must still work).
  AppWorld w;
  ApacheConfig cfg;
  cfg.max_children = 3;
  const std::string index = *install_apache(w.target, w.net, cfg);
  w.target.scm().start_service("Apache");
  w.simu.run_until(w.simu.now() + Duration::seconds(15));

  // Three workers share the inherited listen socket.
  int workers = 0;
  for (const auto& rec : w.target.start_history()) {
    if (rec.image == "apache_child.exe") ++workers;
  }
  EXPECT_EQ(workers, 3);

  // Kill one: the master replenishes the pool.
  nt::Process* victim = w.target.find_process_by_image("apache_child.exe");
  ASSERT_NE(victim, nullptr);
  w.target.request_process_exit(victim->pid(), nt::kExitCodeAccessViolation, "injected");
  w.simu.run_until(w.simu.now() + Duration::seconds(10));
  EXPECT_EQ(w.target.starts_of("apache_child.exe"), 4u);

  // And requests are still served.
  std::optional<std::string> resp;
  w.control.register_program("client.exe", [&](Ctx c) -> sim::Task {
    resp = co_await fetch(c, w.net, "/index.html");
  });
  w.control.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(60));
  ASSERT_TRUE(resp.has_value());
  EXPECT_NE(resp->find("HTTP/1.0 200"), std::string::npos);
}

TEST(Iis, ServesStaticAndCgi) {
  AppWorld w;
  const std::string index = *install_iis(w.target, w.net);
  ASSERT_EQ(w.target.scm().start_service("W3SVC"), nt::Win32Error::kSuccess);

  std::optional<std::string> static_resp, cgi_resp, missing_resp;
  w.control.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await nt::sleep_in_sim(c, Duration::seconds(8));
    static_resp = co_await fetch(c, w.net, "/index.html");
    cgi_resp = co_await fetch(c, w.net, "/cgi-bin/test.cgi?q=2");
    missing_resp = co_await fetch(c, w.net, "/no-such-page.html");
  });
  w.control.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(180));

  ASSERT_TRUE(static_resp.has_value());
  EXPECT_NE(static_resp->find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(static_resp->find("Microsoft-IIS/3.0"), std::string::npos);
  EXPECT_GT(static_resp->size(), 115 * 1024u);

  ASSERT_TRUE(cgi_resp.has_value());
  EXPECT_NE(cgi_resp->find(http::expected_cgi_body("q=2")->substr(0, 60)),
            std::string::npos);

  ASSERT_TRUE(missing_resp.has_value());
  EXPECT_NE(missing_resp->find("HTTP/1.0 404"), std::string::npos);
}

TEST(Iis, ActivatesManyMoreFunctionsThanApacheWorker) {
  // Shape of paper Table 1: IIS's activated-function footprint dwarfs
  // Apache's. Here we just check IIS init syscall breadth indirectly via the
  // machine syscall counter (full activation accounting is tested in the
  // injector tests).
  AppWorld w;
  install_iis(w.target, w.net);
  w.target.scm().start_service("W3SVC");
  w.simu.run_until(w.simu.now() + Duration::seconds(30));
  EXPECT_EQ(w.target.scm().query("W3SVC")->state, nt::ServiceState::kRunning);
  EXPECT_GT(w.target.syscalls_made, 60u);
}

TEST(SharedIndexPage, WriteOnOneMachineLeavesOthersAndMemoUntouched) {
  // Apache and IIS install the same memoized page into each machine's file
  // system without copying it; a write through one machine must clone.
  AppWorld w;
  const auto index = install_apache(w.target, w.net);
  const auto other = install_iis(w.control, w.net);
  ASSERT_EQ(index, other);  // one shared page, not two copies
  const std::string golden = *index;

  const std::string path = ApacheConfig{}.doc_root + "\\index.html";
  std::string canon;
  ASSERT_EQ(w.target.fs().open(path, nt::kGenericWrite, nt::kOpenExisting, &canon, nullptr),
            nt::Win32Error::kSuccess);
  ASSERT_EQ(w.target.fs().write(canon, 0, "CORRUPTED"), nt::Win32Error::kSuccess);

  EXPECT_EQ(w.target.fs().get_file(path)->substr(0, 9), "CORRUPTED");
  EXPECT_EQ(*apache_index_page(golden.size()), golden);
  EXPECT_EQ(*index, golden);
  EXPECT_EQ(w.control.fs().get_file(IisConfig{}.doc_root + "\\index.html"), golden);
}

TEST(SqlServer, AnswersQuery) {
  AppWorld w;
  const std::string expected = install_sql_server(w.target, w.net);
  ASSERT_EQ(w.target.scm().start_service("MSSQLServer"), nt::Win32Error::kSuccess);

  std::optional<std::string> reply;
  w.control.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await nt::sleep_in_sim(c, Duration::seconds(15));  // recovery takes a while
    auto sock = co_await w.net.connect(c, "target", 1433);
    EXPECT_NE(sock, nullptr);
    if (sock == nullptr) co_return;
    sock->send(sql_client_query() + "\n");
    std::string got;
    for (;;) {
      auto chunk = co_await sock->recv(c, 16384, Duration::seconds(30));
      if (!chunk) co_return;
      if (chunk->empty()) break;
      got += *chunk;
    }
    reply = got;
  });
  w.control.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(180));

  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, expected);
  EXPECT_NE(reply->find("ROW\t7\taccount-7"), std::string::npos);
}

TEST(SqlServer, ReportsRunningBeforeRecoveryCompletes) {
  // SQL Server reports Running early and recovers databases afterwards
  // (clients simply cannot connect until the listener is up).
  AppWorld w;
  install_sql_server(w.target, w.net);
  w.target.scm().start_service("MSSQLServer");
  w.simu.run_until(w.simu.now() + Duration::millis(500));
  EXPECT_EQ(w.target.scm().query("MSSQLServer")->state, nt::ServiceState::kStartPending);
  w.simu.run_until(w.simu.now() + Duration::seconds(5));
  EXPECT_EQ(w.target.scm().query("MSSQLServer")->state, nt::ServiceState::kRunning);
  // The port only opens after recovery finishes.
  EXPECT_FALSE(w.net.port_open("target", 1433));
  w.simu.run_until(w.simu.now() + Duration::seconds(30));
  EXPECT_TRUE(w.net.port_open("target", 1433));
}

TEST(Http, ParseRequest) {
  auto req = http::parse_request("GET /cgi-bin/x.cgi?a=1 HTTP/1.0\r\nHost: h\r\n\r\n");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->path(), "/cgi-bin/x.cgi");
  EXPECT_EQ(req->query(), "a=1");
  EXPECT_EQ(req->headers.at("Host"), "h");

  EXPECT_FALSE(http::parse_request("").has_value());
  EXPECT_FALSE(http::parse_request("GARBAGE\r\n\r\n").has_value());
  EXPECT_FALSE(http::parse_request("GET nopath HTTP/1.0\r\n\r\n").has_value());
}

TEST(Http, FormatResponse) {
  const std::string r = http::format_response(404, "text/html", "<x>", "TestServer");
  EXPECT_NE(r.find("HTTP/1.0 404 Not Found"), std::string::npos);
  EXPECT_NE(r.find("Content-Length: 3"), std::string::npos);
  EXPECT_NE(r.find("Server: TestServer"), std::string::npos);
  EXPECT_EQ(r.substr(r.size() - 3), "<x>");
}

// Byte-exact pins: responses are part of every run's simulated traffic, so
// any formatting drift would change transfer times and campaign output.
TEST(Http, FormatResponseIsByteExact) {
  std::string page;
  page.reserve(115'000);
  for (int i = 0; page.size() < 115'000; ++i) page += static_cast<char>('a' + i % 26);
  page.resize(115'000);
  EXPECT_EQ(http::format_response(200, "text/html", page, "Apache/1.3.3 (WinNT)"),
            "HTTP/1.0 200 OK\r\n"
            "Server: Apache/1.3.3 (WinNT)\r\n"
            "Content-Type: text/html\r\n"
            "Content-Length: 115000\r\n"
            "Connection: close\r\n\r\n" +
                page);

  EXPECT_EQ(http::format_response(404, "text/html",
                                  "<html><body><h1>404 Not Found</h1></body></html>",
                                  "Microsoft-IIS/3.0"),
            "HTTP/1.0 404 Not Found\r\n"
            "Server: Microsoft-IIS/3.0\r\n"
            "Content-Type: text/html\r\n"
            "Content-Length: 48\r\n"
            "Connection: close\r\n\r\n"
            "<html><body><h1>404 Not Found</h1></body></html>");

  EXPECT_EQ(http::format_response(418, "text/plain", "teapot", "S"),
            "HTTP/1.0 418 Unknown\r\n"
            "Server: S\r\n"
            "Content-Type: text/plain\r\n"
            "Content-Length: 6\r\n"
            "Connection: close\r\n\r\n"
            "teapot");

  EXPECT_EQ(http::format_response(500, "text/html", "", "S"),
            "HTTP/1.0 500 Internal Server Error\r\n"
            "Server: S\r\n"
            "Content-Type: text/html\r\n"
            "Content-Length: 0\r\n"
            "Connection: close\r\n\r\n");
}

TEST(Http, IsOkReplyComparesTheWholeBody) {
  const std::string ok = http::format_response(200, "text/html", "<p>hi</p>", "S");
  EXPECT_TRUE(http::is_ok_reply(ok, "<p>hi</p>"));
  EXPECT_FALSE(http::is_ok_reply(ok, "<p>hi</p>!"));  // truncated reply
  EXPECT_FALSE(http::is_ok_reply(ok, "<p>hi"));       // extra bytes
  EXPECT_FALSE(http::is_ok_reply(http::format_response(404, "text/html", "<p>hi</p>", "S"),
                                 "<p>hi</p>"));
  EXPECT_FALSE(http::is_ok_reply("HTTP/1.0 200 OK\r\nno blank line", ""));
}

}  // namespace
}  // namespace dts::apps
