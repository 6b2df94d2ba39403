// Tests for the simulated network: connections, data transfer timing,
// refusal when no listener exists, resets on process death.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ntsim/kernel.h"
#include "ntsim/netsim.h"

namespace dts::nt {
namespace {

using sim::Duration;

struct NetWorld {
  sim::Simulation simu{7};
  net::Network net{simu};  // must outlive the machines (see netsim.h)
  Machine server{simu, MachineConfig{.name = "target", .cpu_scale = 1.0}};
  Machine client{simu, MachineConfig{.name = "control", .cpu_scale = 1.0}};
};

TEST(Net, EchoAcrossMachines) {
  NetWorld w;
  std::string server_got, client_got;

  w.server.register_program("server.exe", [&](Ctx c) -> sim::Task {
    auto listener = w.net.listen("target", 80);
    EXPECT_NE(listener, nullptr);
    if (listener == nullptr) co_return;
    auto sock = co_await listener->accept(c);
    EXPECT_NE(sock, nullptr);
    if (sock == nullptr) co_return;
    auto req = co_await sock->recv(c, 1024);
    EXPECT_TRUE(req.has_value());
    if (!req) co_return;
    server_got = *req;
    sock->send("pong");
    // Keep the socket open until the client reads.
    co_await sleep_in_sim(c, Duration::seconds(1));
  });
  w.client.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await sleep_in_sim(c, Duration::millis(50));  // let the server listen
    auto sock = co_await w.net.connect(c, "target", 80);
    EXPECT_NE(sock, nullptr);
    if (sock == nullptr) co_return;
    sock->send("ping");
    auto resp = co_await sock->recv(c, 1024, Duration::seconds(5));
    EXPECT_TRUE(resp.has_value());
    if (!resp) co_return;
    client_got = *resp;
  });

  w.server.start_process("server.exe", "server.exe");
  w.client.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(10));
  EXPECT_EQ(server_got, "ping");
  EXPECT_EQ(client_got, "pong");
}

TEST(Net, ConnectionRefusedWithoutListener) {
  NetWorld w;
  bool refused = false;
  sim::Duration elapsed{};
  w.client.register_program("client.exe", [&](Ctx c) -> sim::Task {
    const auto t0 = c.m().sim().now();
    auto sock = co_await w.net.connect(c, "target", 80);
    elapsed = c.m().sim().now() - t0;
    refused = (sock == nullptr);
  });
  w.client.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(5));
  EXPECT_TRUE(refused);
  EXPECT_LT(elapsed, Duration::millis(100));  // RST is fast, not a timeout
}

TEST(Net, TransferTimeScalesWithSize) {
  NetWorld w;
  sim::Duration small_time{}, large_time{};
  w.server.register_program("server.exe", [&](Ctx c) -> sim::Task {
    auto listener = w.net.listen("target", 80);
    for (int i = 0; i < 2; ++i) {
      auto sock = co_await listener->accept(c);
      auto req = co_await sock->recv(c, 16);
      const std::size_t size = *req == "S" ? 1000 : 115000;
      sock->send(std::string(size, 'x'));
      co_await sleep_in_sim(c, Duration::millis(200));
    }
  });
  w.client.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await sleep_in_sim(c, Duration::millis(10));
    for (const bool small : {true, false}) {
      auto sock = co_await w.net.connect(c, "target", 80);
      EXPECT_NE(sock, nullptr);
      if (sock == nullptr) co_return;
      const auto t0 = c.m().sim().now();
      sock->send(small ? "S" : "L");
      auto data = co_await sock->recv_exactly(c, small ? 1000 : 115000,
                                              Duration::seconds(30));
      EXPECT_TRUE(data.has_value());
      if (!data) co_return;
      (small ? small_time : large_time) = c.m().sim().now() - t0;
    }
  });
  w.server.start_process("server.exe", "server.exe");
  w.client.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(60));
  EXPECT_GT(large_time, small_time * 10);
}

TEST(Net, ServerCrashResetsClientConnection) {
  NetWorld w;
  bool got_eof = false;
  Pid server_pid = 0;
  w.server.register_program("server.exe", [&](Ctx c) -> sim::Task {
    auto listener = w.net.listen("target", 80);
    auto sock = co_await listener->accept(c);
    // Crash mid-request: frames are destroyed, RAII closes the socket.
    throw AccessViolation{0xBAD, false};
  });
  w.client.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await sleep_in_sim(c, Duration::millis(10));
    auto sock = co_await w.net.connect(c, "target", 80);
    EXPECT_NE(sock, nullptr);
    if (sock == nullptr) co_return;
    sock->send("GET / HTTP/1.0\r\n\r\n");
    auto resp = co_await sock->recv(c, 1024, Duration::seconds(15));
    got_eof = resp.has_value() && resp->empty();  // reset, not timeout
  });
  server_pid = w.server.start_process("server.exe", "server.exe");
  w.client.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(30));
  EXPECT_FALSE(w.server.alive(server_pid));
  EXPECT_TRUE(got_eof);
}

TEST(Net, ListenerDestructionFreesPort) {
  NetWorld w;
  {
    auto l1 = w.net.listen("target", 8080);
    ASSERT_NE(l1, nullptr);
    EXPECT_EQ(w.net.listen("target", 8080), nullptr);  // in use
    EXPECT_TRUE(w.net.port_open("target", 8080));
  }
  EXPECT_FALSE(w.net.port_open("target", 8080));
  EXPECT_NE(w.net.listen("target", 8080), nullptr);
}

TEST(Net, RecvUntilFindsDelimiter) {
  NetWorld w;
  std::optional<std::string> line1, line2;
  w.server.register_program("server.exe", [&](Ctx c) -> sim::Task {
    auto listener = w.net.listen("target", 80);
    auto sock = co_await listener->accept(c);
    line1 = co_await sock->recv_until(c, "\r\n", 4096, Duration::seconds(5));
    line2 = co_await sock->recv_until(c, "\r\n", 4096, Duration::seconds(5));
  });
  w.client.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await sleep_in_sim(c, Duration::millis(10));
    auto sock = co_await w.net.connect(c, "target", 80);
    sock->send("GET / HTTP/1.0\r\nHost: x\r\n");
    co_await sleep_in_sim(c, Duration::seconds(1));
  });
  w.server.start_process("server.exe", "server.exe");
  w.client.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(10));
  EXPECT_EQ(line1, "GET / HTTP/1.0\r\n");
  EXPECT_EQ(line2, "Host: x\r\n");
}

// A network partition in this model is the listener going away (the service
// died or was isolated): established connections reset, new connects are
// refused, and a re-listen heals the partition for retrying clients. This is
// the failover/retry contract the topology load balancer (src/topo/) builds
// on.
TEST(Net, PartitionThenReconnectHealsForRetryingClients) {
  NetWorld w;
  int refusals = 0;
  bool reconnected = false;
  std::optional<std::string> resumed;

  w.server.register_program("server.exe", [&](Ctx c) -> sim::Task {
    {
      auto listener = w.net.listen("target", 80);
      auto sock = co_await listener->accept(c);
      sock->send("up");
      co_await sleep_in_sim(c, Duration::millis(50));
      sock->close();
    }  // listener destroyed: the partition begins
    co_await sleep_in_sim(c, Duration::millis(500));
    // Partition heals: a fresh listener on the same port.
    auto listener = w.net.listen("target", 80);
    EXPECT_NE(listener, nullptr);
    if (listener == nullptr) co_return;
    auto sock = co_await listener->accept(c);
    sock->send("back");
    co_await sleep_in_sim(c, Duration::seconds(1));
  });
  w.client.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await sleep_in_sim(c, Duration::millis(10));
    auto sock = co_await w.net.connect(c, "target", 80);
    EXPECT_NE(sock, nullptr);
    if (sock == nullptr) co_return;
    (void)co_await sock->recv(c, 16, Duration::seconds(1));  // "up"
    (void)co_await sock->recv(c, 16, Duration::seconds(2));  // EOF: partition
    // Retry loop across the partition: refused until the server re-listens.
    for (int attempt = 0; attempt < 20; ++attempt) {
      auto retry = co_await w.net.connect(c, "target", 80);
      if (retry == nullptr) {
        ++refusals;
        co_await sleep_in_sim(c, Duration::millis(100));
        continue;
      }
      reconnected = true;
      resumed = co_await retry->recv(c, 16, Duration::seconds(1));
      co_return;
    }
  });
  w.server.start_process("server.exe", "server.exe");
  w.client.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(10));
  EXPECT_GE(refusals, 1);
  EXPECT_TRUE(reconnected);
  EXPECT_EQ(resumed, "back");
}

// The peer closing its end wakes a blocked reader with EOF (empty string),
// not a timeout — how relay daemons distinguish a dead backend from a slow
// one.
TEST(Net, PeerCloseDeliversEofToBlockedReader) {
  NetWorld w;
  std::optional<std::string> got;
  sim::Duration waited{};
  w.server.register_program("server.exe", [&](Ctx c) -> sim::Task {
    auto listener = w.net.listen("target", 80);
    auto sock = co_await listener->accept(c);
    co_await sleep_in_sim(c, Duration::millis(30));
    sock->close();  // no data ever sent
    co_await sleep_in_sim(c, Duration::seconds(1));
  });
  w.client.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await sleep_in_sim(c, Duration::millis(10));
    auto sock = co_await w.net.connect(c, "target", 80);
    const auto t0 = c.m().sim().now();
    got = co_await sock->recv(c, 16, Duration::seconds(30));
    waited = c.m().sim().now() - t0;
  });
  w.server.start_process("server.exe", "server.exe");
  w.client.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(60));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());                    // EOF, not payload
  EXPECT_LT(waited, Duration::seconds(1));      // and not a 30s timeout
}

// Per-link overrides ([network] link.*): the configured pair resolves the
// same config in either endpoint order, and unconfigured pairs keep the
// network default.
TEST(Net, PerLinkConfigResolvesSymmetricallyWithDefaultFallback) {
  NetWorld w;
  net::NetworkConfig slow;
  slow.latency = Duration::millis(25);
  slow.bytes_per_second = 10'000;
  w.net.set_link("control", "target", slow);

  EXPECT_EQ(w.net.link_config("control", "target"), slow);
  EXPECT_EQ(w.net.link_config("target", "control"), slow);  // order-blind
  EXPECT_EQ(w.net.link_config("control", "other"), net::NetworkConfig{});
}

// The override actually shapes traffic: with 25ms latency on the link, even
// a refused connect pays the SYN round trip, and an accepted transfer pays
// latency + size/bandwidth.
TEST(Net, PerLinkLatencyGovernsConnectAndTransfer) {
  NetWorld w;
  net::NetworkConfig slow;
  slow.latency = Duration::millis(25);
  slow.bytes_per_second = 10'000;  // 1000 bytes => 100ms serialization
  w.net.set_link("control", "target", slow);

  sim::Duration refusal{}, transfer{};
  w.server.register_program("server.exe", [&](Ctx c) -> sim::Task {
    co_await sleep_in_sim(c, Duration::millis(100));  // stay dark first
    auto listener = w.net.listen("target", 80);
    auto sock = co_await listener->accept(c);
    sock->send(std::string(1000, 'x'));
    co_await sleep_in_sim(c, Duration::seconds(5));
  });
  w.client.register_program("client.exe", [&](Ctx c) -> sim::Task {
    auto t0 = c.m().sim().now();
    auto refused = co_await w.net.connect(c, "target", 80);
    refusal = c.m().sim().now() - t0;
    EXPECT_EQ(refused, nullptr);

    co_await sleep_in_sim(c, Duration::millis(200));  // server is up now
    auto sock = co_await w.net.connect(c, "target", 80);
    EXPECT_NE(sock, nullptr);
    if (sock == nullptr) co_return;
    t0 = c.m().sim().now();
    std::size_t received = 0;
    while (received < 1000) {
      auto chunk = co_await sock->recv(c, 4096, Duration::seconds(10));
      if (!chunk || chunk->empty()) break;
      received += chunk->size();
    }
    transfer = c.m().sim().now() - t0;
    EXPECT_EQ(received, 1000u);
  });
  w.server.start_process("server.exe", "server.exe");
  w.client.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(30));

  EXPECT_GE(refusal, Duration::millis(50));  // SYN round trip over 25ms links
  // Delivery = 25ms latency + 1000B / 10kB/s = 125ms, far above the 2ms
  // default-link figure.
  EXPECT_GE(transfer, Duration::millis(100));
}

// --- receive-buffer ownership ----------------------------------------------
// Reads consume from a read offset and whole-buffer reads move the bytes
// out; these pin that partial reads, delimiter searches and EOF still see
// exactly the unread bytes, in order.

// The server sleeps before reading so everything the client sent is already
// buffered; `reads` then runs against that buffer.
template <typename Reads, typename Sends>
void run_buffered(NetWorld& w, Sends sends, Reads reads) {
  w.server.register_program("server.exe", [&](Ctx c) -> sim::Task {
    auto listener = w.net.listen("target", 80);
    auto sock = co_await listener->accept(c);
    co_await sleep_in_sim(c, Duration::millis(500));
    co_await reads(c, *sock);
  });
  w.client.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await sleep_in_sim(c, Duration::millis(10));
    auto sock = co_await w.net.connect(c, "target", 80);
    EXPECT_NE(sock, nullptr);
    if (sock == nullptr) co_return;
    co_await sends(c, *sock);
    co_await sleep_in_sim(c, Duration::seconds(5));
  });
  w.server.start_process("server.exe", "server.exe");
  w.client.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(10));
}

TEST(NetBuffer, PartialRecvReturnsBytesInOrderThenRemainder) {
  NetWorld w;
  std::vector<std::optional<std::string>> got;
  run_buffered(
      w,
      [](Ctx c, net::Socket& sock) -> sim::CoTask<void> {
        sock.send("abcdefghij");
        // Arrives after the first partial read: appended behind the
        // still-unread bytes.
        co_await sleep_in_sim(c, Duration::millis(700));
        sock.send("KLM");
      },
      [&](Ctx c, net::Socket& sock) -> sim::CoTask<void> {
        // Small reads from the front and from the middle of the buffer.
        got.push_back(co_await sock.recv(c, 3, Duration::seconds(1)));
        got.push_back(co_await sock.recv(c, 2, Duration::seconds(1)));
        co_await sleep_in_sim(c, Duration::millis(500));
        // A read of most of the buffer, then of exactly what is left.
        got.push_back(co_await sock.recv(c, 6, Duration::seconds(1)));
        got.push_back(co_await sock.recv(c, 100, Duration::seconds(1)));
      });
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], "abc");
  EXPECT_EQ(got[1], "de");
  EXPECT_EQ(got[2], "fghijK");
  EXPECT_EQ(got[3], "LM");
}

TEST(NetBuffer, RecvUntilWithDelimiterAtEndAndWithBytesFollowing) {
  NetWorld w;
  std::optional<std::string> first, second, rest, last;
  run_buffered(
      w,
      [](Ctx c, net::Socket& sock) -> sim::CoTask<void> {
        sock.send("one\ntwo\ntail");
        co_await sleep_in_sim(c, Duration::millis(700));
        sock.send("ends\n");
      },
      [&](Ctx c, net::Socket& sock) -> sim::CoTask<void> {
        // Bytes follow the delimiter.
        first = co_await sock.recv_until(c, "\n", 64, Duration::seconds(1));
        second = co_await sock.recv_until(c, "\n", 64, Duration::seconds(1));
        // "tail" has no delimiter yet: waits for the next delivery, then
        // the delimiter ends exactly at the end of the buffer.
        rest = co_await sock.recv_until(c, "\n", 64, Duration::seconds(2));
        last = co_await sock.recv(c, 64, Duration::millis(100));
      });
  EXPECT_EQ(first, "one\n");
  EXPECT_EQ(second, "two\n");
  EXPECT_EQ(rest, "tailends\n");
  EXPECT_EQ(last, std::nullopt);  // nothing left: the read times out
}

TEST(NetBuffer, SendsDeliveredBeforeAnyReadArriveConcatenated) {
  NetWorld w;
  std::optional<std::string> got;
  run_buffered(
      w,
      [](Ctx, net::Socket& sock) -> sim::CoTask<void> {
        sock.send("first|");
        sock.send(std::string(1000, 'x'));
        sock.send("|last");
        co_return;
      },
      [&](Ctx c, net::Socket& sock) -> sim::CoTask<void> {
        got = co_await sock.recv(c, 4096, Duration::seconds(1));
      });
  EXPECT_EQ(got, "first|" + std::string(1000, 'x') + "|last");
}

TEST(NetBuffer, AtEofStaysFalseWhileUnreadBytesRemain) {
  NetWorld w;
  std::vector<bool> eof_seen;
  std::vector<std::optional<std::string>> got;
  run_buffered(
      w,
      [](Ctx, net::Socket& sock) -> sim::CoTask<void> {
        sock.send("12345");
        sock.close();
        co_return;
      },
      [&](Ctx c, net::Socket& sock) -> sim::CoTask<void> {
        eof_seen.push_back(sock.at_eof());  // peer closed, 5 bytes unread
        got.push_back(co_await sock.recv(c, 2, Duration::seconds(1)));
        eof_seen.push_back(sock.at_eof());  // 3 bytes unread
        got.push_back(co_await sock.recv(c, 3, Duration::seconds(1)));
        eof_seen.push_back(sock.at_eof());  // all consumed
        got.push_back(co_await sock.recv(c, 3, Duration::seconds(1)));
      });
  EXPECT_EQ(eof_seen, (std::vector<bool>{false, false, true}));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "12");
  EXPECT_EQ(got[1], "345");
  EXPECT_EQ(got[2], "");  // orderly EOF
}

// --- shared immutable payloads ---------------------------------------------
// A shared payload delivered into an empty stream is held without copying and
// handed back whole; any other read or a delivery behind it copies it into the
// buffer first, so byte-level reads see exactly the bytes, in order.

std::shared_ptr<const std::string> page_of(std::size_t n) {
  std::string bytes(n, '.');
  for (std::size_t i = 0; i < n; ++i) bytes[i] = static_cast<char>('a' + i % 26);
  return std::make_shared<const std::string>(std::move(bytes));
}

TEST(NetBuffer, SharedPayloadIntoEmptyStreamComesBackAsTheSamePointer) {
  NetWorld w;
  const auto page = page_of(115'000);
  net::Reply got;
  run_buffered(
      w,
      [&](Ctx, net::Socket& sock) -> sim::CoTask<void> {
        sock.send(page);
        sock.close();
        co_return;
      },
      [&](Ctx c, net::Socket& sock) -> sim::CoTask<void> {
        got = co_await sock.recv_to_eof(c, Duration::seconds(1));
      });
  EXPECT_TRUE(got.complete);
  EXPECT_EQ(got.bytes, page);  // the sender's pointer: no copy was made
}

TEST(NetBuffer, SharedPayloadBehindUnreadBytesKeepsOrder) {
  NetWorld w;
  const auto page = page_of(1000);
  net::Reply got;
  run_buffered(
      w,
      [&](Ctx, net::Socket& sock) -> sim::CoTask<void> {
        sock.send("head|");
        sock.send(page);     // lands behind unread bytes: copied in
        sock.send("|tail");  // lands behind them too
        sock.close();
        co_return;
      },
      [&](Ctx c, net::Socket& sock) -> sim::CoTask<void> {
        got = co_await sock.recv_to_eof(c, Duration::seconds(1));
      });
  EXPECT_TRUE(got.complete);
  ASSERT_NE(got.bytes, nullptr);
  EXPECT_EQ(*got.bytes, "head|" + *page + "|tail");
}

TEST(NetBuffer, BytesBehindAHeldSharedPayloadKeepOrder) {
  NetWorld w;
  const auto page = page_of(1000);
  net::Reply got;
  run_buffered(
      w,
      [&](Ctx, net::Socket& sock) -> sim::CoTask<void> {
        sock.send(page);     // held as is: the stream was empty
        sock.send("|tail");  // unshares the held payload, then appends
        sock.close();
        co_return;
      },
      [&](Ctx c, net::Socket& sock) -> sim::CoTask<void> {
        got = co_await sock.recv_to_eof(c, Duration::seconds(1));
      });
  EXPECT_TRUE(got.complete);
  ASSERT_NE(got.bytes, nullptr);
  EXPECT_EQ(*got.bytes, *page + "|tail");
}

TEST(NetBuffer, RecvUntilAndRecvExactlyReadAcrossASharedPayload) {
  NetWorld w;
  std::optional<std::string> first, middle, last;
  net::Reply rest;
  run_buffered(
      w,
      [&](Ctx c, net::Socket& sock) -> sim::CoTask<void> {
        sock.send(std::make_shared<const std::string>("abc\ndef"));
        co_await sleep_in_sim(c, Duration::millis(700));
        sock.send(std::make_shared<const std::string>("ghi\nz"));
        sock.close();
      },
      [&](Ctx c, net::Socket& sock) -> sim::CoTask<void> {
        first = co_await sock.recv_until(c, "\n", 64, Duration::seconds(1));
        // "def" is buffered; the rest arrives as a second shared payload.
        middle = co_await sock.recv_exactly(c, 5, Duration::seconds(2));
        last = co_await sock.recv_until(c, "\n", 64, Duration::seconds(1));
        rest = co_await sock.recv_to_eof(c, Duration::seconds(1));
      });
  EXPECT_EQ(first, "abc\n");
  EXPECT_EQ(middle, "defgh");
  EXPECT_EQ(last, "i\n");
  EXPECT_TRUE(rest.complete);
  ASSERT_NE(rest.bytes, nullptr);
  EXPECT_EQ(*rest.bytes, "z");
}

TEST(NetBuffer, EofAndLocalResetWhileASharedPayloadIsUnread) {
  NetWorld w;
  const auto page = page_of(64);
  std::vector<bool> eof_seen;
  std::optional<std::string> head;
  net::Reply rest;
  run_buffered(
      w,
      [&](Ctx, net::Socket& sock) -> sim::CoTask<void> {
        sock.send(page);
        sock.close();
        co_return;
      },
      [&](Ctx c, net::Socket& sock) -> sim::CoTask<void> {
        eof_seen.push_back(sock.at_eof());  // peer closed, 64 bytes unread
        head = co_await sock.recv(c, 4, Duration::seconds(1));
        sock.close();  // our own reset: delivered bytes stay readable
        eof_seen.push_back(sock.at_eof());
        rest = co_await sock.recv_to_eof(c, Duration::seconds(1));
        eof_seen.push_back(sock.at_eof());
      });
  EXPECT_EQ(eof_seen, (std::vector<bool>{false, false, true}));
  EXPECT_EQ(head, page->substr(0, 4));
  EXPECT_TRUE(rest.complete);
  ASSERT_NE(rest.bytes, nullptr);
  EXPECT_EQ(*rest.bytes, page->substr(4));
}

TEST(NetBuffer, SharedPayloadInFlightToAResetStreamIsDropped) {
  NetWorld w;
  const auto page = page_of(4096);
  net::Reply got;
  w.server.register_program("server.exe", [&](Ctx c) -> sim::Task {
    auto listener = w.net.listen("target", 80);
    auto sock = co_await listener->accept(c);
    sock->close();  // reset before the payload lands
    got = co_await sock->recv_to_eof(c, Duration::seconds(1));
  });
  w.client.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await sleep_in_sim(c, Duration::millis(10));
    auto sock = co_await w.net.connect(c, "target", 80);
    EXPECT_NE(sock, nullptr);
    if (sock == nullptr) co_return;
    sock->send(page);
    co_await sleep_in_sim(c, Duration::seconds(5));
  });
  w.server.start_process("server.exe", "server.exe");
  w.client.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(10));
  EXPECT_TRUE(got.complete);
  EXPECT_EQ(got.bytes, nullptr);
  EXPECT_EQ(page.use_count(), 1);  // the dropped delivery released its share
}

}  // namespace
}  // namespace dts::nt
