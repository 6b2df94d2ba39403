// Simulated TCP networking between machines (the WSOCK32 analogue).
//
// Deliberately NOT routed through the injected KERNEL32 surface: DTS
// intercepted KERNEL32.dll only, so socket calls are not fault-injection
// candidates — but server crashes must still reset connections and refuse
// new ones, which is what drives the client's retry logic.
//
// Sockets and listeners are plain reference-counted objects held in
// coroutine frames; when a process is killed its frames are destroyed and
// the destructors close everything, waking blocked peers.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ntsim/process.h"
#include "sim/task.h"

namespace dts::nt::net {

struct NetworkConfig {
  sim::Duration latency = sim::Duration::millis(2);
  /// Link throughput; 10 Mbit/s Ethernet of the era.
  std::uint64_t bytes_per_second = 1'250'000;

  friend bool operator==(const NetworkConfig&, const NetworkConfig&) = default;
};

class Network;
class Listener;

/// One direction of a connection. Reads consume from `read_pos` instead of
/// erasing the front of `buffer`, so a partial read costs only the bytes it
/// returns; the consumed prefix is dropped when the next delivery lands.
struct Stream {
  std::string buffer;        // delivered bytes; [read_pos, size) are unread
  std::size_t read_pos = 0;  // first unread byte of `buffer`
  bool eof = false;          // sender closed (or crashed)
  std::vector<sim::WakePtr> read_waiters;
  sim::TimePoint earliest_delivery;  // FIFO ordering of in-flight sends

  std::size_t unread() const { return buffer.size() - read_pos; }

  /// Appends a delivered payload. Into an empty stream it is moved, not
  /// copied; otherwise the consumed prefix is dropped before appending.
  void deliver(std::string&& payload);

  /// Removes and returns the first `n` unread bytes (n <= unread()). A read
  /// from the front of at least half the buffer moves the buffer out and
  /// copies only the remainder back.
  std::string consume(std::size_t n);

  void wake_readers(sim::Simulation& sim) {
    auto pending = std::move(read_waiters);
    read_waiters.clear();
    for (auto& tok : pending) sim::wake(sim, tok, sim::WakeReason::kSignaled);
  }
};

/// One endpoint of an established connection. Each socket carries the
/// NetworkConfig of the link it was established over (per-link overrides are
/// resolved once, at connect time), so send/close costs follow that link.
class Socket {
 public:
  Socket(Network& net, std::shared_ptr<Stream> rx, std::shared_ptr<Stream> tx,
         NetworkConfig cfg)
      : net_(&net), rx_(std::move(rx)), tx_(std::move(tx)), cfg_(cfg) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Queues data for delivery to the peer after latency + size/bandwidth.
  /// Never blocks (unbounded send buffer). Data sent after close is dropped.
  /// Takes ownership of the payload: pass an rvalue and the bytes travel to
  /// the peer's receive buffer without being copied.
  void send(std::string data);

  /// Receives up to `max` bytes. Blocks until data, EOF or timeout. Returns
  /// nullopt on timeout; empty string on EOF.
  sim::CoTask<std::optional<std::string>> recv(Ctx c, std::size_t max,
                                               std::optional<sim::Duration> timeout = {});

  /// Receives until `delim` appears (returning everything through the
  /// delimiter), EOF (nullopt), timeout (nullopt) or `max` bytes (nullopt —
  /// oversized request). Consumes what it returns.
  sim::CoTask<std::optional<std::string>> recv_until(Ctx c, std::string delim,
                                                     std::size_t max,
                                                     std::optional<sim::Duration> timeout = {});

  /// Receives exactly `n` bytes (or nullopt on EOF/timeout).
  sim::CoTask<std::optional<std::string>> recv_exactly(Ctx c, std::size_t n,
                                                       std::optional<sim::Duration> timeout = {});

  /// True once the peer has closed and all delivered data was consumed.
  bool at_eof() const { return rx_->unread() == 0 && rx_->eof; }
  bool closed() const { return closed_; }

  void close();

 private:
  Network* net_;
  std::shared_ptr<Stream> rx_;
  std::shared_ptr<Stream> tx_;
  NetworkConfig cfg_;
  bool closed_ = false;
};

/// A listening port. Owned by the server accept-loop frame; destruction
/// releases the port and resets un-accepted connections.
class Listener {
 public:
  Listener(Network& net, std::string machine, std::uint16_t port)
      : net_(&net), machine_(std::move(machine)), port_(port) {}
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accepts the next pending connection; blocks until one arrives.
  /// Returns nullptr only on timeout (if given).
  sim::CoTask<std::shared_ptr<Socket>> accept(Ctx c,
                                              std::optional<sim::Duration> timeout = {});

  std::uint16_t port() const { return port_; }
  std::size_t backlog() const { return pending_.size(); }

 private:
  friend class Network;
  Network* net_;
  std::string machine_;
  std::uint16_t port_;
  std::deque<std::shared_ptr<Socket>> pending_;
  std::vector<sim::WakePtr> accept_waiters_;
};

/// LIFETIME: the Network must outlive every Machine whose processes hold
/// sockets or listeners — declare it before the machines (socket/listener
/// destructors, run during process teardown, call back into the Network).
class Network {
 public:
  explicit Network(sim::Simulation& sim, NetworkConfig cfg = {}) : sim_(&sim), cfg_(cfg) {}

  sim::Simulation& sim() const { return *sim_; }
  const NetworkConfig& config() const { return cfg_; }

  /// Overrides latency/bandwidth for the (a, b) machine pair, both
  /// directions (the pair key is unordered). Connections established later
  /// use the override; live sockets keep the config they connected with.
  void set_link(const std::string& a, const std::string& b, NetworkConfig cfg);

  /// The effective config between two machines: the per-link override if one
  /// was set, the network default otherwise. A machine's link to itself
  /// (loopback within the simulated LAN) resolves the same way.
  const NetworkConfig& link_config(const std::string& a, const std::string& b) const;

  /// Opens a listening port on the named machine. Nullptr if the port is
  /// already bound.
  std::shared_ptr<Listener> listen(const std::string& machine, std::uint16_t port);

  /// Connects from the calling simulated thread to (machine, port). Returns
  /// nullptr on refusal (no listener) — immediately, like a TCP RST — or on
  /// timeout.
  sim::CoTask<std::shared_ptr<Socket>> connect(Ctx c, const std::string& machine,
                                               std::uint16_t port,
                                               std::optional<sim::Duration> timeout = {});

  /// Host-side probe: is anything listening on (machine, port)?
  bool port_open(const std::string& machine, std::uint16_t port) const;

  std::uint64_t connections_made() const { return connections_; }

  // --- snapshots (src/snap/) ------------------------------------------------
  // Listeners and sockets live inside coroutine frames the Network does not
  // own, so a snapshot records only the connection counter plus which ports
  // were bound (an identity check). Live wire state is covered by the
  // fork-based execution path, never by in-memory restore.

  struct Snapshot {
    std::uint64_t connections = 0;
    std::vector<std::pair<std::string, std::uint16_t>> bound_ports;  // sorted

    friend bool operator==(const Snapshot&, const Snapshot&) = default;
  };

  Snapshot capture() const;

  /// Restores the counter. Returns false if the currently bound port set
  /// differs from the snapshot's (the world diverged structurally).
  bool restore(const Snapshot& s);

 private:
  friend class Socket;
  friend class Listener;

  void unbind(const std::string& machine, std::uint16_t port, const Listener* who);

  sim::Simulation* sim_;
  NetworkConfig cfg_;
  std::map<std::pair<std::string, std::uint16_t>, Listener*> listeners_;
  std::map<std::pair<std::string, std::string>, NetworkConfig> links_;  // key sorted
  std::uint64_t connections_ = 0;
};

}  // namespace dts::nt::net
