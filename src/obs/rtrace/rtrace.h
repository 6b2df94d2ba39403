// Causal request tracing for multi-tier campaigns (src/topo/): the load
// generator mints one trace per request, and every hop the request takes —
// client→balancer, balancer→replica (including failover attempts), the
// replica's local application check, and the forward to the next tier —
// becomes a span with parent linkage, tier/replica labels, sim-time bounds
// and an outcome. When the armed fault fires inside a traced request the
// enclosing span is stamped, so a user-visible degraded/partial/outage
// request links back to the exact corrupted call.
//
// The trace context rides IN the netsim payload ("REQ <id> rt=<trace>:<span>")
// rather than a side channel: relays and balancers forward the request line
// they received, so a context threaded through the bytes survives exactly the
// hops the request itself survives — a partitioned or timed-out hop drops the
// context with the request, which is the causal truth. With tracing off the
// wire bytes are the classic "REQ <id>\n", so off-mode campaigns stay
// byte-identical (see DESIGN.md decision 16).
//
// Per run, the spans aggregate into (a) critical-path latency attribution —
// which tier contributed how much service / failover-retry / queueing time —
// (b) a propagation-path digest (FNV-1a over the span shape, times excluded)
// folded into failure signatures so "db fault masked by app-tier failover"
// and "db fault surfaced as outage" cluster separately, and (c) a compact
// serialization journaled as the v7 "rt" trailer and re-verified by replay.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dts::obs::rtrace {

/// What gets traced: off (classic wire bytes, zero overhead), failures
/// (spans collected every run, journaled only for non-masked runs), all.
enum class RtraceMode { kOff, kFailures, kAll };

bool rtrace_mode_from_string(const std::string& s, RtraceMode* out);
std::string_view to_string(RtraceMode m);

/// One hop (or hop attempt) of one traced request.
struct TraceSpan {
  int trace = 0;        // request id — the loadgen's 1-based sequence
  int id = 0;           // span id, unique within the run (begin order)
  int parent = 0;       // parent span id; 0 = root ("request")
  std::string name;     // "request","lb","attempt","relay","app.check","forward"
  std::string tier;     // owning tier; "client" for the loadgen root
  std::string replica;  // machine doing the work (attempt: the backend tried)
  std::int64_t begin_us = 0;  // sim time
  std::int64_t end_us = 0;
  std::string outcome = "unfinished";  // "ok","err","timeout","refused",
                                       // "unfinished" (run cap hit mid-span)
  bool injected = false;  // the armed fault's first firing landed in here

  std::int64_t duration_us() const {
    return end_us > begin_us ? end_us - begin_us : 0;
  }

  friend bool operator==(const TraceSpan&, const TraceSpan&) = default;
};

/// The compact context one request line carries: which trace, which span to
/// parent the next hop under. Each forwarding daemon rewrites the token with
/// its own span id before sending downstream.
struct WireContext {
  int trace = 0;
  int span = 0;
};

/// "rt=<trace>:<span>" — the token appended to "REQ <id>".
std::string wire_token(int trace, int span);

/// Extracts the rt= token from a request line; nullopt when absent (tracing
/// off, or a pre-rtrace peer).
std::optional<WireContext> parse_wire(const std::string& line);

/// Rebuilds a request line with the context replaced: "REQ <id> rt=t:s\n".
std::string rewrite_wire(const std::string& id, int trace, int span);

/// Per-run span collector. Lives in the run's World; the simulation is
/// single-threaded, so begin/end need no locking. Disabled (the default) it
/// is a handful of branch-not-taken per hop.
class TraceLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when disabled — 0 is never a real id).
  int begin_span(int trace, int parent, std::string name, std::string tier,
                 std::string replica, std::int64_t begin_us);

  /// Closes span `id` (no-op for id 0 / unknown ids).
  void end_span(int id, std::int64_t end_us, std::string outcome);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  std::vector<TraceSpan> take_spans();
  void clear();

 private:
  bool enabled_ = false;
  int next_id_ = 0;
  std::vector<TraceSpan> spans_;  // in begin order == id order
};

/// Per-tier critical-path attribution of one request (or a whole run):
/// where its latency went, split the way an operator acts on it.
struct TierAttribution {
  std::string tier;
  std::int64_t service_us = 0;  // successful local application checks
  std::int64_t retry_us = 0;    // failed balancer attempts (failover cost)
  std::int64_t queue_us = 0;    // tier time not covered by child spans
                                // (queueing + relay/balancer overhead)

  std::int64_t total_us() const { return service_us + retry_us + queue_us; }
};

/// One traced request, reduced: its fate plus per-tier attribution.
struct RequestTrace {
  int trace = 0;
  bool ok = false;
  bool injected = false;  // the injection landed somewhere in this request
  std::int64_t elapsed_us = 0;
  std::vector<TierAttribution> tiers;  // tier order of first appearance
};

/// Everything one run's tracing produced, finalized.
struct RunTrace {
  std::vector<TraceSpan> spans;       // (trace, id) order
  std::uint64_t digest = 0;           // propagation-path digest
  int injected_span = 0;              // span id carrying the injection; 0 = none
  std::string fault_id;               // the armed fault ("" = golden/none)
  std::vector<RequestTrace> requests;
  std::vector<TierAttribution> totals;  // per-tier aggregate over all requests

  /// Journal "rt" payload (single line, no quotes/backslashes).
  std::string serialize() const;
  static std::optional<RunTrace> parse(const std::string& text);
};

/// FNV-1a over the span shape — trace/parent/name/tier/outcome/injected,
/// times and replicas excluded — so the digest names the propagation PATH,
/// stable across latency jitter.
std::uint64_t trace_path_digest(const std::vector<TraceSpan>& spans);

/// Cheap digest extraction from a serialized "rt" payload (for report
/// clustering without a full parse); 0 when the payload is malformed.
std::uint64_t digest_of_serialized(const std::string& text);

/// 16-hex rendering of a digest — the form signatures, status boards and
/// reports share.
std::string digest_hex(std::uint64_t digest);

struct FinalizeParams {
  std::int64_t injection_us = -1;  // sim time of the fault's first firing;
                                   // -1 = never fired
  std::string injection_machine;   // machine it fired on
  std::string fault_id;
};

/// Closes unfinished spans, stamps the injection onto the innermost
/// containing span of the faulted machine, computes attribution and the
/// propagation-path digest. `spans` must be in id order, as TraceLog
/// records them; the result is in (trace, id) order.
RunTrace finalize_trace(std::vector<TraceSpan> spans, const FinalizeParams& p);

}  // namespace dts::obs::rtrace
