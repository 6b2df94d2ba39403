#include "obs/rtrace/rtrace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

namespace dts::obs::rtrace {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fold(std::uint64_t digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest = (digest ^ (value & 0xffu)) * kFnvPrime;
    value >>= 8;
  }
  return digest;
}

std::uint64_t fold(std::uint64_t digest, const std::string& s) {
  for (unsigned char c : s) digest = (digest ^ c) * kFnvPrime;
  // Fold the terminator too, so ("ab","c") and ("a","bc") differ.
  return (digest ^ 0xffu) * kFnvPrime;
}

/// Self time of every span: duration minus its direct children's durations
/// (clamped at zero). Because hops within one request are sequential, self
/// times of a request's spans sum to the root duration — the conservation
/// property the reconciliation tests lean on.
std::map<int, std::int64_t> self_times(const std::vector<TraceSpan>& spans) {
  std::map<int, std::int64_t> self;
  for (const TraceSpan& s : spans) self[s.id] = s.duration_us();
  for (const TraceSpan& s : spans) {
    if (s.parent == 0) continue;
    auto it = self.find(s.parent);
    if (it != self.end()) it->second -= s.duration_us();
  }
  for (auto& [id, us] : self) us = std::max<std::int64_t>(us, 0);
  return self;
}

TierAttribution& tier_slot(std::vector<TierAttribution>& tiers,
                           const std::string& name) {
  for (TierAttribution& t : tiers) {
    if (t.tier == name) return t;
  }
  tiers.push_back(TierAttribution{name, 0, 0, 0});
  return tiers.back();
}

/// Shared by finalize and parse: reduces a span set to per-request and
/// per-run attribution. Rules (self time, so nothing is counted twice):
///   service — "app.check" spans that succeeded (real application work)
///   retry   — any span that did NOT succeed (time burned on a path the
///             balancer failed over from, or that timed out)
///   queue   — successful non-check spans (connection setup, relay/balancer
///             overhead, downstream wait not covered by children)
void compute_attribution(const std::vector<TraceSpan>& spans,
                         std::vector<RequestTrace>* requests,
                         std::vector<TierAttribution>* totals) {
  const std::map<int, std::int64_t> self = self_times(spans);
  requests->clear();
  totals->clear();
  std::map<int, std::size_t> by_trace;  // trace id -> index in requests
  for (const TraceSpan& s : spans) {
    auto it = by_trace.find(s.trace);
    if (it == by_trace.end()) {
      it = by_trace.emplace(s.trace, requests->size()).first;
      requests->push_back(RequestTrace{s.trace, false, false, 0, {}});
    }
    RequestTrace& req = (*requests)[it->second];
    if (s.parent == 0) {
      req.ok = s.outcome == "ok";
      req.elapsed_us = s.duration_us();
    }
    req.injected = req.injected || s.injected;
    const std::int64_t self_us = self.at(s.id);
    TierAttribution& per_req = tier_slot(req.tiers, s.tier);
    TierAttribution& per_run = tier_slot(*totals, s.tier);
    if (s.outcome != "ok") {
      per_req.retry_us += self_us;
      per_run.retry_us += self_us;
    } else if (s.name == "app.check") {
      per_req.service_us += self_us;
      per_run.service_us += self_us;
    } else {
      per_req.queue_us += self_us;
      per_run.queue_us += self_us;
    }
  }
}

/// Stable counting pass by trace: spans arrive in id order, so grouping them
/// by trace while keeping arrival order yields (trace, id) order with one
/// move per span. Traces are the load generator's dense request sequence,
/// so the bucket array is about as long as the request count.
std::vector<TraceSpan> group_by_trace(std::vector<TraceSpan> spans) {
  if (spans.empty()) return spans;
  const auto [lo, hi] = std::minmax_element(
      spans.begin(), spans.end(),
      [](const TraceSpan& a, const TraceSpan& b) { return a.trace < b.trace; });
  const int base = lo->trace;
  std::vector<std::size_t> start(static_cast<std::size_t>(hi->trace - base) + 2, 0);
  for (const TraceSpan& s : spans) ++start[static_cast<std::size_t>(s.trace - base) + 1];
  for (std::size_t i = 1; i < start.size(); ++i) start[i] += start[i - 1];
  std::vector<TraceSpan> out(spans.size());
  for (TraceSpan& s : spans) {
    out[start[static_cast<std::size_t>(s.trace - base)]++] = std::move(s);
  }
  return out;
}

}  // namespace

bool rtrace_mode_from_string(const std::string& s, RtraceMode* out) {
  if (s == "off") {
    *out = RtraceMode::kOff;
  } else if (s == "failures") {
    *out = RtraceMode::kFailures;
  } else if (s == "all") {
    *out = RtraceMode::kAll;
  } else {
    return false;
  }
  return true;
}

std::string_view to_string(RtraceMode m) {
  switch (m) {
    case RtraceMode::kOff:
      return "off";
    case RtraceMode::kFailures:
      return "failures";
    case RtraceMode::kAll:
      return "all";
  }
  return "off";
}

std::string wire_token(int trace, int span) {
  return "rt=" + std::to_string(trace) + ":" + std::to_string(span);
}

std::optional<WireContext> parse_wire(const std::string& line) {
  const std::size_t pos = line.find(" rt=");
  if (pos == std::string::npos) return std::nullopt;
  const char* p = line.c_str() + pos + 4;
  char* end = nullptr;
  const long trace = std::strtol(p, &end, 10);
  if (end == p || *end != ':') return std::nullopt;
  p = end + 1;
  const long span = std::strtol(p, &end, 10);
  if (end == p || trace <= 0 || span < 0) return std::nullopt;
  return WireContext{static_cast<int>(trace), static_cast<int>(span)};
}

std::string rewrite_wire(const std::string& id, int trace, int span) {
  return "REQ " + id + " " + wire_token(trace, span) + "\n";
}

int TraceLog::begin_span(int trace, int parent, std::string name,
                         std::string tier, std::string replica,
                         std::int64_t begin_us) {
  if (!enabled_) return 0;
  TraceSpan s;
  s.trace = trace;
  s.id = ++next_id_;
  s.parent = parent;
  s.name = std::move(name);
  s.tier = std::move(tier);
  s.replica = std::move(replica);
  s.begin_us = begin_us;
  spans_.push_back(std::move(s));
  return next_id_;
}

void TraceLog::end_span(int id, std::int64_t end_us, std::string outcome) {
  // Ids are dense from 1 in begin order, so span `id` sits at index id - 1.
  if (!enabled_ || id <= 0 || static_cast<std::size_t>(id) > spans_.size()) return;
  TraceSpan& s = spans_[static_cast<std::size_t>(id) - 1];
  s.end_us = end_us;
  s.outcome = std::move(outcome);
}

std::vector<TraceSpan> TraceLog::take_spans() {
  std::vector<TraceSpan> out = std::move(spans_);
  spans_.clear();
  next_id_ = 0;
  return out;
}

void TraceLog::clear() {
  spans_.clear();
  next_id_ = 0;
}

std::uint64_t trace_path_digest(const std::vector<TraceSpan>& spans) {
  std::uint64_t d = kFnvOffset;
  for (const TraceSpan& s : spans) {
    d = fold(d, static_cast<std::uint64_t>(s.trace));
    d = fold(d, static_cast<std::uint64_t>(s.parent));
    d = fold(d, s.name);
    d = fold(d, s.tier);
    d = fold(d, s.outcome);
    d = fold(d, static_cast<std::uint64_t>(s.injected ? 1 : 0));
  }
  return d;
}

RunTrace finalize_trace(std::vector<TraceSpan> spans, const FinalizeParams& p) {
  spans = group_by_trace(std::move(spans));
  // A span still open when the run cap hit keeps its "unfinished" outcome;
  // clamp its end so durations never go negative.
  for (TraceSpan& s : spans) {
    if (s.end_us < s.begin_us) s.end_us = s.begin_us;
  }

  RunTrace rt;
  rt.fault_id = p.fault_id;
  // Stamp the injection onto the innermost span of the faulted machine that
  // contains the firing instant — with overlapping requests on one replica
  // the latest-started containing span is the one whose call chain was live.
  if (p.injection_us >= 0 && !p.injection_machine.empty()) {
    const TraceSpan* best = nullptr;
    for (const TraceSpan& s : spans) {
      if (s.replica != p.injection_machine) continue;
      if (s.begin_us > p.injection_us || s.end_us < p.injection_us) continue;
      if (best == nullptr || s.begin_us > best->begin_us ||
          (s.begin_us == best->begin_us && s.id > best->id)) {
        best = &s;
      }
    }
    if (best != nullptr) {
      rt.injected_span = best->id;
      const int id = best->id;
      for (TraceSpan& s : spans) s.injected = s.id == id;
    }
  }

  rt.digest = trace_path_digest(spans);
  compute_attribution(spans, &rt.requests, &rt.totals);
  rt.spans = std::move(spans);
  return rt;
}

std::string RunTrace::serialize() const {
  char head[64];
  std::snprintf(head, sizeof head, "v1 %016llx inj=%d",
                static_cast<unsigned long long>(digest), injected_span);
  std::ostringstream out;
  out << head << " fault=" << (fault_id.empty() ? "-" : fault_id);
  for (const TraceSpan& s : spans) {
    out << "|" << s.trace << ":" << s.id << ":" << s.parent << ":" << s.name
        << ":" << s.tier << ":" << s.replica << ":" << s.begin_us << ":"
        << s.end_us << ":" << s.outcome << ":" << (s.injected ? 1 : 0);
  }
  return out.str();
}

std::optional<RunTrace> RunTrace::parse(const std::string& text) {
  if (text.rfind("v1 ", 0) != 0) return std::nullopt;
  RunTrace rt;
  std::istringstream head(text.substr(3, text.find('|') - 3));
  std::string digest_hex, inj, fault;
  if (!(head >> digest_hex >> inj >> fault)) return std::nullopt;
  if (inj.rfind("inj=", 0) != 0 || fault.rfind("fault=", 0) != 0) {
    return std::nullopt;
  }
  rt.digest = std::strtoull(digest_hex.c_str(), nullptr, 16);
  rt.injected_span = std::atoi(inj.c_str() + 4);
  rt.fault_id = fault.substr(6) == "-" ? std::string() : fault.substr(6);

  std::size_t pos = text.find('|');
  while (pos != std::string::npos) {
    const std::size_t next = text.find('|', pos + 1);
    const std::string field =
        text.substr(pos + 1, next == std::string::npos ? std::string::npos
                                                       : next - pos - 1);
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (std::size_t colon = field.find(':'); colon != std::string::npos;
         colon = field.find(':', start)) {
      parts.push_back(field.substr(start, colon - start));
      start = colon + 1;
    }
    parts.push_back(field.substr(start));
    if (parts.size() != 10) return std::nullopt;
    TraceSpan s;
    s.trace = std::atoi(parts[0].c_str());
    s.id = std::atoi(parts[1].c_str());
    s.parent = std::atoi(parts[2].c_str());
    s.name = parts[3];
    s.tier = parts[4];
    s.replica = parts[5];
    s.begin_us = std::atoll(parts[6].c_str());
    s.end_us = std::atoll(parts[7].c_str());
    s.outcome = parts[8];
    s.injected = parts[9] == "1";
    rt.spans.push_back(std::move(s));
    pos = next;
  }
  compute_attribution(rt.spans, &rt.requests, &rt.totals);
  return rt;
}

std::uint64_t digest_of_serialized(const std::string& text) {
  if (text.rfind("v1 ", 0) != 0 || text.size() < 19) return 0;
  return std::strtoull(text.c_str() + 3, nullptr, 16);
}

std::string digest_hex(std::uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace dts::obs::rtrace
