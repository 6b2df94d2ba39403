// Journal normalisation shared by the journal-identity tests: every execution
// mode must write the same journal for the same campaign once the fields
// that legitimately differ between modes are removed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <string>
#include <utility>
#include <vector>

namespace dts::testing {

/// A normalised journal: the header line and the records, sorted by index.
struct NormalJournal {
  std::string header;
  std::vector<std::string> records;
};

/// Reads `path` and strips what an execution mode may change: each record's
/// host wall clock ("wall_us") and the lease id inside its execution index
/// ("xi":"digest/lease/index" becomes "digest/*/index"), and the header
/// config's `jobs` line. Records are sorted by "i" (workers finish out of
/// order). An unreadable file yields an empty header.
inline NormalJournal normalise_journal(const std::string& path) {
  static const std::regex wall(R"("wall_us":\d+,)");
  static const std::regex lease(R"(("xi":"[0-9a-f]+/)\d+/)");
  static const std::regex jobs(R"(\\njobs = \d+)");
  NormalJournal out;
  std::ifstream in(path);
  if (!std::getline(in, out.header)) return out;
  out.header = std::regex_replace(out.header, jobs, "");
  std::vector<std::pair<std::uint64_t, std::string>> recs;
  std::string line;
  while (std::getline(in, line)) {
    line = std::regex_replace(line, wall, "");
    line = std::regex_replace(line, lease, "$1*/");
    recs.emplace_back(std::strtoull(line.c_str() + line.find(':') + 1, nullptr, 10),
                      std::move(line));
  }
  std::stable_sort(recs.begin(), recs.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& r : recs) out.records.push_back(std::move(r.second));
  return out;
}

}  // namespace dts::testing
