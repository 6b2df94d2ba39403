#include "ntsim/filesystem.h"

#include <algorithm>
#include <cctype>

namespace dts::nt {

namespace {

char lower(char c) { return static_cast<char>(std::tolower(static_cast<unsigned char>(c))); }

bool is_sep(char c) { return c == '\\' || c == '/'; }

}  // namespace

Filesystem::Filesystem() {
  dirs_.emplace("c:", "C:");
}

std::optional<std::string> Filesystem::normalize(std::string_view path) {
  if (path.empty() || path.size() < 2) return std::nullopt;
  if (path.find('\0') != std::string_view::npos) return std::nullopt;
  // Require a drive letter — the simulated machine has a single C: volume,
  // but we accept any letter so bad paths fail with PATH_NOT_FOUND later.
  if (!std::isalpha(static_cast<unsigned char>(path[0])) || path[1] != ':') return std::nullopt;

  std::string out;
  out.reserve(path.size());
  out.push_back(path[0]);
  out.push_back(':');
  std::size_t i = 2;
  while (i < path.size()) {
    // skip runs of separators
    while (i < path.size() && is_sep(path[i])) ++i;
    if (i >= path.size()) break;
    std::size_t j = i;
    while (j < path.size() && !is_sep(path[j])) ++j;
    std::string_view comp = path.substr(i, j - i);
    if (comp == ".") {
      // ignore
    } else if (comp == "..") {
      auto pos = out.rfind('\\');
      if (pos == std::string::npos) return std::nullopt;  // above the drive root
      out.resize(pos);  // pos == 2 pops the last component off the root
    } else {
      out.push_back('\\');
      out.append(comp);
    }
    i = j;
  }
  return out;
}

std::string Filesystem::fold(std::string_view normalized) {
  std::string out(normalized);
  std::transform(out.begin(), out.end(), out.begin(), lower);
  return out;
}

std::optional<std::string> Filesystem::parent_of(std::string_view normalized) {
  auto pos = normalized.rfind('\\');
  if (pos == std::string_view::npos) return std::nullopt;  // drive root has no parent
  if (pos == 2) return std::string(normalized.substr(0, 2));  // "c:\x" -> "c:"
  return std::string(normalized.substr(0, pos));
}

Win32Error Filesystem::mkdir(std::string_view path) {
  auto norm = normalize(path);
  if (!norm) return Win32Error::kInvalidName;
  const std::string key = fold(*norm);
  if (dirs_.contains(key) || files_.contains(key)) return Win32Error::kAlreadyExists;
  auto parent = parent_of(*norm);
  if (!parent || !dirs_.contains(fold(*parent))) return Win32Error::kPathNotFound;
  dirs_.emplace(key, *norm);
  return Win32Error::kSuccess;
}

void Filesystem::mkdirs(std::string_view path) {
  auto norm = normalize(path);
  if (!norm) return;
  std::string built;
  std::size_t start = 0;
  while (start < norm->size()) {
    auto pos = norm->find('\\', start);
    if (pos == std::string::npos) pos = norm->size();
    built = norm->substr(0, pos);
    const std::string key = fold(built);
    if (!dirs_.contains(key) && !files_.contains(key)) dirs_.emplace(key, built);
    start = pos + 1;
  }
}

Win32Error Filesystem::rmdir(std::string_view path) {
  auto norm = normalize(path);
  if (!norm) return Win32Error::kInvalidName;
  const std::string key = fold(*norm);
  auto it = dirs_.find(key);
  if (it == dirs_.end()) return Win32Error::kPathNotFound;
  if (!list(path).empty()) return Win32Error::kDirNotEmpty;
  dirs_.erase(it);
  return Win32Error::kSuccess;
}

bool Filesystem::exists(std::string_view path) const {
  auto norm = normalize(path);
  if (!norm) return false;
  const std::string key = fold(*norm);
  return dirs_.contains(key) || files_.contains(key);
}

bool Filesystem::is_directory(std::string_view path) const {
  auto norm = normalize(path);
  return norm && dirs_.contains(fold(*norm));
}

bool Filesystem::is_file(std::string_view path) const {
  auto norm = normalize(path);
  return norm && files_.contains(fold(*norm));
}

Dword Filesystem::attributes(std::string_view path) const {
  if (is_directory(path)) return kFileAttributeDirectory;
  if (is_file(path)) return kFileAttributeNormal;
  return kInvalidFileAttributes;
}

void Filesystem::put_file(std::string_view path, std::string_view contents) {
  put_node(path, std::make_shared<std::string>(contents), /*owned=*/true);
}

void Filesystem::put_file(std::string_view path, std::shared_ptr<const std::string> contents) {
  put_node(path, std::move(contents), /*owned=*/false);
}

void Filesystem::put_node(std::string_view path, std::shared_ptr<const std::string> contents,
                          bool owned) {
  auto norm = normalize(path);
  if (!norm) throw std::invalid_argument("put_file: bad path: " + std::string(path));
  auto parent = parent_of(*norm);
  if (parent) mkdirs(*parent);
  files_[fold(*norm)] = FileNode{*norm, std::move(contents), owned};
}

std::optional<std::string> Filesystem::get_file(std::string_view path) const {
  auto norm = normalize(path);
  if (!norm) return std::nullopt;
  auto it = files_.find(fold(*norm));
  if (it == files_.end()) return std::nullopt;
  return it->second.data();
}

Win32Error Filesystem::open(std::string_view path, Dword access, Dword disposition,
                            std::string* canonical, bool* created) {
  (void)access;
  if (created != nullptr) *created = false;
  auto norm = normalize(path);
  if (!norm) return Win32Error::kInvalidName;
  const std::string key = fold(*norm);
  if (dirs_.contains(key)) return Win32Error::kAccessDenied;  // opening a directory as a file
  const bool exists = files_.contains(key);

  switch (disposition) {
    case kCreateNew:
      if (exists) return Win32Error::kFileExists;
      break;
    case kCreateAlways:
    case kOpenAlways:
      break;
    case kOpenExisting:
      if (!exists) return Win32Error::kFileNotFound;
      break;
    case kTruncateExisting:
      if (!exists) return Win32Error::kFileNotFound;
      break;
    default:
      return Win32Error::kInvalidParameter;
  }

  if (!exists) {
    auto parent = parent_of(*norm);
    if (!parent || !dirs_.contains(fold(*parent))) return Win32Error::kPathNotFound;
    files_.emplace(key, FileNode{*norm, std::make_shared<std::string>()});
    if (created != nullptr) *created = true;
  } else if (disposition == kCreateAlways || disposition == kTruncateExisting) {
    // Fresh empty content: never clone the old bytes just to discard them.
    FileNode& node = files_[key];
    node.content = std::make_shared<std::string>();
    node.owned = true;
  }
  if (canonical != nullptr) *canonical = key;
  return Win32Error::kSuccess;
}

Win32Error Filesystem::read(const std::string& canonical, Word offset, Word size,
                            std::string* out) const {
  auto it = files_.find(canonical);
  if (it == files_.end()) return Win32Error::kFileNotFound;
  const std::string& c = it->second.data();
  if (offset >= c.size()) {
    out->clear();
    return Win32Error::kSuccess;  // EOF: zero bytes read
  }
  const Word avail = static_cast<Word>(c.size()) - offset;
  *out = c.substr(offset, std::min(size, avail));
  return Win32Error::kSuccess;
}

Win32Error Filesystem::write(const std::string& canonical, Word offset, std::string_view data) {
  auto it = files_.find(canonical);
  if (it == files_.end()) return Win32Error::kFileNotFound;
  std::string& c = writable(it->second);
  if (c.size() < offset + data.size()) c.resize(offset + data.size(), '\0');
  c.replace(offset, data.size(), data);
  return Win32Error::kSuccess;
}

Win32Error Filesystem::truncate(const std::string& canonical, Word new_size) {
  auto it = files_.find(canonical);
  if (it == files_.end()) return Win32Error::kFileNotFound;
  writable(it->second).resize(new_size, '\0');
  return Win32Error::kSuccess;
}

std::optional<Word> Filesystem::size(std::string_view path) const {
  auto norm = normalize(path);
  if (!norm) return std::nullopt;
  auto it = files_.find(fold(*norm));
  if (it == files_.end()) return std::nullopt;
  return static_cast<Word>(it->second.data().size());
}

Win32Error Filesystem::remove(std::string_view path) {
  auto norm = normalize(path);
  if (!norm) return Win32Error::kInvalidName;
  return files_.erase(fold(*norm)) > 0 ? Win32Error::kSuccess : Win32Error::kFileNotFound;
}

Win32Error Filesystem::move(std::string_view from, std::string_view to) {
  auto nf = normalize(from);
  auto nt_ = normalize(to);
  if (!nf || !nt_) return Win32Error::kInvalidName;
  auto it = files_.find(fold(*nf));
  if (it == files_.end()) return Win32Error::kFileNotFound;
  if (files_.contains(fold(*nt_))) return Win32Error::kAlreadyExists;
  auto parent = parent_of(*nt_);
  if (!parent || !dirs_.contains(fold(*parent))) return Win32Error::kPathNotFound;
  FileNode node = std::move(it->second);
  files_.erase(it);
  node.display_path = *nt_;
  files_.emplace(fold(*nt_), std::move(node));
  return Win32Error::kSuccess;
}

Win32Error Filesystem::copy(std::string_view from, std::string_view to, bool fail_if_exists) {
  auto nf = normalize(from);
  auto nt_ = normalize(to);
  if (!nf || !nt_) return Win32Error::kInvalidName;
  auto it = files_.find(fold(*nf));
  if (it == files_.end()) return Win32Error::kFileNotFound;
  if (fail_if_exists && files_.contains(fold(*nt_))) return Win32Error::kFileExists;
  auto parent = parent_of(*nt_);
  if (!parent || !dirs_.contains(fold(*parent))) return Win32Error::kPathNotFound;
  files_[fold(*nt_)] = FileNode{*nt_, it->second.content, it->second.owned};
  return Win32Error::kSuccess;
}

std::vector<std::string> Filesystem::list(std::string_view dir, std::string_view pattern) const {
  std::vector<std::string> out;
  auto norm = normalize(dir);
  if (!norm || !dirs_.contains(fold(*norm))) return out;
  const std::string prefix = fold(*norm) + "\\";

  auto collect = [&](const std::string& key, const std::string& display) {
    if (key.size() <= prefix.size() || key.compare(0, prefix.size(), prefix) != 0) return;
    std::string_view rest{key.data() + prefix.size(), key.size() - prefix.size()};
    if (rest.find('\\') != std::string_view::npos) return;  // not a direct child
    std::string_view name{display.data() + prefix.size(), display.size() - prefix.size()};
    if (match(pattern, name)) out.emplace_back(name);
  };

  for (const auto& [key, node] : files_) collect(key, node.display_path);
  for (const auto& [key, display] : dirs_) collect(key, display);
  std::sort(out.begin(), out.end());
  return out;
}

bool Filesystem::match(std::string_view pattern, std::string_view name) {
  // Iterative glob with backtracking over '*'.
  std::size_t p = 0, n = 0, star = std::string_view::npos, star_n = 0;
  while (n < name.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || lower(pattern[p]) == lower(name[n]))) {
      ++p;
      ++n;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_n = n;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      n = ++star_n;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::string& Filesystem::writable(FileNode& node) {
  if (!node.content || node.content.use_count() > 1 || !node.owned) {
    auto copy = node.content ? std::make_shared<std::string>(*node.content)
                             : std::make_shared<std::string>();
    if (node.content) ++cow_copies_;
    node.content = copy;
    node.owned = true;
    return *copy;
  }
  // Sole owner of a string this filesystem allocated non-const: the const in
  // the pointer type only guards the shared-in contents, so writing is sound.
  return const_cast<std::string&>(*node.content);
}

bool operator==(const Filesystem::Snapshot& a, const Filesystem::Snapshot& b) {
  if (a.dirs != b.dirs || a.files.size() != b.files.size()) return false;
  auto ia = a.files.begin();
  auto ib = b.files.begin();
  for (; ia != a.files.end(); ++ia, ++ib) {
    if (ia->first != ib->first ||
        ia->second.display_path != ib->second.display_path) {
      return false;
    }
    if (ia->second.content != ib->second.content &&
        ia->second.data() != ib->second.data()) {
      return false;
    }
  }
  return true;
}

Filesystem::Snapshot Filesystem::capture(CowStats* stats) const {
  if (stats != nullptr) {
    for (const auto& [key, node] : files_) {
      if (node.content.use_count() > 1) {
        ++stats->shared_blocks;
        stats->shared_bytes += node.data().size();
      } else {
        ++stats->copied_blocks;
        stats->copied_bytes += node.data().size();
      }
    }
  }
  return Snapshot{files_, dirs_};
}

void Filesystem::restore(const Snapshot& s) {
  files_ = s.files;
  dirs_ = s.dirs;
}

std::uint64_t Filesystem::total_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& [_, node] : files_) sum += node.data().size();
  return sum;
}

}  // namespace dts::nt
