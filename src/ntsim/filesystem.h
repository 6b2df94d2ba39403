// In-memory NTFS-flavoured filesystem for the simulated machine.
//
// Paths are Windows-style ("C:\inetpub\wwwroot\index.html"), case-insensitive
// but case-preserving, with both '\' and '/' accepted as separators. One
// Filesystem instance per simulated machine.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ntsim/object.h"
#include "ntsim/types.h"

namespace dts::nt {

class Filesystem;

/// An open-file object (what a file handle refers to).
class FileObject final : public KernelObject {
 public:
  FileObject(sim::Simulation& sim, Filesystem& fs, std::string path, Dword access)
      : KernelObject(sim), fs_(&fs), path_(std::move(path)), access_(access) {}

  ObjectType type() const override { return ObjectType::kFile; }

  const std::string& path() const { return path_; }
  Dword access() const { return access_; }
  Word offset() const { return offset_; }
  void set_offset(Word o) { offset_ = o; }
  Filesystem& fs() const { return *fs_; }

 private:
  Filesystem* fs_;
  std::string path_;
  Dword access_;
  Word offset_ = 0;
};

class Filesystem {
 public:
  Filesystem();

  /// Canonicalizes a path: '/'→'\', collapses separators, strips trailing
  /// separators (except drive roots). Returns nullopt for syntactically
  /// invalid paths (empty, embedded NUL, missing drive).
  static std::optional<std::string> normalize(std::string_view path);

  /// Lower-cases a normalized path for use as a lookup key.
  static std::string fold(std::string_view normalized);

  // --- structure -----------------------------------------------------------

  /// Creates a directory. Fails if the parent does not exist or the name is
  /// taken.
  Win32Error mkdir(std::string_view path);

  /// Creates every missing directory along the path (host-side setup helper).
  void mkdirs(std::string_view path);

  /// Removes an empty directory.
  Win32Error rmdir(std::string_view path);

  bool exists(std::string_view path) const;
  bool is_directory(std::string_view path) const;
  bool is_file(std::string_view path) const;

  /// Win32-style attribute word, or kInvalidFileAttributes.
  Dword attributes(std::string_view path) const;

  // --- whole-file convenience (host-side setup + simple app use) -----------

  /// Creates or replaces a file with the given contents. Creates parents.
  void put_file(std::string_view path, std::string_view contents);

  /// Same, sharing `contents` instead of copying it. The file never writes
  /// through the shared string: its first write clones it.
  void put_file(std::string_view path, std::shared_ptr<const std::string> contents);

  /// Reads a whole file; nullopt if missing.
  std::optional<std::string> get_file(std::string_view path) const;

  // --- handle-based I/O (used by the KERNEL32 layer) ------------------------

  /// CreateFile core. On success returns the canonical path of the (possibly
  /// created) file. `created` reports whether a new file came into being.
  Win32Error open(std::string_view path, Dword access, Dword disposition,
                  std::string* canonical, bool* created);

  /// Reads up to `size` bytes at `offset`. Returns bytes actually read
  /// (0 at/after EOF).
  Win32Error read(const std::string& canonical, Word offset, Word size,
                  std::string* out) const;

  /// Writes at `offset`, extending the file as needed.
  Win32Error write(const std::string& canonical, Word offset, std::string_view data);

  Win32Error truncate(const std::string& canonical, Word new_size);

  /// File size in bytes, or nullopt if missing.
  std::optional<Word> size(std::string_view path) const;

  Win32Error remove(std::string_view path);
  Win32Error move(std::string_view from, std::string_view to);
  Win32Error copy(std::string_view from, std::string_view to, bool fail_if_exists);

  /// Names (not paths) of entries directly inside `dir` matching `pattern`
  /// (supports '*' and '?'). Empty vector if the directory doesn't exist.
  std::vector<std::string> list(std::string_view dir, std::string_view pattern = "*") const;

  /// Simple glob match, case-insensitive, '*' and '?' wildcards.
  static bool match(std::string_view pattern, std::string_view name);

  std::uint64_t total_bytes() const;
  std::size_t file_count() const { return files_.size(); }

  // --- snapshots (src/snap/) ------------------------------------------------
  // File contents are copy-on-write, exactly like VirtualMemory blocks: a
  // capture shares every content string with the live tree; the first write
  // to a shared file clones it. CopyFile also structure-shares (a copied
  // file costs nothing until one side is written).

  struct FileNode {
    std::string display_path;  // case-preserving canonical path
    std::shared_ptr<const std::string> content;
    /// Whether this filesystem allocated `content` (and may therefore write
    /// it in place once it holds the only reference); false for contents
    /// shared in through put_file.
    bool owned = true;

    const std::string& data() const {
      static const std::string empty;
      return content ? *content : empty;
    }
  };

  struct Snapshot {
    std::map<std::string, FileNode> files;
    std::map<std::string, std::string> dirs;

    /// Deep equality (content bytes, not pointer identity).
    friend bool operator==(const Snapshot& a, const Snapshot& b);
  };

  Snapshot capture(CowStats* stats = nullptr) const;
  void restore(const Snapshot& s);

  /// Content clones forced by writes to shared files since construction.
  std::uint64_t cow_copies() const { return cow_copies_; }

 private:
  static std::optional<std::string> parent_of(std::string_view normalized);

  /// put_file's body: creates parents, then creates or replaces the node.
  void put_node(std::string_view path, std::shared_ptr<const std::string> contents, bool owned);

  /// The node's content string, cloned first if a snapshot still shares it.
  std::string& writable(FileNode& node);

  std::map<std::string, FileNode> files_;     // keyed by folded path
  std::map<std::string, std::string> dirs_;   // folded path -> display path
  std::uint64_t cow_copies_ = 0;
};

}  // namespace dts::nt
