#include "ntsim/memory.h"

#include <algorithm>
#include <cstring>
#include <new>

#include <sys/mman.h>

namespace dts::nt {

namespace {
constexpr Word kGuardGap = 4096;  // unmapped bytes between blocks

/// The process-wide zero region behind lazily zeroed blocks: mapped once,
/// read-only and never touched, so it costs address space but no resident
/// memory (reads map the kernel's shared zero page). Shared by every
/// thread's address spaces.
std::byte* zero_region() {
  static std::byte* const region = [] {
    void* p = ::mmap(nullptr, VirtualMemory::kZeroRegionBytes, PROT_READ,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc{};
    return static_cast<std::byte*>(p);
  }();
  return region;
}

std::shared_ptr<std::byte[]> zeroed_payload(Word size) {
  if (size < VirtualMemory::kLazyZeroMin || size > VirtualMemory::kZeroRegionBytes) {
    return std::make_shared<std::byte[]>(size);
  }
  // A no-op deleter: the region outlives every view.
  return std::shared_ptr<std::byte[]>(zero_region(), [](std::byte*) {});
}
}  // namespace

bool VirtualMemory::Block::zero_view() const { return bytes.get() == zero_region(); }

Ptr VirtualMemory::alloc(Word size) {
  if (size == 0) size = 1;
  // 64-bit arithmetic: a size corrupted to 0xFFFFFFFF must fail cleanly, not
  // wrap around.
  const std::uint64_t usable = (static_cast<std::uint64_t>(size) + 15) & ~std::uint64_t{15};
  if (next_addr_ >= kUserSpaceLimit ||
      static_cast<std::uint64_t>(kUserSpaceLimit - next_addr_) < usable + kGuardGap) {
    throw std::bad_alloc{};
  }
  const Word base = next_addr_;
  next_addr_ = base + static_cast<Word>(usable) + kGuardGap;
  // Sorted insert; with the bump allocator above this is always an append.
  const auto pos = std::upper_bound(blocks_.begin(), blocks_.end(), base,
                                    [](Word a, const Block& b) { return a < b.base; });
  blocks_.insert(pos, Block{base, size, zeroed_payload(size)});
  bytes_in_use_ += size;
  return Ptr{base};
}

std::byte* VirtualMemory::writable(const Block& b) {
  // `b` lives in blocks_ (find() returns owned elements); the vector is not
  // resized here, so mutating the payload pointer through the const ref is
  // safe — the same const_cast the pre-COW code did on the byte vector.
  Block& block = const_cast<Block&>(b);
  const bool shared = block.bytes.use_count() > 1;
  if (block.zero_view()) {
    // First write to a lazily zeroed block: the zeros it stood for become
    // its own, counted as a clone only if a snapshot shares the block.
    block.bytes = std::make_shared<std::byte[]>(block.size);
    if (shared) ++cow_copies_;
  } else if (shared) {
    auto copy = std::make_shared_for_overwrite<std::byte[]>(block.size);
    std::memcpy(copy.get(), block.bytes.get(), block.size);
    block.bytes = std::move(copy);
    ++cow_copies_;
  }
  return block.bytes.get();
}

std::size_t VirtualMemory::at_base(Word base) const {
  const auto it = std::lower_bound(blocks_.begin(), blocks_.end(), base,
                                   [](const Block& b, Word a) { return b.base < a; });
  return it != blocks_.end() && it->base == base ? static_cast<std::size_t>(it - blocks_.begin())
                                                 : blocks_.size();
}

bool VirtualMemory::free(Ptr p) {
  const std::size_t i = at_base(p.addr);
  if (i == blocks_.size()) return false;
  bytes_in_use_ -= blocks_[i].size;
  blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(i));
  return true;
}

const VirtualMemory::Block* VirtualMemory::find(Word addr, Word size, Word* offset) const {
  if (addr == 0) return nullptr;
  // The last block with base <= addr is the only one that can contain it.
  auto it = std::upper_bound(blocks_.begin(), blocks_.end(), addr,
                             [](Word a, const Block& b) { return a < b.base; });
  if (it == blocks_.begin()) return nullptr;
  const Block& b = *--it;
  const Word off = addr - b.base;
  if (off > b.size || size > b.size - off) return nullptr;
  if (offset != nullptr) *offset = off;
  return &b;
}

bool VirtualMemory::valid(Ptr p, Word size) const {
  return find(p.addr, size, nullptr) != nullptr;
}

Word VirtualMemory::block_size(Ptr p) const {
  const std::size_t i = at_base(p.addr);
  return i == blocks_.size() ? 0 : blocks_[i].size;
}

void VirtualMemory::write(Ptr p, std::span<const std::byte> data) {
  Word off = 0;
  const Block* b = find(p.addr, static_cast<Word>(data.size()), &off);
  if (b == nullptr) throw AccessViolation{p.addr, /*is_write=*/true};
  std::memcpy(writable(*b) + off, data.data(), data.size());
}

void VirtualMemory::read(Ptr p, std::span<std::byte> out) const {
  Word off = 0;
  const Block* b = find(p.addr, static_cast<Word>(out.size()), &off);
  if (b == nullptr) throw AccessViolation{p.addr, /*is_write=*/false};
  std::memcpy(out.data(), b->bytes.get() + off, out.size());
}

std::vector<std::byte> VirtualMemory::read(Ptr p, Word size) const {
  // Validate before allocating: a size corrupted to 0xFFFFFFFF must fault,
  // not allocate 4 GB of host memory first.
  Word off = 0;
  const Block* b = find(p.addr, size, &off);
  if (b == nullptr) throw AccessViolation{p.addr, /*is_write=*/false};
  const std::byte* src = b->bytes.get() + off;
  return std::vector<std::byte>(src, src + size);
}

void VirtualMemory::write_u32(Ptr p, Word v) {
  std::byte raw[4];
  std::memcpy(raw, &v, 4);
  write(p, raw);
}

Word VirtualMemory::read_u32(Ptr p) const {
  std::byte raw[4];
  read(p, raw);
  Word v = 0;
  std::memcpy(&v, raw, 4);
  return v;
}

void VirtualMemory::write_bytes(Ptr p, std::string_view s) {
  write(p, std::as_bytes(std::span{s.data(), s.size()}));
}

std::string VirtualMemory::read_bytes(Ptr p, Word size) const {
  std::string out;
  append_bytes(p, size, out);
  return out;
}

void VirtualMemory::append_bytes(Ptr p, Word size, std::string& out) const {
  Word off = 0;
  const Block* b = find(p.addr, size, &off);
  if (b == nullptr) throw AccessViolation{p.addr, /*is_write=*/false};
  out.append(reinterpret_cast<const char*>(b->bytes.get()) + off, size);
}

void VirtualMemory::write_cstr(Ptr p, std::string_view s) {
  write_bytes(p, s);
  std::byte nul{0};
  write(p.offset(static_cast<Word>(s.size())), std::span{&nul, 1});
}

std::string VirtualMemory::read_cstr(Ptr p, Word max_len) const {
  // Scan within the containing block; running off the end of the block before
  // a NUL is an access violation at the first byte past it, as on real
  // hardware (guard gaps keep that byte unmapped).
  if (max_len == 0) return {};
  Word off = 0;
  const Block* b = find(p.addr, 1, &off);
  if (b == nullptr) throw AccessViolation{p.addr, /*is_write=*/false};
  const char* s = reinterpret_cast<const char*>(b->bytes.get()) + off;
  const Word in_block = b->size - off;
  const Word scan = std::min(in_block, max_len);
  if (const void* nul = std::memchr(s, 0, scan)) {
    return std::string(s, static_cast<const char*>(nul));
  }
  if (scan == max_len) return std::string(s, scan);  // truncated at max_len
  throw AccessViolation{p.addr + in_block, /*is_write=*/false};
}

Ptr VirtualMemory::alloc_cstr(std::string_view s) {
  Ptr p = alloc(static_cast<Word>(s.size()) + 1);
  write_cstr(p, s);
  return p;
}

bool operator==(const VirtualMemory::Snapshot& a, const VirtualMemory::Snapshot& b) {
  if (a.next_addr != b.next_addr || a.bytes_in_use != b.bytes_in_use ||
      a.blocks.size() != b.blocks.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    const VirtualMemory::Block& x = a.blocks[i];
    const VirtualMemory::Block& y = b.blocks[i];
    if (x.base != y.base || x.size != y.size) return false;
    if (x.bytes != y.bytes && std::memcmp(x.bytes.get(), y.bytes.get(), x.size) != 0) {
      return false;
    }
  }
  return true;
}

VirtualMemory::Snapshot VirtualMemory::capture(CowStats* stats) const {
  if (stats != nullptr) {
    for (const Block& b : blocks_) {
      // use_count > 1 before this capture copies the vector means an earlier
      // snapshot still shares the payload — the block stayed clean.
      if (b.bytes.use_count() > 1) {
        ++stats->shared_blocks;
        stats->shared_bytes += b.size;
      } else {
        ++stats->copied_blocks;
        stats->copied_bytes += b.size;
      }
    }
  }
  return Snapshot{blocks_, next_addr_, bytes_in_use_};
}

void VirtualMemory::restore(const Snapshot& s) {
  // Share the snapshot's payloads; the next write to any of them clones.
  blocks_ = s.blocks;
  next_addr_ = s.next_addr;
  bytes_in_use_ = s.bytes_in_use;
}

}  // namespace dts::nt
