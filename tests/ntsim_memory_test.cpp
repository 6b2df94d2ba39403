// Tests for the simulated virtual memory and filesystem.
#include <gtest/gtest.h>

#include "ntsim/filesystem.h"
#include "ntsim/memory.h"

namespace dts::nt {
namespace {

TEST(VirtualMemory, AllocWriteRead) {
  VirtualMemory vm;
  Ptr p = vm.alloc(100);
  EXPECT_GE(p.addr, VirtualMemory::kBaseAddress);
  vm.write_bytes(p, "hello");
  EXPECT_EQ(vm.read_bytes(p, 5), "hello");
  EXPECT_EQ(vm.live_blocks(), 1u);
  EXPECT_EQ(vm.bytes_in_use(), 100u);
}

TEST(VirtualMemory, ZeroInitialized) {
  VirtualMemory vm;
  Ptr p = vm.alloc(16);
  for (Word i = 0; i < 16; ++i) EXPECT_EQ(vm.read_bytes(p.offset(i), 1)[0], '\0');
}

TEST(VirtualMemory, FreeInvalidatesAccess) {
  VirtualMemory vm;
  Ptr p = vm.alloc(64);
  EXPECT_TRUE(vm.free(p));
  EXPECT_FALSE(vm.free(p));  // double free reports failure
  EXPECT_THROW(vm.read_u32(p), AccessViolation);
}

TEST(VirtualMemory, NullPointerFaults) {
  VirtualMemory vm;
  EXPECT_THROW(vm.read_u32(Ptr{0}), AccessViolation);
  EXPECT_THROW(vm.write_u32(Ptr{0}, 1), AccessViolation);
}

TEST(VirtualMemory, AllOnesPointerFaults) {
  VirtualMemory vm;
  EXPECT_THROW(vm.read_u32(Ptr{0xFFFFFFFF}), AccessViolation);
}

TEST(VirtualMemory, FlippedPointerFaults) {
  // Bit-flipping a valid user-space pointer lands in kernel space.
  VirtualMemory vm;
  Ptr p = vm.alloc(64);
  const Ptr flipped{~p.addr};
  EXPECT_GE(flipped.addr, VirtualMemory::kUserSpaceLimit);
  EXPECT_THROW(vm.read_u32(flipped), AccessViolation);
}

TEST(VirtualMemory, OutOfBlockAccessFaults) {
  VirtualMemory vm;
  Ptr p = vm.alloc(8);
  EXPECT_NO_THROW(vm.read_bytes(p, 8));
  EXPECT_THROW(vm.read_bytes(p, 9), AccessViolation);
  EXPECT_THROW(vm.read_u32(p.offset(6)), AccessViolation);
}

TEST(VirtualMemory, GuardGapsBetweenBlocks) {
  VirtualMemory vm;
  Ptr a = vm.alloc(16);
  Ptr b = vm.alloc(16);
  EXPECT_GT(b.addr, a.addr + 16);
  EXPECT_THROW(vm.read_u32(Ptr{a.addr + 16 + 4}), AccessViolation);
}

TEST(VirtualMemory, InteriorPointersValid) {
  VirtualMemory vm;
  Ptr p = vm.alloc(100);
  EXPECT_TRUE(vm.valid(p.offset(50), 50));
  EXPECT_FALSE(vm.valid(p.offset(50), 51));
}

TEST(VirtualMemory, CStrRoundTrip) {
  VirtualMemory vm;
  Ptr p = vm.alloc_cstr("GET /index.html HTTP/1.0");
  EXPECT_EQ(vm.read_cstr(p), "GET /index.html HTTP/1.0");
}

TEST(VirtualMemory, CStrRunsOffBlockFaults) {
  VirtualMemory vm;
  Ptr p = vm.alloc(4);
  vm.write_bytes(p, "abcd");  // no NUL inside the block
  EXPECT_THROW(vm.read_cstr(p), AccessViolation);
}

TEST(VirtualMemory, HugeAllocThrowsBadAlloc) {
  VirtualMemory vm;
  EXPECT_THROW(vm.alloc(0xFFFFFFFF), std::bad_alloc);
}

TEST(VirtualMemory, U32RoundTrip) {
  VirtualMemory vm;
  Ptr p = vm.alloc(8);
  vm.write_u32(p, 0xDEADBEEF);
  EXPECT_EQ(vm.read_u32(p), 0xDEADBEEFu);
}

TEST(VirtualMemory, CStrFaultAddressIsFirstBytePastBlock) {
  VirtualMemory vm;
  Ptr p = vm.alloc(8);
  vm.write_bytes(p, "abcdefgh");  // no NUL inside the block
  try {
    (void)vm.read_cstr(p.offset(3));
    FAIL() << "read_cstr ran off the block without faulting";
  } catch (const AccessViolation& av) {
    EXPECT_EQ(av.address(), p.addr + 8);
    EXPECT_FALSE(av.is_write());
  }
}

TEST(VirtualMemory, CStrMaxLenTruncates) {
  VirtualMemory vm;
  Ptr p = vm.alloc(8);
  vm.write_bytes(p, "abcdefgh");
  EXPECT_EQ(vm.read_cstr(p, 3), "abc");
  EXPECT_EQ(vm.read_cstr(p, 8), "abcdefgh");  // truncation wins at the block end
  EXPECT_THROW(vm.read_cstr(p, 9), AccessViolation);
  EXPECT_EQ(vm.read_cstr(Ptr{0}, 0), "");    // nothing read, nothing faults
  EXPECT_EQ(vm.read_cstr(Ptr{0xFFFFFFFF}, 0), "");
  EXPECT_THROW(vm.read_cstr(Ptr{0}, 1), AccessViolation);
}

TEST(VirtualMemory, FreeMiddleBlockKeepsNeighbours) {
  VirtualMemory vm;
  Ptr a = vm.alloc(16);
  Ptr b = vm.alloc(32);
  Ptr c = vm.alloc(64);
  vm.write_cstr(a, "left");
  vm.write_cstr(c, "right");
  EXPECT_TRUE(vm.free(b));
  EXPECT_FALSE(vm.valid(b, 1));
  EXPECT_EQ(vm.block_size(b), 0u);
  EXPECT_EQ(vm.read_cstr(a), "left");
  EXPECT_EQ(vm.read_cstr(c.offset(1)), "ight");
  EXPECT_EQ(vm.block_size(a), 16u);
  EXPECT_EQ(vm.block_size(c), 64u);
  EXPECT_EQ(vm.live_blocks(), 2u);
  EXPECT_EQ(vm.bytes_in_use(), 80u);
}

TEST(VirtualMemory, RestoredPayloadsSharedUntilFirstWrite) {
  VirtualMemory vm;
  Ptr a = vm.alloc(16);
  Ptr b = vm.alloc(16);
  vm.write_cstr(a, "golden");
  vm.write_cstr(b, "other");
  const VirtualMemory::Snapshot snap = vm.capture();
  vm.restore(snap);
  ASSERT_EQ(snap.blocks.size(), 2u);
  EXPECT_EQ(snap.blocks[0].bytes.use_count(), 2);  // snapshot + live space
  EXPECT_EQ(vm.cow_copies(), 0u);

  vm.write_cstr(a, "mutant");
  EXPECT_EQ(vm.cow_copies(), 1u);
  EXPECT_EQ(snap.blocks[0].bytes.use_count(), 1);  // the live block cloned
  EXPECT_EQ(snap.blocks[1].bytes.use_count(), 2);  // the untouched one still shares
  vm.write_cstr(a, "again");
  EXPECT_EQ(vm.cow_copies(), 1u);  // already private: no second clone

  vm.restore(snap);
  EXPECT_EQ(vm.read_cstr(a), "golden");
  EXPECT_EQ(vm.read_cstr(b), "other");
}

// ---------------------------------------------------------------- filesystem

TEST(Filesystem, NormalizePaths) {
  EXPECT_EQ(Filesystem::normalize("C:\\a\\b"), "C:\\a\\b");
  EXPECT_EQ(Filesystem::normalize("C:/a//b/"), "C:\\a\\b");
  EXPECT_EQ(Filesystem::normalize("c:\\a\\.\\b\\..\\c"), "c:\\a\\c");
  EXPECT_EQ(Filesystem::normalize(""), std::nullopt);
  EXPECT_EQ(Filesystem::normalize("relative\\path"), std::nullopt);
  EXPECT_EQ(Filesystem::normalize("C:\\a\\..\\.."), std::nullopt);
}

TEST(Filesystem, PutGetRoundTrip) {
  Filesystem fs;
  fs.put_file("C:\\inetpub\\wwwroot\\index.html", "<html>hi</html>");
  EXPECT_EQ(fs.get_file("C:\\INETPUB\\WWWROOT\\INDEX.HTML"), "<html>hi</html>");
  EXPECT_TRUE(fs.is_file("c:/inetpub/wwwroot/index.html"));
  EXPECT_TRUE(fs.is_directory("C:\\inetpub"));
}

TEST(Filesystem, OpenDispositions) {
  Filesystem fs;
  fs.put_file("C:\\x\\f.txt", "data");
  std::string canon;
  bool created = false;

  EXPECT_EQ(fs.open("C:\\x\\f.txt", kGenericRead, kOpenExisting, &canon, &created),
            Win32Error::kSuccess);
  EXPECT_FALSE(created);

  EXPECT_EQ(fs.open("C:\\x\\nope.txt", kGenericRead, kOpenExisting, &canon, &created),
            Win32Error::kFileNotFound);

  EXPECT_EQ(fs.open("C:\\x\\f.txt", kGenericWrite, kCreateNew, &canon, &created),
            Win32Error::kFileExists);

  EXPECT_EQ(fs.open("C:\\x\\new.txt", kGenericWrite, kCreateNew, &canon, &created),
            Win32Error::kSuccess);
  EXPECT_TRUE(created);

  // CREATE_ALWAYS truncates.
  EXPECT_EQ(fs.open("C:\\x\\f.txt", kGenericWrite, kCreateAlways, &canon, &created),
            Win32Error::kSuccess);
  EXPECT_EQ(fs.get_file("C:\\x\\f.txt"), "");
}

TEST(Filesystem, OpenMissingParentFails) {
  Filesystem fs;
  std::string canon;
  EXPECT_EQ(fs.open("C:\\no\\dir\\f.txt", kGenericWrite, kCreateAlways, &canon, nullptr),
            Win32Error::kPathNotFound);
}

TEST(Filesystem, ReadWriteOffsets) {
  Filesystem fs;
  fs.put_file("C:\\f", "0123456789");
  const std::string key = Filesystem::fold(*Filesystem::normalize("C:\\f"));
  std::string out;
  EXPECT_EQ(fs.read(key, 3, 4, &out), Win32Error::kSuccess);
  EXPECT_EQ(out, "3456");
  EXPECT_EQ(fs.read(key, 100, 4, &out), Win32Error::kSuccess);
  EXPECT_EQ(out, "");  // EOF
  EXPECT_EQ(fs.write(key, 8, "XYZ"), Win32Error::kSuccess);
  EXPECT_EQ(fs.get_file("C:\\f"), "01234567XYZ");
}

TEST(Filesystem, ListAndMatch) {
  Filesystem fs;
  fs.put_file("C:\\web\\a.html", "");
  fs.put_file("C:\\web\\b.html", "");
  fs.put_file("C:\\web\\c.gif", "");
  fs.mkdirs("C:\\web\\sub");
  auto all = fs.list("C:\\web");
  EXPECT_EQ(all.size(), 4u);
  auto html = fs.list("C:\\web", "*.html");
  EXPECT_EQ(html.size(), 2u);
  EXPECT_TRUE(Filesystem::match("*.HTML", "index.html"));
  EXPECT_TRUE(Filesystem::match("a?c", "abc"));
  EXPECT_FALSE(Filesystem::match("a?c", "ac"));
  EXPECT_TRUE(Filesystem::match("*", "anything"));
  EXPECT_FALSE(Filesystem::match("*.gif", "x.html"));
}

TEST(Filesystem, MoveCopyDelete) {
  Filesystem fs;
  fs.put_file("C:\\a\\src.txt", "content");
  fs.mkdirs("C:\\b");
  EXPECT_EQ(fs.copy("C:\\a\\src.txt", "C:\\b\\copy.txt", true), Win32Error::kSuccess);
  EXPECT_EQ(fs.copy("C:\\a\\src.txt", "C:\\b\\copy.txt", true), Win32Error::kFileExists);
  EXPECT_EQ(fs.move("C:\\a\\src.txt", "C:\\b\\moved.txt"), Win32Error::kSuccess);
  EXPECT_FALSE(fs.exists("C:\\a\\src.txt"));
  EXPECT_EQ(fs.get_file("C:\\b\\moved.txt"), "content");
  EXPECT_EQ(fs.remove("C:\\b\\moved.txt"), Win32Error::kSuccess);
  EXPECT_EQ(fs.remove("C:\\b\\moved.txt"), Win32Error::kFileNotFound);
}

TEST(Filesystem, RmdirRules) {
  Filesystem fs;
  fs.put_file("C:\\d\\f.txt", "");
  EXPECT_EQ(fs.rmdir("C:\\d"), Win32Error::kDirNotEmpty);
  fs.remove("C:\\d\\f.txt");
  EXPECT_EQ(fs.rmdir("C:\\d"), Win32Error::kSuccess);
  EXPECT_EQ(fs.rmdir("C:\\d"), Win32Error::kPathNotFound);
}

TEST(Filesystem, SharedContentIsNeverWrittenInPlace) {
  // The deleter records what the shared string held when the filesystem let
  // go of it: a write must clone it even though the filesystem holds the
  // only reference.
  std::string at_release;
  Filesystem fs;
  fs.put_file("C:\\www\\index.html",
              std::shared_ptr<const std::string>(new std::string("shared page"),
                                                 [&](const std::string* s) {
                                                   at_release = *s;
                                                   delete s;
                                                 }));
  std::string canon;
  ASSERT_EQ(fs.open("C:\\www\\index.html", kGenericWrite, kOpenExisting, &canon, nullptr),
            Win32Error::kSuccess);
  EXPECT_EQ(fs.write(canon, 0, "SHARED"), Win32Error::kSuccess);
  EXPECT_EQ(at_release, "shared page");
  EXPECT_EQ(fs.get_file("C:\\www\\index.html"), "SHARED page");
  EXPECT_EQ(fs.cow_copies(), 1u);
  EXPECT_EQ(fs.write(canon, 6, "!"), Win32Error::kSuccess);  // private now: in place
  EXPECT_EQ(fs.cow_copies(), 1u);
  EXPECT_EQ(fs.get_file("C:\\www\\index.html"), "SHARED!page");
}

}  // namespace
}  // namespace dts::nt
