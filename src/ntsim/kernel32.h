// The simulated KERNEL32.dll API surface.
//
// All simulated user code enters the kernel through Kernel32::call() — the
// single choke point where DTS-style fault injection happens. Function
// semantics follow NT 4.0 closely enough that corrupted parameters produce
// the real failure modes: error returns for unresolvable handles, access
// violations (process crash) where NT touches memory in user mode, hangs for
// corrupted waits, and silent data corruption for corrupted sizes.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ntsim/process.h"
#include "ntsim/syscall.h"
#include "ntsim/types.h"
#include "sim/task.h"

namespace dts::nt {

class Machine;
class Kernel32;

namespace k32 {

/// Per-syscall execution context with common helpers, passed to every
/// synchronous implementation function.
struct Sys {
  Ctx c;
  Machine& m;
  Process& p;
  Kernel32& k;

  VirtualMemory& mem() const { return p.mem(); }
  Thread& thread() const { return c.thread(); }

  /// Sets the calling thread's last error and returns `ret` (usually 0).
  Word fail(Win32Error e, Word ret = 0) const {
    c.thread().last_error = to_dword(e);
    return ret;
  }

  /// Resolves a handle word, honouring NT pseudo-handles ((HANDLE)-1 is the
  /// current process, (HANDLE)-2 the current thread). Null on failure.
  std::shared_ptr<KernelObject> resolve(Word handle) const;
};

/// Kernel-side shadow of a CRITICAL_SECTION living in user memory.
struct CritSec {
  Tid owner = 0;
  int recursion = 0;
  std::vector<sim::WakePtr> waiters;
};

}  // namespace k32

class Kernel32 {
 public:
  explicit Kernel32(Machine& machine);

  /// Installs (or clears) the interception hook. Not owned.
  void set_hook(SyscallHook* hook) { hook_ = hook; }
  SyscallHook* hook() const { return hook_; }

  /// Inline argument words of one call: no allocation per syscall.
  struct Args {
    std::array<Word, kMaxSyscallArgs> w{};
    int n = 0;
  };

  /// Invokes a KERNEL32 function on behalf of the calling thread. The
  /// argument count must match the registry's parameter count for `fn`.
  /// Returns the raw 32-bit result (BOOL, DWORD or handle value).
  ///
  /// May throw AccessViolation (simulated crash — escapes to the thread body
  /// and terminates the process) for functions whose NT implementation
  /// touches user memory without probing.
  sim::CoTask<Word> call(Ctx c, Fn fn, Args args);

  /// Convenience overload: plain argument words.
  template <typename... A>
  sim::CoTask<Word> call(Ctx c, Fn fn, A... args) {
    static_assert(sizeof...(A) <= kMaxSyscallArgs, "too many KERNEL32 arguments");
    return call(c, fn, Args{{static_cast<Word>(args)...}, static_cast<int>(sizeof...(A))});
  }

  /// Run-time argument list (syscall fuzzing). Throws std::logic_error for
  /// more than kMaxSyscallArgs words.
  sim::CoTask<Word> call(Ctx c, Fn fn, const std::vector<Word>& args);

  /// Machine-wide named-object namespace (events, mutexes, semaphores and
  /// file mappings share it, as on NT).
  std::shared_ptr<KernelObject> find_named(const std::string& name) const;
  void publish_named(const std::string& name, const std::shared_ptr<KernelObject>& obj);

  /// Critical-section shadow table, keyed by (pid, user address).
  std::map<std::pair<Pid, Word>, k32::CritSec>& critsecs() { return critsecs_; }

  /// Named-pipe namespace ("\\.\pipe\..."): registers a listening server
  /// instance / finds one for a client to connect to.
  void register_pipe_instance(const std::string& folded_name,
                              const std::shared_ptr<NamedPipeEndObject>& server_end);
  std::shared_ptr<NamedPipeEndObject> find_listening_pipe(const std::string& folded_name);
  bool pipe_name_exists(const std::string& folded_name);

  /// Base CPU cost charged per syscall (scaled by the machine's cpu_scale).
  static constexpr sim::Duration kBaseCost = sim::Duration::micros(40);

 private:
  /// Runs a synchronous (non-kBlocking) function.
  Word dispatch_sync(Ctx c, const CallRecord& r);
  /// Runs a kBlocking function.
  sim::CoTask<Word> dispatch(Ctx c, const CallRecord& r);

  // Blocking implementations (everything else is synchronous and lives in
  // the per-area .cpp files as free functions).
  sim::CoTask<Word> do_wait_single(Ctx c, Word handle, Word ms);
  sim::CoTask<Word> do_wait_multiple(Ctx c, Word count, Word handles_ptr, Word wait_all,
                                     Word ms);
  sim::CoTask<Word> do_sleep(Ctx c, Word ms);
  sim::CoTask<Word> do_read_file(Ctx c, const CallRecord& r, bool ex);
  sim::CoTask<Word> do_write_file(Ctx c, const CallRecord& r, bool ex);
  sim::CoTask<Word> do_enter_critical_section(Ctx c, Word addr);
  sim::CoTask<Word> do_connect_named_pipe(Ctx c, Word handle);
  sim::CoTask<Word> do_wait_named_pipe(Ctx c, Word name_ptr, Word timeout_ms);
  sim::CoTask<Word> do_call_named_pipe(Ctx c, const CallRecord& r);

  Machine* machine_;
  SyscallHook* hook_ = nullptr;
  std::map<std::string, std::weak_ptr<KernelObject>> named_;
  std::map<std::pair<Pid, Word>, k32::CritSec> critsecs_;
  std::map<std::string, std::vector<std::weak_ptr<NamedPipeEndObject>>> pipes_;
};

// Synchronous implementation entry points, grouped by area. Each returns the
// raw result word and may throw AccessViolation. Declared here so the
// dispatcher (kernel32.cpp) and the area files can share them.
namespace k32 {
Word sync_proc(Sys& s, const CallRecord& r);   // kernel32_proc.cpp
Word sync_sync(Sys& s, const CallRecord& r);   // kernel32_sync.cpp
Word sync_file(Sys& s, const CallRecord& r);   // kernel32_file.cpp
Word sync_mem(Sys& s, const CallRecord& r);    // kernel32_mem.cpp
Word sync_misc(Sys& s, const CallRecord& r);   // kernel32_misc.cpp

/// Routing table: which area implements a function, or kBlocking for the
/// coroutine-implemented ones handled directly by the dispatcher.
enum class Area { kProc, kSync, kFile, kMem, kMisc, kBlocking };
Area area_of(Fn fn);
}  // namespace k32

}  // namespace dts::nt
