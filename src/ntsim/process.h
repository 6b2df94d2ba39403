// Simulated NT processes and threads.
//
// Every simulated thread is a C++20 coroutine (sim::Task). Blocking syscalls
// suspend it; the Machine's teardown path can kill a whole process — marking
// outstanding waits dead and destroying the coroutine frames, which runs the
// destructors of all locals (RAII handles sockets, etc.).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ntsim/handle_table.h"
#include "ntsim/memory.h"
#include "ntsim/object.h"
#include "ntsim/types.h"
#include "sim/task.h"

namespace dts::nt {

class Machine;
class Process;
class Thread;

/// Execution context threaded through all simulated user code and syscalls:
/// which machine, which process, which thread.
struct Ctx {
  Machine* machine = nullptr;
  Process* process = nullptr;
  Tid tid = 0;

  Machine& m() const { return *machine; }
  Process& proc() const { return *process; }
  Thread& thread() const;
};

/// A simulated thread routine: receives the execution context and the
/// CreateThread lpParameter word.
using ThreadRoutine = std::function<sim::Task(Ctx, Word)>;

class Thread {
 public:
  Thread(Pid pid, Tid tid, sim::Simulation& sim)
      : tid_(tid), object_(std::make_shared<ThreadObject>(sim, pid, tid)) {}

  Tid tid() const { return tid_; }
  const std::shared_ptr<ThreadObject>& object() const { return object_; }

  sim::Task& task() { return task_; }
  void set_task(sim::Task t) { task_ = std::move(t); }

  Dword last_error = 0;
  std::map<Word, Word> tls;  // TLS slot -> value

  /// The token of the blocking wait this thread is currently suspended on,
  /// if any. Process teardown marks it dead so queued wakes become no-ops.
  sim::WakePtr current_wait;

  /// Keeps the callable whose coroutine this thread runs alive: a coroutine
  /// lambda references its closure object, so the closure must outlive the
  /// frame. Declared before task_ so the frame is destroyed first.
  std::function<sim::Task(Ctx)> body_factory;

 private:
  Tid tid_;
  std::shared_ptr<ThreadObject> object_;
  sim::Task task_;
};

class Process {
 public:
  enum class State { kRunning, kExiting, kExited };

  Process(Machine& machine, Pid pid, std::string image, std::string command_line,
          Pid parent_pid);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  Pid pid() const { return pid_; }
  Pid parent_pid() const { return parent_pid_; }
  const std::string& image() const { return image_; }
  const std::string& command_line() const { return command_line_; }
  Machine& machine() const { return *machine_; }

  State state() const { return state_; }
  void set_state(State s) { state_ = s; }

  VirtualMemory& mem() { return mem_; }
  const VirtualMemory& mem() const { return mem_; }
  HandleTable& handles() { return handles_; }
  const HandleTable& handles() const { return handles_; }
  const std::shared_ptr<ProcessObject>& object() const { return object_; }

  // --- environment ----------------------------------------------------------
  std::map<std::string, std::string>& env() { return env_; }

  // --- code addresses --------------------------------------------------------
  /// Registers a thread routine and returns its simulated code address; this
  /// is what app code passes as CreateThread's lpStartAddress. A corrupted
  /// address fails to resolve and the new thread faults immediately — NT's
  /// actual behaviour.
  Word register_routine(ThreadRoutine fn);
  const ThreadRoutine* find_routine(Word address) const;

  // --- threads ---------------------------------------------------------------
  /// Spawns a thread running `make_task(ctx)`. The callable is stored in the
  /// Thread so its closure outlives the coroutine frame (temporary coroutine
  /// lambdas are safe). Returns the new thread.
  Thread& spawn_thread(std::function<sim::Task(Ctx)> make_task);

  Thread* find_thread(Tid tid);
  std::size_t live_threads() const { return threads_.size(); }
  Tid main_tid() const { return main_tid_; }

  /// TLS slot allocation (process-wide; values are per-thread in Thread::tls).
  Word tls_alloc();
  bool tls_free(Word slot);
  bool tls_slot_valid(Word slot) const;

  // Exit bookkeeping (written by Machine teardown).
  Dword exit_code = 0;
  std::string exit_reason;

  /// Miscellaneous per-process user-mode state the KERNEL32 surface needs.
  struct UserState {
    std::string current_dir = "C:\\";
    Dword error_mode = 0;
    Word unhandled_filter = 0;
    Word default_heap = 0;                       // handle word, created lazily
    Word command_line_ptr = 0;                   // GetCommandLineA cache
    Word environment_block = 0;                  // GetEnvironmentStrings cache
    std::map<Dword, Word> std_handles;           // STD_*_HANDLE id -> handle word
    std::map<std::string, Word> modules;         // loaded module name -> base
    Word next_module_base = 0x10000000;
    /// Copy-in/copy-out views created by MapViewOfFile: view address ->
    /// backing mapping bytes.
    std::map<Word, std::shared_ptr<std::vector<std::byte>>> views;
  };
  UserState user;

  // Called by Machine teardown; destroys thread coroutines.
  void kill_all_threads();
  void reap_thread(Tid tid, Dword code);

 private:
  Machine* machine_;
  Pid pid_;
  Pid parent_pid_;
  std::string image_;
  std::string command_line_;
  State state_ = State::kRunning;

  VirtualMemory mem_;
  HandleTable handles_;
  std::shared_ptr<ProcessObject> object_;
  std::map<std::string, std::string> env_;

  std::map<Word, ThreadRoutine> routines_;
  Word next_code_addr_ = 0x01000000;

  std::map<Tid, std::unique_ptr<Thread>> threads_;
  Tid next_tid_;
  Tid main_tid_ = 0;

  std::map<Word, bool> tls_slots_;  // slot -> allocated
  Word next_tls_slot_ = 0;
};

// ---------------------------------------------------------------------------
// Blocking primitives. All blocking in the simulator funnels through these so
// that process teardown can cancel outstanding waits safely.
// ---------------------------------------------------------------------------

/// Creates a wake token registered as the current wait of `c`'s thread.
sim::WakePtr make_wait(const Ctx& c);

/// Awaiter that suspends until `tok` fires or `timeout` elapses (if given),
/// and yields the wake reason. A plain awaiter rather than a coroutine, so a
/// wait costs no frame allocation. The timeout timer is armed in
/// await_ready — at the co_await, even if the token has already fired — so
/// the event sequence is that of a lazily started coroutine: a timer event,
/// then the zero-delay resume event that sim::wake queues.
class AwaitToken {
 public:
  AwaitToken(Ctx c, sim::WakePtr tok, std::optional<sim::Duration> timeout)
      : c_(c), tok_(std::move(tok)), timeout_(timeout) {}

  bool await_ready();
  void await_suspend(std::coroutine_handle<> h) noexcept { tok_->handle = h; }
  /// Clears the thread's current wait if it is still this token.
  sim::WakeReason await_resume();

 private:
  Ctx c_;
  sim::WakePtr tok_;
  std::optional<sim::Duration> timeout_;
};

inline AwaitToken await_token(Ctx c, sim::WakePtr tok, std::optional<sim::Duration> timeout) {
  return AwaitToken{c, std::move(tok), timeout};
}

/// Awaiter that suspends the calling thread for `d` of simulated time
/// (negative durations count as zero): a wait on a fresh token whose only
/// wake is the timer.
class SleepInSim {
 public:
  SleepInSim(Ctx c, sim::Duration d)
      : wait_(c, make_wait(c), d.is_negative() ? sim::Duration{} : d) {}

  bool await_ready() { return wait_.await_ready(); }
  void await_suspend(std::coroutine_handle<> h) noexcept { wait_.await_suspend(h); }
  void await_resume() { (void)wait_.await_resume(); }

 private:
  AwaitToken wait_;
};

inline SleepInSim sleep_in_sim(Ctx c, sim::Duration d) { return SleepInSim{c, d}; }

/// Waits on a kernel waitable object with NT semantics (acquisition side
/// effects, kWaitTimeout, kWaitAbandoned for abandoned mutexes).
sim::CoTask<Dword> wait_on_object(Ctx c, std::shared_ptr<KernelObject> obj,
                                  Dword timeout_ms);

}  // namespace dts::nt
