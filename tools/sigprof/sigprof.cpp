// SIGPROF backtrace sampler, loaded with LD_PRELOAD.
//
//   LD_PRELOAD=build/tools/sigprof/libsigprof.so ./build/tools/ntdts run ...
//   python3 tools/sigprof/symbolize.py sigprof.<pid>.txt
//
// Every millisecond of process CPU time (ITIMER_PROF) the thread that took
// the signal records its call stack with backtrace() into a preallocated
// buffer; the handler does not allocate. At exit the process
// writes sigprof.<pid>.txt in its working directory: one line of hex return
// addresses per sample, leaf first, followed by a copy of /proc/self/maps so
// the symboliser can map addresses back to files. Forked children inherit
// the buffer but not the timer, and do not write a profile.
//
// Unlike gprof, this attributes samples inside coroutines correctly: GCC's
// `.actor`/`.destroy` clones are ordinary functions to the unwinder.
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>

namespace {

constexpr int kMaxFrames = 64;
constexpr std::size_t kMaxSamples = 200'000;  // 200 s of CPU time
constexpr long kIntervalUs = 1000;

struct Sample {
  std::uint32_t depth;
  void* frames[kMaxFrames];
};

Sample* g_samples = nullptr;
std::atomic<std::size_t> g_next{0};
std::atomic<std::size_t> g_dropped{0};
pid_t g_pid = 0;

void* interrupted_pc(void* uctx) {
#if defined(__x86_64__)
  return reinterpret_cast<void*>(static_cast<ucontext_t*>(uctx)->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(static_cast<ucontext_t*>(uctx)->uc_mcontext.pc);
#else
  (void)uctx;
  return nullptr;
#endif
}

void on_sigprof(int, siginfo_t*, void* uctx) {
  const int saved_errno = errno;
  const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i >= kMaxSamples) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  void* raw[kMaxFrames + 4];
  const int n = backtrace(raw, kMaxFrames + 4);
  // Drop the handler and signal-trampoline frames: start at the interrupted
  // instruction when the unwinder found it, else after the two frames the
  // signal delivery adds.
  void* pc = interrupted_pc(uctx);
  int first = -1;
  for (int k = 0; k < n; ++k) {
    if (raw[k] == pc) {
      first = k;
      break;
    }
  }
  Sample& s = g_samples[i];
  std::uint32_t d = 0;
  if (first < 0) {
    if (pc != nullptr) s.frames[d++] = pc;
    first = n < 2 ? n : 2;
  }
  for (int k = first; k < n && d < kMaxFrames; ++k) s.frames[d++] = raw[k];
  s.depth = d;
  errno = saved_errno;
}

void write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w <= 0) return;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

__attribute__((constructor)) void sigprof_start() {
  void* mem = mmap(nullptr, sizeof(Sample) * kMaxSamples, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) return;
  g_samples = static_cast<Sample*>(mem);
  g_pid = getpid();

  // backtrace() loads libgcc's unwinder on first use; do that here, not in
  // the handler.
  void* warm[2];
  (void)backtrace(warm, 2);

  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);

  itimerval tv{};
  tv.it_interval.tv_usec = kIntervalUs;
  tv.it_value.tv_usec = kIntervalUs;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

__attribute__((destructor)) void sigprof_stop() {
  if (g_samples == nullptr || getpid() != g_pid) return;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);

  char path[64];
  std::snprintf(path, sizeof(path), "sigprof.%d.txt", static_cast<int>(g_pid));
  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;

  std::size_t n = g_next.load();
  if (n > kMaxSamples) n = kMaxSamples;
  char line[32 + kMaxFrames * 19];
  int len = std::snprintf(line, sizeof(line), "# sigprof interval_us=%ld samples=%zu dropped=%zu\n",
                          kIntervalUs, n, g_dropped.load());
  write_all(fd, line, static_cast<std::size_t>(len));
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = g_samples[i];
    len = 0;
    for (std::uint32_t k = 0; k < s.depth; ++k) {
      len += std::snprintf(line + len, sizeof(line) - static_cast<std::size_t>(len), "%s%lx",
                           k == 0 ? "" : " ", reinterpret_cast<unsigned long>(s.frames[k]));
    }
    line[len++] = '\n';
    write_all(fd, line, static_cast<std::size_t>(len));
  }

  write_all(fd, "# maps\n", 7);
  const int maps = open("/proc/self/maps", O_RDONLY);
  if (maps >= 0) {
    char buf[4096];
    ssize_t r;
    while ((r = read(maps, buf, sizeof(buf))) > 0) write_all(fd, buf, static_cast<std::size_t>(r));
    close(maps);
  }
  close(fd);
  std::fprintf(stderr, "sigprof: %zu samples -> %s\n", n, path);
}

}  // namespace
