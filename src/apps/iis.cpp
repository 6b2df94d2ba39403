#include "apps/iis.h"

#include <deque>
#include <map>
#include <memory>

#include "apps/apache.h"  // apache_index_page (shared static-page generator)
#include "apps/http.h"
#include "apps/winapp.h"
#include "ntsim/scm.h"

namespace dts::apps {

namespace {

/// Shared state between the IIS accept thread and its worker thread. Lives in
/// the program closure (owned by the Thread object, so it outlives frames).
struct IisState {
  std::deque<std::shared_ptr<nt::net::Socket>> queue;
  Word h_queue_sem = 0;
  Word queue_cs_addr = 0;
  std::string doc_root;
  // Lazily-initialized request machinery: much of IIS's KERNEL32 footprint
  // first executes while serving a request, which is why the paper saw such
  // high retry-with-success rates for IIS — a corrupted first invocation
  // spoils one request and the retry runs clean.
  Word h_log = 0;          // request log, opened at first request
  bool cache_ready = false;
  Word h_cache_map = 0;
  Word port = 80;
  /// The static-content cache: unlike Apache (which reads from disk every
  /// time), IIS caches the first body it computes for a path. A body
  /// corrupted during the first fill is served to every later request — a
  /// persistent wrong-response loop that no restart-based middleware
  /// observes, one of the Apache-vs-IIS reliability gaps the paper measured.
  /// Bodies are shared with the requests they serve, never copied per hit.
  std::map<std::string, std::shared_ptr<const std::string>> content_cache;
};

/// Init phase A: process environment and system discovery.
/// Under watchd the service runs wrapped without a console, so the console /
/// locale diagnostics are skipped — the reason watchd configurations
/// activate slightly fewer functions (paper Table 1: IIS 76 -> 70).
sim::CoTask<void> iis_init_system(const Api& api, bool under_watchd) {
  const Ptr si = api.buf(68);
  (void)co_await api(Fn::GetStartupInfoA, si.addr);
  (void)co_await api(Fn::GetVersion);
  const Ptr ver = api.buf(160);
  api.mem().write_u32(ver, 148);
  (void)co_await api(Fn::GetVersionExA, ver.addr);
  const Ptr sysinfo = api.buf(36);
  (void)co_await api(Fn::GetSystemInfo, sysinfo.addr);
  const Ptr namebuf = api.buf(64);
  const Ptr namelen = api.buf(4);
  api.mem().write_u32(namelen, 64);
  (void)co_await api(Fn::GetComputerNameA, namebuf.addr, namelen.addr);
  (void)co_await api(Fn::GetSystemDirectoryA, namebuf.addr, 64);
  (void)co_await api(Fn::GetWindowsDirectoryA, namebuf.addr, 64);
  (void)co_await api(Fn::GetModuleHandleA, api.str("KERNEL32.DLL").addr);
  const Ptr mod = api.buf(260);
  (void)co_await api(Fn::GetModuleFileNameA, 0, mod.addr, 260);
  (void)co_await api(Fn::SetErrorMode, 1);
  (void)co_await api(Fn::SetUnhandledExceptionFilter, 0);
  if (!under_watchd) {
    (void)co_await api(Fn::SetConsoleCtrlHandler, 0, 1);
    (void)co_await api(Fn::GetStdHandle, nt::kStdOutputHandle);
    const Ptr cpinfo = api.buf(20);
    (void)co_await api(Fn::GetCPInfo, 1252, cpinfo.addr);
    (void)co_await api(Fn::GetLocaleInfoA, 1033, 2, namebuf.addr, 64);
  }
  (void)co_await api(Fn::GetACP);
  const Ptr ft = api.buf(8);
  (void)co_await api(Fn::GetSystemTimeAsFileTime, ft.addr);
  (void)co_await api(Fn::QueryPerformanceFrequency, ft.addr);
  (void)co_await api(Fn::GetTickCount);
  if (!under_watchd) {
    const Ptr mem_status = api.buf(32);
    (void)co_await api(Fn::GlobalMemoryStatus, mem_status.addr);
  }
  (void)co_await api(Fn::GetSystemDefaultLangID);
  // (GetSystemTime/GetLocalTime/QueryPerformanceCounter are first called by
  // the request-logging path, under load.)

  // Environment handling.
  const Word env_block = co_await api(Fn::GetEnvironmentStrings);
  (void)co_await api(Fn::FreeEnvironmentStringsA, env_block);
  (void)co_await api(Fn::GetEnvironmentVariableA, api.str("SYSTEMROOT").addr, namebuf.addr,
                     64);
  (void)co_await api(Fn::SetEnvironmentVariableA, api.str("IIS_STARTED").addr,
                     api.str("1").addr);

  // DLL loading.
  const Word wsock = co_await api(Fn::LoadLibraryA, api.str("WSOCK32.DLL").addr);
  (void)co_await api(Fn::GetProcAddress, wsock, api.str("WSAStartup").addr);
  (void)co_await api(Fn::LoadLibraryA, api.str("ADVAPI32.DLL").addr);
  (void)co_await api(Fn::LoadLibraryA, api.str("RPCRT4.DLL").addr);
}

/// Init phase B: memory arenas, settings, content discovery.
sim::CoTask<void> iis_init_config(const Api& api, const IisConfig& cfg, IisState* state) {
  // Heaps and arenas. IIS does not check these results (era style).
  const Word h_heap = co_await api(Fn::HeapCreate, 0, 1 << 20, 0);
  const Word block = co_await api(Fn::HeapAlloc, h_heap, 8, 8192);
  const Word grown = co_await api(Fn::HeapReAlloc, h_heap, 8, block, 16384);
  (void)co_await api(Fn::HeapSize, h_heap, 0, grown);
  (void)co_await api(Fn::HeapFree, h_heap, 0, grown);
  (void)co_await api(Fn::GetProcessHeap);
  const Word varena = co_await api(Fn::VirtualAlloc, 0, 1 << 16, 0x1000, 4);
  (void)co_await api(Fn::VirtualFree, varena, 0, 0x8000);
  const Word gmem = co_await api(Fn::GlobalAlloc, 0, 4096);
  (void)co_await api(Fn::GlobalLock, gmem);
  (void)co_await api(Fn::GlobalUnlock, gmem);
  (void)co_await api(Fn::GlobalFree, gmem);
  const Word lmem = co_await api(Fn::LocalAlloc, 0, 1024);
  (void)co_await api(Fn::LocalFree, lmem);
  const Word tls = co_await api(Fn::TlsAlloc);
  (void)co_await api(Fn::TlsSetValue, tls, 0x1000);
  (void)co_await api(Fn::TlsGetValue, tls);

  // Content directory scan (metabase content itself is opened lazily by the
  // request path — IIS's file machinery mostly first runs under load).
  const Ptr find_data = api.buf(320);
  const Word h_find =
      co_await api(Fn::FindFirstFileA, api.str(state->doc_root + "\\*").addr, find_data.addr);
  if (h_find != nt::kInvalidHandleValue) {
    while (co_await api(Fn::FindNextFileA, h_find, find_data.addr) != 0) {
    }
    (void)co_await api(Fn::FindClose, h_find);
  }

  // Path plumbing.
  const Ptr pathbuf = api.buf(300);
  (void)co_await api(Fn::GetFullPathNameA, api.str(state->doc_root).addr, 300, pathbuf.addr,
                     0);
  (void)co_await api(Fn::GetCurrentDirectoryA, 300, pathbuf.addr);
  (void)co_await api(Fn::SetCurrentDirectoryA, api.str("C:\\WINNT\\system32").addr);
  const Ptr disk = api.buf(16);
  (void)co_await api(Fn::GetDiskFreeSpaceA, api.str("C:\\").addr, disk.addr,
                     disk.addr + 4, disk.addr + 8, disk.addr + 12);
  (void)co_await api(Fn::GetTempPathA, 300, pathbuf.addr);
  (void)co_await api(Fn::SearchPathA, 0, api.str("inetsrv.ini").addr, 0, 300, pathbuf.addr,
                     0);
  (void)co_await api(Fn::GetDriveTypeA, api.str("C:\\").addr);
  const Ptr expanded = api.buf(300);
  (void)co_await api(Fn::ExpandEnvironmentStringsA,
                     api.str("%SYSTEMROOT%\\system32\\inetsrv").addr, expanded.addr,
                     300);

  // Settings: the virtual-root (document root) comes from the settings
  // store. A corrupted read here poisons every later static request — the
  // wrong-response failure loops DTS observed.
  const Ptr val = api.buf(300);
  (void)co_await api(Fn::GetPrivateProfileStringA, api.str("w3svc").addr,
                     api.str("vroot").addr, api.str(state->doc_root).addr, val.addr, 300,
                     api.str("C:\\WINNT\\inetsrv.ini").addr);
  state->doc_root = api.read_str(val);
  // The listen port comes from settings with the built-in default as the
  // fallback (the INI does not carry one). A corrupted default leaves IIS
  // listening on the wrong port — alive, Running, and unreachable: a
  // failure no restart-based middleware can see.
  state->port = co_await api(Fn::GetPrivateProfileIntA, api.str("w3svc").addr,
                             api.str("port").addr, cfg.port,
                             api.str("C:\\WINNT\\inetsrv.ini").addr);
  (void)co_await api(Fn::lstrlenA, val.addr);
}

/// Init phase C: synchronization objects and worker infrastructure.
sim::CoTask<void> iis_init_workers(const Api& api, IisState* state, Word* h_ready_out) {
  // Queue infrastructure. NOTE (faithful bug shape): the semaphore result is
  // NOT checked; if its creation fails the queue never wakes the worker.
  state->h_queue_sem = co_await api(Fn::CreateSemaphoreA, 0, 0, 1024, 0);
  const Ptr cs = api.buf(24);
  (void)co_await api(Fn::InitializeCriticalSection, cs.addr);
  state->queue_cs_addr = cs.addr;

  // The config mutex is created and released but never waited on during a
  // clean start — the first WaitForSingleObject in this process is the
  // worker's queue wait, so a corrupted wait hangs the request engine.
  const Word h_config_mutex =
      co_await api(Fn::CreateMutexA, 0, 0, api.str("IIS_CONFIG_MTX").addr);
  (void)co_await api(Fn::ReleaseMutex, h_config_mutex);

  const Word h_started_event =
      co_await api(Fn::CreateEventA, 0, 1, 0, api.str("IIS_STARTED_EVT").addr);
  (void)co_await api(Fn::ResetEvent, h_started_event);
  (void)co_await api(Fn::PulseEvent, h_started_event);

  // Shared counters (InterlockedXxx touch memory through the pointer).
  const Ptr counters = api.buf(16);
  (void)co_await api(Fn::InterlockedIncrement, counters.addr);
  (void)co_await api(Fn::InterlockedDecrement, counters.addr);
  (void)co_await api(Fn::InterlockedExchange, counters.addr + 4, 42);

  (void)co_await api(Fn::SetPriorityClass, nt::kCurrentProcessPseudoHandle.value, 0x80);

  // Worker-ready handshake event.
  *h_ready_out = co_await api(Fn::CreateEventA, 0, 1, 0, 0);
}

/// Lazy request-log setup: first request opens the log (CreateFileA /
/// SetFilePointer / WriteFile first fire here, under load).
sim::CoTask<void> iis_log_request(const Api& api, const IisConfig& cfg, IisState* state,
                                  const std::string& line) {
  if (state->h_log == 0) {
    state->h_log = co_await api(Fn::CreateFileA, api.str(cfg.log_dir + "\\w3svc.log").addr,
                                nt::kGenericWrite, 1, 0, nt::kOpenAlways, 0, 0);
    co_await log_line(api, state->h_log,
                      "#Software: Microsoft Internet Information Server 3.0");
  }
  // Timestamps for the log entry (request-path first invocations).
  const Ptr st = api.buf(16);
  (void)co_await api(Fn::GetSystemTime, st.addr);
  (void)co_await api(Fn::GetLocalTime, st.addr);
  (void)co_await api(Fn::QueryPerformanceCounter, st.addr);
  co_await log_line(api, state->h_log, line);
  (void)co_await api(Fn::FlushFileBuffers, state->h_log);
}

/// Serves a static file with IIS's request-path machinery: header parsing
/// through the lstr/locale functions, a file-mapping content cache warmed on
/// first use, then CreateFileA + GetFileSize + ReadFile.
sim::CoTask<std::pair<int, std::shared_ptr<const std::string>>> iis_serve_static(
    const Api& api, const IisConfig& cfg, IisState* state, const http::Request& req) {
  // Header / URL processing (user-mode string machinery, request-path
  // first invocations).
  const Ptr urlbuf = api.buf(520);
  const Ptr method = api.str(req.method);
  (void)co_await api(Fn::lstrcmpiA, method.addr, api.str("GET").addr);
  const Ptr raw_url = api.str(req.target);
  (void)co_await api(Fn::lstrcpyA, urlbuf.addr, raw_url.addr);
  (void)co_await api(Fn::lstrcpynA, urlbuf.addr, raw_url.addr, 260);
  const Ptr wide = api.buf(1040);
  (void)co_await api(Fn::MultiByteToWideChar, 1252, 0, urlbuf.addr, 0xFFFFFFFF, wide.addr,
                     520);
  (void)co_await api(Fn::WideCharToMultiByte, 1252, 0, wide.addr, 0xFFFFFFFF, urlbuf.addr,
                     520, 0, 0);
  (void)co_await api(Fn::CompareStringA, 1033, 1, urlbuf.addr, 0xFFFFFFFF, raw_url.addr,
                     0xFFFFFFFF);

  // Cache segment, created at first static request.
  if (!state->cache_ready) {
    state->h_cache_map = co_await api(Fn::CreateFileMappingA, nt::kInvalidHandleValue, 0, 4,
                                      0, 65536, api.str("IIS_CACHE_SEG").addr);
    const Word view = co_await api(Fn::MapViewOfFile, state->h_cache_map, 2, 0, 0, 0);
    if (view != 0) (void)co_await api(Fn::UnmapViewOfFile, view);
    state->cache_ready = true;
  }

  std::string rel = req.path();
  for (char& ch : rel) {
    if (ch == '/') ch = '\\';
  }
  if (rel == "\\") rel = "\\index.html";
  const std::string full = state->doc_root + rel;

  // Cache hit: serve the remembered body, bypassing the file system.
  if (auto hit = state->content_cache.find(full); hit != state->content_cache.end()) {
    co_await api.cpu(cfg.static_request_cost / 4);  // cached responses are cheap
    co_return std::pair{200, hit->second};
  }

  const Word attrs = co_await api(Fn::GetFileAttributesA, api.str(full).addr);
  if (attrs == nt::kInvalidFileAttributes) {
    co_return std::pair{404, std::make_shared<const std::string>(
                                 "<html><body><h1>404 Object Not Found</h1></body></html>")};
  }
  co_await api.cpu(cfg.static_request_cost);

  const Word h = co_await api(Fn::CreateFileA, api.str(full).addr, nt::kGenericRead, 1, 0,
                              nt::kOpenExisting, 0, 0);
  if (h == nt::kInvalidHandleValue) {
    co_return std::pair{500, std::make_shared<const std::string>(
                                 "<html><body><h1>500 Server Error</h1></body></html>")};
  }
  const Ptr size_high = api.buf(4);
  const Word size = co_await api(Fn::GetFileSize, h, size_high.addr);
  (void)co_await api(Fn::SetFilePointer, h, 0, 0, nt::kFileBegin);

  // Read using the reported size: a corrupted GetFileSize result truncates
  // or over-reads the body — the "incorrect reply" class.
  std::string body;
  if (size != nt::kInvalidHandleValue) {
    body.reserve(size);
    const Word chunk_size = 16384;
    const Ptr buffer = api.buf(chunk_size);
    const Ptr n_read = api.buf(4);
    Word remaining = size;
    while (remaining > 0) {
      const Word want = std::min(chunk_size, remaining);
      if (co_await api(Fn::ReadFile, h, buffer.addr, want, n_read.addr, 0) == 0) break;
      const Word n = api.read_u32(n_read);
      if (n == 0) break;
      api.mem().append_bytes(buffer, n, body);
      remaining -= n;
    }
  }
  (void)co_await api(Fn::CloseHandle, h);
  auto shared = std::make_shared<const std::string>(std::move(body));
  state->content_cache.emplace(full, shared);  // whatever we computed is cached
  co_return std::pair{200, std::move(shared)};
}

/// The worker thread: drains the queue and serves requests.
sim::Task iis_worker_thread(Ctx c, IisConfig cfg, std::shared_ptr<IisState> state,
                            Word h_ready) {
  Api api(c);
  (void)co_await api(Fn::SetThreadPriority, nt::kCurrentThreadPseudoHandle.value, 1);
  (void)co_await api(Fn::SetEvent, h_ready);
  for (;;) {
    // Block until the accept thread queues a connection.
    const Word w = co_await api(Fn::WaitForSingleObject, state->h_queue_sem, nt::kInfinite);
    if (w != nt::kWaitObject0 && w != nt::kWaitAbandoned) {
      // Corrupted semaphore handle: the worker spins down; requests pile up
      // unanswered — a hang, exactly the kind DTS classified as failure.
      (void)co_await api(Fn::Sleep, nt::kInfinite);
    }
    (void)co_await api(Fn::EnterCriticalSection, state->queue_cs_addr);
    std::shared_ptr<nt::net::Socket> sock;
    if (!state->queue.empty()) {
      sock = std::move(state->queue.front());
      state->queue.pop_front();
    }
    (void)co_await api(Fn::LeaveCriticalSection, state->queue_cs_addr);
    if (sock == nullptr) continue;

    auto req = co_await http::read_request(c, *sock, sim::Duration::seconds(30));
    if (!req) continue;

    std::shared_ptr<const std::string> body;
    int status = 200;
    if (req->path().rfind("/cgi-bin/", 0) == 0 || req->path().rfind("/scripts/", 0) == 0) {
      auto out = co_await http::run_cgi(api, "cgi.exe", *req, cfg.cgi_timeout);
      if (out) {
        body = std::make_shared<const std::string>(std::move(*out));
      } else {
        status = 500;
        body = std::make_shared<const std::string>(
            "<html><body><h1>500 Server Error</h1></body></html>");
      }
    } else {
      auto [st, b] = co_await iis_serve_static(api, cfg, state.get(), *req);
      status = st;
      body = std::move(b);
    }
    sock->send(http::format_response(status, "text/html", *body, "Microsoft-IIS/3.0"));
    co_await iis_log_request(api, cfg, state.get(),
                             req->method + " " + req->target + " " + std::to_string(status));
  }
}

/// GOPHERSVC: one selector per connection; "" or "/" returns the menu built
/// from a directory listing, anything else returns that file. File access is
/// on the injectable surface.
sim::Task gopher_service(Ctx c, IisConfig cfg, nt::net::Network* network) {
  Api api(c);
  auto listener = network->listen(api.machine().name(), cfg.gopher_port);
  if (listener == nullptr) co_return;
  for (;;) {
    auto sock = co_await listener->accept(c);
    if (sock == nullptr) continue;
    auto selector = co_await sock->recv_until(c, "\r\n", 512, sim::Duration::seconds(20));
    if (!selector) continue;
    selector->resize(selector->size() - 2);
    co_await api.cpu(sim::Duration::millis(600));

    std::string reply;
    if (selector->empty() || *selector == "/") {
      // Menu: one "0<name>\t<selector>\t<host>\t<port>" line per document.
      const Ptr data = api.buf(320);
      const Word h = co_await api(Fn::FindFirstFileA,
                                  api.str(cfg.gopher_root + "\\*").addr, data.addr);
      if (h != nt::kInvalidHandleValue) {
        auto add = [&](const std::string& name) {
          reply += "0" + name + "\t" + name + "\t" + api.machine().name() + "\t" +
                   std::to_string(cfg.gopher_port) + "\r\n";
        };
        add(api.mem().read_cstr(data.offset(44)));
        while (co_await api(Fn::FindNextFileA, h, data.addr) != 0) {
          add(api.mem().read_cstr(data.offset(44)));
        }
        (void)co_await api(Fn::FindClose, h);
      }
      reply += ".\r\n";
    } else {
      auto content = co_await read_file_syscall(api, cfg.gopher_root + "\\" + *selector);
      reply = content ? *content : std::string("3'" + *selector + "' does not exist\r\n.\r\n");
    }
    sock->send(reply);
    co_await nt::sleep_in_sim(c, sim::Duration::millis(200));
  }
}

sim::Task iis_main(Ctx c, IisConfig cfg, nt::net::Network* network) {
  Api api(c);
  auto state = std::make_shared<IisState>();
  state->doc_root = cfg.doc_root;

  const std::string cmdline =
      api.mem().read_cstr(Ptr{co_await api(Fn::GetCommandLineA)});
  const bool under_watchd = cmdline.find("/watchd") != std::string::npos;

  co_await iis_init_system(api, under_watchd);
  co_await api.cpu(cfg.init_cost_per_phase);
  co_await iis_init_config(api, cfg, state.get());
  co_await api.cpu(cfg.init_cost_per_phase);
  Word h_ready = 0;
  co_await iis_init_workers(api, state.get(), &h_ready);
  co_await api.cpu(cfg.init_cost_per_phase);

  // Spawn the worker thread through CreateThread (its start address is an
  // injectable parameter — corruption faults the new thread immediately).
  const Word routine = api.proc().register_routine(
      [cfg, state, h_ready](Ctx tc, Word) {
        return iis_worker_thread(tc, cfg, state, h_ready);
      });
  const Ptr tid_out = api.buf(4);
  const Word h_thread = co_await api(Fn::CreateThread, 0, 65536, routine, 0, 0,
                                     tid_out.addr);
  (void)h_thread;  // unchecked, era style; no handshake wait either

  api.machine().scm().set_service_status(api.proc().pid(), nt::ServiceState::kRunning);

  // MSFTPSVC: the in-process FTP service, when enabled.
  if (cfg.enable_ftp) {
    auto ftp_cfg = cfg.ftp;
    api.proc().spawn_thread(
        [ftp_cfg, network](Ctx tc) { return ftp::ftp_service(tc, ftp_cfg, network); });
  }
  // GOPHERSVC, when enabled.
  if (cfg.enable_gopher) {
    api.proc().spawn_thread(
        [cfg, network](Ctx tc) { return gopher_service(tc, cfg, network); });
  }

  auto listener = network->listen(api.machine().name(),
                                  static_cast<std::uint16_t>(state->port));
  if (listener == nullptr) {
    (void)co_await api(Fn::ExitProcess, 1);
  }

  // Accept loop: enqueue for the worker.
  for (;;) {
    auto sock = co_await listener->accept(c);
    if (sock == nullptr) continue;
    (void)co_await api(Fn::EnterCriticalSection, state->queue_cs_addr);
    state->queue.push_back(std::move(sock));
    (void)co_await api(Fn::LeaveCriticalSection, state->queue_cs_addr);
    (void)co_await api(Fn::ReleaseSemaphore, state->h_queue_sem, 1, 0);
  }
}

}  // namespace

std::string ftp_download_content() {
  return *apache_index_page(48 * 1024);  // 48 kB binary-ish payload
}

std::shared_ptr<const std::string> install_iis(nt::Machine& machine,
                                               nt::net::Network& network,
                                               const IisConfig& cfg) {
  auto index = apache_index_page(cfg.index_size);  // same generator
  machine.fs().put_file(cfg.doc_root + "\\index.html", index);
  if (cfg.enable_ftp) {
    machine.fs().put_file(cfg.ftp.root + "\\download.bin", ftp_download_content());
    machine.fs().put_file(cfg.ftp.root + "\\readme.txt", "Microsoft FTP Service\n");
  }
  if (cfg.enable_gopher) {
    machine.fs().put_file(cfg.gopher_root + "\\about.txt",
                          "Microsoft Gopher Service 3.0\n");
    machine.fs().put_file(cfg.gopher_root + "\\phonebook.txt", "Bell Labs: 908-582-3000\n");
  }
  machine.fs().mkdirs(cfg.log_dir);
  machine.fs().put_file(cfg.metabase_path, std::string(2048, '\x2A'));
  machine.fs().put_file("C:\\WINNT\\inetsrv.ini",
                        "[w3svc]\nvroot=" + cfg.doc_root + "\nlogdir=" + cfg.log_dir + "\n");

  http::register_cgi_program(machine, cfg.cgi_startup_cost);
  nt::net::Network* net = &network;
  machine.register_program(cfg.image, [cfg, net](Ctx c) { return iis_main(c, cfg, net); });

  machine.scm().register_service(nt::ServiceConfig{
      .name = cfg.service_name,
      .image = cfg.image,
      .command_line = cfg.image,
      .start_wait_hint = cfg.start_wait_hint,
  });
  return index;
}

}  // namespace dts::apps
