// Edge cases of the process/thread substrate: ExitThread/ExitProcess
// semantics, nested process trees, teardown during blocking I/O, and service
// coexistence (HTTP+FTP+gopher in one inetinfo.exe).
#include <gtest/gtest.h>

#include "apps/iis.h"
#include "ntsim/kernel.h"
#include "ntsim/kernel32.h"
#include "ntsim/netsim.h"
#include "ntsim/scm.h"

namespace dts::nt {
namespace {

using sim::Duration;

struct EdgeWorld {
  sim::Simulation simu{55};
  net::Network net{simu};
  Machine m{simu, MachineConfig{.name = "target"}};
  void run_for(Duration d) { simu.run_until(simu.now() + d); }
};

TEST(ProcessEdge, ExitThreadEndsOnlyThatThread) {
  EdgeWorld w;
  bool worker_after = false, main_after = false;
  w.m.register_program("t.exe", [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    const Word routine = c.process->register_routine([&](Ctx tc, Word) -> sim::Task {
      (void)co_await tc.m().k32().call(tc, Fn::ExitThread, 0);
      worker_after = true;  // unreachable
    });
    const Word h = co_await k.call(c, Fn::CreateThread, 0, 0, routine, 0, 0, 0);
    EXPECT_EQ(co_await k.call(c, Fn::WaitForSingleObject, h, 5000), kWaitObject0);
    main_after = true;
    co_await sleep_in_sim(c, Duration::millis(100));
  });
  const Pid pid = w.m.start_process("t.exe", "t.exe");
  w.run_for(Duration::seconds(30));
  EXPECT_FALSE(worker_after);
  EXPECT_TRUE(main_after);
  EXPECT_FALSE(w.m.alive(pid));  // main returned afterwards: process done
  EXPECT_EQ(w.m.exit_history().back().exit_code, 0u);
}

TEST(ProcessEdge, ExitProcessStopsAllThreads) {
  EdgeWorld w;
  int worker_ticks = 0;
  w.m.register_program("t.exe", [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    const Word routine = c.process->register_routine([&](Ctx tc, Word) -> sim::Task {
      for (;;) {
        co_await sleep_in_sim(tc, Duration::millis(100));
        ++worker_ticks;
      }
    });
    (void)co_await k.call(c, Fn::CreateThread, 0, 0, routine, 0, 0, 0);
    co_await sleep_in_sim(c, Duration::millis(550));
    (void)co_await k.call(c, Fn::ExitProcess, 9);
    ADD_FAILURE() << "ExitProcess returned";
  });
  const Pid pid = w.m.start_process("t.exe", "t.exe");
  w.run_for(Duration::seconds(30));
  EXPECT_FALSE(w.m.alive(pid));
  EXPECT_EQ(w.m.exit_history().back().exit_code, 9u);
  const int ticks_at_exit = worker_ticks;
  w.run_for(Duration::seconds(5));
  EXPECT_EQ(worker_ticks, ticks_at_exit);  // the worker thread died too
}

TEST(ProcessEdge, GrandchildSurvivesParentDeath) {
  // NT has no process-tree kill: a grandchild keeps running when the middle
  // process dies (the mechanism behind Apache's worker surviving a master
  // crash).
  EdgeWorld w;
  int grandchild_ticks = 0;
  w.m.register_program("grandchild.exe", [&](Ctx c) -> sim::Task {
    for (;;) {
      co_await sleep_in_sim(c, Duration::millis(200));
      ++grandchild_ticks;
    }
  });
  w.m.register_program("child.exe", [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    const Ptr cmd = c.process->mem().alloc_cstr("grandchild.exe");
    const Ptr pi = c.process->mem().alloc(16);
    (void)co_await k.call(c, Fn::CreateProcessA, 0, cmd.addr, 0, 0, 0, 0, 0, 0, 0,
                          pi.addr);
    co_await sleep_in_sim(c, Duration::millis(300));
    throw AccessViolation{0xBAD, false};  // die; grandchild lives on
  });
  w.m.register_program("root.exe", [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    const Ptr cmd = c.process->mem().alloc_cstr("child.exe");
    const Ptr pi = c.process->mem().alloc(16);
    (void)co_await k.call(c, Fn::CreateProcessA, 0, cmd.addr, 0, 0, 0, 0, 0, 0, 0,
                          pi.addr);
    co_await sleep_in_sim(c, Duration::seconds(60));
  });
  w.m.start_process("root.exe", "root.exe");
  w.run_for(Duration::seconds(5));
  EXPECT_EQ(w.m.crashes_of("child.exe"), 1u);
  EXPECT_NE(w.m.find_process_by_image("grandchild.exe"), nullptr);
  EXPECT_GT(grandchild_ticks, 10);
}

TEST(ProcessEdge, KillDuringBlockingReadIsClean) {
  // Teardown while a thread is blocked inside ReadFile on a pipe: the wake
  // token goes dead, the frame is destroyed, nothing dangles.
  EdgeWorld w;
  Pid pid = 0;
  w.m.register_program("t.exe", [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    auto& mem = c.process->mem();
    const Ptr handles = mem.alloc(8);
    (void)co_await k.call(c, Fn::CreatePipe, handles.addr, handles.addr + 4, 0, 0);
    const Word h_read = mem.read_u32(handles);
    const Ptr buf = mem.alloc(16);
    // Blocks forever: nobody writes.
    (void)co_await k.call(c, Fn::ReadFile, h_read, buf.addr, 16, 0, 0);
    ADD_FAILURE() << "read returned";
  });
  pid = w.m.start_process("t.exe", "t.exe");
  w.run_for(Duration::seconds(1));
  EXPECT_TRUE(w.m.alive(pid));
  w.m.request_process_exit(pid, kExitCodeTerminated, "test kill");
  w.run_for(Duration::seconds(1));
  EXPECT_FALSE(w.m.alive(pid));
  // The machine keeps working afterwards.
  bool ran = false;
  w.m.register_program("after.exe", [&](Ctx c) -> sim::Task {
    (void)co_await c.m().k32().call(c, Fn::GetTickCount);
    ran = true;
  });
  w.m.start_process("after.exe", "after.exe");
  w.run_for(Duration::seconds(1));
  EXPECT_TRUE(ran);
}

TEST(ProcessEdge, AllThreeIisProtocolsCoexist) {
  EdgeWorld w;
  Machine control{w.simu, MachineConfig{.name = "control"}};
  apps::IisConfig cfg;
  cfg.enable_ftp = true;
  cfg.enable_gopher = true;
  const std::string index = *apps::install_iis(w.m, w.net, cfg);
  w.m.scm().start_service("W3SVC");

  bool http_ok = false, gopher_ok = false;
  control.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await sleep_in_sim(c, Duration::seconds(10));
    {
      auto sock = co_await w.net.connect(c, "target", 80);
      if (sock != nullptr) {
        sock->send("GET /index.html HTTP/1.0\r\n\r\n");
        auto first = co_await sock->recv(c, 64, Duration::seconds(30));
        http_ok = first.has_value() && first->rfind("HTTP/1.0 200", 0) == 0;
      }
    }
    {
      auto sock = co_await w.net.connect(c, "target", 70);
      if (sock != nullptr) {
        sock->send("about.txt\r\n");
        auto reply = co_await sock->recv(c, 256, Duration::seconds(30));
        gopher_ok = reply.has_value() &&
                    reply->find("Microsoft Gopher Service") != std::string::npos;
      }
    }
  });
  control.start_process("client.exe", "client.exe");
  w.run_for(Duration::seconds(120));
  EXPECT_TRUE(http_ok);
  EXPECT_TRUE(gopher_ok);
  EXPECT_TRUE(w.net.port_open("target", 21));  // FTP is listening too
}

}  // namespace
}  // namespace dts::nt
