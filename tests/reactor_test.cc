// Unit tests for serve::Reactor — the readiness loop under the media
// server. Everything here runs on loopback pairs, which are AF_UNIX
// socketpairs: the reactor registers them with epoll/poll exactly as
// it registers TCP sockets (MediaServerTest.ServesOpenAndReadOverTcp
// in serve_test.cc serves real TCP end to end). These tests pin the
// loop's contract: handlers run on the loop thread only, timers fire
// in deadline order, close reports readable, and Stop is idempotent.
#include "serve/reactor.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/bytes.h"
#include "serve/transport.h"

namespace tbm::serve {
namespace {

// Spins until `done` returns true or five seconds elapse.
bool WaitUntil(const std::function<bool()>& done) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Records readiness callbacks; the drain lambda decides what a
// readable event does (typically: drain the transport so the
// level-triggered loop quiesces).
class RecordingHandler : public Reactor::Handler {
 public:
  std::function<void()> on_readable;
  std::function<void()> on_writable;
  std::atomic<int> readable_calls{0};
  std::atomic<int> writable_calls{0};

  void OnReadable() override {
    readable_calls.fetch_add(1);
    if (on_readable) on_readable();
  }
  void OnWritable() override {
    writable_calls.fetch_add(1);
    if (on_writable) on_writable();
  }
};

TEST(ReactorTest, PostRunsOnLoopThread) {
  Reactor reactor;
  std::atomic<bool> ran{false};
  std::atomic<bool> in_loop{false};
  reactor.Post([&] {
    in_loop.store(reactor.InLoop());
    ran.store(true);
  });
  ASSERT_TRUE(WaitUntil([&] { return ran.load(); }));
  EXPECT_TRUE(in_loop.load());
  EXPECT_FALSE(reactor.InLoop());  // The test thread is not the loop.
  reactor.Stop();
}

TEST(ReactorTest, PostFromManyThreadsAllRun) {
  Reactor reactor;
  constexpr int kThreads = 8;
  constexpr int kPostsPerThread = 100;
  std::atomic<int> ran{0};
  std::vector<std::thread> posters;
  posters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&] {
      for (int i = 0; i < kPostsPerThread; ++i) {
        reactor.Post([&] { ran.fetch_add(1); });
      }
    });
  }
  for (std::thread& poster : posters) poster.join();
  ASSERT_TRUE(WaitUntil([&] { return ran.load() == kThreads * kPostsPerThread; }));
  reactor.Stop();
}

TEST(ReactorTest, TimersFireInDeadlineOrderNotSubmissionOrder) {
  Reactor reactor;
  std::mutex mu;
  std::vector<int> order;
  std::atomic<int> fired{0};
  auto note = [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
    fired.fetch_add(1);
  };
  auto start = std::chrono::steady_clock::now();
  reactor.PostDelayed(std::chrono::milliseconds(60), [&] { note(3); });
  reactor.PostDelayed(std::chrono::milliseconds(10), [&] { note(1); });
  reactor.PostDelayed(std::chrono::milliseconds(30), [&] { note(2); });
  ASSERT_TRUE(WaitUntil([&] { return fired.load() == 3; }));
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(60));  // Delay is a floor.
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  reactor.Stop();
}

TEST(ReactorTest, LoopbackWakerDrivesReadableDispatch) {
  auto [client_end, server_end] = CreateLoopbackPair();
  RecordingHandler handler;
  Bytes received;
  std::mutex received_mu;
  Reactor reactor;
  Transport* server_transport = server_end.get();
  handler.on_readable = [&] {
    uint8_t buffer[64];
    for (;;) {
      auto n = server_transport->ReadSome(buffer, sizeof(buffer));
      if (!n.ok() || *n == 0) break;
      std::lock_guard<std::mutex> lock(received_mu);
      received.insert(received.end(), buffer, buffer + *n);
    }
  };
  uint64_t id =
      reactor.Register(server_transport, &handler, kTransportReadable);

  Bytes sent = {1, 2, 3, 4, 5};
  ASSERT_TRUE(BlockingSend(*client_end, sent, std::chrono::seconds(1)).ok());
  ASSERT_TRUE(WaitUntil([&] {
    std::lock_guard<std::mutex> lock(received_mu);
    return received.size() == sent.size();
  }));
  std::lock_guard<std::mutex> lock(received_mu);
  EXPECT_EQ(received, sent);
  reactor.Stop();
  reactor.Deregister(id);
}

TEST(ReactorTest, UpdateInterestEnablesWritableCallbacks) {
  auto [client_end, server_end] = CreateLoopbackPair();
  RecordingHandler handler;
  Reactor reactor;
  std::atomic<uint64_t> registration{0};
  // Once writable fires, drop back to read-only interest so the
  // level-triggered loop does not spin on the always-writable buffer.
  handler.on_writable = [&] {
    reactor.UpdateInterest(registration.load(), kTransportReadable);
  };
  registration.store(
      reactor.Register(server_end.get(), &handler, kTransportReadable));
  EXPECT_EQ(handler.writable_calls.load(), 0);
  reactor.Post([&] {
    reactor.UpdateInterest(registration.load(),
                           kTransportReadable | kTransportWritable);
  });
  ASSERT_TRUE(WaitUntil([&] { return handler.writable_calls.load() > 0; }));
  reactor.Stop();
  reactor.Deregister(registration.load());
}

TEST(ReactorTest, PeerCloseReportsReadableSoHandlerSeesEof) {
  auto [client_end, server_end] = CreateLoopbackPair();
  RecordingHandler handler;
  std::atomic<bool> saw_eof{false};
  Transport* server_transport = server_end.get();
  handler.on_readable = [&] {
    uint8_t buffer[8];
    auto n = server_transport->ReadSome(buffer, sizeof(buffer));
    if (!n.ok()) saw_eof.store(true);
  };
  Reactor reactor;
  uint64_t id =
      reactor.Register(server_transport, &handler, kTransportReadable);
  client_end->Close();
  ASSERT_TRUE(WaitUntil([&] { return saw_eof.load(); }));
  reactor.Stop();
  reactor.Deregister(id);
}

TEST(ReactorTest, StopIsIdempotentAndDiscardsPendingTimers) {
  std::atomic<bool> fired{false};
  {
    Reactor reactor;
    reactor.PostDelayed(std::chrono::hours(1), [&] { fired.store(true); });
    reactor.Stop();
    reactor.Stop();  // Second Stop must be a no-op, not a crash.
  }
  EXPECT_FALSE(fired.load());
}

TEST(ReactorTest, BackendNamesTheCompiledPath) {
  const char* backend = Reactor::backend();
  ASSERT_NE(backend, nullptr);
#ifdef __linux__
  EXPECT_EQ(std::string(backend), "epoll");
#else
  EXPECT_EQ(std::string(backend), "poll");
#endif
}

}  // namespace
}  // namespace tbm::serve
