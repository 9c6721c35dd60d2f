// Upstream (net/upstream.h) and request-id reply matching, on real sockets
// and both reactors:
//   - Upstream on its own against a scripted FakeBackend peer: out-of-order
//     replies settle the right entries, an unknown id resets the connection,
//     a closing connection reports each request lost exactly once, the
//     head-of-line deadline resets a silent peer, reconnect backoff stops at
//     its cap, and a batch of one goes out as a plain kGet;
//   - regressions for replies that overtake each other on one connection:
//     a quorum PUT and a GET for the same key through the front end and
//     through scp_router, and a PUT overtaken by another key's GET reply.
// Labeled slow — each case spins up servers on real sockets.
#include "net/upstream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fake_backend.h"
#include "net/frontend_server.h"
#include "net/router_server.h"
#include "net/sync_client.h"

namespace scp::net {
namespace {

ReactorKind g_reactor = ReactorKind::kEpoll;

class ReactorSuite : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(parse_reactor_kind(GetParam(), g_reactor));
    if (g_reactor == ReactorKind::kUring) {
      std::string reason;
      if (!uring_available(&reason)) {
        GTEST_SKIP() << "SKIPPED: no io_uring (" << reason << ")";
      }
    }
  }
  void TearDown() override { g_reactor = ReactorKind::kEpoll; }
};

static std::string reactor_name(
    const ::testing::TestParamInfo<const char*>& info) {
  return info.param;
}

class UpstreamTest : public ReactorSuite {};
INSTANTIATE_TEST_SUITE_P(Reactors, UpstreamTest,
                         ::testing::Values("epoll", "uring"), reactor_name);

class ReplyMatching : public ReactorSuite {};
INSTANTIATE_TEST_SUITE_P(Reactors, ReplyMatching,
                         ::testing::Values("epoll", "uring"), reactor_name);

bool poll_until(double timeout_s, const std::function<bool()>& predicate) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

/// One reactor driving an Upstream<int> (the int tags each request) at a
/// single FakeBackend peer, recording every callback.
class Harness {
 public:
  struct Reply {
    int tag = 0;
    Message message;
  };
  struct Loss {
    int tag = 0;
    UpstreamLoss loss = UpstreamLoss::kUnsent;
  };

  Harness(std::uint16_t peer_port, UpstreamPeers::Options options)
      : loop_(make_reactor(ReactorOptions{.kind = g_reactor})) {
    upstream_.emplace(
        *loop_, options,
        Upstream<int>::Callbacks{
            .on_reply =
                [this](std::uint32_t, int&& tag, Message&& reply) {
                  std::lock_guard<std::mutex> lock(mutex_);
                  replies_.push_back({tag, std::move(reply)});
                },
            .on_lost =
                [this](std::uint32_t, int&& tag, UpstreamLoss loss) {
                  std::lock_guard<std::mutex> lock(mutex_);
                  losses_.push_back({tag, loss});
                }});
    Reactor::Callbacks callbacks;
    callbacks.on_message = [this](ConnId conn, Message&& message) {
      upstream_->on_message(conn, std::move(message));
    };
    callbacks.on_close = [this](ConnId conn) { upstream_->on_close(conn); };
    callbacks.on_connect = [this](ConnId conn, bool ok) {
      upstream_->on_connect(conn, ok);
    };
    loop_->set_callbacks(std::move(callbacks));
    upstream_->set_peer(0, "127.0.0.1", peer_port);
    upstream_->start();
  }

  ~Harness() {
    upstream_->stop();
    loop_->stop(0.0);
  }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  bool start() {
    return loop_->start() &&
           poll_until(5.0, [this] { return upstream_->up_count() == 1; });
  }

  /// Runs `fn` on the loop thread and waits for it.
  void run(const std::function<void(Upstream<int>&)>& fn) {
    std::promise<void> done;
    loop_->post([&] {
      fn(*upstream_);
      done.set_value();
    });
    done.get_future().wait();
  }

  std::vector<Reply> replies() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return replies_;
  }
  std::vector<Loss> losses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return losses_;
  }
  Upstream<int>& upstream() { return *upstream_; }

 private:
  std::unique_ptr<Reactor> loop_;
  std::optional<Upstream<int>> upstream_;
  mutable std::mutex mutex_;
  std::vector<Reply> replies_;
  std::vector<Loss> losses_;
};

Message get_request(std::uint64_t key) {
  Message request;
  request.type = MsgType::kGet;
  request.key = key;
  return request;
}

Message value_reply(std::uint64_t key, std::string payload) {
  Message reply;
  reply.type = MsgType::kValue;
  reply.key = key;
  reply.payload = std::move(payload);
  return reply;
}

TEST(Upstream, ReconnectBackoffDoublesUpToTheCap) {
  EXPECT_DOUBLE_EQ(reconnect_delay_s(0), kReconnectBaseS);
  EXPECT_DOUBLE_EQ(reconnect_delay_s(1), 2 * kReconnectBaseS);
  double previous = 0.0;
  for (std::uint32_t attempt = 0; attempt < 64; ++attempt) {
    const double delay = reconnect_delay_s(attempt);
    EXPECT_GE(delay, previous) << attempt;
    EXPECT_LE(delay, kReconnectCapS) << attempt;
    previous = delay;
  }
  EXPECT_DOUBLE_EQ(reconnect_delay_s(10), kReconnectCapS);
  EXPECT_DOUBLE_EQ(reconnect_delay_s(UINT32_MAX), kReconnectCapS);
}

// Replies in the reverse of the send order — and two requests for one key
// answered second-first — each settle the entry whose id they carry.
TEST_P(UpstreamTest, OutOfOrderRepliesSettleTheRightEntries) {
  FakeBackend peer;
  ASSERT_TRUE(peer.start());
  Harness harness(peer.port(), {.name = "test", .timeout_s = 8.0});
  ASSERT_TRUE(harness.start());

  harness.run([](Upstream<int>& upstream) {
    for (int tag = 1; tag <= 3; ++tag) {
      Message request = get_request(static_cast<std::uint64_t>(tag));
      ASSERT_TRUE(upstream.send(0, request, int{tag}));
    }
    for (int tag = 10; tag <= 11; ++tag) {
      Message request = get_request(99);
      ASSERT_TRUE(upstream.send(0, request, int{tag}));
    }
  });
  ASSERT_TRUE(poll_until(5.0, [&] { return peer.requests().size() == 5; }));
  const std::vector<FakeBackend::Request> sent = peer.requests();
  for (const FakeBackend::Request& request : sent) EXPECT_NE(request.id, 0u);

  ASSERT_TRUE(peer.reply(value_reply(3, "three")));
  ASSERT_TRUE(peer.reply(value_reply(2, "two")));
  // The second request for key 99 is answered first.
  Message second = value_reply(99, "second");
  second.id = sent[4].id;
  ASSERT_TRUE(peer.push(second));
  ASSERT_TRUE(peer.reply(value_reply(1, "one")));
  Message first = value_reply(99, "first");
  first.id = sent[3].id;
  ASSERT_TRUE(peer.push(first));

  ASSERT_TRUE(poll_until(5.0, [&] { return harness.replies().size() == 5; }));
  const std::vector<Harness::Reply> replies = harness.replies();
  const std::vector<std::pair<int, std::string>> want = {
      {3, "three"}, {2, "two"}, {11, "second"}, {1, "one"}, {10, "first"}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(replies[i].tag, want[i].first) << i;
    EXPECT_EQ(replies[i].message.payload, want[i].second) << i;
  }
  EXPECT_TRUE(harness.losses().empty());
  EXPECT_EQ(peer.accepted(), 1u);
}

// A reply whose id nothing is waiting for means the stream is broken: the
// connection is reset (logged as a reply mismatch) and the request that was
// in flight is reported lost, then the peer is redialed.
TEST_P(UpstreamTest, UnknownIdResetsTheConnection) {
  FakeBackend peer;
  ASSERT_TRUE(peer.start());
  Harness harness(peer.port(), {.name = "test", .timeout_s = 8.0});
  ASSERT_TRUE(harness.start());

  harness.run([](Upstream<int>& upstream) {
    Message request = get_request(5);
    ASSERT_TRUE(upstream.send(0, request, 7));
  });
  ASSERT_TRUE(poll_until(5.0, [&] { return peer.requests().size() == 1; }));
  Message stray = value_reply(5, "stray");
  stray.id = peer.requests()[0].id + 1000;
  ::testing::internal::CaptureStderr();
  ASSERT_TRUE(peer.push(stray));
  ASSERT_TRUE(poll_until(5.0, [&] { return !harness.losses().empty(); }));
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("reply mismatch"), std::string::npos) << log;

  const std::vector<Harness::Loss> losses = harness.losses();
  ASSERT_EQ(losses.size(), 1u);
  EXPECT_EQ(losses[0].tag, 7);
  EXPECT_EQ(losses[0].loss, UpstreamLoss::kClosed);
  EXPECT_TRUE(harness.replies().empty());
  EXPECT_TRUE(poll_until(5.0, [&] { return peer.accepted() == 2; }));
}

// Every request in flight on a connection that closes reaches on_lost
// exactly once, and a reply arriving on the new connection cannot resurrect
// one of them.
TEST_P(UpstreamTest, ClosedConnectionLosesEachRequestExactlyOnce) {
  FakeBackend peer;
  ASSERT_TRUE(peer.start());
  Harness harness(peer.port(), {.name = "test", .timeout_s = 8.0});
  ASSERT_TRUE(harness.start());

  constexpr int kRequests = 6;
  harness.run([](Upstream<int>& upstream) {
    for (int tag = 0; tag < kRequests; ++tag) {
      Message request = get_request(static_cast<std::uint64_t>(tag));
      ASSERT_TRUE(upstream.send(0, request, int{tag}));
    }
  });
  ASSERT_TRUE(poll_until(
      5.0, [&] { return peer.requests().size() == kRequests; }));
  peer.drop_all();
  ASSERT_TRUE(poll_until(
      5.0, [&] { return harness.losses().size() == kRequests; }));
  ASSERT_TRUE(poll_until(5.0, [&] { return harness.upstream().up_count() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const std::vector<Harness::Loss> losses = harness.losses();
  ASSERT_EQ(losses.size(), static_cast<std::size_t>(kRequests));
  std::vector<int> tags;
  for (const Harness::Loss& loss : losses) {
    EXPECT_EQ(loss.loss, UpstreamLoss::kClosed);
    tags.push_back(loss.tag);
  }
  std::sort(tags.begin(), tags.end());
  for (int tag = 0; tag < kRequests; ++tag) EXPECT_EQ(tags[tag], tag);
  EXPECT_TRUE(harness.replies().empty());
}

// A peer that accepts requests but never answers is reset once the oldest
// request passes its deadline; the request is reported lost.
TEST_P(UpstreamTest, HeadOfLineDeadlineResetsASilentPeer) {
  FakeBackend peer;
  ASSERT_TRUE(peer.start());
  Harness harness(peer.port(), {.name = "test", .timeout_s = 0.1});
  ASSERT_TRUE(harness.start());

  const auto sent_at = std::chrono::steady_clock::now();
  harness.run([](Upstream<int>& upstream) {
    Message request = get_request(1);
    ASSERT_TRUE(upstream.send(0, request, 42));
  });
  ASSERT_TRUE(poll_until(5.0, [&] { return !harness.losses().empty(); }));
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - sent_at)
                            .count();
  EXPECT_GE(waited, 0.1);
  const std::vector<Harness::Loss> losses = harness.losses();
  ASSERT_EQ(losses.size(), 1u);
  EXPECT_EQ(losses[0].tag, 42);
  EXPECT_EQ(losses[0].loss, UpstreamLoss::kClosed);
  EXPECT_TRUE(poll_until(5.0, [&] { return peer.accepted() == 2; }));
}

// With batching on, a lone queued GET goes out as a plain kGet; several
// queued in one wakeup go out as one kBatchGet whose reply settles key i
// under id base+i.
TEST_P(UpstreamTest, BatchOfOneIsAPlainGet) {
  FakeBackend peer;
  ASSERT_TRUE(peer.start());
  Harness harness(peer.port(),
                  {.name = "test", .timeout_s = 8.0, .batch_max = 8});
  ASSERT_TRUE(harness.start());

  harness.run([](Upstream<int>& upstream) {
    ASSERT_TRUE(upstream.queue_get(0, 11, 1));
  });
  ASSERT_TRUE(poll_until(5.0, [&] { return peer.get_frames() == 1; }));
  EXPECT_EQ(peer.batch_frames(), 0u);
  EXPECT_EQ(harness.upstream().batch_totals(),
            (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
  ASSERT_TRUE(peer.reply(value_reply(11, "eleven")));
  ASSERT_TRUE(poll_until(5.0, [&] { return harness.replies().size() == 1; }));

  harness.run([](Upstream<int>& upstream) {
    for (int tag = 2; tag <= 4; ++tag) {
      ASSERT_TRUE(upstream.queue_get(0, 20 + static_cast<std::uint64_t>(tag),
                                     int{tag}));
    }
  });
  ASSERT_TRUE(poll_until(5.0, [&] { return peer.get_frames() == 2; }));
  EXPECT_EQ(peer.batch_frames(), 1u);
  const std::vector<FakeBackend::Request> requests = peer.requests();
  ASSERT_EQ(requests.size(), 4u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(requests[i].id, requests[1].id + (i - 1));
  }
  Message batch;
  batch.type = MsgType::kBatchReply;
  batch.batch.push_back({MsgType::kValue, 22, 0, "v22"});
  batch.batch.push_back({MsgType::kMiss, 23, 0, ""});
  batch.batch.push_back({MsgType::kValue, 24, 0, "v24"});
  ASSERT_TRUE(peer.reply(batch));
  ASSERT_TRUE(poll_until(5.0, [&] { return harness.replies().size() == 4; }));
  const std::vector<Harness::Reply> replies = harness.replies();
  EXPECT_EQ(replies[0].tag, 1);
  EXPECT_EQ(replies[0].message.payload, "eleven");
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(replies[i].tag, i + 1);
    EXPECT_EQ(replies[i].message.key, 20u + static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(replies[i].message.id, requests[i].id);
  }
  EXPECT_EQ(replies[2].message.type, MsgType::kMiss);
  EXPECT_EQ(replies[3].message.payload, "v24");
  EXPECT_EQ(harness.upstream().batch_totals(),
            (std::pair<std::uint64_t, std::uint64_t>{1, 3}));
}

/// Front end with no cache in front of one FakeBackend (d = 1, so every
/// forward lands on it) and a deadline long enough that nothing times out
/// while the test holds replies back.
FrontendConfig single_backend_frontend(const FakeBackend& fake) {
  FrontendConfig config;
  config.nodes = 1;
  config.replication = 1;
  config.backends.emplace_back("127.0.0.1", fake.port());
  config.cache_policy = "none";
  config.retry.max_retries = 2;
  config.retry.timeout_s = 8.0;
  config.reactor = g_reactor;
  return config;
}

/// Sends `request` on its own connection from a thread; the reply lands in
/// `out`.
std::thread call_async(std::uint16_t port, Message request,
                       std::optional<Message>& out) {
  return std::thread([port, request, &out] {
    SyncClient client;
    if (!client.connect("127.0.0.1", port)) return;
    out = client.call(request, 10.0);
  });
}

Message put_request(std::uint64_t key, std::string payload) {
  Message request;
  request.type = MsgType::kPut;
  request.key = key;
  request.payload = std::move(payload);
  return request;
}

// A writer's PUT k and a reader's GET k share the front end's one backend
// connection. The backend answers the GET at once but the quorum PUT only
// later, so the GET's reply overtakes the PUT's: each must still reach its
// own client.
TEST_P(ReplyMatching, SameKeyPutAndGetThroughTheFrontEnd) {
  constexpr std::uint64_t kKey = 7;
  FakeBackend fake;
  ASSERT_TRUE(fake.start());
  FrontendServer frontend(single_backend_frontend(fake));
  ASSERT_TRUE(frontend.start());
  ASSERT_TRUE(frontend.wait_backends_up(5.0));

  std::optional<Message> write_reply;
  std::optional<Message> read_reply;
  std::thread writer =
      call_async(frontend.port(), put_request(kKey, "new"), write_reply);
  ASSERT_TRUE(poll_until(5.0, [&] { return fake.requests().size() == 1; }));
  std::thread reader =
      call_async(frontend.port(), get_request(kKey), read_reply);
  ASSERT_TRUE(poll_until(5.0, [&] { return fake.requests().size() == 2; }));

  ASSERT_TRUE(fake.reply(value_reply(kKey, "old")));
  Message ack;
  ack.type = MsgType::kWriteReply;
  ack.key = kKey;
  ack.version = 99;
  ASSERT_TRUE(fake.reply(ack));
  writer.join();
  reader.join();

  ASSERT_TRUE(write_reply.has_value());
  ASSERT_TRUE(read_reply.has_value());
  EXPECT_EQ(write_reply->type, MsgType::kWriteReply);
  EXPECT_EQ(write_reply->version, 99u);
  EXPECT_EQ(read_reply->type, MsgType::kValue);
  EXPECT_EQ(read_reply->payload, "old");
  EXPECT_EQ(fake.accepted(), 1u);
  frontend.stop(1.0);
}

// A PUT still waiting for its quorum is overtaken by the reply to a later
// GET for another key on the same backend connection. Both complete, with
// no connection reset and no retry.
TEST_P(ReplyMatching, PutOvertakenByAnotherKeysGetReply) {
  FakeBackend fake;
  ASSERT_TRUE(fake.start());
  FrontendServer frontend(single_backend_frontend(fake));
  ASSERT_TRUE(frontend.start());
  ASSERT_TRUE(frontend.wait_backends_up(5.0));

  std::optional<Message> write_reply;
  std::optional<Message> read_reply;
  std::thread writer =
      call_async(frontend.port(), put_request(1, "w"), write_reply);
  ASSERT_TRUE(poll_until(5.0, [&] { return fake.requests().size() == 1; }));
  std::thread reader = call_async(frontend.port(), get_request(2), read_reply);
  ASSERT_TRUE(poll_until(5.0, [&] { return fake.requests().size() == 2; }));

  ASSERT_TRUE(fake.reply(value_reply(2, "two")));
  // The GET completes while the PUT is still owed its ack.
  ASSERT_TRUE(
      poll_until(5.0, [&] { return frontend.stats().forwarded == 1; }));
  Message ack;
  ack.type = MsgType::kWriteReply;
  ack.key = 1;
  ack.version = 5;
  ASSERT_TRUE(fake.reply(ack));
  writer.join();
  reader.join();

  ASSERT_TRUE(write_reply.has_value());
  EXPECT_EQ(write_reply->type, MsgType::kWriteReply);
  EXPECT_EQ(read_reply->type, MsgType::kValue);
  EXPECT_EQ(read_reply->payload, "two");
  EXPECT_EQ(fake.accepted(), 1u) << "the backend connection was reset";
  const ServerStats stats = frontend.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.attempts, 2u);
  frontend.stop(1.0);
}

// The same-key crossing one hop further out: scp_router in front of a
// 2-member fleet. Key k is globally cached, so both requests end up on k's
// owner (the router follows any redirect); the PUT dirties k there, so the
// GET forwards too, and the backend answers the GET first. The router must
// hand each reply to its own client.
TEST_P(ReplyMatching, SameKeyPutAndGetThroughTheRouter) {
  constexpr std::uint64_t kKey = 3;
  constexpr std::uint32_t kMembers = 2;
  constexpr std::uint64_t kFleetSeed = 42;
  FakeBackend fake;
  ASSERT_TRUE(fake.start());
  std::vector<std::unique_ptr<FrontendServer>> members;
  RouterConfig router_config;
  for (std::uint32_t index = 0; index < kMembers; ++index) {
    FrontendConfig config = single_backend_frontend(fake);
    config.cache_policy = "perfect";
    config.cache_capacity = 16;
    config.items = 64;
    config.fleet_size = kMembers;
    config.fleet_index = index;
    config.fleet_seed = kFleetSeed;
    members.push_back(std::make_unique<FrontendServer>(config));
    ASSERT_TRUE(members.back()->start());
    ASSERT_TRUE(members.back()->wait_backends_up(5.0));
    router_config.frontends.emplace_back("127.0.0.1", members.back()->port());
  }
  router_config.fleet_seed = kFleetSeed;
  router_config.timeout_s = 8.0;
  router_config.reactor = g_reactor;
  RouterServer router(router_config);
  ASSERT_TRUE(router.start());
  ASSERT_TRUE(router.wait_frontends_up(5.0));

  std::optional<Message> write_reply;
  std::optional<Message> read_reply;
  std::thread writer =
      call_async(router.port(), put_request(kKey, "new"), write_reply);
  ASSERT_TRUE(poll_until(5.0, [&] { return fake.requests().size() == 1; }));
  std::thread reader = call_async(router.port(), get_request(kKey), read_reply);
  ASSERT_TRUE(poll_until(5.0, [&] { return fake.requests().size() == 2; }));
  ASSERT_EQ(fake.requests()[1].type, MsgType::kGet);

  ASSERT_TRUE(fake.reply(value_reply(kKey, "old")));
  Message ack;
  ack.type = MsgType::kWriteReply;
  ack.key = kKey;
  ack.version = 77;
  ASSERT_TRUE(fake.reply(ack));
  writer.join();
  reader.join();

  ASSERT_TRUE(write_reply.has_value());
  ASSERT_TRUE(read_reply.has_value());
  EXPECT_EQ(write_reply->type, MsgType::kWriteReply);
  EXPECT_EQ(write_reply->version, 77u);
  EXPECT_EQ(read_reply->type, MsgType::kValue);
  EXPECT_EQ(read_reply->payload, "old");
  EXPECT_EQ(router.stats().failures, 0u);
  router.stop(1.0);
  for (auto& member : members) member->stop(1.0);
}

}  // namespace
}  // namespace scp::net
