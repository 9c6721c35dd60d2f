// Self-test of the benchmark's client: key-matched pending table, outcome
// classifier (wrong values, stale reads, unexpected reply types), the
// pipelined client against the null server, and a server that answers the
// wrong key. Exits 0 when every check passes.
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <thread>

#include "client.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

using perfbench::Op;
using perfbench::OpKind;
using perfbench::Outcome;
using perfbench::Pending;
using scp::net::Message;
using scp::net::MsgType;

constexpr std::uint32_t kValueBytes = 32;

/// A listener whose accept() blocks (listen_tcp's is non-blocking).
scp::net::Socket blocking_listener(std::uint16_t& port) {
  scp::net::Socket listener = scp::net::listen_tcp("127.0.0.1", 0, 4, &port);
  CHECK(listener.valid());
  ::fcntl(listener.fd(), F_SETFL, ::fcntl(listener.fd(), F_GETFL) & ~O_NONBLOCK);
  return listener;
}

Pending get_request(std::uint64_t key, std::uint64_t floor = 0) {
  Pending p;
  p.key = key;
  p.op = OpKind::kGet;
  p.floor = floor;
  return p;
}

Message value_reply(std::uint64_t key, std::string payload) {
  Message m;
  m.type = MsgType::kValue;
  m.key = key;
  m.payload = std::move(payload);
  return m;
}

void test_pending_table_matches_by_key_oldest_first() {
  perfbench::PendingTable table;
  Pending a = get_request(7);
  a.sent_ns = 1;
  Pending b = get_request(9);
  b.sent_ns = 2;
  Pending c = get_request(7);
  c.sent_ns = 3;
  table.add(a);
  table.add(b);
  table.add(c);
  CHECK(table.size() == 3);
  auto first = table.take(7);
  CHECK(first && first->sent_ns == 1);
  CHECK(!table.take(8));  // a reply nobody asked for
  auto nine = table.take(9);
  CHECK(nine && nine->sent_ns == 2);
  int expired = 0;
  table.expire(4, [&](const Pending& p) {
    CHECK(p.sent_ns == 3);
    ++expired;
  });
  CHECK(expired == 1);
  CHECK(table.size() == 0);
  CHECK(!table.take(7));
}

void test_classifier_checks_bytes_and_types() {
  perfbench::ValueOracle oracle(kValueBytes);
  const std::string good = scp::net::make_value(5, kValueBytes);
  CHECK(perfbench::classify(get_request(5), value_reply(5, good), oracle) ==
        Outcome::kOk);
  std::string flipped = good;
  flipped.back() = 'z';
  CHECK(perfbench::classify(get_request(5), value_reply(5, flipped), oracle) ==
        Outcome::kWrongValue);
  // Another key's value for this key is wrong too.
  CHECK(perfbench::classify(
            get_request(5),
            value_reply(5, scp::net::make_value(6, kValueBytes)), oracle) ==
        Outcome::kWrongValue);
  Message miss;
  miss.type = MsgType::kMiss;
  miss.key = 5;
  CHECK(perfbench::classify(get_request(5), miss, oracle) == Outcome::kError);
  Message error;
  error.type = MsgType::kError;
  error.key = 5;
  CHECK(perfbench::classify(get_request(5), error, oracle) == Outcome::kError);
}

void test_classifier_tracks_acknowledged_writes() {
  perfbench::ValueOracle oracle(kValueBytes);
  const std::uint32_t seq1 = oracle.begin_write(3);
  Pending put;
  put.key = 3;
  put.op = OpKind::kPut;
  put.seq = seq1;
  // A GET sent while the write is unacknowledged may see either value.
  const std::uint64_t floor_before = oracle.read_floor(3);
  CHECK(floor_before == 0);
  const std::string written = perfbench::write_value(3, seq1, kValueBytes);
  CHECK(perfbench::classify(get_request(3, floor_before),
                            value_reply(3, written), oracle) == Outcome::kOk);
  Message ack;
  ack.type = MsgType::kWriteReply;
  ack.key = 3;
  ack.version = 40;
  CHECK(perfbench::classify(put, ack, oracle) == Outcome::kOk);
  const std::uint64_t floor = oracle.read_floor(3);
  CHECK(floor == 40);
  // After the ack, the preloaded value is stale and the write is correct.
  CHECK(perfbench::classify(get_request(3, floor),
                            value_reply(3, scp::net::make_value(3, kValueBytes)),
                            oracle) == Outcome::kStale);
  CHECK(perfbench::classify(get_request(3, floor), value_reply(3, written),
                            oracle) == Outcome::kOk);
  // A write sequence number the client never issued is a wrong value.
  CHECK(perfbench::classify(get_request(3, floor),
                            value_reply(3, perfbench::write_value(3, 9, kValueBytes)),
                            oracle) == Outcome::kWrongValue);
  // A PUT answered with anything but a WriteReply failed.
  CHECK(perfbench::classify(put, value_reply(3, written), oracle) ==
        Outcome::kError);
}

void test_pipelined_client_against_null_server() {
  perfbench::NullServer server(kValueBytes);
  CHECK(server.start());
  perfbench::ValueOracle oracle(kValueBytes);
  perfbench::PipelinedClient client("127.0.0.1", server.port(), oracle);
  CHECK(client.connect());
  perfbench::WorkloadSpec spec;
  spec.items = 1000;
  spec.value_bytes = kValueBytes;
  perfbench::OpStream stream(spec, 11);
  perfbench::Tally tally;
  std::uint64_t done = 0;
  const std::int64_t deadline = perfbench::now_ns() + 5'000'000'000LL;
  for (int i = 0; i < 64; ++i) {
    client.enqueue(stream.next(), 0, perfbench::now_ns(), tally);
  }
  client.flush(tally, [](const Pending&, Outcome, std::int64_t) {});
  while (done < 64 && perfbench::now_ns() < deadline) {
    done += client.poll(100'000'000, tally,
                        [](const Pending&, Outcome, std::int64_t) {});
  }
  CHECK(done == 64);
  CHECK(tally.completed_ok() == 64);
  CHECK(tally.failed() == 0);
  CHECK(tally.mismatched_replies == 0);
  // Its cost per request is the machine-speed reference.
  CHECK(server.served() == 64);
  CHECK(server.cpu_ns() > 0);
  server.stop();
}

/// Answers the first GET with a reply for another key, then with wrong
/// bytes for the right key.
void test_mismatched_reply_and_wrong_value() {
  std::uint16_t port = 0;
  scp::net::Socket listener = blocking_listener(port);
  std::thread server([&] {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd < 0) return;
    scp::net::FrameReader reader;
    std::vector<std::uint8_t> in(4096);
    std::optional<Message> request;
    while (!request) {
      const ssize_t got = ::recv(fd, in.data(), in.size(), 0);
      if (got <= 0) break;
      reader.append(std::span<const std::uint8_t>(
          in.data(), static_cast<std::size_t>(got)));
      if (auto frame = reader.next_frame()) {
        request = scp::net::decode_payload(*frame);
      }
    }
    if (request) {
      std::vector<std::uint8_t> out =
          scp::net::encode(value_reply(request->key + 1, "x"));
      const auto wrong = scp::net::encode(value_reply(request->key, "wrong"));
      out.insert(out.end(), wrong.begin(), wrong.end());
      (void)::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
    }
    ::close(fd);
  });
  perfbench::ValueOracle oracle(kValueBytes);
  perfbench::PipelinedClient client("127.0.0.1", port, oracle);
  CHECK(client.connect());
  perfbench::Tally tally;
  client.enqueue(Op{OpKind::kGet, 42}, 0, perfbench::now_ns(), tally);
  client.flush(tally, [](const Pending&, Outcome, std::int64_t) {});
  std::vector<Outcome> seen;
  const std::int64_t deadline = perfbench::now_ns() + 5'000'000'000LL;
  while (client.connected() && perfbench::now_ns() < deadline) {
    client.poll(100'000'000, tally,
                [&](const Pending&, Outcome o, std::int64_t) {
                  seen.push_back(o);
                });
  }
  server.join();
  CHECK(tally.mismatched_replies == 1);
  CHECK(seen.size() == 1 && seen[0] == Outcome::kWrongValue);
  CHECK(tally.failed() == 1);
  CHECK(tally.completed_ok() == 0);
}

void test_dropped_connection_fails_pending() {
  std::uint16_t port = 0;
  scp::net::Socket listener = blocking_listener(port);
  std::thread server([&] {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) ::close(fd);
  });
  perfbench::ValueOracle oracle(kValueBytes);
  perfbench::PipelinedClient client("127.0.0.1", port, oracle);
  CHECK(client.connect());
  server.join();
  perfbench::Tally tally;
  client.enqueue(Op{OpKind::kGet, 1}, 0, perfbench::now_ns(), tally);
  client.enqueue(Op{OpKind::kGet, 2}, 0, perfbench::now_ns(), tally);
  client.flush(tally, [](const Pending&, Outcome, std::int64_t) {});
  const std::int64_t deadline = perfbench::now_ns() + 5'000'000'000LL;
  while (client.connected() && perfbench::now_ns() < deadline) {
    client.poll(100'000'000, tally,
                [](const Pending&, Outcome, std::int64_t) {});
  }
  CHECK(!client.connected());
  CHECK(tally.outcomes[0][static_cast<int>(Outcome::kDropped)] == 2);
}

void test_op_stream_is_seeded() {
  perfbench::WorkloadSpec spec;
  spec.write_frac = 0.5;
  perfbench::OpStream a(spec, 5);
  perfbench::OpStream b(spec, 5);
  perfbench::OpStream c(spec, 6);
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    const Op x = a.next();
    const Op y = b.next();
    const Op z = c.next();
    CHECK(x.key == y.key && x.kind == y.kind);
    CHECK(x.key < spec.items);
    differs = differs || x.key != z.key;
  }
  CHECK(differs);
}

}  // namespace

int main() {
  test_pending_table_matches_by_key_oldest_first();
  test_classifier_checks_bytes_and_types();
  test_classifier_tracks_acknowledged_writes();
  test_pipelined_client_against_null_server();
  test_mismatched_reply_and_wrong_value();
  test_dropped_connection_fails_pending();
  test_op_stream_is_seeded();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
