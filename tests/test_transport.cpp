// The leader<->worker transport's building blocks (src/psync/dist): the
// length-prefixed frame codec under short reads and garbage, the
// control-frame payload codecs, the seeded ChaosTransport fault injector,
// decorrelated-jitter backoff, the worker link's policy (WorkerLinkCore)
// on a scripted clock, the leader's epoch-fencing ledger, the TCP
// socket options on both ends of a connection, the leader's live
// JournalMerger check, and the journal-directory durability helper
// (fsync_parent_dir). Everything here is deterministic:
// fixed seeds replay identical fault sequences.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "psync/common/cancel.hpp"
#include "psync/common/check.hpp"
#include "psync/common/journal.hpp"
#include "psync/common/rng.hpp"
#include "psync/dist/backoff.hpp"
#include "psync/dist/chaos.hpp"
#include "psync/dist/frame.hpp"
#include "psync/dist/heartbeat.hpp"
#include "psync/dist/leader.hpp"
#include "psync/dist/link.hpp"
#include "psync/dist/merge.hpp"
#include "psync/dist/transport.hpp"
#include "rng_draws.hpp"

namespace psync::dist {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "psync_transport_" +
         std::to_string(::getpid()) + "_" + name;
}

// ---------------------------------------------------------------------------
// Frame codec

TEST(FrameCodec, RoundTripsEveryKind) {
  for (const auto kind :
       {FrameKind::kHello, FrameKind::kHelloAck, FrameKind::kHeartbeat,
        FrameKind::kJournal, FrameKind::kJournalAck}) {
    Frame in;
    in.kind = kind;
    in.payload = "payload for kind " +
                 std::to_string(static_cast<unsigned>(kind));
    const std::string wire = encode_frame(in);
    ASSERT_EQ(wire.size(), kFrameHeaderBytes + in.payload.size());
    EXPECT_EQ(static_cast<unsigned char>(wire[0]), kFrameMagic);

    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    Frame out;
    ASSERT_EQ(dec.next(&out), FrameDecoder::Result::kFrame);
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.payload, in.payload);
    EXPECT_EQ(dec.next(&out), FrameDecoder::Result::kNeedMore);
  }
}

TEST(FrameCodec, EmptyPayloadFrame) {
  Frame in;
  in.kind = FrameKind::kHeartbeat;
  const std::string wire = encode_frame(in);
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  ASSERT_EQ(dec.next(&out), FrameDecoder::Result::kFrame);
  EXPECT_TRUE(out.payload.empty());
}

// The satellite requirement, literally: every frame split at *each* byte
// boundary across two feeds must decode identically to one feed. This is
// the property that makes the decoder safe against arbitrary read(2)
// fragmentation — TCP guarantees bytes, not frames.
TEST(FrameCodec, EveryByteBoundarySplitDecodesIdentically) {
  Frame in;
  in.kind = FrameKind::kJournal;
  in.payload = journal_payload(42, R"({"index":42,"status":"ok"})");
  const std::string wire = encode_frame(in);
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    FrameDecoder dec;
    dec.feed(wire.data(), split);
    Frame out;
    if (split < wire.size()) {
      // The prefix alone must never yield a frame or corrupt the stream.
      ASSERT_EQ(dec.next(&out), FrameDecoder::Result::kNeedMore)
          << "split at byte " << split;
      dec.feed(wire.data() + split, wire.size() - split);
    }
    ASSERT_EQ(dec.next(&out), FrameDecoder::Result::kFrame)
        << "split at byte " << split;
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.payload, in.payload);
  }
}

TEST(FrameCodec, OneByteAtATimeAcrossSeveralFrames) {
  std::string wire;
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < 5; ++i) {
    Frame f;
    f.kind = i % 2 == 0 ? FrameKind::kHeartbeat : FrameKind::kJournalAck;
    f.payload = std::string(i * 7, 'x') + std::to_string(i);
    wire += encode_frame(f);
    frames.push_back(std::move(f));
  }
  FrameDecoder dec;
  std::vector<Frame> decoded;
  for (const char c : wire) {
    dec.feed(&c, 1);
    Frame out;
    while (dec.next(&out) == FrameDecoder::Result::kFrame) {
      decoded.push_back(out);
    }
  }
  ASSERT_EQ(decoded.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(decoded[i].kind, frames[i].kind);
    EXPECT_EQ(decoded[i].payload, frames[i].payload);
  }
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(FrameCodec, OneFeedMayCompleteSeveralFrames) {
  Frame a{FrameKind::kHeartbeat, "hb 0 p 1 -"};
  Frame b{FrameKind::kJournalAck, "7"};
  const std::string wire = encode_frame(a) + encode_frame(b);
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  ASSERT_EQ(dec.next(&out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.payload, a.payload);
  ASSERT_EQ(dec.next(&out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.payload, b.payload);
  EXPECT_EQ(dec.next(&out), FrameDecoder::Result::kNeedMore);
}

TEST(FrameCodec, BadMagicIsStickyCorrupt) {
  FrameDecoder dec;
  // A short junk prefix is indistinguishable from a slow header...
  const char junk[] = {'\x00', '\x01', '\x02', '\x03', '\x04', '\x05'};
  dec.feed(junk, 2);
  Frame out;
  EXPECT_EQ(dec.next(&out), FrameDecoder::Result::kNeedMore);
  // ...but the moment a full header is buffered, the bad magic convicts.
  dec.feed(junk + 2, sizeof junk - 2);
  EXPECT_EQ(dec.next(&out), FrameDecoder::Result::kCorrupt);
  EXPECT_TRUE(dec.corrupt());
  // Sticky: even a pristine frame after the junk stays refused — framing
  // desync on a byte stream is unrecoverable without a reconnect.
  const std::string good = encode_frame({FrameKind::kHeartbeat, "x"});
  dec.feed(good.data(), good.size());
  EXPECT_EQ(dec.next(&out), FrameDecoder::Result::kCorrupt);
  // reset() is the reconnect: clean boundary, clean flag.
  dec.reset();
  EXPECT_FALSE(dec.corrupt());
  dec.feed(good.data(), good.size());
  EXPECT_EQ(dec.next(&out), FrameDecoder::Result::kFrame);
}

TEST(FrameCodec, UnknownKindAndOversizedLengthAreCorrupt) {
  {
    std::string wire = encode_frame({FrameKind::kHello, "p"});
    wire[1] = '\x63';  // kind 99
    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    Frame out;
    EXPECT_EQ(dec.next(&out), FrameDecoder::Result::kCorrupt);
  }
  {
    std::string wire = encode_frame({FrameKind::kHello, "p"});
    wire[5] = '\x7f';  // length claims > kMaxFramePayload
    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    Frame out;
    EXPECT_EQ(dec.next(&out), FrameDecoder::Result::kCorrupt);
  }
}

// Seeded garbage fuzz: whatever bytes arrive, the decoder must return
// kFrame/kNeedMore/kCorrupt — never crash, never loop, never hand back a
// frame with an invalid kind.
TEST(FrameCodec, GarbageFuzzNeverCrashesOrInventsFrames) {
  Rng rng(0xC0FFEE);
  for (int round = 0; round < 200; ++round) {
    FrameDecoder dec;
    std::string bytes;
    const std::size_t n = 1 + next_below(rng, 300);
    for (std::size_t i = 0; i < n; ++i) {
      // Bias toward the magic byte so length parsing actually engages.
      bytes.push_back(next_below(rng, 4) == 0
                          ? static_cast<char>(kFrameMagic)
                          : static_cast<char>(next_below(rng, 256)));
    }
    std::size_t at = 0;
    while (at < bytes.size()) {
      const std::size_t chunk =
          std::min(bytes.size() - at, 1 + next_below(rng, 16));
      dec.feed(bytes.data() + at, chunk);
      at += chunk;
      Frame out;
      FrameDecoder::Result r;
      int safety = 0;
      while ((r = dec.next(&out)) == FrameDecoder::Result::kFrame) {
        EXPECT_TRUE(frame_kind_valid(static_cast<std::uint8_t>(out.kind)));
        ASSERT_LT(++safety, 1000) << "decoder loop did not terminate";
      }
      if (r == FrameDecoder::Result::kCorrupt) break;
    }
  }
}

// Chaos-driven fuzz: drop/duplicate/reorder/delay whole frames through
// ChaosTransport, then decode the concatenated survivors. Frame-level
// chaos must never produce byte-level corruption — every surviving frame
// decodes intact (that is what distinguishes a lossy network from a
// corrupting one; corruption is modeled separately above).
TEST(FrameCodec, ChaosMangledStreamsDecodeFrameIntact) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 99ULL, 0xDEADBEEFULL}) {
    ChaosOptions copts;
    copts.seed = seed;
    copts.drop = 0.2;
    copts.duplicate = 0.2;
    copts.reorder = 0.2;
    copts.delay = 0.2;
    copts.delay_ms = 5.0;
    ChaosTransport chaos(copts);
    std::string wire;
    double now = 0.0;
    for (std::size_t i = 0; i < 100; ++i) {
      Frame f;
      f.kind = FrameKind::kJournal;
      f.payload = journal_payload(i, "{\"i\":" + std::to_string(i) + "}");
      for (const auto& out : chaos.offer(f, now)) {
        wire += encode_frame(out);
      }
      now += 3.0;
    }
    for (const auto& out : chaos.due(now + 1000.0)) {
      wire += encode_frame(out);
    }
    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    Frame out;
    std::size_t frames = 0;
    while (dec.next(&out) == FrameDecoder::Result::kFrame) {
      std::size_t index = 0;
      std::string line;
      EXPECT_TRUE(parse_journal_payload(out.payload, &index, &line));
      ++frames;
    }
    EXPECT_FALSE(dec.corrupt()) << "seed " << seed;
    EXPECT_EQ(dec.pending_bytes(), 0u);
    EXPECT_EQ(frames, chaos.offered() - chaos.dropped() +
                          chaos.duplicated());
  }
}

// ---------------------------------------------------------------------------
// Control-frame payload codecs

TEST(PayloadCodec, HelloRoundTripAndRejects) {
  HelloClaim in;
  in.shard = 3;
  in.epoch = 0xFFFFFFFFFFFFULL;
  HelloClaim out;
  ASSERT_TRUE(parse_hello_payload(hello_payload(in), &out));
  EXPECT_EQ(out.shard, in.shard);
  EXPECT_EQ(out.epoch, in.epoch);
  EXPECT_FALSE(parse_hello_payload("", &out));
  EXPECT_FALSE(parse_hello_payload("shard 3", &out));
  EXPECT_FALSE(parse_hello_payload("shard x epoch 1", &out));
  EXPECT_FALSE(parse_hello_payload("hello 3 epoch 1", &out));
}

TEST(PayloadCodec, JournalCarriesIndexOutsideTheLine) {
  const std::string line = R"({"index":9,"metrics":[{"val":1.0}]})";
  std::size_t index = 0;
  std::string parsed;
  ASSERT_TRUE(parse_journal_payload(journal_payload(9, line), &index,
                                    &parsed));
  EXPECT_EQ(index, 9u);
  EXPECT_EQ(parsed, line);
  EXPECT_FALSE(parse_journal_payload("", &index, &parsed));
  EXPECT_FALSE(parse_journal_payload("notanumber {}", &index, &parsed));
}

TEST(PayloadCodec, JournalAckAndFencedAck) {
  std::size_t index = 0;
  ASSERT_TRUE(parse_journal_ack_payload(journal_ack_payload(123), &index));
  EXPECT_EQ(index, 123u);
  EXPECT_FALSE(parse_journal_ack_payload("x", &index));
  EXPECT_FALSE(hello_ack_fenced(kHelloAckOk));
  EXPECT_TRUE(hello_ack_fenced("fenced stale epoch 4"));
}

TEST(PayloadCodec, ParseHostPort) {
  std::string host;
  std::uint16_t port = 0;
  ASSERT_TRUE(parse_host_port("10.1.2.3:9000", &host, &port));
  EXPECT_EQ(host, "10.1.2.3");
  EXPECT_EQ(port, 9000);
  ASSERT_TRUE(parse_host_port("7777", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7777);
  EXPECT_FALSE(parse_host_port("", &host, &port));
  EXPECT_FALSE(parse_host_port("host:", &host, &port));
  EXPECT_FALSE(parse_host_port("host:notaport", &host, &port));
  EXPECT_FALSE(parse_host_port("host:99999", &host, &port));
}

// ---------------------------------------------------------------------------
// ChaosTransport

TEST(Chaos, SeedZeroIsAPassThrough) {
  ChaosTransport chaos(ChaosOptions{});
  EXPECT_FALSE(chaos.enabled());
  const Frame f{FrameKind::kHeartbeat, "hb"};
  for (int i = 0; i < 50; ++i) {
    const auto out = chaos.offer(f, i * 10.0);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].payload, f.payload);
  }
  EXPECT_EQ(chaos.dropped(), 0u);
  EXPECT_FALSE(chaos.take_partition(1e9));
}

TEST(Chaos, SameSeedReplaysTheIdenticalFaultSequence) {
  ChaosOptions opts;
  opts.seed = 42;
  opts.drop = 0.3;
  opts.duplicate = 0.2;
  opts.reorder = 0.15;
  opts.delay = 0.1;
  const auto run = [&opts] {
    ChaosTransport chaos(opts);
    std::vector<std::string> emitted;
    for (std::size_t i = 0; i < 300; ++i) {
      Frame f{FrameKind::kJournal, std::to_string(i)};
      for (const auto& out :
           chaos.offer(f, static_cast<double>(i) * 2.0)) {
        emitted.push_back(out.payload);
      }
    }
    for (const auto& out : chaos.due(1e9)) emitted.push_back(out.payload);
    return emitted;
  };
  EXPECT_EQ(run(), run());
}

TEST(Chaos, DropRateLandsNearTheConfiguredProbability) {
  ChaosOptions opts;
  opts.seed = 7;
  opts.drop = 0.25;
  ChaosTransport chaos(opts);
  for (std::size_t i = 0; i < 2000; ++i) {
    chaos.offer({FrameKind::kHeartbeat, "hb"}, static_cast<double>(i));
  }
  EXPECT_EQ(chaos.offered(), 2000u);
  // 4-sigma band around p=0.25, n=2000.
  EXPECT_GT(chaos.dropped(), 420u);
  EXPECT_LT(chaos.dropped(), 580u);
}

TEST(Chaos, DuplicateEmitsTheFrameTwice) {
  ChaosOptions opts;
  opts.seed = 11;
  opts.duplicate = 1.0;
  ChaosTransport chaos(opts);
  const auto out = chaos.offer({FrameKind::kJournal, "rec"}, 0.0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].payload, "rec");
  EXPECT_EQ(out[1].payload, "rec");
  EXPECT_EQ(chaos.duplicated(), 1u);
}

TEST(Chaos, ReorderHoldsAFrameBehindItsSuccessor) {
  ChaosOptions opts;
  opts.seed = 13;
  opts.reorder = 1.0;
  ChaosTransport chaos(opts);
  // Every frame wants to be held; the hold slot fits one, so the pattern
  // is: A held (nothing out), B arrives -> B out, then A swaps into the
  // next hold... Exact policy aside, the invariant is no frame is ever
  // lost and at most one is in flight as a hold.
  std::multiset<std::string> sent, received;
  double now = 0.0;
  for (int i = 0; i < 40; ++i) {
    const std::string p = std::to_string(i);
    sent.insert(p);
    for (const auto& out : chaos.offer({FrameKind::kJournal, p}, now)) {
      received.insert(out.payload);
    }
    now += 1.0;
  }
  for (const auto& out : chaos.due(now + 1e6)) received.insert(out.payload);
  EXPECT_GE(chaos.reordered(), 1u);
  // Allow exactly the single final hold to still be outstanding.
  EXPECT_GE(received.size() + 1, sent.size());
  for (const auto& p : received) {
    EXPECT_EQ(sent.count(p), 1u) << "chaos invented frame " << p;
  }
}

TEST(Chaos, DelayedFramesComeDueOnTheClock) {
  ChaosOptions opts;
  opts.seed = 17;
  opts.delay = 1.0;
  opts.delay_ms = 50.0;
  ChaosTransport chaos(opts);
  EXPECT_TRUE(chaos.offer({FrameKind::kHeartbeat, "hb"}, 0.0).empty());
  EXPECT_TRUE(chaos.due(10.0).empty());  // not yet
  const auto due = chaos.due(60.0);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].payload, "hb");
  EXPECT_TRUE(chaos.due(1000.0).empty());  // released exactly once
  EXPECT_EQ(chaos.delayed(), 1u);
}

TEST(Chaos, PartitionFiresOnceThenHealsOnSchedule) {
  ChaosOptions opts;
  opts.seed = 19;
  opts.partition_after = 3;
  opts.partition_ms = 100.0;
  ChaosTransport chaos(opts);
  double now = 0.0;
  for (int i = 0; i < 3; ++i) {
    chaos.offer({FrameKind::kHeartbeat, "hb"}, now);
    now += 1.0;
  }
  ASSERT_TRUE(chaos.take_partition(now));
  EXPECT_FALSE(chaos.take_partition(now)) << "taking consumes the trigger";
  EXPECT_TRUE(chaos.partitioned(now + 50.0));
  EXPECT_FALSE(chaos.partitioned(now + 150.0)) << "heals after partition_ms";
  EXPECT_EQ(chaos.partitions(), 1u);
  // One-shot by default: more traffic does not re-arm it — including
  // traffic offered *after* a take_partition call has processed the heal
  // (the regression that once partitioned a reconnecting link forever).
  for (int i = 0; i < 10; ++i) {
    chaos.offer({FrameKind::kHeartbeat, "hb"}, now + 200.0 + i);
  }
  EXPECT_FALSE(chaos.take_partition(now + 300.0));
  for (int i = 0; i < 10; ++i) {
    chaos.offer({FrameKind::kHeartbeat, "hb"}, now + 400.0 + i);
    EXPECT_FALSE(chaos.take_partition(now + 400.0 + i));
  }
  EXPECT_EQ(chaos.partitions(), 1u);
}

TEST(Chaos, PartitionRepeatReArms) {
  ChaosOptions opts;
  opts.seed = 23;
  opts.partition_after = 2;
  opts.partition_ms = 10.0;
  opts.partition_repeat = true;
  ChaosTransport chaos(opts);
  double now = 0.0;
  std::size_t taken = 0;
  for (int i = 0; i < 8; ++i) {
    chaos.offer({FrameKind::kHeartbeat, "hb"}, now);
    if (chaos.take_partition(now)) ++taken;
    now += 20.0;  // past the heal window each time
  }
  EXPECT_GE(taken, 2u);
  EXPECT_EQ(chaos.partitions(), taken);
}

// ---------------------------------------------------------------------------
// Decorrelated-jitter backoff (satellite: bound and spread, fixed seed)

TEST(Backoff, FirstAttemptIsExactlyBase) {
  DecorrelatedBackoff b(50.0, 2000.0, 1);
  EXPECT_DOUBLE_EQ(b.next_ms(), 50.0);
  b.reset();
  EXPECT_DOUBLE_EQ(b.next_ms(), 50.0) << "reset restarts from the bottom";
}

TEST(Backoff, EveryDrawStaysInTheDecorrelatedBand) {
  DecorrelatedBackoff b(50.0, 2000.0, 0xABCDEF);
  double prev = b.next_ms();
  EXPECT_DOUBLE_EQ(prev, 50.0);
  for (int i = 0; i < 200; ++i) {
    const double hi = std::min(2000.0, prev * 3.0);
    const double d = b.next_ms();
    EXPECT_GE(d, 50.0);
    EXPECT_LE(d, hi + 1e-9);
    EXPECT_LE(d, 2000.0);
    prev = d;
  }
}

TEST(Backoff, FixedSeedSpreadsAcrossTheBandAndDiffersBySeed) {
  // Spread: after warmup the draws should cover a wide slice of
  // [base, cap], not cluster — that is the whole point of jitter.
  DecorrelatedBackoff b(10.0, 1000.0, 99);
  double lo = 1e18, hi = -1e18;
  for (int i = 0; i < 100; ++i) {
    const double d = b.next_ms();
    if (i >= 8) {  // past the exponential ramp
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
  }
  EXPECT_LT(lo, 300.0) << "jitter should reach down toward base";
  EXPECT_GT(hi, 700.0) << "jitter should reach up toward cap";

  // Decorrelation: two seeds never share a schedule.
  DecorrelatedBackoff b1(10.0, 1000.0, 1), b2(10.0, 1000.0, 2);
  b1.next_ms();
  b2.next_ms();  // both exactly base
  bool differed = false;
  for (int i = 0; i < 20; ++i) {
    differed |= b1.next_ms() != b2.next_ms();
  }
  EXPECT_TRUE(differed);
}

TEST(Backoff, DeterministicPerSeed) {
  const auto draw = [](std::uint64_t seed) {
    DecorrelatedBackoff b(5.0, 500.0, seed);
    std::vector<double> v;
    for (int i = 0; i < 32; ++i) v.push_back(b.next_ms());
    return v;
  };
  EXPECT_EQ(draw(1234), draw(1234));
}

// ---------------------------------------------------------------------------
// WorkerLinkCore on a scripted clock: the test drives time, delivers the
// leader's frames and reads back what the link sent through its seam.

/// Records every dial and every frame the link sends; refuses dials while
/// `refuse` is set.
class ScriptedLinkIo final : public LinkIo {
 public:
  bool connect() override {
    ++dials;
    if (refuse) return false;
    open = true;
    return true;
  }
  bool send(const Frame& frame) override {
    EXPECT_TRUE(open) << "sent with no connection open";
    sent.push_back(frame);
    return open;
  }
  void close() override { open = false; }

  /// Grid indices of the journal frames sent since the last take.
  std::vector<std::size_t> take_journal() {
    std::vector<std::size_t> out;
    for (; taken < sent.size(); ++taken) {
      std::size_t index = 0;
      std::string line;
      if (sent[taken].kind == FrameKind::kJournal &&
          parse_journal_payload(sent[taken].payload, &index, &line)) {
        out.push_back(index);
      }
    }
    return out;
  }

  bool refuse = false;
  bool open = false;
  int dials = 0;
  std::vector<Frame> sent;
  std::size_t taken = 0;
};

WorkerConfig link_config() {
  WorkerConfig cfg;
  cfg.shard = 3;
  cfg.epoch = 7;
  return cfg;
}

const Frame kAckOk{FrameKind::kHelloAck, kHelloAckOk};
const Frame kAckFenced{FrameKind::kHelloAck, "fenced stale epoch 7"};

Frame journal_ack(std::size_t index) {
  return {FrameKind::kJournalAck, journal_ack_payload(index)};
}

/// Pump every millisecond from `from` until the link dials; returns the
/// instant it did, or -1 when it did not by `until`.
double first_dial(WorkerLinkCore& link, ScriptedLinkIo& io, double from,
                  double until) {
  const int before = io.dials;
  for (double t = from; t <= until; t += 1.0) {
    link.pump(t);
    if (io.dials != before) return t;
  }
  return -1.0;
}

TEST(WorkerLink, AcceptRetransmitsTheUnackedTail) {
  ScriptedLinkIo io;
  WorkerLinkCore link(link_config(), &io, nullptr);
  link.pump(0.0);
  ASSERT_EQ(io.sent.size(), 1u);
  EXPECT_EQ(io.sent[0].kind, FrameKind::kHello);
  EXPECT_EQ(io.sent[0].payload, hello_payload(HelloClaim{3, 7}));
  // Nothing but the HELLO goes out before the hello-ack accepts it.
  for (std::size_t i = 0; i < 3; ++i) link.send_journal(i, "rec", 1.0);
  EXPECT_TRUE(link.send_heartbeat(Heartbeat{3}, 1.0));
  EXPECT_EQ(io.sent.size(), 1u);
  link.on_frame(kAckOk, 2.0);
  EXPECT_EQ(io.take_journal(), (std::vector<std::size_t>{0, 1, 2}));
  link.on_frame(journal_ack(0), 3.0);
  link.on_frame(journal_ack(1), 3.0);
  EXPECT_FALSE(link.drained());
  // The connection drops; the first redial waits exactly the base.
  link.on_closed(10.0);
  EXPECT_FALSE(io.open);
  EXPECT_EQ(first_dial(link, io, 10.0, 100.0), 10.0 + kReconnectBaseMs);
  link.on_frame(kAckOk, 31.0);
  EXPECT_EQ(io.take_journal(), (std::vector<std::size_t>{2}));
  link.on_frame(journal_ack(2), 32.0);
  EXPECT_TRUE(link.drained());
}

TEST(WorkerLink, ARecordResendsAtTheResendIntervalAndNotBefore) {
  ScriptedLinkIo io;
  WorkerLinkCore link(link_config(), &io, nullptr);
  link.pump(0.0);
  link.on_frame(kAckOk, 0.0);
  link.send_journal(5, "rec", 10.0);
  EXPECT_EQ(io.take_journal(), (std::vector<std::size_t>{5}))
      << "a record goes out once when it is queued";
  link.pump(10.0 + kResendMs - 0.5);
  EXPECT_TRUE(io.take_journal().empty());
  link.pump(10.0 + kResendMs);
  EXPECT_EQ(io.take_journal(), (std::vector<std::size_t>{5}));
  link.pump(10.0 + 2 * kResendMs - 0.5);
  EXPECT_TRUE(io.take_journal().empty());
  link.pump(10.0 + 2 * kResendMs);
  EXPECT_EQ(io.take_journal(), (std::vector<std::size_t>{5}));
  link.on_frame(journal_ack(5), 600.0);
  link.pump(10.0 + 5 * kResendMs);
  EXPECT_TRUE(io.take_journal().empty());
  EXPECT_TRUE(link.drained());
}

TEST(WorkerLink, AHandshakeTimeoutLeadsToBackoff) {
  ScriptedLinkIo io;
  WorkerLinkCore link(link_config(), &io, nullptr);
  link.pump(0.0);
  EXPECT_TRUE(link.handshaking());
  link.pump(kHandshakeTimeoutMs - 1.0);
  EXPECT_TRUE(link.handshaking());
  EXPECT_TRUE(io.open);
  link.pump(kHandshakeTimeoutMs);
  EXPECT_FALSE(link.handshaking());
  EXPECT_FALSE(io.open) << "the silent connection is given up";
  EXPECT_EQ(first_dial(link, io, kHandshakeTimeoutMs, 3000.0),
            kHandshakeTimeoutMs + kReconnectBaseMs);
  // A second timeout backs off by a decorrelated draw in
  // [base, 3 * base].
  const double failed = 2 * kHandshakeTimeoutMs + kReconnectBaseMs;
  link.pump(failed);
  ASSERT_FALSE(link.handshaking());
  const double redial = first_dial(link, io, failed, failed + 1000.0);
  EXPECT_GE(redial - failed, kReconnectBaseMs);
  EXPECT_LE(redial - failed, 3 * kReconnectBaseMs + 1.0);
}

TEST(WorkerLink, AMidStreamFencedAckCancelsTheToken) {
  ScriptedLinkIo io;
  CancelToken token;
  WorkerLinkCore link(link_config(), &io, &token);
  link.pump(0.0);
  link.on_frame(kAckOk, 1.0);
  link.send_journal(0, "rec", 2.0);
  EXPECT_FALSE(token.cancelled());
  link.on_frame(kAckFenced, 3.0);
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(link.fenced());
  EXPECT_FALSE(io.open);
  // A fenced link sends nothing more and never dials again.
  const std::size_t sent = io.sent.size();
  EXPECT_FALSE(link.send_heartbeat(Heartbeat{3}, 4.0));
  link.send_journal(1, "rec", 4.0);
  link.pump(10000.0);
  EXPECT_EQ(io.sent.size(), sent);
  EXPECT_EQ(io.dials, 1);

  // Fenced at the handshake: the same.
  ScriptedLinkIo io2;
  CancelToken token2;
  WorkerLinkCore zombie(link_config(), &io2, &token2);
  zombie.pump(0.0);
  zombie.on_frame(kAckFenced, 1.0);
  EXPECT_TRUE(token2.cancelled());
  EXPECT_TRUE(zombie.fenced());
  EXPECT_FALSE(io2.open);
}

TEST(WorkerLink, AChaosPartitionRefusesConnectsUntilItHeals) {
  WorkerConfig cfg = link_config();
  cfg.chaos.seed = 5;
  cfg.chaos.partition_after = 3;
  cfg.chaos.partition_ms = 300.0;
  ScriptedLinkIo io;
  WorkerLinkCore link(cfg, &io, nullptr);
  link.pump(0.0);
  link.on_frame(kAckOk, 0.0);
  for (int i = 0; i < 3; ++i) link.send_heartbeat(Heartbeat{3}, 10.0);
  EXPECT_FALSE(io.open) << "the third frame severs the link";
  EXPECT_EQ(link.chaos().partitions(), 1u);
  // The backoff expired long before; the partition still holds the dial.
  EXPECT_EQ(first_dial(link, io, 10.0, 1000.0), 310.0);
  link.on_frame(kAckOk, 311.0);
  // A dial the network refuses backs off like any failure.
  link.on_closed(320.0);
  io.refuse = true;
  EXPECT_EQ(first_dial(link, io, 320.0, 1000.0), 320.0 + kReconnectBaseMs);
  EXPECT_FALSE(io.open);
  io.refuse = false;
  const double redial = first_dial(link, io, 341.0, 1000.0);
  EXPECT_GE(redial - 340.0, kReconnectBaseMs);
  EXPECT_TRUE(io.open);
}

// ---------------------------------------------------------------------------
// EpochLedger (the fencing decision)

TEST(Epochs, IssueRevokeFence) {
  EpochLedger ledger;
  const auto e1 = ledger.issue(0);
  const auto e2 = ledger.issue(1);
  EXPECT_NE(e1, e2) << "epochs are unique across shards";
  EXPECT_NE(e1, 0u) << "0 is never a valid epoch";
  EXPECT_TRUE(ledger.valid(e1));
  EXPECT_EQ(ledger.shard_of(e1), 0u);
  EXPECT_EQ(ledger.active(), 2u);

  ledger.revoke(e1);
  EXPECT_FALSE(ledger.valid(e1)) << "a revoked epoch is a zombie claim";
  EXPECT_TRUE(ledger.valid(e2));
  EXPECT_EQ(ledger.active(), 1u);

  // Relaunch of shard 0 mints a fresh epoch; the old one stays dead.
  const auto e3 = ledger.issue(0);
  EXPECT_NE(e3, e1);
  EXPECT_TRUE(ledger.valid(e3));
  EXPECT_FALSE(ledger.valid(e1));
  ledger.revoke(e1);  // double revoke is harmless
  EXPECT_EQ(ledger.active(), 2u);
  EXPECT_FALSE(ledger.valid(0));
}

// ---------------------------------------------------------------------------
// TCP plumbing

bool nodelay_set(int fd) {
  int v = 0;
  socklen_t len = sizeof(v);
  return ::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &v, &len) == 0 && v != 0;
}

TEST(TcpPlumbing, BothEndsOfALeaderWorkerConnectionSetNoDelay) {
  // The leader's acks are tiny frames; a Nagle delay on either end would
  // hold them back behind the worker's next write.
  std::uint16_t port = 0;
  const int listen_fd = tcp_listen("127.0.0.1", 0, &port);
  ASSERT_GE(listen_fd, 0);
  ASSERT_NE(port, 0) << "ephemeral port comes back through actual_port";
  const int worker_fd = tcp_connect("127.0.0.1", port);
  ASSERT_GE(worker_fd, 0);
  pollfd pfd{listen_fd, POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 2000), 1);
  const int leader_fd = tcp_accept(listen_fd);
  ASSERT_GE(leader_fd, 0);
  EXPECT_TRUE(nodelay_set(worker_fd)) << "tcp_connect end";
  EXPECT_TRUE(nodelay_set(leader_fd)) << "tcp_accept end";
  EXPECT_NE(::fcntl(leader_fd, F_GETFL) & O_NONBLOCK, 0)
      << "the leader's poll loop must never block on one connection";
  // Nothing else pending: a second accept reports it instead of blocking.
  EXPECT_EQ(tcp_accept(listen_fd), -1);
  ::close(leader_fd);
  ::close(worker_fd);
  ::close(listen_fd);
}

// ---------------------------------------------------------------------------
// JournalMerger as the leader's live check: each shipped record is offered
// as it lands, and the dedup and conflict policy applies at once

driver::RunRecord rec_for(std::size_t index,
                          driver::PointStatus status =
                              driver::PointStatus::kOk) {
  driver::RunRecord rec;
  rec.index = index;
  rec.workload = "stream_test";
  rec.status = status;
  return rec;
}

TEST(StreamMerge, AgreeingDuplicatesAreCountedNotReEmitted) {
  JournalMerger merger(3);
  EXPECT_TRUE(merger.offer(rec_for(0)));
  EXPECT_FALSE(merger.offer(rec_for(0)));  // retransmitted frame
  EXPECT_TRUE(merger.offer(rec_for(1)));
  EXPECT_FALSE(merger.offer(rec_for(1)));
  EXPECT_EQ(merger.duplicates(), 2u);
}

TEST(StreamMerge, DisagreeingDuplicateAndOutOfGridAreTypedErrors) {
  JournalMerger merger(3);
  EXPECT_TRUE(merger.offer(rec_for(1)));  // first, ahead of index 0
  EXPECT_THROW(merger.offer(rec_for(1, driver::PointStatus::kFailed)),
               JournalConflictError);
  EXPECT_TRUE(merger.offer(rec_for(0)));
  // A disagreement is caught whenever it lands: the first record's status
  // is what every later duplicate is checked against.
  EXPECT_THROW(merger.offer(rec_for(0, driver::PointStatus::kFailed)),
               JournalConflictError);
  EXPECT_THROW(merger.offer(rec_for(3)), JournalConflictError);
}

// ---------------------------------------------------------------------------
// Journal directory durability

TEST(DurableRename, FsyncParentDirIsBestEffortOnOddPaths) {
  // Must not throw for any dirname shape — including paths whose parent
  // cannot be opened. It is a durability upgrade, not a correctness gate.
  EXPECT_NO_THROW(fsync_parent_dir("relative-name.jsonl"));
  EXPECT_NO_THROW(fsync_parent_dir("/no/such/dir/file.jsonl"));
  EXPECT_NO_THROW(fsync_parent_dir("/rootfile"));
  EXPECT_NO_THROW(fsync_parent_dir(temp_path("exists.jsonl")));
}

TEST(JournalOpen, NewJournalSurvivesImmediateReopen) {
  // open() fsyncs the parent after O_CREAT; the observable contract here
  // is simply that create -> append -> close -> reopen(keep) round-trips.
  const std::string path = temp_path("fresh.jsonl");
  {
    JournalWriter w;
    w.open(path, false);
    w.append("first");
    w.close();
  }
  {
    JournalWriter w;
    w.open(path, true);
    w.append("second");
    w.close();
  }
  EXPECT_EQ(read_journal_lines(path),
            (std::vector<std::string>{"first", "second"}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace psync::dist
