#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/ring_channel.h"

namespace tpart {
namespace {

// ---- MpscRing ---------------------------------------------------------

TEST(MpscRingTest, FullAndEmptySingleThread) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(int(i)));
  EXPECT_FALSE(ring.TryPush(99));
  int v;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.TryPop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.TryPop(v));
}

TEST(MpscRingTest, MultiProducerPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 50000;
  MpscRing<std::uint64_t> ring(128);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t tagged =
            (static_cast<std::uint64_t>(p) << 32) | i;
        while (!ring.TryPush(std::uint64_t(tagged))) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::uint64_t> next(kProducers, 0);
  std::uint64_t received = 0;
  while (received < kProducers * kPerProducer) {
    std::uint64_t v;
    if (!ring.TryPop(v)) {
      std::this_thread::yield();
      continue;
    }
    const int p = static_cast<int>(v >> 32);
    const std::uint64_t seq = v & 0xffffffffull;
    ASSERT_EQ(seq, next[p]) << "producer " << p << " reordered";
    ++next[p];
    ++received;
  }
  for (auto& t : producers) t.join();
}

// ---- RingChannel ------------------------------------------------------

TEST(RingChannelTest, SendReceiveBasic) {
  RingChannel<int> ch;
  EXPECT_FALSE(ch.Send(1));  // no spill
  ch.Send(2);
  EXPECT_EQ(ch.size(), 2u);
  EXPECT_EQ(ch.Receive(), 1);
  EXPECT_EQ(ch.Receive(), 2);
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_EQ(ch.high_water(), 2u);
  EXPECT_FALSE(ch.TryReceive().has_value());
}

TEST(RingChannelTest, OverflowSpillKeepsFifo) {
  RingChannel<int> ch(4);  // tiny ring forces the overflow path
  for (int i = 0; i < 100; ++i) {
    if (i >= 4) {
      // Ring full: these must report the spill.
      EXPECT_TRUE(ch.Send(int(i)));
    } else {
      ch.Send(int(i));
    }
  }
  EXPECT_EQ(ch.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ch.Receive(), i);
  // Overflow drained: the fast path is active again.
  EXPECT_FALSE(ch.Send(7));
  EXPECT_EQ(ch.Receive(), 7);
}

TEST(RingChannelTest, ReceiveForTimesOut) {
  RingChannel<int> ch;
  const auto start = std::chrono::steady_clock::now();
  auto r = ch.ReceiveFor(std::chrono::microseconds(20000));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(elapsed, std::chrono::microseconds(19000));
}

TEST(RingChannelTest, ReceiveForGetsLateMessage) {
  RingChannel<int> ch;
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ch.Send(42);
  });
  auto r = ch.ReceiveFor(std::chrono::seconds(5));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  sender.join();
}

// The production shape: several producers hammering one parked/polling
// consumer across ring-full boundaries. Run under TSan this exercises
// the spill path, the Dekker sleep handshake, and the overflow drain.
TEST(RingChannelTest, MultiProducerBlockingConsumer) {
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 25000;
  RingChannel<std::uint64_t> ch(32);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ch.Send((static_cast<std::uint64_t>(p) << 32) | i);
      }
    });
  }
  std::vector<std::uint64_t> next(kProducers, 0);
  for (std::uint64_t n = 0; n < kProducers * kPerProducer; ++n) {
    const std::uint64_t v = ch.Receive();
    const int p = static_cast<int>(v >> 32);
    const std::uint64_t seq = v & 0xffffffffull;
    ASSERT_EQ(seq, next[p]) << "producer " << p << " reordered";
    ++next[p];
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_FALSE(ch.TryReceive().has_value());
}

}  // namespace
}  // namespace tpart
