#include "common/threading.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace numashare {
namespace {

TEST(Parker, PermitBeforeParkReturnsImmediately) {
  Parker parker;
  parker.unpark();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(parker.park_for_us(5'000'000));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
}

TEST(Parker, UnparkWakesParkedThread) {
  Parker parker;
  std::atomic<bool> woke{false};
  std::thread t([&] {
    EXPECT_TRUE(parker.park_for_us(5'000'000));
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(woke.load());
  parker.unpark();
  t.join();
  EXPECT_TRUE(woke.load());
}

TEST(Parker, ParkForTimesOut) {
  Parker parker;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(parker.park_for_us(2000));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::microseconds(1500));
}

TEST(Parker, ParkForWakesEarly) {
  Parker parker;
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    parker.unpark();
  });
  EXPECT_TRUE(parker.park_for_us(5'000'000));
  waker.join();
}

TEST(Parker, PermitIsConsumedByPark) {
  Parker parker;
  parker.unpark();
  EXPECT_TRUE(parker.park_for_us(1000));   // consumes the permit
  EXPECT_FALSE(parker.park_for_us(1000)); // second park must wait
}

TEST(Parker, MultipleUnparksCoalesce) {
  Parker parker;
  parker.unpark();
  parker.unpark();  // still a single permit
  EXPECT_TRUE(parker.park_for_us(1000));
  EXPECT_FALSE(parker.park_for_us(1000));
}

TEST(ThreadName, SetNameDoesNotCrash) {
  set_current_thread_name("numashare-test-with-a-long-name");
  SUCCEED();
}

}  // namespace
}  // namespace numashare
