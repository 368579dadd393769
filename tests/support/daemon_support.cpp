#include "support/daemon_support.hpp"

#include <unistd.h>

#include <chrono>
#include <thread>

namespace numashare::nsd {

namespace {

std::string unique_stem(const std::string& tag) {
  static int counter = 0;
  return "numashare-test-" + tag + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++);
}

}  // namespace

std::string unique_registry(const std::string& tag) { return "/" + unique_stem(tag); }

std::string unique_journal(const std::string& tag) {
  return "/tmp/" + unique_stem(tag) + ".jsonl";
}

std::size_t count_events(const std::vector<JournalEntry>& entries, const std::string& event) {
  std::size_t n = 0;
  for (const auto& entry : entries) n += entry.event == event ? 1 : 0;
  return n;
}

bool connect_with_ticks(DaemonClient& client, Daemon& daemon, double& now) {
  bool ok = false;
  std::thread joiner([&] { ok = client.connect(); });
  for (int i = 0; i < 2000 && !client.connected(); ++i) {
    daemon.tick(now += 0.001);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  joiner.join();
  return ok;
}

}  // namespace numashare::nsd
