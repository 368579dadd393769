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

bool join_with_ticks(FailoverClient& client, Daemon& daemon, double& now,
                     const std::function<bool()>& join) {
  bool ok = false;
  std::thread joiner([&] { ok = join(); });
  for (int i = 0; i < 2000 && !client.connected(); ++i) {
    daemon.tick(now += 0.001);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  joiner.join();
  return ok;
}

bool connect_with_ticks(FailoverClient& client, Daemon& daemon, double& now) {
  return join_with_ticks(client, daemon, now, [&client] { return client.connect(); });
}

std::unique_ptr<SimFleet> SimFleet::open(const std::string& registry_name,
                                         std::string* error) {
  auto view = Registry::open(registry_name, error);
  if (view == nullptr) return nullptr;
  return std::unique_ptr<SimFleet>(new SimFleet(std::move(view)));
}

bool SimFleet::claim(const std::string& name, double advertised_ai) {
  const auto claim = view_->claim_slot(name, advertised_ai, agent::kMaxNodes);
  if (!claim) return false;
  Client client;
  client.slot = claim->index;
  client.active_word = next_word(claim->joining_word, SlotState::kActive);
  clients_.push_back(std::move(client));
  return true;
}

bool SimFleet::active(const Client& client) const {
  return view_->slot(client.slot).state_word.load(std::memory_order_acquire) ==
         client.active_word;
}

bool SimFleet::attach_all(std::string* error) {
  for (auto& client : clients_) {
    if (client.channel != nullptr) continue;
    client.channel = agent::ShmChannel::attach(view_->slot(client.slot).channel_name, error);
    if (client.channel == nullptr) return false;
  }
  return true;
}

void SimFleet::heartbeat_all() {
  for (const auto& client : clients_) {
    view_->slot(client.slot).heartbeat.fetch_add(1, std::memory_order_relaxed);
  }
}

void SimFleet::push_telemetry_all(double now) {
  for (auto& client : clients_) {
    agent::Telemetry t;
    t.seq = ++client.seq;
    t.timestamp = now;
    t.tasks_executed = 100 * client.seq;
    t.tasks_spawned = t.tasks_executed;
    t.progress = client.seq;
    t.total_workers = 4;
    t.running_threads = 4;
    t.ai_estimate = 1.0 + static_cast<double>(client.slot % 7);
    client.channel->push_telemetry(t);
  }
}

bool SimFleet::leave(std::size_t index) {
  const Client& client = clients_[index];
  std::uint64_t expected = client.active_word;
  const bool left = view_->slot(client.slot).try_transition(expected, SlotState::kLeaving);
  if (left) raise_attention(view_->header(), client.slot);
  clients_.erase(clients_.begin() + static_cast<std::ptrdiff_t>(index));
  return left;
}

}  // namespace numashare::nsd
