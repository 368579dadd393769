// The paper's Figure 1 end to end: two task-based applications (a producer
// and a consumer) coordinated by an agent so the producer stays only a few
// iterations ahead. Prints a live ticker of thread splits and pipeline depth.
//
// Usage: ./examples/producer_consumer [seconds] [max_lead] [trace.json]
//   With a third argument, a Chrome trace (chrome://tracing / Perfetto) of
//   the producer runtime's task executions and blocking episodes is written
//   there, and an ASCII timeline is printed.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

#include "agent/agent.hpp"
#include "agent/policies.hpp"
#include "topology/presets.hpp"
#include "trace/trace.hpp"

using namespace numashare;
using namespace std::chrono_literals;

namespace {

void item_work(int cost) {
  volatile double x = 1.0;
  for (int i = 0; i < cost * 2000; ++i) x = x * 1.0000001 + 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 2.0;
  const std::uint64_t max_lead = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 8;
  const char* trace_path = argc > 3 ? argv[3] : nullptr;

  // Bounded capacity: long runs keep the newest prefix and count drops.
  trace::Tracer tracer(1u << 18);
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  rt::Runtime producer(machine,
                       {.name = "producer", .tracer = trace_path ? &tracer : nullptr});
  rt::Runtime consumer(machine, {.name = "consumer"});

  agent::ShmChannel producer_channel, consumer_channel;
  agent::RuntimeAdapter producer_adapter(producer, producer_channel);
  agent::RuntimeAdapter consumer_adapter(consumer, consumer_channel);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> consumed{0};

  // Producer iterations are cheap, consumer iterations cost twice as much —
  // without coordination the producer floods the intermediate storage.
  std::function<void(rt::TaskContext&)> produce = [&](rt::TaskContext& ctx) {
    if (stop.load(std::memory_order_acquire)) return;
    item_work(1);
    produced.fetch_add(1, std::memory_order_relaxed);
    ctx.runtime.report_progress();
    ctx.runtime.spawn(produce);
  };
  std::function<void(rt::TaskContext&)> consume = [&](rt::TaskContext& ctx) {
    if (stop.load(std::memory_order_acquire)) return;
    if (consumed.load(std::memory_order_relaxed) <
        produced.load(std::memory_order_relaxed)) {
      item_work(2);
      consumed.fetch_add(1, std::memory_order_relaxed);
      ctx.runtime.report_progress();
    } else {
      std::this_thread::sleep_for(50us);
    }
    ctx.runtime.spawn(consume);
  };
  for (std::uint32_t i = 0; i < machine.core_count(); ++i) {
    producer.spawn(produce);
    consumer.spawn(consume);
  }

  agent::ProducerConsumerPolicy::Options policy_options;
  policy_options.min_lead = 2;
  policy_options.max_lead = max_lead;
  agent::Agent coordinator(machine,
                           std::make_unique<agent::ProducerConsumerPolicy>(policy_options),
                           {.period_us = 1000});
  coordinator.add_app("producer", producer_channel);
  coordinator.add_app("consumer", consumer_channel);
  producer_adapter.start(500);
  consumer_adapter.start(500);
  coordinator.start();

  std::printf("running the Figure-1 pipeline for %.1f s (lead band [2, %llu])...\n\n",
              seconds, static_cast<unsigned long long>(max_lead));
  std::printf("%8s %12s %12s %8s %16s\n", "t(ms)", "produced", "consumed", "lead",
              "threads P/C");
  const auto start = std::chrono::steady_clock::now();
  while (true) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (elapsed >= seconds) break;
    const auto p = produced.load(std::memory_order_relaxed);
    const auto c = consumed.load(std::memory_order_relaxed);
    std::printf("%8.0f %12llu %12llu %8lld %10u/%u\n", elapsed * 1e3,
                static_cast<unsigned long long>(p), static_cast<unsigned long long>(c),
                static_cast<long long>(p) - static_cast<long long>(c),
                producer.running_threads(), consumer.running_threads());
    std::this_thread::sleep_for(200ms);
  }

  stop.store(true, std::memory_order_release);
  coordinator.stop();
  producer_adapter.stop();
  consumer_adapter.stop();
  producer.wait_idle();
  consumer.wait_idle();

  const auto p = produced.load();
  const auto c = consumed.load();
  std::printf("\nfinal: produced %llu, consumed %llu, residual intermediate %lld\n",
              static_cast<unsigned long long>(p), static_cast<unsigned long long>(c),
              static_cast<long long>(p) - static_cast<long long>(c));
  std::printf("agent sent %llu commands, received %llu telemetry samples\n",
              static_cast<unsigned long long>(coordinator.commands_sent()),
              static_cast<unsigned long long>(coordinator.telemetry_received()));

  if (trace_path != nullptr) {
    if (tracer.write_chrome_json(trace_path)) {
      std::printf("\nwrote Chrome trace to %s (%llu dropped events)\n", trace_path,
                  static_cast<unsigned long long>(tracer.dropped()));
    }
    std::printf("\nproducer runtime timeline (t=task, b=blocked, !=control change):\n%s",
                tracer.ascii_timeline(72).c_str());
  }
  return 0;
}
