// E6 — Figure 1: the agent architecture on live runtimes.
//
// Two task-based applications (producer + consumer) co-run; the agent keeps
// the producer "only ahead by a small number of iterations" by shifting
// thread targets. Reproduced claim (the paper's ref [10] result): a large
// reduction in intermediate data with only marginal throughput change.
#include <atomic>
#include <chrono>
#include <thread>

#include "agent/agent.hpp"
#include "agent/policies.hpp"
#include "bench_support.hpp"
#include "common/table.hpp"
#include "topology/presets.hpp"

namespace {

using namespace numashare;
using namespace std::chrono_literals;

struct PipelineResult {
  double produced_per_s = 0.0;
  double consumed_per_s = 0.0;
  std::uint64_t peak_intermediate = 0;
  double mean_intermediate = 0.0;
};

/// Spin-work sized so a single iteration is ~tens of microseconds.
void busy_work(std::uint32_t units) {
  volatile double x = 1.0;
  for (std::uint32_t i = 0; i < units * 2000; ++i) x = x * 1.0000001 + 1e-9;
}

PipelineResult run_pipeline(bool coordinated, double seconds) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  rt::Runtime producer(machine, {.name = "producer"});
  rt::Runtime consumer(machine, {.name = "consumer"});

  agent::ShmChannel chp, chc;
  agent::RuntimeAdapter adp(producer, chp), adc(consumer, chc);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> consumed{0};

  // Producer: each iteration is one task; the producer's work per item is
  // half the consumer's, so unmanaged it runs away.
  std::function<void(rt::TaskContext&)> produce = [&](rt::TaskContext& ctx) {
    if (stop.load(std::memory_order_acquire)) return;
    busy_work(1);
    produced.fetch_add(1, std::memory_order_relaxed);
    ctx.runtime.report_progress();
    ctx.runtime.spawn(produce);
  };
  std::function<void(rt::TaskContext&)> consume = [&](rt::TaskContext& ctx) {
    if (stop.load(std::memory_order_acquire)) return;
    if (consumed.load(std::memory_order_relaxed) < produced.load(std::memory_order_relaxed)) {
      busy_work(2);
      consumed.fetch_add(1, std::memory_order_relaxed);
      ctx.runtime.report_progress();
    } else {
      std::this_thread::sleep_for(50us);  // starved; wait for stock
    }
    ctx.runtime.spawn(consume);
  };
  for (std::uint32_t i = 0; i < machine.core_count(); ++i) {
    producer.spawn(produce);
    consumer.spawn(consume);
  }

  agent::ProducerConsumerPolicy::Options options;
  options.min_lead = 2;
  options.max_lead = 8;
  std::unique_ptr<agent::Agent> the_agent;
  if (coordinated) {
    the_agent = std::make_unique<agent::Agent>(
        machine, std::make_unique<agent::ProducerConsumerPolicy>(options),
        agent::AgentOptions{.period_us = 1000});
    the_agent->add_app("producer", chp);
    the_agent->add_app("consumer", chc);
    adp.start(500);
    adc.start(500);
    the_agent->start();
  }

  // Sample the intermediate-data depth while the pipeline runs.
  std::uint64_t peak = 0;
  double depth_sum = 0.0;
  std::uint64_t samples = 0;
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() <
         seconds) {
    const auto p = produced.load(std::memory_order_relaxed);
    const auto c = consumed.load(std::memory_order_relaxed);
    const std::uint64_t depth = p > c ? p - c : 0;
    peak = std::max(peak, depth);
    depth_sum += static_cast<double>(depth);
    ++samples;
    std::this_thread::sleep_for(1ms);
  }
  stop.store(true, std::memory_order_release);
  if (the_agent) the_agent->stop();
  adp.stop();
  adc.stop();
  producer.wait_idle();
  consumer.wait_idle();

  PipelineResult result;
  result.produced_per_s = static_cast<double>(produced.load()) / seconds;
  result.consumed_per_s = static_cast<double>(consumed.load()) / seconds;
  result.peak_intermediate = peak;
  result.mean_intermediate = samples ? depth_sum / static_cast<double>(samples) : 0.0;
  return result;
}

void reproduce() {
  bench::print_header("E6 / Figure 1",
                      "agent-coordinated producer/consumer vs uncoordinated baseline");
  const double seconds = 0.6;
  const auto baseline = run_pipeline(/*coordinated=*/false, seconds);
  const auto managed = run_pipeline(/*coordinated=*/true, seconds);

  TextTable table({"metric", "uncoordinated", "agent-coordinated"});
  table.add_row({"items consumed /s", fmt_fixed(baseline.consumed_per_s, 0),
                 fmt_fixed(managed.consumed_per_s, 0)});
  table.add_row({"items produced /s", fmt_fixed(baseline.produced_per_s, 0),
                 fmt_fixed(managed.produced_per_s, 0)});
  table.add_row({"peak intermediate items", fmt_compact(double(baseline.peak_intermediate)),
                 fmt_compact(double(managed.peak_intermediate))});
  table.add_row({"mean intermediate items", fmt_fixed(baseline.mean_intermediate, 1),
                 fmt_fixed(managed.mean_intermediate, 1)});
  std::printf("%s", table.render().c_str());

  bench::print_section("paper claims ([10], cited in §II)");
  const double reduction = baseline.mean_intermediate > 0
                               ? (1.0 - managed.mean_intermediate /
                                            baseline.mean_intermediate) * 100.0
                               : 0.0;
  std::printf("  intermediate data reduced by %.0f%% (paper: 'clear benefit on storage')\n",
              reduction);
  const double throughput_delta =
      baseline.consumed_per_s > 0
          ? (managed.consumed_per_s / baseline.consumed_per_s - 1.0) * 100.0
          : 0.0;
  std::printf("  consumer throughput delta: %+.1f%% (paper: 'only marginal (a few "
              "percent) improvement ... in some cases no measurable improvement')\n",
              throughput_delta);
}

void BM_AgentTick(benchmark::State& state) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  rt::Runtime app(machine, {.name = "tick"});
  agent::ShmChannel channel;
  agent::RuntimeAdapter adapter(app, channel);
  agent::Agent the_agent(machine, std::make_unique<agent::FairSharePolicy>());
  the_agent.add_app("tick", channel);
  double now = 0.0;
  for (auto _ : state) {
    adapter.pump();
    benchmark::DoNotOptimize(the_agent.step(now += 0.001));
  }
}
BENCHMARK(BM_AgentTick);

void BM_TelemetryRoundTrip(benchmark::State& state) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  rt::Runtime app(machine, {.name = "rt"});
  agent::ShmChannel channel;
  agent::RuntimeAdapter adapter(app, channel);
  for (auto _ : state) {
    adapter.pump();
    benchmark::DoNotOptimize(channel.pop_telemetry());
  }
}
BENCHMARK(BM_TelemetryRoundTrip);

}  // namespace

NUMASHARE_BENCH_MAIN(reproduce)
