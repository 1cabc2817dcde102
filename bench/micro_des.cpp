// micro_des — google-benchmark microbenchmarks for the DES kernel: raw
// event throughput, coroutine process churn, resource handoff, and
// fair-share bandwidth-link flow churn (the hot path of the 10k-core runs).
//
// All timed regions measure sim.run() only — scenario setup (scheduling the
// event burst, spawning the processes) happens outside the measurement, so
// the numbers are steady-state kernel throughput, not allocator warm-up.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "des/bandwidth.hpp"
#include "des/resource.hpp"
#include "des/simulation.hpp"
#include "util/rng.hpp"

namespace des = lobster::des;
namespace lu = lobster::util;

static void BM_EventScheduling(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    des::Simulation sim;
    int sink = 0;
    for (int i = 0; i < 10000; ++i)
      sim.schedule(static_cast<double>(i % 97), [&sink] { ++sink; });
    state.ResumeTiming();
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventScheduling);

namespace {
des::Process ticker(des::Simulation& sim, int ticks) {
  for (int i = 0; i < ticks; ++i) co_await sim.delay(1.0);
}
}  // namespace

static void BM_CoroutineProcesses(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    des::Simulation sim;
    for (int i = 0; i < n; ++i) sim.spawn(ticker(sim, 20));
    state.ResumeTiming();
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * n * 20);
}
BENCHMARK(BM_CoroutineProcesses)->Arg(100)->Arg(1000);

namespace {
des::Process resource_user(des::Simulation& sim, des::Resource& res) {
  for (int i = 0; i < 10; ++i) {
    auto token = co_await res.acquire();
    co_await sim.delay(0.5);
  }
}
}  // namespace

static void BM_ResourceHandoff(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    des::Simulation sim;
    des::Resource res(sim, 4);
    for (int i = 0; i < 64; ++i) sim.spawn(resource_user(sim, res));
    state.ResumeTiming();
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 64 * 10);
}
BENCHMARK(BM_ResourceHandoff);

namespace {
des::Process transfer_proc(des::BandwidthLink& link, double bytes) {
  co_await link.transfer(bytes);
}
}  // namespace

static void BM_BandwidthFlowChurn(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  lu::Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    des::Simulation sim;
    des::BandwidthLink link(sim, 1e9);
    for (int i = 0; i < flows; ++i) {
      const double at = rng.uniform(0.0, 10.0);
      const double bytes = rng.uniform(1e6, 1e8);
      sim.schedule(at, [&sim, &link, bytes] {
        sim.spawn(transfer_proc(link, bytes));
      });
    }
    state.ResumeTiming();
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_BandwidthFlowChurn)->Arg(100)->Arg(1000)->Arg(4000);

BENCHMARK_MAIN();
