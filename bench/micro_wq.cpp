// micro_wq — google-benchmark microbenchmarks for the Work Queue runtime:
// end-to-end dispatch latency through the master and through a foreman
// hierarchy, with real worker threads.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "wq/foreman.hpp"
#include "wq/master.hpp"
#include "wq/worker.hpp"

namespace wq = lobster::wq;

namespace {
void run_tasks(wq::Master& master, int n) {
  for (int i = 0; i < n; ++i) {
    wq::TaskSpec spec;
    spec.id = static_cast<std::uint64_t>(i);
    spec.work = [](wq::TaskContext&) { return 0; };
    master.submit(std::move(spec));
  }
  master.close_submission();
  int seen = 0;
  while (master.next_result()) ++seen;
  benchmark::DoNotOptimize(seen);
}
}  // namespace

static void BM_MasterDirectDispatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    wq::Master master;
    wq::Worker w0("w0", master, 4);
    run_tasks(master, n);
    w0.join();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("master->worker");
}
BENCHMARK(BM_MasterDirectDispatch)->Arg(1000)->Unit(benchmark::kMillisecond);

static void BM_ForemanHierarchyDispatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    wq::Master master;
    std::vector<std::unique_ptr<wq::Foreman>> foremen;
    std::vector<std::unique_ptr<wq::Worker>> workers;
    for (int f = 0; f < 4; ++f) {
      foremen.push_back(
          std::make_unique<wq::Foreman>(
              std::string("f").append(std::to_string(f)), master, 32));
      workers.push_back(std::make_unique<wq::Worker>(
          std::string("w").append(std::to_string(f)), *foremen.back(), 2));
    }
    run_tasks(master, n);
    for (auto& w : workers) w->join();
    for (auto& f : foremen) f->shutdown();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("master->4 foremen->workers");
}
BENCHMARK(BM_ForemanHierarchyDispatch)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
