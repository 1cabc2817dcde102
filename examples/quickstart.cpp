// quickstart — the smallest end-to-end Lobster workflow, on real components:
//
//   1. publish a synthetic dataset in the Dataset Bookkeeping Service;
//   2. decompose it into tasklets (paper §4.1);
//   3. configure a workflow from the INI format users write;
//   4. run the Scheduler against a real thread-based Work Queue master with
//      two 4-slot workers: analysis payloads fetch "software" through a
//      squid-backed alien Parrot cache, resolve inputs through the XrootD
//      redirector, and stage outputs into a real Chirp server;
//   5. merge the outputs (interleaved mode) and print the run report.
//
// Build: cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "chirp/chirp.hpp"
#include "core/scheduler.hpp"
#include "cvmfs/parrot_cache.hpp"
#include "cvmfs/repository.hpp"
#include "cvmfs/squid.hpp"
#include "dbs/dbs.hpp"
#include "util/units.hpp"
#include "wq/worker.hpp"
#include "xrootd/federation.hpp"

using namespace lobster;

int main() {
  std::puts("== Lobster quickstart ==\n");

  // --- the data tier -------------------------------------------------------
  dbs::DatasetBookkeeping bookkeeping;
  dbs::SyntheticDatasetSpec dataset_spec;
  dataset_spec.name = "/SingleMu/Quickstart/AOD";
  dataset_spec.num_files = 12;
  dataset_spec.mean_file_bytes = util::mb(800);
  bookkeeping.publish(dbs::make_synthetic_dataset(dataset_spec,
                                                  util::Rng(42)));

  xrootd::RedirectorTable redirector;
  auto site = std::make_shared<xrootd::SiteStore>("T2_US_Quickstart");
  for (const auto& file : bookkeeping.files(dataset_spec.name)) {
    site->put(file.lfn, file.size_bytes);
    redirector.add_replica(file.lfn, site->name());
  }

  // --- the software tier: CVMFS release behind a squid proxy ---------------
  cvmfs::ReleaseSpec release_spec;
  release_spec.num_files = 200;
  release_spec.total_bytes = util::mb(600);
  release_spec.working_set_bytes = util::mb(150);
  const cvmfs::Release release(release_spec, util::Rng(7));
  cvmfs::SquidProxy squid(util::gb(2), [](const cvmfs::FileObject& obj) {
    return cvmfs::digest_of(obj.path, obj.size_bytes);  // stratum server
  });
  cvmfs::CacheGroup node_cache(cvmfs::CacheMode::Alien, squid.as_fetcher());

  // --- the output tier: a Chirp server with a scoped write ticket ----------
  chirp::ChirpServer chirp_server;
  const auto ticket = chirp_server.issue_ticket(
      "/store/user/quickstart", chirp::Rights::Read | chirp::Rights::Write |
                                    chirp::Rights::List);

  // Analysis tasks name their Chirp output after their first tasklet.
  const auto chirp_output = [](std::uint64_t first_tasklet) {
    return std::string("/store/user/quickstart/task_")
        .append(std::to_string(first_tasklet))
        .append(".root");
  };

  // --- the workflow --------------------------------------------------------
  const auto ini = util::Config::parse(R"(
[workflow]
label = quickstart
dataset = /SingleMu/Quickstart/AOD
lumis_per_tasklet = 8
tasklets_per_task = 4
task_buffer = 16
merge = interleaved
merge_size = 40MB
)");
  auto config = core::WorkflowConfig::from_config(ini);

  const auto dataset = bookkeeping.query(config.dataset);
  if (!dataset) {
    std::fprintf(stderr, "unknown dataset %s\n", config.dataset.c_str());
    return 1;
  }
  auto tasklets = core::decompose(
      *dataset, {.lumis_per_tasklet = config.lumis_per_tasklet,
                 .output_ratio = config.output_ratio});
  std::printf("dataset %s: %zu files, %s -> %zu tasklets\n\n",
              dataset->name.c_str(), dataset->files.size(),
              util::format_bytes(dataset->total_bytes()).c_str(),
              tasklets.size());

  // Analysis payload: touch the software working set through the node
  // cache, resolve and "read" the input, write the (reduced) output to
  // Chirp.  All segments are timed by the wrapper.
  core::AnalysisPayload analysis =
      [&](const std::vector<core::Tasklet>& group) {
        double input_bytes = 0.0, output_bytes = 0.0;
        std::string lfn = group.front().input_lfn;
        std::uint64_t first_id = group.front().id;
        for (const auto& t : group) {
          input_bytes += t.input_bytes;
          output_bytes += t.expected_output_bytes;
        }
        return core::WrapperStages{
            .setup_environment =
                [&, seed = first_id](wq::TaskContext&) {
                  auto instance = node_cache.make_instance();
                  util::Rng rng(seed);
                  for (const auto& obj : release.sample_working_set(rng))
                    instance.access(obj);
                  return true;
                },
            .stage_in =
                [&, lfn](wq::TaskContext&) {
                  xrootd::Client client(redirector);
                  client.attach_site(site);
                  return client.read(lfn).second > 0.0;
                },
            .execute =
                [output_bytes, n = group.size()](wq::TaskContext& ctx) {
                  // Stand-in for the physics: a few ms per tasklet,
                  // cancellable at tasklet boundaries like CMSSW events.
                  for (std::size_t i = 0; i < n; ++i) {
                    if (ctx.cancel.cancelled()) return 1;
                    std::this_thread::sleep_for(std::chrono::milliseconds(5));
                  }
                  char buf[32];
                  std::snprintf(buf, sizeof buf, "%.0f", output_bytes);
                  ctx.outputs[core::wrapper_keys::kOutputBytes] = buf;
                  return 0;
                },
            .stage_out =
                [&, first_id, output_bytes](wq::TaskContext&) {
                  auto session = chirp_server.connect(ticket);
                  session.put(chirp_output(first_id),
                              std::string(static_cast<std::size_t>(
                                              output_bytes / 1e4),
                                          'x'));
                  return true;
                },
        };
      };

  // Merge payload: concatenate the group's outputs inside Chirp.  The
  // scheduler builds it on its own thread, where the Lobster DB may be read
  // (`db` is set once the scheduler exists); the merge runs on a worker.
  const core::Db* db = nullptr;
  std::map<std::string, std::vector<std::string>> merge_inputs;
  core::MergePayload merge = [&](const core::MergeGroup& group,
                                 const std::vector<core::OutputRecord>& outs) {
    std::vector<std::string>& inputs = merge_inputs[group.merged_path];
    for (const auto& out : outs)
      inputs.push_back(chirp_output(db->task(out.task_id).tasklets.front()));
    return core::WrapperStages{
        .execute =
            [&, merged = group.merged_path, inputs](wq::TaskContext&) {
              auto session = chirp_server.connect(ticket);
              std::string content;
              for (const auto& in : inputs) content += session.get(in);
              session.put(std::string("/store/user/quickstart/").append(merged),
                          std::move(content));
              return 0;
            },
    };
  };

  // --- run ------------------------------------------------------------------
  core::Scheduler scheduler(config, analysis, merge);
  db = &scheduler.db();
  wq::Master master;
  wq::Worker w1("campus-node-1", master, 4);
  wq::Worker w2("campus-node-2", master, 4);
  const auto report = scheduler.run(master, std::move(tasklets));
  w1.join();
  w2.join();

  std::printf("tasklets processed : %zu / %zu\n", report.tasklets_processed,
              report.tasklets_total);
  std::printf("analysis tasks     : %zu\n", report.analysis_tasks);
  std::printf("merge tasks        : %zu -> %zu merged files\n",
              report.merge_tasks, report.merged_files.size());
  std::printf("chirp server holds : %zu files, %s written\n",
              chirp_server.num_files(),
              util::format_bytes(chirp_server.bytes_in()).c_str());
  std::printf("squid proxy        : %llu hits / %llu misses\n",
              static_cast<unsigned long long>(squid.hits()),
              static_cast<unsigned long long>(squid.misses()));
  const auto& b = report.breakdown;
  std::printf("wall time split    : cpu+io %.2fs, staging %.2fs, other %.2fs\n",
              b.cpu + b.io, b.stage_in + b.stage_out, b.other);

  const auto diags = scheduler.monitor().diagnose();
  if (diags.empty()) {
    std::puts("advisor            : no bottlenecks detected");
  } else {
    for (const auto& d : diags)
      std::printf("advisor            : %s -> %s\n", d.symptom.c_str(),
                  d.advice.c_str());
    std::puts("                     (toy-scale tasks: overheads dominate by"
              " construction)");
  }

  // Each merged file must hold exactly the bytes of the outputs it merged.
  bool merges_ok = true;
  auto session = chirp_server.connect(ticket);
  for (const auto& merged : report.merged_files) {
    std::uint64_t inputs = 0;
    for (const auto& in : merge_inputs.at(merged))
      inputs += session.stat(in).size;
    const std::uint64_t size =
        session.stat(std::string("/store/user/quickstart/").append(merged))
            .size;
    if (size != inputs) {
      std::fprintf(stderr, "merged file %s holds %llu bytes, its inputs %llu\n",
                   merged.c_str(), static_cast<unsigned long long>(size),
                   static_cast<unsigned long long>(inputs));
      merges_ok = false;
    }
  }

  // Persist the Lobster DB: `lobster_report quickstart_journal.jsonl`
  // drills into it offline, and Scheduler::resume() can continue from it.
  scheduler.db().save_journal("quickstart_journal.jsonl");
  std::puts("journal written    : quickstart_journal.jsonl "
            "(inspect with tools/lobster_report)");
  return report.tasklets_processed == report.tasklets_total && merges_ok ? 0
                                                                      : 1;
}
