// Tests for the structured tracing layer (util/trace): format round trips,
// structural validation, the counter plane, trace replay into TaskRecords,
// and the engine-level determinism contract — a traced run must produce the
// same trace bytes no matter which campaign thread executed it, and the
// trace must reconstruct the Figure 8 breakdown exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "core/trace_replay.hpp"
#include "lobsim/campaign.hpp"
#include "util/trace.hpp"

namespace util = lobster::util;
namespace core = lobster::core;
namespace lobsim = lobster::lobsim;

namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "lobster_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A Tracer on a hand-set clock writing an in-memory trace: tests move `t`
/// between calls and drive events through the public API.
struct ManualTrace {
  explicit ManualTrace(util::TraceFormat format = util::TraceFormat::Jsonl) {
    tracer.bind_clock(&t);
    tracer.open(format, "");
  }
  /// Close the (JSONL) trace and parse it back.
  std::vector<util::TraceEvent> events() {
    tracer.close();
    return util::parse_trace_jsonl(tracer.buffer());
  }

  double t = 0.0;
  util::Tracer tracer;
};

lobsim::RunSpec tiny_spec(std::uint64_t seed = 2015) {
  lobsim::RunSpec spec;
  spec.label = "traced";
  spec.seed = seed;
  spec.cluster.target_cores = 32;
  spec.cluster.cores_per_worker = 8;
  spec.cluster.ramp_seconds = 60.0;
  spec.cluster.evictions = true;
  spec.workload.num_tasklets = 120;
  spec.workload.tasklets_per_task = 6;
  spec.workload.tasklet_cpu_mean = 600.0;
  spec.workload.tasklet_cpu_sigma = 120.0;
  spec.time_cap = 10.0 * 86400.0;
  spec.metric_bin_seconds = 3600.0;
  return spec;
}

/// tiny_spec grown into the fig10 outage shape with the stealing policy
/// and the advisor on: a WAN outage mid-run fails streaming tasks, a bursty
/// second site and a calm third one leave backlogs to steal from, and the
/// advisor ticks (and acts) on the failure burst.
lobsim::RunSpec tiny_stealing_outage_spec() {
  lobsim::RunSpec spec = tiny_spec();
  spec.label = "stealing-outage";
  spec.workload.num_tasklets = 360;
  spec.workload.dispatch = lobsim::DispatchMode::Stealing;
  spec.workload.steal_min_backlog = 6;
  lobsim::SiteParams bursty;
  bursty.name = "bursty";
  bursty.target_cores = 32;
  bursty.ramp_seconds = 60.0;
  bursty.availability.kind = lobsim::AvailabilityKind::AdversarialBurst;
  bursty.availability.scale_hours = 2.0;
  bursty.availability.burst_period_hours = 1.0;
  bursty.availability.burst_fraction = 0.8;
  lobsim::SiteParams calm;
  calm.name = "calm";
  calm.target_cores = 16;
  calm.ramp_seconds = 60.0;
  calm.evictions = false;
  spec.cluster.extra_sites = {bursty, calm};
  spec.outage_start = 3600.0;
  spec.outage_duration = 1800.0;
  spec.advisor.enabled = true;
  return spec;
}

/// The three views of a run's task outcomes agree: every EngineMetrics
/// outcome field equals its lobsim.* counter in the trace's final snapshot
/// (an unregistered counter reads 0), and core::Monitor counts the same
/// failures and evictions.
void expect_outcome_views_agree(
    const lobsim::EngineMetrics& m,
    const std::vector<std::pair<std::string, double>>& final_counters) {
  const std::map<std::string, double> counters(final_counters.begin(),
                                               final_counters.end());
  const auto counter = [&counters](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  const std::pair<const char*, double> fields[] = {
      {"lobsim.engine.tasks_completed", static_cast<double>(m.tasks_completed)},
      {"lobsim.engine.tasks_failed", static_cast<double>(m.tasks_failed)},
      {"lobsim.engine.tasks_evicted", static_cast<double>(m.tasks_evicted)},
      {"lobsim.engine.merge_tasks_completed",
       static_cast<double>(m.merge_tasks_completed)},
      {"lobsim.engine.tasklets_processed",
       static_cast<double>(m.tasklets_processed)},
      {"lobsim.engine.tasklets_retried",
       static_cast<double>(m.tasklets_retried)},
      {"lobsim.steal.attempts", static_cast<double>(m.steal_attempts)},
      {"lobsim.steal.tasks", static_cast<double>(m.steal_tasks)},
      {"lobsim.steal.bytes_penalty", m.steal_bytes_penalty},
      {"lobsim.advisor.ticks", static_cast<double>(m.advisor_ticks)},
      {"lobsim.advisor.shrinks", static_cast<double>(m.advisor_shrinks)},
      {"lobsim.advisor.throttles", static_cast<double>(m.advisor_throttles)},
      {"lobsim.advisor.drains", static_cast<double>(m.advisor_drains)},
      {"lobsim.advisor.restores", static_cast<double>(m.advisor_restores)},
  };
  for (const auto& [name, value] : fields)
    EXPECT_EQ(counter(name), value) << name;
  EXPECT_EQ(m.monitor.tasks_failed(), m.tasks_failed);
  EXPECT_EQ(m.monitor.tasks_evicted(), m.tasks_evicted);
  // Every slot-run task (analysis and merge) reaches the Monitor once.
  EXPECT_EQ(m.monitor.tasks_seen(), m.tasks_completed + m.tasks_failed +
                                        m.tasks_evicted +
                                        m.merge_tasks_completed);
}

bool has_counter_prefix(
    const std::vector<std::pair<std::string, double>>& counters,
    const std::string& prefix) {
  for (const auto& sample : counters)
    if (sample.first.rfind(prefix, 0) == 0) return true;
  return false;
}

}  // namespace

// ------------------------------------------------------------ format names ----

TEST(TraceFormat, NamesAndExtensionsRoundTrip) {
  EXPECT_STREQ(util::to_string(util::TraceFormat::Jsonl), "jsonl");
  EXPECT_STREQ(util::to_string(util::TraceFormat::Chrome), "chrome");
  EXPECT_STREQ(util::trace_extension(util::TraceFormat::Jsonl), ".jsonl");
  EXPECT_STREQ(util::trace_extension(util::TraceFormat::Chrome), ".json");
  EXPECT_EQ(util::parse_trace_format("jsonl"), util::TraceFormat::Jsonl);
  EXPECT_EQ(util::parse_trace_format("chrome"), util::TraceFormat::Chrome);
  EXPECT_THROW(util::parse_trace_format("perfetto"), std::invalid_argument);
}

// ------------------------------------------------------------ JSONL output ----

TEST(JsonlSink, EventsRoundTripThroughParser) {
  ManualTrace tr;
  tr.t = 1.5;
  {
    util::Span span = tr.tracer.span("task", "analysis", 7);
    tr.t = 2.5;
    span.arg("cpu", 0.75);
    span.arg("exit", 0.0);
  }
  tr.t = 3.0;
  tr.tracer.instant("lobsim", "task_failed", 0, {{"exit", 211.0}});
  tr.t = 4.0;
  tr.tracer.counter("lobsim.engine.tasks_completed", 42.0);

  const auto events = tr.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[0].cat, "task");
  EXPECT_EQ(events[0].name, "analysis");
  EXPECT_EQ(events[0].track, 7u);
  EXPECT_EQ(events[0].t, 1.5);
  EXPECT_EQ(events[1].phase, 'E');
  EXPECT_EQ(events[1].arg("cpu", -1.0), 0.75);
  EXPECT_EQ(events[1].arg("exit", -1.0), 0.0);
  EXPECT_EQ(events[1].arg("missing", -1.0), -1.0);
  EXPECT_EQ(events[2].phase, 'i');
  EXPECT_EQ(events[2].arg("exit"), 211.0);
  EXPECT_EQ(events[3].phase, 'C');
  EXPECT_EQ(events[3].name, "lobsim.engine.tasks_completed");
  EXPECT_EQ(events[3].value, 42.0);
  EXPECT_TRUE(util::validate_trace(events).empty());
}

TEST(JsonlSink, DoublesSurviveExactly) {
  ManualTrace tr;
  const double awkward = 0.1 + 0.2;  // not representable prettily
  tr.t = awkward;
  tr.tracer.counter("x", 1.0 / 3.0);
  const auto events = tr.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].t, awkward);  // bitwise, thanks to %.17g
  EXPECT_EQ(events[0].value, 1.0 / 3.0);
}

TEST(JsonlSink, EscapesQuotesAndBackslashes) {
  ManualTrace tr;
  {
    util::Span span = tr.tracer.span("cat\"x", "na\\me", 0);
    tr.t = 1.0;
  }
  const auto events = tr.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].cat, "cat\"x");
  EXPECT_EQ(events[0].name, "na\\me");
  EXPECT_TRUE(util::validate_trace(events).empty());
}

TEST(JsonlSink, ParserRejectsGarbage) {
  EXPECT_THROW(util::parse_trace_jsonl("not json\n"), std::runtime_error);
  EXPECT_THROW(util::parse_trace_jsonl("{\"ev\":\"B\",\"t\":}\n"),
               std::runtime_error);
  EXPECT_THROW(util::read_trace_jsonl("/nonexistent/trace.jsonl"),
               std::runtime_error);
}

// ----------------------------------------------------------- Chrome output ----

TEST(ChromeSink, ProducesTraceEventArray) {
  ManualTrace tr(util::TraceFormat::Chrome);
  tr.t = 1.0;
  {
    util::Span span = tr.tracer.span("task", "analysis", 3);
    tr.t = 2.0;
    span.arg("cpu", 1.5);
  }
  tr.t = 2.5;
  tr.tracer.instant("xrootd", "outage_begin");
  tr.t = 3.0;
  tr.tracer.counter("lobsim.engine.running_tasks", 17.0);
  tr.tracer.close();

  const std::string& buf = tr.tracer.buffer();
  EXPECT_EQ(buf.rfind("{\"traceEvents\":[", 0), 0u) << buf;
  EXPECT_NE(buf.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(buf.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(buf.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(buf.find("\"ph\":\"C\""), std::string::npos);
  // Microsecond timestamps: 1.0 s -> 1e6 us.
  EXPECT_NE(buf.find("\"ts\":1000000"), std::string::npos);
  // Balanced JSON tail.
  ASSERT_GE(buf.size(), 3u);
  EXPECT_EQ(buf.substr(buf.size() - 3), "]}\n")
      << "tail: " << buf.substr(buf.size() - 8);
}

// ------------------------------------------------------------ pinned bytes ----

namespace {

/// One fixed event sequence, written in `format`: nested spans, a span with
/// 12 args, instants with and without args, counters, escaped names and the
/// awkward double 0.1 + 0.2.
std::string pinned_sequence(util::TraceFormat format) {
  ManualTrace tr(format);
  const double awkward = 0.1 + 0.2;
  tr.t = 0.25;
  util::Span outer = tr.tracer.span("task", "analysis", 7);
  tr.t = awkward;
  util::Span inner = tr.tracer.span("segment", "execute", 7);
  tr.t = 1.0;
  tr.tracer.instant("lobsim", "marker");
  tr.t = 1.25;
  tr.tracer.instant("lobsim", "task_failed", 3,
                    {{"exit", 211.0}, {"ratio", 1.0 / 3.0}});
  tr.t = 1.5;
  inner.arg("cpu", awkward);
  inner.end();
  tr.t = 2.0;
  tr.tracer.counter("lobsim.engine.running_tasks", 17.0);
  tr.t = 2.5;
  {
    util::Span wide = tr.tracer.span("task", "merge", 1ULL << 40);
    const char* keys[] = {"a0", "a1", "a2", "a3", "a4",  "a5",
                          "a6", "a7", "a8", "a9", "a10", "a11"};
    const double values[] = {0.0,    -2.5,   1e-300, 1e21,    123456789.125,
                             0.1,    1e-7,   -0.0,   4503599627370497.0,
                             2.0 / 3.0, 1e100, 5e-324};
    for (std::size_t i = 0; i < 12; ++i) wide.arg(keys[i], values[i]);
    tr.t = 3.0;
  }
  tr.t = 3.5;
  {
    util::Span esc = tr.tracer.span("cat\"q", "na\\me", 0);
    esc.arg("k\"ey", 1.0);
    tr.t = 3.75;
  }
  tr.t = 4.0;
  outer.end();
  tr.tracer.counter("x", awkward);
  tr.tracer.close();
  return tr.tracer.buffer();
}

}  // namespace

TEST(TraceBytes, PinnedJsonlAndChrome) {
  // Captured from the two-sink writer this one replaced: a writer change
  // must leave trace files byte-identical.
  const std::string jsonl =
R"pin({"ev":"B","t":0.25,"track":7,"cat":"task","name":"analysis"}
{"ev":"B","t":0.30000000000000004,"track":7,"cat":"segment","name":"execute"}
{"ev":"i","t":1,"track":0,"cat":"lobsim","name":"marker"}
{"ev":"i","t":1.25,"track":3,"cat":"lobsim","name":"task_failed","args":{"exit":211,"ratio":0.33333333333333331}}
{"ev":"E","t":1.5,"track":7,"cat":"segment","name":"execute","args":{"cpu":0.30000000000000004}}
{"ev":"C","t":2,"track":0,"name":"lobsim.engine.running_tasks","value":17}
{"ev":"B","t":2.5,"track":1099511627776,"cat":"task","name":"merge"}
{"ev":"E","t":3,"track":1099511627776,"cat":"task","name":"merge","args":{"a0":0,"a1":-2.5,"a2":1e-300,"a3":1e+21,"a4":123456789.125,"a5":0.10000000000000001,"a6":9.9999999999999995e-08,"a7":-0,"a8":4503599627370497,"a9":0.66666666666666663,"a10":1e+100,"a11":4.9406564584124654e-324}}
{"ev":"B","t":3.5,"track":0,"cat":"cat\"q","name":"na\\me"}
{"ev":"E","t":3.75,"track":0,"cat":"cat\"q","name":"na\\me","args":{"k\"ey":1}}
{"ev":"E","t":4,"track":7,"cat":"task","name":"analysis"}
{"ev":"C","t":4,"track":0,"name":"x","value":0.30000000000000004}
)pin";
  const std::string chrome =
R"pin({"traceEvents":[
{"ph":"B","ts":250000,"pid":0,"tid":7,"cat":"task","name":"analysis"},
{"ph":"B","ts":300000.00000000006,"pid":0,"tid":7,"cat":"segment","name":"execute"},
{"ph":"i","ts":1000000,"pid":0,"tid":0,"cat":"lobsim","name":"marker","s":"t"},
{"ph":"i","ts":1250000,"pid":0,"tid":3,"cat":"lobsim","name":"task_failed","s":"t","args":{"exit":211,"ratio":0.33333333333333331}},
{"ph":"E","ts":1500000,"pid":0,"tid":7,"cat":"segment","name":"execute","args":{"cpu":0.30000000000000004}},
{"ph":"C","ts":2000000,"pid":0,"tid":0,"cat":"counter","name":"lobsim.engine.running_tasks","args":{"value":17}},
{"ph":"B","ts":2500000,"pid":0,"tid":1099511627776,"cat":"task","name":"merge"},
{"ph":"E","ts":3000000,"pid":0,"tid":1099511627776,"cat":"task","name":"merge","args":{"a0":0,"a1":-2.5,"a2":1e-300,"a3":1e+21,"a4":123456789.125,"a5":0.10000000000000001,"a6":9.9999999999999995e-08,"a7":-0,"a8":4503599627370497,"a9":0.66666666666666663,"a10":1e+100,"a11":4.9406564584124654e-324}},
{"ph":"B","ts":3500000,"pid":0,"tid":0,"cat":"cat\"q","name":"na\\me"},
{"ph":"E","ts":3750000,"pid":0,"tid":0,"cat":"cat\"q","name":"na\\me","args":{"k\"ey":1}},
{"ph":"E","ts":4000000,"pid":0,"tid":7,"cat":"task","name":"analysis"},
{"ph":"C","ts":4000000,"pid":0,"tid":0,"cat":"counter","name":"x","args":{"value":0.30000000000000004}}
]}
)pin";
  EXPECT_EQ(pinned_sequence(util::TraceFormat::Jsonl), jsonl);
  EXPECT_EQ(pinned_sequence(util::TraceFormat::Chrome), chrome);
}

// ---------------------------------------------------------- tracer lifecycle ----

TEST(Tracer, DisabledTracerRecordsNothing) {
  double t = 1.0;
  util::Tracer tracer;
  tracer.bind_clock(&t);
  EXPECT_FALSE(tracer.enabled());
  {
    util::Span span = tracer.span("task", "analysis", 1);
    EXPECT_FALSE(span);
    span.arg("cpu", 1.0);
  }
  tracer.instant("lobsim", "marker", 0, {{"exit", 1.0}});
  tracer.counter("x", 1.0);
  tracer.close();  // nothing open: no-op
  EXPECT_TRUE(tracer.buffer().empty());
}

TEST(Tracer, SpanEndedAfterCloseIsDropped) {
  ManualTrace tr;
  util::Span span = tr.tracer.span("task", "analysis", 1);
  EXPECT_TRUE(span);
  const auto events = tr.events();  // closes with the span still open
  EXPECT_FALSE(tr.tracer.enabled());
  tr.t = 5.0;
  span.end();  // a truncated run's coroutine teardown
  EXPECT_FALSE(span);
  EXPECT_EQ(util::parse_trace_jsonl(tr.tracer.buffer()).size(), 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'B');
}

TEST(Tracer, CloseWritesTheFileAndThrowsWhenItCannot) {
  const std::string path = temp_path("tracer_close.jsonl");
  util::Tracer tracer;
  tracer.open(util::TraceFormat::Jsonl, path);
  tracer.instant("lobsim", "marker");
  tracer.close();
  EXPECT_EQ(slurp(path), "{\"ev\":\"i\",\"t\":0,\"track\":0,\"cat\":\"lobsim\","
                         "\"name\":\"marker\"}\n");
  std::remove(path.c_str());

  tracer.open(util::TraceFormat::Chrome, "/nonexistent/dir/trace.json");
  EXPECT_THROW(tracer.close(), std::runtime_error);
  EXPECT_FALSE(tracer.enabled());
}

// -------------------------------------------------------------- validation ----

TEST(Validate, RejectsDecreasingTimestamps) {
  ManualTrace tr;
  tr.t = 2.0;
  tr.tracer.instant("a", "x");
  tr.t = 1.0;
  tr.tracer.instant("a", "y");
  EXPECT_FALSE(util::validate_trace(tr.events()).empty());
}

TEST(Validate, RejectsNegativeTimestamps) {
  ManualTrace tr;
  tr.t = -1.0;
  tr.tracer.instant("a", "x");
  EXPECT_FALSE(util::validate_trace(tr.events()).empty());
}

TEST(Validate, RejectsUnbalancedSpans) {
  ManualTrace tr;
  tr.t = 1.0;
  util::Span span = tr.tracer.span("task", "analysis", 1);
  const std::string problem = util::validate_trace(tr.events());
  EXPECT_NE(problem.find("never ended"), std::string::npos) << problem;
}

TEST(Validate, RejectsEndWithoutBegin) {
  // The Tracer pairs every end with its begin, so this shape only arrives
  // from a foreign or damaged file.
  EXPECT_FALSE(util::validate_trace(
                   util::parse_trace_jsonl(
                       "{\"ev\":\"E\",\"t\":1,\"track\":1,\"cat\":\"task\","
                       "\"name\":\"analysis\"}\n"))
                   .empty());
}

TEST(Validate, RejectsMismatchedSpanNames) {
  // Ending "merge" while "analysis" is open leaves nothing open after the
  // pop, so only the name check can reject this trace.
  const std::string problem = util::validate_trace(util::parse_trace_jsonl(
      "{\"ev\":\"B\",\"t\":1,\"track\":1,\"cat\":\"task\","
      "\"name\":\"analysis\"}\n"
      "{\"ev\":\"E\",\"t\":2,\"track\":1,\"cat\":\"task\","
      "\"name\":\"merge\"}\n"));
  EXPECT_NE(problem.find("innermost open span"), std::string::npos) << problem;
}

TEST(Validate, AcceptsNestedAndInterleavedTracks) {
  ManualTrace tr;
  tr.t = 1.0;
  util::Span analysis = tr.tracer.span("task", "analysis", 1);
  tr.t = 1.5;
  util::Span execute = tr.tracer.span("segment", "execute", 1);  // nested
  tr.t = 1.7;
  util::Span merge = tr.tracer.span("task", "merge", 2);  // another track
  tr.t = 2.0;
  execute.end();
  tr.t = 2.5;
  merge.end();
  tr.t = 3.0;
  analysis.end();
  EXPECT_TRUE(util::validate_trace(tr.events()).empty());
}

// ----------------------------------------------------------- counter plane ----

TEST(CounterPlane, FindOrCreateReturnsStableRefs) {
  util::CounterRegistry reg;
  util::Counter& a = reg.counter("wq.master.dispatched");
  util::Counter& b = reg.counter("wq.master.dispatched");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  util::Gauge& g = reg.gauge("chirp.sim.bytes_in");
  g.add(1.5);
  g.add(2.5);
  EXPECT_EQ(reg.gauge("chirp.sim.bytes_in").value(), 4.0);
}

TEST(CounterPlane, SnapshotIsNameOrdered) {
  util::CounterRegistry reg;
  reg.counter("z.last").add(1);
  reg.gauge("m.middle").set(2.0);
  reg.counter("a.first").add(3);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[0].value, 3.0);
  EXPECT_FALSE(snap[0].is_gauge);
  EXPECT_EQ(snap[1].name, "m.middle");
  EXPECT_TRUE(snap[1].is_gauge);
  EXPECT_EQ(snap[2].name, "z.last");
}

TEST(CounterPlane, BumpToleratesNull) {
  util::bump(static_cast<util::Counter*>(nullptr));
  util::bump(static_cast<util::Gauge*>(nullptr), 5.0);
  util::Counter c;
  util::bump(&c, 2);
  EXPECT_EQ(c.value(), 2u);
}

// -------------------------------------------------------------- trace replay ----

TEST(TraceReplay, RebuildsRecordsFromEndEventArgs) {
  ManualTrace tr;
  tr.t = 10.0;
  {
    util::Span span = tr.tracer.span("task", "analysis", 9);
    tr.t = 110.0;
    span.arg("status", 2.0);
    span.arg("exit", 0.0);
    span.arg("tasklets", 6.0);
    span.arg("cpu", 80.0);
    span.arg("lost", 0.0);
    span.arg("execute", 90.0);
    span.arg("execute_io", 5.0);
    span.arg("stage_in", 3.0);
    span.arg("stage_out", 2.0);
  }
  // A reducer span carries no status and must not become a record.
  tr.t = 120.0;
  {
    util::Span span = tr.tracer.span("task", "hadoop_reduce", 1 << 20);
    tr.t = 130.0;
    span.arg("bytes", 1e9);
  }
  tr.tracer.counter("lobsim.engine.tasks_completed", 1.0);

  const auto replay = core::replay_trace(tr.events());
  ASSERT_EQ(replay.records.size(), 1u);
  const core::TaskRecord& rec = replay.records[0];
  EXPECT_EQ(rec.status, core::TaskStatus::Done);
  EXPECT_EQ(rec.kind, core::TaskKind::Analysis);
  EXPECT_EQ(rec.submit_time, 10.0);
  EXPECT_EQ(rec.finish_time, 110.0);
  EXPECT_EQ(rec.cpu_time, 80.0);
  EXPECT_EQ(rec.tasklets.size(), 6u);
  EXPECT_EQ(
      rec.segment_time[static_cast<std::size_t>(core::Segment::Execute)],
      90.0);
  EXPECT_EQ(
      rec.segment_time[static_cast<std::size_t>(core::Segment::ExecuteIo)],
      5.0);
  ASSERT_EQ(replay.final_counters.size(), 1u);
  EXPECT_EQ(replay.final_counters[0].first, "lobsim.engine.tasks_completed");
  EXPECT_EQ(replay.open_spans, 0u);
}

// ---------------------------------------------------------- engine contract ----

TEST(EngineTrace, TracedRunIsValidAndReconstructsBreakdownExactly) {
  // Two inputs: the plain tiny run, and the stealing, advisor-on outage run
  // that reaches every outcome the Engine counts.
  for (lobsim::RunSpec spec : {tiny_spec(), tiny_stealing_outage_spec()}) {
    SCOPED_TRACE(spec.label);
    const bool stealing_advisor = spec.advisor.enabled;
    const std::string path = temp_path("engine_trace_" + spec.label + ".jsonl");
    spec.trace_path = path;
    std::shared_ptr<const lobsim::EngineMetrics> metrics;
    const lobsim::RunStats stats = lobsim::Campaign::execute(spec, &metrics);
    ASSERT_TRUE(metrics);
    ASSERT_TRUE(stats.completed);

    const auto events = util::read_trace_jsonl(path);
    ASSERT_FALSE(events.empty());
    EXPECT_TRUE(util::validate_trace(events).empty())
        << util::validate_trace(events);

    // The end-event payloads carry the authoritative TaskRecord numbers, so
    // replaying them through a fresh Monitor reproduces the engine's own
    // Figure 8 breakdown bit for bit (same values, same fold order).
    const core::TraceReplay replay = core::replay_trace(events);
    EXPECT_EQ(replay.records.size(),
              stats.tasks_completed + stats.tasks_failed +
                  stats.tasks_evicted + stats.merge_tasks_completed);
    core::Monitor monitor(spec.metric_bin_seconds);
    for (const auto& rec : replay.records) monitor.on_task_finished(rec);
    const core::RuntimeBreakdown a = monitor.breakdown();
    const core::RuntimeBreakdown b = metrics->monitor.breakdown();
    EXPECT_EQ(a.cpu, b.cpu);
    EXPECT_EQ(a.io, b.io);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.stage_in, b.stage_in);
    EXPECT_EQ(a.stage_out, b.stage_out);
    EXPECT_EQ(a.other, b.other);

    // The final counter plane agrees with the metrics the engine reported.
    double des_events = -1.0;
    for (const auto& [name, value] : replay.final_counters)
      if (name == "des.kernel.events_dispatched") des_events = value;
    EXPECT_GT(des_events, 0.0);
    expect_outcome_views_agree(*metrics, replay.final_counters);
    // Steal and advisor counters are registered only when their feature is
    // on, so a plain run's counter snapshot stays byte-identical to a build
    // without them.
    EXPECT_EQ(has_counter_prefix(replay.final_counters, "lobsim.steal."),
              stealing_advisor);
    EXPECT_EQ(has_counter_prefix(replay.final_counters, "lobsim.advisor."),
              stealing_advisor);
    if (stealing_advisor) {
      // The comparison above covered live values, not zeros.
      EXPECT_GT(metrics->tasks_failed, 0u);
      EXPECT_GT(metrics->tasks_evicted, 0u);
      EXPECT_GT(metrics->tasklets_retried, 0u);
      EXPECT_GT(metrics->steal_tasks, 0u);
      EXPECT_GT(metrics->steal_bytes_penalty, 0.0);
      EXPECT_GT(metrics->advisor_ticks, 0u);
    }
    std::remove(path.c_str());
  }
}

TEST(EngineTrace, TracingDoesNotPerturbTheSimulation) {
  lobsim::RunSpec plain = tiny_spec();
  lobsim::RunSpec traced = tiny_spec();
  traced.trace_path = temp_path("perturb_check.jsonl");
  const lobsim::RunStats a = lobsim::Campaign::execute(plain);
  const lobsim::RunStats b = lobsim::Campaign::execute(traced);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.tasks_evicted, b.tasks_evicted);
  EXPECT_EQ(a.tasklets_retried, b.tasklets_retried);
  EXPECT_EQ(a.breakdown.cpu, b.breakdown.cpu);
  EXPECT_EQ(a.breakdown.io, b.breakdown.io);
  std::remove(traced.trace_path.c_str());
}

TEST(EngineTrace, ChromeExportIsStructurallySound) {
  const std::string path = temp_path("engine_trace.json");
  lobsim::RunSpec spec = tiny_spec();
  spec.trace_path = path;
  spec.trace_format = util::TraceFormat::Chrome;
  lobsim::Campaign::execute(spec);
  const std::string buf = slurp(path);
  EXPECT_EQ(buf.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(buf.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(buf.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(buf.find("\"name\":\"analysis\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(EngineTrace, SerialAndParallelCampaignTracesAreBitwiseIdentical) {
  std::vector<std::uint64_t> seeds = {2015, 2016, 2017, 2018};
  auto run_campaign = [&seeds](std::size_t jobs, const std::string& prefix) {
    lobsim::Campaign campaign(jobs);
    campaign.trace_to(prefix);
    campaign.add_seed_sweep(tiny_spec(), seeds);
    campaign.run();
    for (const auto& r : campaign.results()) ASSERT_TRUE(r.ok()) << r.error;
  };
  const std::string serial_prefix = temp_path("serial");
  const std::string parallel_prefix = temp_path("parallel");
  run_campaign(1, serial_prefix);
  run_campaign(4, parallel_prefix);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::string suffix = "-run" + std::to_string(i) + "-seed" +
                               std::to_string(seeds[i]) + ".jsonl";
    const std::string sp = serial_prefix + suffix;
    const std::string pp = parallel_prefix + suffix;
    const std::string sa = slurp(sp);
    const std::string pa = slurp(pp);
    EXPECT_FALSE(sa.empty());
    EXPECT_EQ(sa, pa) << "trace for run " << i
                      << " differs between serial and parallel campaigns";
    std::remove(sp.c_str());
    std::remove(pp.c_str());
  }
}
