// Observability subsystem tests: the deterministic JSON writer, the
// metrics registry, the engine-observer wiring, and the exporters' core
// promise — byte-identical output across replays of one configuration.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "cluster/cluster.h"
#include "cluster/report.h"
#include "common/error.h"
#include "net/network.h"
#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/observers.h"
#include "systems/machines.h"
#include "workloads/workload.h"

namespace soc {
namespace {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriter, QuotesAndEscapes) {
  EXPECT_EQ(obs::json_quote("plain"), "\"plain\"");
  EXPECT_EQ(obs::json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(obs::json_quote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(obs::json_quote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonWriter, BuildsNestedDocument) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("name", "run");
  w.field("count", 3);
  w.key("items");
  w.begin_array();
  w.value(std::int64_t{1});
  w.value(true);
  w.value("two");
  w.end_array();
  w.key("empty");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"run\",\"count\":3,\"items\":[1,true,\"two\"],"
            "\"empty\":{}}");
}

TEST(JsonWriter, DoublesAreShortestRoundTrip) {
  obs::JsonWriter w;
  w.begin_array();
  w.value(0.5);
  w.value(1.0);
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value_raw("12.345");
  w.end_array();
  EXPECT_EQ(w.str(), "[0.5,1,null,12.345]");
}

TEST(JsonWriter, MisuseThrows) {
  {
    obs::JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1), Error);  // object member without a key
  }
  {
    obs::JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), Error);  // key inside an array
  }
  {
    obs::JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), Error);  // mismatched container
  }
}

// ---------------------------------------------------------------------------
// Histogram + MetricsRegistry
// ---------------------------------------------------------------------------

TEST(Histogram, BoundsAreInclusiveUpperEdges) {
  obs::Histogram h({10, 20});
  h.observe(0);
  h.observe(10);  // still the first bucket
  h.observe(11);
  h.observe(20);  // still the second bucket
  h.observe(21);  // overflow
  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 62);
  EXPECT_EQ(h.max(), 21);
}

TEST(MetricsRegistry, CountersGaugesHighWater) {
  obs::MetricsRegistry r;
  EXPECT_TRUE(r.empty());
  r.add("ops.cpu");
  r.add("ops.cpu", 2);
  EXPECT_EQ(r.counter("ops.cpu"), 3);
  EXPECT_EQ(r.counter("ops.gpu"), 0);  // absent reads as zero
  r.set("run.ranks", 8);
  r.set_max("pending.high", 2);
  r.set_max("pending.high", 7);
  r.set_max("pending.high", 4);  // lower value must not regress the mark
  EXPECT_EQ(r.gauge("run.ranks"), 8);
  EXPECT_EQ(r.gauge("pending.high"), 7);
  r.histogram("wait", {1, 2}).observe(1);
  EXPECT_NE(r.find_histogram("wait"), nullptr);
  EXPECT_EQ(r.find_histogram("missing"), nullptr);
  EXPECT_FALSE(r.empty());
}

TEST(MetricsRegistry, JsonIsOrderedAndStable) {
  obs::MetricsRegistry r;
  // Insert counters out of lexicographic order; the JSON must sort them.
  r.add("zeta", 1);
  r.add("alpha", 2);
  const std::string j = r.json();
  EXPECT_LT(j.find("\"alpha\""), j.find("\"zeta\""));
  EXPECT_EQ(j, r.json());

  obs::MetricsRegistry same;
  same.add("alpha", 2);
  same.add("zeta", 1);
  EXPECT_TRUE(r == same);
  EXPECT_EQ(r.json(), same.json());

  same.add("alpha");
  EXPECT_FALSE(r == same);
}

// ---------------------------------------------------------------------------
// Observers over a real run
// ---------------------------------------------------------------------------

/// A quick (5% size) run of `workload` on `nodes` TX1 nodes, one rank
/// each.
cluster::RunRequest quick_request(const std::string& workload, int nodes) {
  cluster::RunRequest request;
  request.workload = workload;
  request.config = {systems::jetson_tx1(net::NicKind::kTenGigabit), nodes,
                    nodes};
  request.options.size_scale = 0.05;
  return request;
}

TEST(MetricsObserver, AccountsForEveryCommittedEvent) {
  obs::MetricsObserver observer;
  auto request = quick_request("jacobi", 2);
  request.options.observer = &observer;
  const auto result = cluster::run(request);

  const obs::MetricsRegistry& r = observer.registry();
  // Every committed dispatch lands in exactly one ops.* counter, so the
  // counters partition events_committed.
  std::int64_t ops_total = r.counter("ops.rank_done");
  for (const char* kind : {"cpu", "gpu", "h2d", "d2h", "send", "recv",
                           "isend", "irecv", "waitall", "phase"}) {
    ops_total += r.counter(std::string("ops.") + kind);
  }
  EXPECT_EQ(ops_total,
            static_cast<std::int64_t>(result.stats.events_committed));
  EXPECT_EQ(r.counter("ops.rank_done"), 2);  // one per rank
  EXPECT_EQ(r.gauge("run.ranks"), 2);
  EXPECT_EQ(r.gauge("run.makespan_ns"), result.stats.makespan);

  // jacobi exchanges halos: messages must be classified by protocol, and
  // every GPU kernel contributes one wait.gpu sample.
  EXPECT_GT(r.counter("msg.eager") + r.counter("msg.rendezvous"), 0);
  const obs::Histogram* gpu_wait = r.find_histogram("wait.gpu");
  ASSERT_NE(gpu_wait, nullptr);
  EXPECT_EQ(static_cast<std::int64_t>(gpu_wait->count()),
            r.counter("ops.gpu"));
  EXPECT_GE(r.gauge("pending.sends.high_water"), 0);
  EXPECT_GE(r.gauge("pending.recvs.high_water"), 0);
}

TEST(ObserverList, FansOutToAllRegistered) {
  obs::MetricsObserver metrics;
  obs::ChromeTraceRecorder chrome;
  obs::ObserverList list;
  EXPECT_TRUE(list.empty());
  list.add(&metrics);
  list.add(&chrome);
  list.add(nullptr);  // ignored
  EXPECT_FALSE(list.empty());

  auto request = quick_request("jacobi", 2);
  request.options.observer = &list;
  cluster::run(request);
  EXPECT_FALSE(metrics.registry().empty());
  EXPECT_GT(chrome.span_count(), 0u);
}

TEST(ChromeTrace, ByteIdenticalAcrossReplays) {
  auto record = [&]() {
    obs::ChromeTraceRecorder chrome;
    auto request = quick_request("jacobi", 2);
    request.options.observer = &chrome;
    cluster::run(request);
    return chrome.json();
  };
  const std::string a = record();
  const std::string b = record();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(a.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(a.find("\"process_name\""), std::string::npos);
  EXPECT_EQ(a.front(), '{');
  EXPECT_EQ(a.back(), '\n');
}

TEST(ChromeTrace, FlowEventsPairMatchedInterNodeMessages) {
  // jacobi at 2 nodes exchanges inter-node halos, so the trace must carry
  // flow arrows: every `s` (flow start, sender row) has an `f` (flow end,
  // receiver row, binding point "e"), in equal numbers.
  obs::ChromeTraceRecorder chrome;
  auto request = quick_request("jacobi", 2);
  request.options.observer = &chrome;
  cluster::run(request);
  EXPECT_GT(chrome.message_count(), 0u);

  const std::string doc = chrome.json();
  auto count = [&doc](const char* needle) {
    std::size_t n = 0;
    for (std::size_t at = doc.find(needle); at != std::string::npos;
         at = doc.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  const std::size_t starts = count("\"ph\":\"s\"");
  EXPECT_GT(starts, 0u);
  EXPECT_EQ(starts, count("\"ph\":\"f\""));
  EXPECT_EQ(starts, count("\"bp\":\"e\""));
}

TEST(RunReport, ByteIdenticalAndCarriesChecksum) {
  auto report = [&]() {
    obs::MetricsObserver observer;
    auto request = quick_request("jacobi", 2);
    request.options.observer = &observer;
    const auto result = cluster::run(request);
    return cluster::report_json(request.config, request.options, "jacobi",
                                result, &observer.registry());
  };
  const std::string a = report();
  const std::string b = report();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\":\"soccluster-run-report/v1\""),
            std::string::npos);
  EXPECT_NE(a.find("\"workload\":\"jacobi\""), std::string::npos);
  EXPECT_NE(a.find("\"event_checksum\":\"0x"), std::string::npos);
  EXPECT_NE(a.find("\"metrics\""), std::string::npos);

  // Without a registry the metrics section is omitted entirely.
  const auto request = quick_request("jacobi", 2);
  const std::string bare = cluster::report_json(
      request.config, request.options, "jacobi", cluster::run(request),
      nullptr);
  EXPECT_EQ(bare.find("\"metrics\""), std::string::npos);
}

// The report's bisection_bandwidth is the one the run's engine used: the
// node's switch fabric by default (options.engine's 0 means "use the
// node's switch"), the caller's value when options.engine sets one.
TEST(RunReport, CarriesTheBisectionBandwidthTheRunUsed) {
  const auto field = [](double bisection) {
    obs::JsonWriter w;
    w.begin_object();
    w.field("bisection_bandwidth", bisection);
    w.end_object();
    return w.str().substr(1, w.str().size() - 2);
  };
  auto request = quick_request("jacobi", 4);
  const double fabric =
      request.config.node.switch_config.bisection_bandwidth;
  ASSERT_GT(fabric, 0.0);
  const std::string by_default = cluster::report_json(
      request.config, request.options, "jacobi", cluster::run(request));
  EXPECT_NE(by_default.find(field(fabric)), std::string::npos) << by_default;

  request.options.engine.bisection_bandwidth = 1e9;
  const std::string capped = cluster::report_json(
      request.config, request.options, "jacobi", cluster::run(request));
  EXPECT_NE(capped.find(field(1e9)), std::string::npos) << capped;
}

TEST(Engine, ObserverDoesNotChangeTheRun) {
  // The observer is read-only instrumentation: attaching one must not
  // perturb the schedule or the digest.
  auto request = quick_request("cg", 2);
  const auto plain = cluster::run(request);
  obs::MetricsObserver observer;
  request.options.observer = &observer;
  const auto observed = cluster::run(request);
  EXPECT_EQ(plain.stats.event_checksum, observed.stats.event_checksum);
  EXPECT_EQ(plain.stats.makespan, observed.stats.makespan);
}

}  // namespace
}  // namespace soc
