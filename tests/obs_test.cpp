// Tests for the observability layer: metrics registry semantics, span
// nesting/timing, JSONL + Chrome-trace export, thread safety of the
// counters and the tracer (run under -fsanitize=thread in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "selfheal/obs/artifacts.hpp"
#include "selfheal/obs/metrics.hpp"
#include "selfheal/obs/trace.hpp"

using namespace selfheal;
using obs::MetricSample;

namespace {

/// Pulls the sample with the given name out of a snapshot.
const MetricSample* find_sample(const std::vector<MetricSample>& snapshot,
                                const std::string& name) {
  for (const auto& s : snapshot) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// Extracts the JSONL line for `name` (empty if absent).
std::string jsonl_line_for(const std::string& jsonl, const std::string& name) {
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"name\":\"" + name + "\"") != std::string::npos) return line;
  }
  return "";
}

}  // namespace

TEST(Registry, CounterLookupIsStableAndAccumulates) {
  obs::Registry reg;
  auto& a = reg.counter("test.counter");
  auto& b = reg.counter("test.counter");
  EXPECT_EQ(&a, &b);  // same name -> same instrument
  a.inc();
  b.inc(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, GaugeSetAddMax) {
  obs::Registry reg;
  auto& g = reg.gauge("test.gauge");
  g.set(2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.update_max(3.0);  // below current: no change
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.update_max(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST(Registry, HistogramRecordsOverflowExplicitly) {
  obs::Registry reg;
  auto& h = reg.histogram("test.hist", 0.0, 10.0, 10);
  h.observe(5.0);
  h.observe(-1.0);
  h.observe(11.0);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.in_range(), 1u);
  EXPECT_EQ(snap.underflow(), 1u);
  EXPECT_EQ(snap.overflow(), 1u);
  EXPECT_EQ(snap.total(), 3u);
  // Registration bounds apply on first use only.
  auto& again = reg.histogram("test.hist", 0.0, 99.0, 5);
  EXPECT_EQ(&again, &h);
  EXPECT_EQ(again.snapshot().bucket_count(), 10u);
}

TEST(Registry, ResetZeroesButKeepsRegistrations) {
  obs::Registry reg;
  auto& c = reg.counter("test.reset");
  c.inc(7);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // cached reference survives
  EXPECT_EQ(&reg.counter("test.reset"), &c);
}

TEST(Registry, SnapshotCoversAllKindsSorted) {
  obs::Registry reg;
  reg.counter("z.counter").inc(3);
  reg.gauge("a.gauge").set(1.25);
  reg.histogram("m.hist", 0, 10, 5).observe(4.0);
  reg.stats("k.stats").observe(2.0);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end(),
                             [](const MetricSample& x, const MetricSample& y) {
                               return x.name < y.name;
                             }));
  const auto* c = find_sample(snap, "z.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->count, 3u);
  const auto* g = find_sample(snap, "a.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value, 1.25);
}

TEST(Registry, ConcurrentCounterIncrementsAreExact) {
  obs::Registry reg;
  auto& c = reg.counter("test.concurrent");
  auto& g = reg.gauge("test.concurrent_gauge");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &g] {
      for (int i = 0; i < kIncrements; ++i) {
        c.inc();
        g.add(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kIncrements);
}

TEST(Registry, ConcurrentHistogramAndStatsObservations) {
  obs::Registry reg;
  auto& h = reg.histogram("test.mt_hist", 0, 100, 10);
  auto& s = reg.stats("test.mt_stats");
  constexpr int kThreads = 4;
  constexpr int kObs = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &s, t] {
      for (int i = 0; i < kObs; ++i) {
        h.observe(static_cast<double>((t * kObs + i) % 120));  // some overflow
        s.observe(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.snapshot().total(), static_cast<std::uint64_t>(kThreads) * kObs);
  EXPECT_EQ(s.snapshot().count(), static_cast<std::size_t>(kThreads) * kObs);
}

TEST(Tracer, DisabledSpansRecordNothing) {
  auto& tracer = obs::tracer();
  tracer.enable(false);
  tracer.clear();
  {
    obs::Span span("should.not.appear");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(Tracer, NestedSpansParentCorrectlyWithMonotoneDurations) {
  auto& tracer = obs::tracer();
  tracer.clear();
  tracer.enable(true);
  tracer.set_logical_time(1.5);
  std::uint64_t outer_id = 0, mid_id = 0;
  {
    obs::Span outer("outer", "test");
    outer_id = outer.id();
    {
      obs::Span mid("mid", "test");
      mid_id = mid.id();
      obs::Span inner("inner", "test");
      EXPECT_NE(inner.id(), mid.id());
    }
  }
  tracer.enable(false);

  const auto records = tracer.records();
  ASSERT_EQ(records.size(), 3u);
  std::map<std::string, obs::SpanRecord> by_name;
  for (const auto& r : records) by_name[r.name] = r;
  EXPECT_EQ(by_name["outer"].parent, 0u);
  EXPECT_EQ(by_name["mid"].parent, outer_id);
  EXPECT_EQ(by_name["inner"].parent, mid_id);
  // A child opens after and closes before its parent.
  EXPECT_GE(by_name["inner"].start_ns, by_name["mid"].start_ns);
  EXPECT_LE(by_name["inner"].start_ns + by_name["inner"].dur_ns,
            by_name["mid"].start_ns + by_name["mid"].dur_ns);
  EXPECT_LE(by_name["mid"].dur_ns, by_name["outer"].dur_ns);
  EXPECT_DOUBLE_EQ(by_name["outer"].logical_start, 1.5);
}

TEST(Tracer, ExplicitEndCommitsOnceAndUnwindsStack) {
  auto& tracer = obs::tracer();
  tracer.clear();
  tracer.enable(true);
  {
    obs::Span phase1("phase1", "test");
    phase1.end();
    obs::Span phase2("phase2", "test");  // sibling, not child of phase1
    phase2.end();
    phase2.end();  // idempotent
  }
  tracer.enable(false);
  const auto records = tracer.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].parent, 0u);
  EXPECT_EQ(records[1].parent, 0u);
}

TEST(Tracer, ChromeTraceExportIsWellFormed) {
  auto& tracer = obs::tracer();
  tracer.clear();
  tracer.enable(true);
  {
    obs::Span outer("controller.drain", "recovery");
    obs::Span inner("analyzer \"quoted\"\n", "recovery");
    inner.set_detail("damaged=3");
  }
  tracer.enable(false);

  const std::string json = tracer.to_chrome_trace();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"controller.drain\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"damaged=3\""), std::string::npos);
  // Quotes and newlines in names are escaped, not emitted raw.
  EXPECT_NE(json.find("analyzer \\\"quoted\\\"\\n"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness proxy).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Tracer, ConcurrentSpansFromManyThreads) {
  auto& tracer = obs::tracer();
  tracer.clear();
  tracer.enable(true);
  constexpr int kThreads = 4;
  constexpr int kSpans = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        obs::Span outer("mt.outer", "test");
        obs::Span inner("mt.inner", "test");
      }
    });
  }
  for (auto& t : threads) t.join();
  tracer.enable(false);
  const auto records = tracer.records();
  EXPECT_EQ(records.size(), static_cast<std::size_t>(kThreads) * kSpans * 2);
  // Every inner span's parent is an outer span from the SAME thread.
  std::map<std::uint64_t, obs::SpanRecord> by_id;
  for (const auto& r : records) by_id[r.id] = r;
  for (const auto& r : records) {
    if (r.name != "mt.inner") continue;
    ASSERT_NE(r.parent, 0u);
    const auto& parent = by_id.at(r.parent);
    EXPECT_EQ(parent.name, "mt.outer");
    EXPECT_EQ(parent.tid, r.tid);
  }
  tracer.clear();
}

// A traced soak holds bounded memory: past kTraceCapacity the ring keeps
// the newest spans and counts each overwritten one.
TEST(Tracer, RingKeepsTheNewestSpansAndCountsTheDropped) {
  auto& tracer = obs::tracer();
  tracer.clear();
  auto& dropped = obs::metrics().counter("obs.trace.dropped");
  const auto dropped_before = dropped.value();
  tracer.enable(true);
  constexpr std::size_t kExtra = 10;
  std::uint64_t first_id = 0;
  std::uint64_t last_id = 0;
  for (std::size_t i = 0; i < obs::kTraceCapacity + kExtra; ++i) {
    obs::Span span(i < kExtra ? "ring.old" : "ring.new", "test");
    if (i == 0) first_id = span.id();
    last_id = span.id();
  }
  tracer.enable(false);

  EXPECT_EQ(tracer.span_count(), obs::kTraceCapacity);
  EXPECT_EQ(dropped.value() - dropped_before, kExtra);
  const auto records = tracer.records();
  ASSERT_EQ(records.size(), obs::kTraceCapacity);
  EXPECT_EQ(records.front().id, first_id + kExtra);  // oldest held first
  EXPECT_EQ(records.back().id, last_id);
  const std::string json = tracer.to_chrome_trace();
  EXPECT_EQ(json.find("ring.old"), std::string::npos);
  EXPECT_NE(json.find("\"id\":" + std::to_string(last_id) + ","), std::string::npos);
  EXPECT_NE(json.find("\"id\":" + std::to_string(first_id + kExtra) + ","),
            std::string::npos);
  tracer.clear();
}

TEST(Artifacts, JsonlRoundTripsMetricValues) {
  obs::Registry reg;
  reg.counter("recovery.undo_tasks").inc(12);
  reg.gauge("scheduler.blocked_time").set(3.25);
  reg.histogram("recovery.undo_cascade_depth", 0, 8, 4).observe(9.0);  // overflow
  reg.stats("analyzer.analyze_ms").observe(0.5);
  const std::string jsonl = obs::to_jsonl(reg.snapshot());

  const auto counter_line = jsonl_line_for(jsonl, "recovery.undo_tasks");
  EXPECT_NE(counter_line.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(counter_line.find("\"value\":12"), std::string::npos);

  const auto gauge_line = jsonl_line_for(jsonl, "scheduler.blocked_time");
  EXPECT_NE(gauge_line.find("\"value\":3.25"), std::string::npos);

  const auto hist_line = jsonl_line_for(jsonl, "recovery.undo_cascade_depth");
  EXPECT_NE(hist_line.find("\"overflow\":1"), std::string::npos);
  EXPECT_NE(hist_line.find("\"buckets\":[0,0,0,0]"), std::string::npos);

  const auto stats_line = jsonl_line_for(jsonl, "analyzer.analyze_ms");
  EXPECT_NE(stats_line.find("\"count\":1"), std::string::npos);
  EXPECT_NE(stats_line.find("\"mean\":0.5"), std::string::npos);

  // One object per line, every line brace-balanced.
  std::istringstream in(jsonl);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(std::count(line.begin(), line.end(), '{'),
              std::count(line.begin(), line.end(), '}'));
  }
  EXPECT_EQ(lines, 4u);
}

TEST(Artifacts, SummaryTableListsEveryMetric) {
  obs::Registry reg;
  reg.counter("a.count").inc(2);
  reg.stats("b.ms").observe(1.0);
  const auto table = obs::summary_table(reg);
  EXPECT_EQ(table.row_count(), 2u);
  const auto rendered = table.render();
  EXPECT_NE(rendered.find("a.count"), std::string::npos);
  EXPECT_NE(rendered.find("b.ms"), std::string::npos);
}

