// The benchmark's own tests: the percentile rule, the self-time and wait
// computations, and the streamed-vs-oracle comparison on a tiny seeded
// fleet. Run with `ctest` in the perfbench build directory.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "fig2.h"
#include "stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                               \
  do {                                                             \
    if (!(cond)) {                                                 \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                               \
      ++failures;                                                  \
    }                                                              \
  } while (0)

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

void PercentileRule() {
  using perfbench::SupportedTailQuantile;
  // 10 samples beyond the reported quantile, never more than p99.
  EXPECT(Near(SupportedTailQuantile(100000), 0.99));
  EXPECT(Near(SupportedTailQuantile(1000), 0.99));
  EXPECT(Near(SupportedTailQuantile(500), 0.98));
  EXPECT(Near(SupportedTailQuantile(100), 0.90));
  EXPECT(Near(SupportedTailQuantile(19), 0.5));
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const perfbench::Summary s = perfbench::Summarize(v);
  EXPECT(s.count == 100);
  EXPECT(Near(s.tail_q, 0.90));
  EXPECT(Near(s.tail, 90));  // nearest rank of 0.9 over 1..100
  EXPECT(Near(s.p50, 51) || Near(s.p50, 50));
  int beyond = 0;
  for (double x : v) beyond += x > s.tail;
  EXPECT(beyond >= 10);
  EXPECT(Near(perfbench::Median({3, 1, 2}), 2));
  EXPECT(perfbench::Summarize({}).count == 0);
}

void SelfTimeAndWait() {
  using perfbench::Span;
  // A query span [0,100) with children [10,30) and [20,50) (overlapping,
  // counted once) and [90,120) (clipped at 100): self = 100 - 40 - 10.
  std::vector<Span> spans = {
      {"query", 1, 0, 100, -1},
      {"store.compile", 1, 10, 30, 0},
      {"store.star", 1, 20, 50, 0},
      {"rdf.bgp", 1, 90, 120, 0},
      {"insitu", 2, 200, 210, -1},
      {"cpa", 2, 230, 240, -1},
      {"flp", 2, 235, 250, -1},
  };
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 20);
  EXPECT(self[4] == 10);
  const auto waits = perfbench::WaitsNs(spans);
  // Trace 2: insitu ends 210, cpa starts 230 -> 20; flp starts before cpa
  // ends -> 0. Trace 1 has a single root span, so no waits.
  EXPECT(waits.at("cpa").size() == 1 && waits.at("cpa")[0] == 20);
  EXPECT(waits.at("flp").size() == 1 && waits.at("flp")[0] == 0);
  EXPECT(!waits.count("store.compile"));
}

void OracleMatchesStreamOnTinyFleet() {
  using namespace perfbench;
  scenario::FleetMix mix;
  mix.vessel_count = 12;
  mix.flight_count = 3;
  mix.duration_ms = 20 * kMillisPerMinute;
  mix.seed = 5;
  const Inputs in = MakeInputs(mix, 4000, 5);
  // Relabeling is a bijection: distinct ids stay distinct.
  EXPECT(RelabelId(200000001, 5) != RelabelId(200000002, 5));
  EXPECT(in.index.size() == 15);
  EXPECT(in.size() > 500);
  const Analytics a = MakeAnalytics(5);

  const std::string dir = "perfbench_test_topic";
  std::filesystem::remove_all(dir);
  mlog::PartitionedLogOptions opts;
  opts.dir = dir;
  opts.partitions = 3;
  auto topic = mlog::PartitionedLog::Open(opts);
  EXPECT(topic.ok());
  if (!topic.ok()) return;
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT(topic.value()->AppendKeyed(in.keys[i], in.RecordAt(i)).ok());
  }
  const OracleResult oracle = RunOracle(in, in.size(), a);
  EXPECT(!oracle.out.cps.empty());
  EXPECT(oracle.out.triples ==
         oracle.out.cps.size() * Analytics::kTriplesPerRecord);
  for (bool trace : {false, true}) {
    store::KnowledgeStore st(a.encoder, 4);
    TailProgress progress;
    progress.producer_done.store(true);
    Tracer tracer(trace, 8);
    Fig2Result fr = RunFig2(in, a, topic.value().get(),
                            trace ? "traced" : "plain", &progress, &st,
                            &tracer, NewLinker(a));
    std::string why;
    EXPECT(CompareWithOracle(fr.out, oracle, a, &why) == 0);
    if (!why.empty()) std::fprintf(stderr, "oracle diff: %s\n", why.c_str());
    EXPECT(fr.tail->gaps == 0 && fr.tail->dups == 0);
    EXPECT(fr.out.cleaner_seen == in.size());
    EXPECT(fr.alerts.size() == fr.out.cleaned.size());
    EXPECT(fr.enrich.size() == fr.out.cps.size());
    std::map<std::string, double> m;
    tracer.Summarize(&m);
    EXPECT(m["insitu.calls"] == static_cast<double>(in.size()));
    if (trace) EXPECT(m["synopses.busy_ms"] > 0);
  }

  // A broken stream (one cleaned position lost) must be caught.
  store::KnowledgeStore st(a.encoder, 4);
  TailProgress progress;
  progress.producer_done.store(true);
  Tracer tracer(false, 8);
  Fig2Result fr = RunFig2(in, a, topic.value().get(), "mutated", &progress,
                          &st, &tracer, NewLinker(a));
  fr.out.cleaned.pop_back();
  std::string why;
  EXPECT(CompareWithOracle(fr.out, oracle, a, &why) > 0);
  topic.value().reset();
  std::filesystem::remove_all(dir);
}

}  // namespace

int main() {
  PercentileRule();
  SelfTimeAndWait();
  OracleMatchesStreamOnTinyFleet();
  if (failures) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::puts("perfbench_test: all passed");
  return 0;
}
