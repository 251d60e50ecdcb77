// Tests for the transport self-tuning loop (src/stream/tuning.h):
// BatchPolicy::Adaptive + BatchTuner unit behavior driven by synthetic
// StageMetrics windows (growth while batches fill, back-off past the
// slow-batch latency bound, convergence after steady holds), the
// degenerate min_batch == max_batch_cap static fallback, tuner state in
// Pipeline::Report()/ReportJson(), convergence and phase-change behavior
// on real pipelines, per-partition-edge tuners with the skew summary, and
// adaptive + Fuse() + CloseAndDrain() shutdown under the watchdog
// harness. The written model these tests pin down is
// docs/STREAM_TUNING.md.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "stream/channel.h"
#include "stream/pipeline.h"
#include "stream/tuning.h"

namespace tcmf::stream {
namespace {

// ------------------------------------------------- policy construction

TEST(TunerPolicyTest, AdaptiveFactoryClampsSeedIntoRange) {
  BatchPolicy p = BatchPolicy::Adaptive(4096, 2, 512);
  EXPECT_TRUE(p.adaptive());
  EXPECT_TRUE(p.batched());
  EXPECT_EQ(p.max_batch, 512u);  // seed clamped to cap
  EXPECT_EQ(p.min_batch, 2u);
  EXPECT_EQ(p.max_batch_cap, 512u);
  EXPECT_EQ(p.PopMax(), 512u);

  BatchPolicy lo = BatchPolicy::Adaptive(1, 8, 64);
  EXPECT_EQ(lo.max_batch, 8u);  // seed clamped to min
}

TEST(TunerPolicyTest, DegenerateRangeIsStaticPolicy) {
  // min_batch == max_batch_cap: the controller has no room, the policy
  // degenerates to Batched(min_batch) and no tuner is ever created.
  BatchPolicy p = BatchPolicy::Adaptive(16, 32, 32);
  EXPECT_FALSE(p.adaptive());
  EXPECT_TRUE(p.batched());
  EXPECT_EQ(p.max_batch, 32u);
  EXPECT_EQ(p.PopMax(), 32u);

  EXPECT_FALSE(BatchPolicy::Single().adaptive());
  EXPECT_FALSE(BatchPolicy::Batched(64).adaptive());
}

// ------------------------------------------- controller unit behavior
//
// The tuner is driven directly with synthetic per-window StageMetrics so
// each controller decision is deterministic.

class FakeEdge {
 public:
  std::function<StageMetrics()> SnapshotFn() {
    return [this] { return metrics_; };
  }

  /// Simulates one window: `pushes` transfers carrying `records` total,
  /// `pops` consumer transfers.
  void Window(uint64_t records, uint64_t pushes, uint64_t pops) {
    metrics_.records_in += records;
    metrics_.records_out += records;
    metrics_.batches_in += pushes;
    metrics_.batches_out += pops;
  }

  /// Simulates the consumer spending `ns` of the window blocked in Pop —
  /// the starvation evidence behind kTunerBackoffMaxStarvedFraction.
  void ConsumerBlocked(uint64_t ns) { metrics_.consumer_blocked_ns += ns; }

 private:
  StageMetrics metrics_;
};

BatchPolicy TestPolicy(size_t seed, size_t min, size_t cap) {
  BatchPolicy p = BatchPolicy::Adaptive(seed, min, cap);
  // Gigantic latency bound: back-off never fires unless a test wants it.
  p.slow_batch_ms = 1e9;
  return p;
}

TEST(TunerUnitTest, GrowsWhileProducersFillBatches) {
  FakeEdge edge;
  BatchTuner tuner(TestPolicy(8, 1, 64), edge.SnapshotFn());
  ASSERT_EQ(tuner.target(), 8u);

  // Full batches at the current target: multiplicative increase to cap.
  edge.Window(800, 100, 100);  // mean push 8 == target
  tuner.Sample();
  EXPECT_EQ(tuner.target(), 16u);
  edge.Window(1600, 100, 100);
  tuner.Sample();
  EXPECT_EQ(tuner.target(), 32u);
  edge.Window(3200, 100, 100);
  tuner.Sample();
  EXPECT_EQ(tuner.target(), 64u);
  // At the cap: no further growth.
  edge.Window(6400, 100, 100);
  tuner.Sample();
  EXPECT_EQ(tuner.target(), 64u);

  const TunerState s = tuner.Snapshot();
  EXPECT_EQ(s.adjust_up, 3u);
  EXPECT_EQ(s.adjust_down, 0u);
  EXPECT_EQ(s.samples, 4u);
}

TEST(TunerUnitTest, HoldsWhenBatchesTrickle) {
  // Mean push far below kTunerFillThreshold * target: a bigger target buys
  // nothing, so the tuner holds.
  FakeEdge edge;
  BatchTuner tuner(TestPolicy(64, 1, 1024), edge.SnapshotFn());
  edge.Window(200, 100, 100);  // mean push 2 < 0.5 * 64
  tuner.Sample();
  EXPECT_EQ(tuner.target(), 64u);
  EXPECT_EQ(tuner.Snapshot().adjust_up, 0u);
}

TEST(TunerUnitTest, ConvergesAfterSteadyHolds) {
  FakeEdge edge;
  BatchTuner tuner(TestPolicy(8, 1, 16), edge.SnapshotFn());
  edge.Window(800, 100, 100);
  tuner.Sample();  // 8 -> 16 (cap)
  ASSERT_EQ(tuner.target(), 16u);
  EXPECT_EQ(tuner.Snapshot().converged_batch, 0u);
  // kTunerConvergeAfter consecutive holds publish the converged size.
  for (uint32_t i = 0; i < kTunerConvergeAfter; ++i) {
    edge.Window(1600, 100, 100);
    tuner.Sample();
  }
  EXPECT_EQ(tuner.Snapshot().converged_batch, 16u);
  EXPECT_EQ(tuner.target(), 16u);
}

TEST(TunerUnitTest, BacksOffWhenConsumerPopsAreSlow) {
  FakeEdge edge;
  BatchPolicy policy = BatchPolicy::Adaptive(64, 4, 64);
  policy.slow_batch_ms = 0.0;  // any measurable pop time is "slow"
  BatchTuner tuner(policy, edge.SnapshotFn());

  // One pop for the whole window: wall time per pop exceeds the bound,
  // so the target halves until the floor.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  edge.Window(64, 1, 1);
  tuner.Sample();
  EXPECT_EQ(tuner.target(), 32u);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  edge.Window(32, 1, 1);
  tuner.Sample();
  EXPECT_EQ(tuner.target(), 16u);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  edge.Window(16, 1, 1);
  tuner.Sample();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  edge.Window(8, 1, 1);
  tuner.Sample();
  EXPECT_EQ(tuner.target(), 4u);  // clamped at min_batch
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  edge.Window(4, 1, 1);
  tuner.Sample();
  EXPECT_EQ(tuner.target(), 4u);  // never below the floor

  const TunerState s = tuner.Snapshot();
  EXPECT_EQ(s.adjust_down, 4u);
  EXPECT_GT(s.last_pop_ms, 0.0);
}

TEST(TunerUnitTest, StalledConsumerReportsNoPopsAndBacksOff) {
  // Records flowed in but the consumer made zero pops: pop time is
  // effectively unbounded — back off, and report last_pop_ms as -1.
  FakeEdge edge;
  BatchPolicy policy = BatchPolicy::Adaptive(32, 1, 64);
  policy.slow_batch_ms = 0.0;
  BatchTuner tuner(policy, edge.SnapshotFn());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  edge.Window(64, 2, 0);
  tuner.Sample();
  EXPECT_EQ(tuner.target(), 16u);
  EXPECT_DOUBLE_EQ(tuner.Snapshot().last_pop_ms, -1.0);
}

TEST(TunerUnitTest, IdleWindowsProduceNoEvidence) {
  FakeEdge edge;
  BatchTuner tuner(TestPolicy(8, 1, 64), edge.SnapshotFn());
  tuner.Sample();  // no records moved: skipped
  tuner.Sample();
  EXPECT_EQ(tuner.Snapshot().samples, 0u);
  EXPECT_EQ(tuner.target(), 8u);
}

TEST(TunerUnitTest, OscillationIsBoundedUnderAlternatingPhases) {
  // Alternating fast/slow windows: the controller must keep the target
  // inside [min, cap] with at most one move per window, and adjustments
  // in both directions must stay bounded by the window count (one sample
  // = at most one step; no compounding oscillation).
  FakeEdge edge;
  BatchPolicy policy = BatchPolicy::Adaptive(32, 4, 256);
  BatchTuner tuner(policy, edge.SnapshotFn());
  size_t prev = tuner.target();
  for (int phase = 0; phase < 24; ++phase) {
    const bool slow = (phase % 2) == 1;
    // A "slow" window pops once over >= 2ms; a fast one pops 1000 times.
    if (slow) std::this_thread::sleep_for(std::chrono::milliseconds(3));
    const size_t t = tuner.target();
    edge.Window(t * 8, 8, slow ? 1 : 1000);
    tuner.Sample();
    const size_t cur = tuner.target();
    EXPECT_GE(cur, policy.min_batch);
    EXPECT_LE(cur, policy.max_batch_cap);
    // One controller step at most: halved, grown, or held.
    EXPECT_TRUE(cur == prev || cur == prev / 2 || cur >= prev)
        << "phase " << phase << ": " << prev << " -> " << cur;
    prev = cur;
  }
  const TunerState s = tuner.Snapshot();
  EXPECT_GT(s.adjust_up, 0u);
  EXPECT_GT(s.adjust_down, 0u);
  EXPECT_LE(s.adjust_up + s.adjust_down, s.samples);
}

TEST(TunerUnitTest, OnRecordsSamplesAtCadence) {
  FakeEdge edge;
  BatchPolicy policy = TestPolicy(8, 1, 64);
  policy.tune_every_records = 1000;
  BatchTuner tuner(policy, edge.SnapshotFn());
  edge.Window(999, 100, 100);
  tuner.OnRecords(999);  // below cadence: no sample
  EXPECT_EQ(tuner.Snapshot().samples, 0u);
  tuner.OnRecords(1);  // crosses cadence: one sample
  EXPECT_EQ(tuner.Snapshot().samples, 1u);
}

TEST(TunerUnitTest, FillStageMetricsExposesEveryField) {
  FakeEdge edge;
  BatchTuner tuner(TestPolicy(8, 2, 64), edge.SnapshotFn());
  edge.Window(800, 100, 100);
  tuner.Sample();  // 8 -> 16
  StageMetrics m;
  tuner.FillStageMetrics(&m);
  EXPECT_TRUE(m.tuned);
  EXPECT_EQ(m.tuner_target_batch, 16u);
  EXPECT_EQ(m.tuner_min_batch, 2u);
  EXPECT_EQ(m.tuner_batch_cap, 64u);
  EXPECT_EQ(m.tuner_samples, 1u);
  EXPECT_EQ(m.tuner_adjust_up, 1u);
  EXPECT_EQ(m.tuner_adjust_down, 0u);
  EXPECT_DOUBLE_EQ(m.tuner_mean_push_batch, 8.0);
  const std::string json = m.ToJson();
  EXPECT_NE(json.find("\"tuned\":true"), std::string::npos);
  EXPECT_NE(json.find("\"tuner_target_batch\":16"), std::string::npos);
  EXPECT_NE(json.find("\"tuner_adjust_up\":1"), std::string::npos);
  // Static edges keep the compact object.
  StageMetrics untuned;
  EXPECT_NE(untuned.ToJson().find("\"tuned\":false"), std::string::npos);
  EXPECT_EQ(untuned.ToJson().find("tuner_target_batch"), std::string::npos);
}

// --------------------------------------------- pipeline integration

TEST(TunerPipelineTest, AdaptiveEdgesCarryTunersAndReportState) {
  Pipeline pipeline;
  BatchPolicy policy = BatchPolicy::Adaptive(4, 1, 256, 5);
  policy.tune_every_records = 512;
  std::vector<int> input(20000);
  std::iota(input.begin(), input.end(), 0);
  auto flow =
      Flow<int>::FromVector(&pipeline, input,
                            {.name = "src", .capacity = 256, .batch = policy})
          .Map<int>([](const int& x) { return x * 2; },
                    {.name = "dbl", .capacity = 256});
  ASSERT_NE(flow.tuner(), nullptr);
  std::vector<int> out;
  flow.CollectInto(&out);
  pipeline.Run();
  ASSERT_EQ(out.size(), input.size());

  size_t tuned_edges = 0;
  for (const StageMetrics& m : pipeline.Report()) {
    if (!m.tuned) continue;
    ++tuned_edges;
    EXPECT_GE(m.tuner_target_batch, m.tuner_min_batch) << m.stage;
    EXPECT_LE(m.tuner_target_batch, m.tuner_batch_cap) << m.stage;
    EXPECT_GT(m.tuner_samples, 0u) << m.stage;
  }
  EXPECT_EQ(tuned_edges, 2u);  // src edge + dbl edge
  EXPECT_NE(pipeline.ReportJson().find("\"tuner_target_batch\""),
            std::string::npos);
}

TEST(TunerPipelineTest, ConvergesUpwardUnderSteadyFastLoad) {
  // Fast producer, trivial consumer: transfer-granularity-bound, so the
  // tuner must grow the source edge's target above the seed.
  Pipeline pipeline;
  BatchPolicy policy = BatchPolicy::Adaptive(4, 1, 256, 5);
  policy.tune_every_records = 512;
  policy.slow_batch_ms = 1e9;  // keep CI scheduling noise out of the test
  std::vector<int> input(60000);
  std::iota(input.begin(), input.end(), 0);
  auto flow = Flow<int>::FromVector(
      &pipeline, input, {.name = "src", .capacity = 256, .batch = policy});
  std::atomic<long long> sum{0};
  flow.Sink([&sum](const int& x) {
    sum.fetch_add(x, std::memory_order_relaxed);
  });
  pipeline.Run();

  ASSERT_NE(flow.tuner(), nullptr);
  const TunerState s = flow.tuner()->Snapshot();
  EXPECT_GT(s.samples, 0u);
  EXPECT_GT(s.adjust_up, 0u);
  EXPECT_GT(s.target_batch, 4u);
  EXPECT_EQ(s.adjust_down, 0u);
}

TEST(TunerPipelineTest, BacksOffUnderSlowConsumerPhase) {
  // Phase change: the sink turns compute-bound halfway through. The
  // tuner must register back-off adjustments once pops exceed the
  // latency bound.
  Pipeline pipeline;
  BatchPolicy policy = BatchPolicy::Adaptive(128, 1, 256, 5);
  policy.tune_every_records = 256;
  policy.slow_batch_ms = 0.5;
  std::vector<int> input(6000);
  std::iota(input.begin(), input.end(), 0);
  auto flow = Flow<int>::FromVector(
      &pipeline, input, {.name = "src", .capacity = 256, .batch = policy});
  std::atomic<size_t> seen{0};
  flow.Sink([&seen](const int&) {
    const size_t n = seen.fetch_add(1, std::memory_order_relaxed);
    if (n >= 3000) {
      // Slow phase: ~40us of "work" per record makes any target > ~12
      // exceed the 0.5ms/pop bound.
      std::this_thread::sleep_for(std::chrono::microseconds(40));
    }
  });
  pipeline.Run();

  ASSERT_NE(flow.tuner(), nullptr);
  const TunerState s = flow.tuner()->Snapshot();
  EXPECT_GT(s.adjust_down, 0u) << "tuner never backed off under the slow "
                                  "consumer phase";
  EXPECT_LT(s.target_batch, 128u);
}

TEST(TunerPipelineTest, DegenerateAdaptivePolicyRunsStatic) {
  Pipeline pipeline;
  const BatchPolicy policy = BatchPolicy::Adaptive(16, 32, 32);
  std::vector<int> input(5000);
  std::iota(input.begin(), input.end(), 0);
  auto flow = Flow<int>::FromVector(
      &pipeline, input, {.name = "src", .capacity = 64, .batch = policy});
  EXPECT_EQ(flow.tuner(), nullptr);  // no controller created
  std::vector<int> out;
  flow.CollectInto(&out);
  pipeline.Run();
  EXPECT_EQ(out.size(), input.size());
  for (const StageMetrics& m : pipeline.Report()) {
    EXPECT_FALSE(m.tuned) << m.stage;
    EXPECT_EQ(m.tuner_samples, 0u) << m.stage;
  }
}

TEST(TunerPipelineTest, KeyedParallelSharesOneOutputTuner) {
  Pipeline pipeline;
  BatchPolicy policy = BatchPolicy::Adaptive(8, 1, 128, 5);
  policy.tune_every_records = 256;
  std::vector<int> input(30000);
  std::iota(input.begin(), input.end(), 0);
  struct State {
    long long sum = 0;
  };
  auto flow =
      Flow<int>::FromVector(&pipeline, input,
                            {.name = "src", .capacity = 128, .batch = policy})
          .KeyedProcessParallel<int, State>(
              [](const int& x) { return static_cast<uint64_t>(x % 16); },
              [](const int& x, State& st,
                 const std::function<void(int)>& emit) {
                st.sum += x;
                emit(x);
              },
              4, nullptr, {.name = "par", .capacity = 128});
  ASSERT_NE(flow.tuner(), nullptr);
  std::vector<int> out;
  flow.CollectInto(&out);
  pipeline.Run();
  EXPECT_EQ(out.size(), input.size());
  // All four workers fed the same controller; its state must be coherent.
  const TunerState s = flow.tuner()->Snapshot();
  EXPECT_GE(s.target_batch, 1u);
  EXPECT_LE(s.target_batch, 128u);
  EXPECT_GT(s.samples, 0u);
}

// ------------------------------ partition-edge tuners + skew summary

TEST(WorkerEdgeTunerTest, StarvedConsumerSlowPopsDoNotBackOff) {
  // A cold partition edge of a skewed fan-out: its consumer spends the
  // whole window parked in Pop, so the few pops it takes look slow per
  // wall clock — but that is arrival-limited, not work-limited. The
  // starvation gate must hold the target instead of shrinking it in
  // sympathy with the hot edge.
  FakeEdge edge;
  BatchPolicy policy = BatchPolicy::Adaptive(64, 4, 64);
  policy.slow_batch_ms = 0.0;  // any measurable pop time is "slow"
  BatchTuner tuner(policy, edge.SnapshotFn());

  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  edge.Window(64, 1, 1);
  // Blocked longer than any plausible window wall time: starved_fraction
  // lands far above kTunerBackoffMaxStarvedFraction.
  edge.ConsumerBlocked(uint64_t{10} * 1000 * 1000 * 1000);
  tuner.Sample();
  EXPECT_EQ(tuner.target(), 64u);
  EXPECT_EQ(tuner.Snapshot().adjust_down, 0u);

  // Same evidence WITHOUT starvation: the classic back-off must still
  // fire (the gate only suppresses arrival-limited slowness).
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  edge.Window(64, 1, 1);
  tuner.Sample();
  EXPECT_EQ(tuner.target(), 32u);
  EXPECT_EQ(tuner.Snapshot().adjust_down, 1u);
}

StageMetrics MakeEdge(uint64_t records, size_t target, uint64_t down) {
  StageMetrics m;
  m.records_in = records;
  m.tuned = true;
  m.tuner_target_batch = target;
  m.tuner_adjust_down = down;
  return m;
}

TEST(WorkerEdgeTunerTest, SummarizeSplitsHotAndColdEdges) {
  // One edge carries 1000 of 1300 records (≥ 2× the 325 mean): hot. Its
  // back-offs land in hot_adjust_down; the cold straggler's lone back-off
  // stays in cold_adjust_down so a skew report can tell them apart.
  const std::vector<StageMetrics> edges = {
      MakeEdge(1000, 8, 3), MakeEdge(100, 64, 0), MakeEdge(100, 64, 0),
      MakeEdge(100, 64, 1)};
  const WorkerEdgeSkew s = SummarizeWorkerEdges(edges);
  EXPECT_EQ(s.edges, 4u);
  EXPECT_EQ(s.hot_edges, 1u);
  EXPECT_EQ(s.hot_records, 1000u);
  EXPECT_EQ(s.hot_adjust_down, 3u);
  EXPECT_EQ(s.cold_adjust_down, 1u);
  EXPECT_EQ(s.min_target, 8u);
  EXPECT_EQ(s.max_target, 64u);
  EXPECT_NEAR(s.mean_records, 325.0, 1e-9);
  EXPECT_NEAR(s.skew_ratio, 1000.0 / 325.0, 1e-9);
}

TEST(WorkerEdgeTunerTest, SummarizeUniformLoadHasNoHotEdges) {
  const std::vector<StageMetrics> edges = {MakeEdge(500, 32, 0),
                                           MakeEdge(500, 32, 0)};
  const WorkerEdgeSkew s = SummarizeWorkerEdges(edges);
  EXPECT_EQ(s.hot_edges, 0u);
  EXPECT_NEAR(s.skew_ratio, 1.0, 1e-9);
  EXPECT_EQ(SummarizeWorkerEdges({}).edges, 0u);
}

TEST(WorkerEdgeTunerTest, FusedKeyedStageReportsPerEdgeTunerState) {
  Pipeline pipeline;
  BatchPolicy policy = BatchPolicy::Adaptive(8, 1, 128, 5);
  policy.tune_every_records = 256;
  std::vector<int> input(30000);
  std::iota(input.begin(), input.end(), 0);
  auto flow =
      Flow<int>::FromVector(&pipeline, input,
                            {.name = "src", .capacity = 128, .batch = policy})
          .Fuse()
          .Map<int>([](const int& x) { return x + 1; })
          .KeyedProcessParallel<int, long long>(
              [](const int& x) { return static_cast<uint64_t>(x % 16); },
              [](const int& x, long long& sum,
                 const std::function<void(int)>& emit) {
                sum += x;
                emit(x);
              },
              4, nullptr, {.name = "par", .capacity = 128});
  std::vector<int> out;
  flow.CollectInto(&out);
  pipeline.Run();
  EXPECT_EQ(out.size(), input.size());
  bool found = false;
  for (const StageMetrics& m : pipeline.Report()) {
    if (m.stage != "par") continue;
    found = true;
    ASSERT_EQ(m.worker_edges.size(), 4u);
    uint64_t edge_records = 0;
    for (const StageMetrics& e : m.worker_edges) {
      EXPECT_TRUE(e.tuned) << e.stage;
      EXPECT_NE(e.stage.find(".part"), std::string::npos) << e.stage;
      edge_records += e.records_in;
    }
    // Every record that reached the stage crossed exactly one
    // partition edge.
    EXPECT_EQ(edge_records, input.size());
    EXPECT_GE(m.skew_ratio, 1.0);
  }
  EXPECT_TRUE(found);
  const std::string json = pipeline.ReportJson();
  EXPECT_NE(json.find("\"worker_edges\""), std::string::npos);
  EXPECT_NE(json.find("\"skew_ratio\""), std::string::npos);
}

TEST(WorkerEdgeTunerTest, RouterInputTunerSeedsFromUpstreamTarget) {
  // Regression: the router used to pop its input at the UPSTREAM edge's
  // tuner verbatim, so a fused prefix that changes the per-record cost
  // at the router was tuned against the wrong edge. The router input now
  // gets its own controller, seeded from the upstream target (8 here)
  // rather than the stage policy's own seed (64) — visible as the
  // ".router_in" report row.
  Pipeline pipeline;
  BatchPolicy src_policy = BatchPolicy::Adaptive(8, 1, 128, 5);
  src_policy.tune_every_records = 1 << 30;  // hold the seed all run
  BatchPolicy stage_policy = BatchPolicy::Adaptive(64, 1, 256, 5);
  stage_policy.tune_every_records = 1 << 30;
  std::vector<int> input(500);
  std::iota(input.begin(), input.end(), 0);
  auto flow =
      Flow<int>::FromVector(
          &pipeline, input,
          {.name = "src", .capacity = 64, .batch = src_policy})
          .Fuse()
          .Map<int>([](const int& x) { return x * 2; })
          .KeyedProcessParallel<int, long long>(
              [](const int& x) { return static_cast<uint64_t>(x % 5); },
              [](const int& x, long long& sum,
                 const std::function<void(int)>& emit) {
                sum += x;
                emit(x);
              },
              3, nullptr,
              {.name = "par", .capacity = 64, .batch = stage_policy});
  std::vector<int> out;
  flow.CollectInto(&out);
  pipeline.Run();
  EXPECT_EQ(out.size(), input.size());
  bool found = false;
  for (const StageMetrics& m : pipeline.Report()) {
    if (m.stage != "par.router_in") continue;
    found = true;
    EXPECT_TRUE(m.tuned);
    EXPECT_EQ(m.tuner_target_batch, 8u)
        << "router input must seed from the upstream target, not the "
           "stage policy seed";
  }
  EXPECT_TRUE(found);
}

// ------------------------------------- shutdown under the watchdog

// Watchdog: fails (instead of hanging the suite) when the pipeline does
// not shut down in time.
void ExpectCompletesWithin(std::function<void()> body, int timeout_ms) {
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  std::thread([body = std::move(body), done] {
    body();
    done->set_value();
  }).detach();
  ASSERT_EQ(finished.wait_for(std::chrono::milliseconds(timeout_ms)),
            std::future_status::ready)
      << "pipeline hung: adaptive shutdown deadlock regression";
}

TEST(TunerShutdownTest, AdaptiveFusedChainCancelPropagatesToSource) {
  ExpectCompletesWithin(
      [] {
        Pipeline pipeline;
        BatchPolicy policy = BatchPolicy::Adaptive(16, 1, 512, 1);
        policy.tune_every_records = 128;
        std::atomic<int> produced{0};
        // Infinite generator: only upstream cancellation can end it.
        auto source = Flow<int>::FromGenerator(
            &pipeline, [&produced]() -> std::optional<int> { return produced++; },
            {.name = "gen", .capacity = 4, .batch = policy});
        auto fused = source.Fuse()
                         .Map<int>([](const int& x) { return x + 1; })
                         .Filter([](const int& x) { return x % 3 != 0; })
                         .Emit({.name = "fused", .capacity = 4});
        size_t seen = 0;
        fused.SinkWhile([&seen](const int&) { return ++seen < 500; });
        pipeline.Run();
        EXPECT_GE(seen, 500u);
        bool source_cancelled = false;
        for (const auto& m : pipeline.Report()) {
          if (m.stage == "gen") source_cancelled = m.cancelled;
        }
        EXPECT_TRUE(source_cancelled);
      },
      5000);
}

TEST(TunerShutdownTest, AdaptiveSinkCancelsMidRetargetedBatch) {
  ExpectCompletesWithin(
      [] {
        Pipeline pipeline;
        BatchPolicy policy = BatchPolicy::Adaptive(8, 1, 1024, 1);
        policy.tune_every_records = 64;  // re-target often mid-run
        std::vector<int> input(200000);
        std::iota(input.begin(), input.end(), 0);
        auto flow =
            Flow<int>::FromVector(
                &pipeline, input,
                {.name = "src", .capacity = 4, .batch = policy})
                .Map<int>([](const int& x) { return x + 1; }, {.capacity = 4});
        size_t seen = 0;
        flow.SinkWhile([&seen](const int&) { return ++seen < 100; });
        pipeline.Run();
        EXPECT_GE(seen, 100u);
      },
      5000);
}

TEST(TunerShutdownTest, ConsumerCloseAndDrainUnblocksAdaptiveProducer) {
  ExpectCompletesWithin(
      [] {
        // Raw channel use: an adaptive-sized producer blocked in
        // PushBatch must observe CloseAndDrain and give up.
        auto ch = std::make_shared<Channel<int>>(2);
        BatchPolicy policy = BatchPolicy::Adaptive(64, 1, 256, -1);
        BatchTuner tuner(policy, [ch] { return ch->MetricsSnapshot(); });
        std::thread producer([ch, &tuner] {
          std::vector<int> batch(tuner.target());
          std::iota(batch.begin(), batch.end(), 0);
          ch->PushBatch(std::move(batch));  // blocks: capacity 2 << 64
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ch->CloseAndDrain();
        producer.join();
        EXPECT_TRUE(ch->MetricsSnapshot().cancelled);
      },
      5000);
}

}  // namespace
}  // namespace tcmf::stream
