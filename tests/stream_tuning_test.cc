// Tests for pop-sized adaptive batching (BatchPolicy::Adaptive, see
// docs/STREAM_TUNING.md): an adaptive stage flushes what one pop produced
// instead of holding outputs for more input, a fast source still moves
// large batches, keyed-parallel stages report their partition edges with
// no per-edge controller rows, and adaptive + Fuse() + CloseAndDrain()
// shutdown completes under the watchdog harness.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
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

// ------------------------------------------------- pop-sized batching

TEST(AdaptiveEdgeTest, OneRecordCrossesAdaptiveMapWithoutMoreInput) {
  // One record, then the source holds the stream open until the sink has
  // seen it. Linger -1 disables every timer, so the record can only get
  // through if each stage flushes what its pop produced.
  ExpectCompletesWithin(
      [] {
        Pipeline pipeline;
        auto seen = std::make_shared<std::atomic<bool>>(false);
        auto offered = std::make_shared<bool>(false);
        auto arrived_before_end = std::make_shared<bool>(false);
        Flow<int>::FromBatchGenerator(
            &pipeline,
            [seen, offered, arrived_before_end](std::vector<int>* out,
                                                size_t) -> size_t {
              if (!*offered) {
                *offered = true;
                out->push_back(7);
                return 1;
              }
              const auto deadline =
                  std::chrono::steady_clock::now() + std::chrono::seconds(2);
              while (!seen->load() &&
                     std::chrono::steady_clock::now() < deadline) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
              }
              *arrived_before_end = seen->load();
              return 0;
            },
            {.name = "src", .batch = BatchPolicy::Adaptive(1024, -1)})
            .Map<int>([](const int& x) { return x + 1; }, {.name = "inc"})
            .Sink([seen](const int& x) {
              EXPECT_EQ(x, 8);
              seen->store(true);
            });
        pipeline.Run();
        EXPECT_TRUE(*arrived_before_end)
            << "the adaptive Map held a lone record until end of stream";
      },
      10000);
}

TEST(AdaptiveEdgeTest, FastSourceStillMovesLargeBatches) {
  // Pop-sized batching must not degrade to record-at-a-time when input
  // is plentiful: a fast source fills its staging batch, and the stage
  // behind it pops what the source pushed.
  Pipeline pipeline;
  std::vector<int> input(100000);
  std::iota(input.begin(), input.end(), 0);
  std::vector<int> out;
  Flow<int>::FromVector(&pipeline, input,
                        {.name = "src",
                         .capacity = 256,
                         .batch = BatchPolicy::Adaptive()})
      .Map<int>([](const int& x) { return x * 2; },
                {.name = "dbl", .capacity = 256})
      .CollectInto(&out);
  pipeline.Run();
  ASSERT_EQ(out.size(), input.size());
  size_t edges = 0;
  for (const StageMetrics& m : pipeline.Report()) {
    ++edges;
    EXPECT_GT(m.MeanBatchIn(), 8.0) << m.stage;
  }
  EXPECT_EQ(edges, 2u);
}

TEST(AdaptiveEdgeTest, FusedKeyedStageReportsPartitionEdges) {
  Pipeline pipeline;
  std::vector<int> input(30000);
  std::iota(input.begin(), input.end(), 0);
  auto flow =
      Flow<int>::FromVector(&pipeline, input,
                            {.name = "src",
                             .capacity = 128,
                             .batch = BatchPolicy::Adaptive(128, 5)})
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
  const std::vector<StageMetrics> report = pipeline.Report();
  ASSERT_EQ(report.size(), 2u);  // src and par: no auxiliary rows
  const StageMetrics& m = report[1];
  EXPECT_EQ(m.stage, "par");
  ASSERT_EQ(m.worker_edges.size(), 4u);
  uint64_t edge_records = 0;
  for (const StageMetrics& e : m.worker_edges) {
    EXPECT_NE(e.stage.find(".part"), std::string::npos) << e.stage;
    edge_records += e.records_in;
  }
  // Every record that reached the stage crossed exactly one partition
  // edge.
  EXPECT_EQ(edge_records, input.size());
  EXPECT_GE(m.skew_ratio, 1.0);
  const std::string json = pipeline.ReportJson();
  EXPECT_NE(json.find("\"worker_edges\""), std::string::npos);
  EXPECT_NE(json.find("\"skew_ratio\""), std::string::npos);
}

// ------------------------------------- shutdown under the watchdog

TEST(TunerShutdownTest, AdaptiveFusedChainCancelPropagatesToSource) {
  ExpectCompletesWithin(
      [] {
        Pipeline pipeline;
        BatchPolicy policy = BatchPolicy::Adaptive(512, 1);
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
        BatchPolicy policy = BatchPolicy::Adaptive(1024, 1);
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
        // Raw channel use: a producer blocked in PushBatch must observe
        // CloseAndDrain and give up.
        auto ch = std::make_shared<Channel<int>>(2);
        std::thread producer([ch] {
          std::vector<int> batch(64);
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
