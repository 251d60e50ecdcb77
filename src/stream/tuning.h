#ifndef TCMF_STREAM_TUNING_H_
#define TCMF_STREAM_TUNING_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>

#include "stream/metrics.h"

namespace tcmf::stream {

/// Controller constants of the adaptive BatchTuner (docs/STREAM_TUNING.md
/// §4). No edge needs them changed, so they are not part of BatchPolicy.
///
/// Growth gate: the tuner only raises the target while producers
/// actually fill batches to at least this fraction of it (a trickling
/// edge gains nothing from a bigger target).
inline constexpr double kTunerFillThreshold = 0.5;
/// Hill-climb step factors (next = target * factor, clamped).
inline constexpr double kTunerIncreaseFactor = 2.0;
inline constexpr double kTunerDecreaseFactor = 0.5;
/// Consecutive no-change samples before the tuner reports the target as
/// converged (StageMetrics::tuner_converged_batch).
inline constexpr uint32_t kTunerConvergeAfter = 4;
/// Back-off gate: a slow-pop window only triggers back-off when the
/// consumer spent LESS than this fraction of the window blocked waiting
/// for input. A starved edge (consumer mostly parked in Pop) shows a
/// large wall-time-per-pop too, but that is arrival-limited, not
/// work-limited — shrinking its target buys nothing. The per-partition
/// edges of a skewed keyed fan-out rely on this: cold partitions starve
/// while the hot worker grinds, and without the gate every cold edge
/// would back off in sympathy with the hot one.
inline constexpr double kTunerBackoffMaxStarvedFraction = 0.5;

/// Batch transport policy for dataflow operators — the per-edge knob set
/// of the stream substrate. The full written performance model (what each
/// knob does, how to read the metrics, how the adaptive controller
/// behaves) lives in docs/STREAM_TUNING.md.
///
/// Static mode: `max_batch` is the largest number of elements moved per
/// channel transfer (1 = the record-at-a-time path, bit-compatible with
/// the pre-batching runtime); `max_linger_ms` bounds how long a
/// partially-filled output batch may be held back waiting to fill up —
/// the classic throughput/latency linger knob (Kafka `linger.ms`). A
/// negative linger means "flush only when the batch is full or the
/// stream ends" (maximum amortization, unbounded staging latency).
///
/// Adaptive mode (`max_batch_cap > min_batch`, build with `Adaptive()`):
/// `max_batch` is only the *seed*; every operator edge gets a private
/// BatchTuner that re-targets the batch size inside
/// [min_batch, max_batch_cap], clamped to the edge's capacity, from the
/// edge's own StageMetrics — no hand-tuning per edge. When `min_batch == max_batch_cap` the policy
/// degenerates to the static policy `Batched(min_batch)`: no tuner is
/// created and no adjustments ever happen.
///
/// Batch boundaries — static, adaptive, or mid-run re-targeted — are
/// invisible to operators and to observers of the output: the
/// differential harness (tests/stream_batch_equiv_test.cc) proves every
/// {batch, capacity, parallelism, adaptivity} combination produces the
/// same output multiset as record-at-a-time execution.
struct BatchPolicy {
  size_t max_batch = 1;      ///< per-transfer element cap (adaptive: seed)
  int64_t max_linger_ms = 5; ///< partial-batch flush bound (<0 = never)

  // --- adaptive controller configuration (inert unless adaptive()) ---
  /// Lower bound of the tuner's search range.
  size_t min_batch = 1;
  /// Upper bound of the tuner's search range; 0 (or == min_batch)
  /// disables the controller entirely.
  size_t max_batch_cap = 0;
  /// Controller cadence: one sample/adjustment per this many records the
  /// producing stage pushes through the edge.
  uint64_t tune_every_records = 2048;
  /// Latency bound: when one consumer pop's worth of downstream work
  /// exceeds this, transport amortization is irrelevant (the consumer is
  /// compute/IO-bound, not lock-bound) and the tuner halves the target to
  /// cut batch-staging latency.
  double slow_batch_ms = 1.0;

  bool batched() const { return max_batch > 1 || adaptive(); }

  /// True when the adaptive controller has a non-degenerate search range.
  bool adaptive() const { return max_batch_cap > min_batch; }

  /// True when partial batches are flushed on a timer.
  bool LingerEnabled() const { return max_linger_ms >= 0; }

  /// Upper bound a consumer should pass to PopBatch: popping up to the
  /// cap is always safe (DrainLocked takes what is queued), and adaptive
  /// consumers additionally track the live tuner target.
  size_t PopMax() const { return adaptive() ? max_batch_cap : max_batch; }

  /// Record-at-a-time transport (the default).
  static BatchPolicy Single() { return BatchPolicy{1, 0}; }

  /// Amortized transport: up to `max_batch` elements per lock
  /// acquisition, partial batches flushed after `linger_ms`.
  static BatchPolicy Batched(size_t max_batch = 64, int64_t linger_ms = 5) {
    return BatchPolicy{max_batch == 0 ? 1 : max_batch, linger_ms};
  }

  /// Self-tuning transport: starts at `seed_batch` and hill-climbs the
  /// per-edge target within [min_batch, max_batch_cap] from observed
  /// StageMetrics (see BatchTuner). `min_batch == max_batch_cap`
  /// degenerates to Batched(min_batch).
  static BatchPolicy Adaptive(size_t seed_batch = 16, size_t min_batch = 1,
                              size_t max_batch_cap = 1024,
                              int64_t linger_ms = 5) {
    BatchPolicy p;
    if (min_batch == 0) min_batch = 1;
    if (max_batch_cap < min_batch) max_batch_cap = min_batch;
    p.max_batch = std::clamp(seed_batch, min_batch, max_batch_cap);
    p.max_linger_ms = linger_ms;
    p.min_batch = min_batch;
    p.max_batch_cap = max_batch_cap;
    return p;
  }
};

/// A consistent snapshot of one edge's controller state (see
/// BatchTuner::Snapshot and the matching StageMetrics tuner_* fields).
struct TunerState {
  size_t target_batch = 0;    ///< current flush/pop target
  size_t min_batch = 0;       ///< search range lower bound
  size_t max_batch_cap = 0;   ///< search range upper bound
  uint64_t samples = 0;       ///< non-idle controller samples taken
  uint64_t adjust_up = 0;     ///< times the target was raised
  uint64_t adjust_down = 0;   ///< times the target was lowered
  size_t converged_batch = 0; ///< stable target (0 until converged)
  double last_mean_push_batch = 0.0; ///< mean push size, last window
  double last_pop_ms = 0.0;   ///< wall ms per consumer pop, last window
                              ///< (-1 when the consumer made no pops)
};

/// Per-edge adaptive batching controller: the auto-tuner behind
/// BatchPolicy::Adaptive(). One BatchTuner is attached to one channel
/// edge; the edge's *producer* drives it (OnRecords piggybacks on the
/// existing RunStage/BatchEmitter loop — no extra threads, no timers)
/// and both sides read the live target: the producer as its batch flush
/// threshold, the consumer as its PopBatch size.
///
/// Controller ("hill-climbing within [min_batch, max_batch_cap]"): every
/// `tune_every_records` records it samples the edge's StageMetrics,
/// computes window deltas, and applies one move —
///
///   1. BACK OFF (multiplicative decrease) when the consumer's wall time
///      per pop exceeds `slow_batch_ms`: downstream work per transfer
///      already dwarfs the lock cost, so a bigger batch buys no
///      throughput and only inflates batch-staging latency. This is the
///      slow-consumer phase-change response.
///   2. GROW (multiplicative increase, clamped to the cap) when
///      producers fill at least kTunerFillThreshold of the current
///      target: the edge is transfer-granularity-limited and a larger
///      batch amortizes the channel lock further.
///   3. HOLD otherwise; kTunerConvergeAfter consecutive holds publish
///      the target as the converged batch size.
///
/// Every decision is observable: Pipeline::Report()/ReportJson() carry
/// the tuner state (target, adjustments up/down, converged size, last
/// window signals) in the edge's StageMetrics. The full derivation and
/// worked examples live in docs/STREAM_TUNING.md.
///
/// Thread safety: target() is a relaxed atomic read (hot path, both
/// sides); OnRecords may be called by several producer threads (shared
/// output edges — KeyedProcessParallel workers); sampling and state
/// snapshots serialize on an internal mutex.
class BatchTuner {
 public:
  /// `edge_snapshot` must return the owning channel's MetricsSnapshot();
  /// `policy` supplies the seed, range and controller knobs.
  BatchTuner(const BatchPolicy& policy,
             std::function<StageMetrics()> edge_snapshot)
      : policy_(policy),
        snapshot_(std::move(edge_snapshot)),
        target_(policy.adaptive()
                    ? std::clamp(policy.max_batch, policy.min_batch,
                                 policy.max_batch_cap)
                    : std::max<size_t>(1, policy.max_batch)),
        last_time_(std::chrono::steady_clock::now()) {}

  BatchTuner(const BatchTuner&) = delete;
  BatchTuner& operator=(const BatchTuner&) = delete;

  /// Current per-transfer target. Producers flush staged batches at this
  /// size; consumers pop up to it.
  size_t target() const { return target_.load(std::memory_order_relaxed); }

  /// Producer-side hook: account `n` records moved through the edge and
  /// run one controller sample when the cadence is due. Cheap when not
  /// due (one relaxed fetch_add).
  void OnRecords(uint64_t n) {
    if (pending_.fetch_add(n, std::memory_order_relaxed) + n <
        policy_.tune_every_records) {
      return;
    }
    pending_.store(0, std::memory_order_relaxed);
    Sample();
  }

  /// Takes one controller sample immediately (normally driven by
  /// OnRecords; exposed for end-of-stream flushes and tests).
  void Sample() {
    const StageMetrics snap = snapshot_();
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(now - last_time_).count();
    const uint64_t d_rec_in = snap.records_in - last_.records_in;
    const uint64_t d_bat_in = snap.batches_in - last_.batches_in;
    const uint64_t d_bat_out = snap.batches_out - last_.batches_out;
    const uint64_t d_cons_blocked_ns =
        snap.consumer_blocked_ns - last_.consumer_blocked_ns;
    last_ = snap;
    last_time_ = now;
    if (wall_ms <= 0.0 || d_rec_in == 0) return;  // idle window: no evidence
    ++samples_;

    const double mean_push =
        d_bat_in ? static_cast<double>(d_rec_in) / d_bat_in : 0.0;
    const double pop_ms =
        d_bat_out ? wall_ms / d_bat_out
                  : std::numeric_limits<double>::infinity();
    last_mean_push_ = mean_push;
    last_pop_ms_ = pop_ms;

    if (!policy_.adaptive()) return;
    const size_t cur = target_.load(std::memory_order_relaxed);
    size_t next = cur;
    const double starved_fraction =
        static_cast<double>(d_cons_blocked_ns) / (wall_ms * 1e6);
    if (pop_ms > policy_.slow_batch_ms &&
        starved_fraction < kTunerBackoffMaxStarvedFraction) {
      // Slow consumer: back off, or hold at the floor. Growing here
      // would only add batch-staging latency (and oscillate at
      // min_batch). A *starved* consumer is exempt: its pops are rare
      // because records trickle in, not because each pop's work is
      // heavy — the cold partitions of a skewed keyed fan-out would
      // otherwise back off in sympathy with the hot one.
      if (cur > policy_.min_batch) {
        next = std::max(policy_.min_batch,
                        static_cast<size_t>(cur * kTunerDecreaseFactor));
        if (next < cur) ++adjust_down_;
      }
    } else if (cur < policy_.max_batch_cap &&
               mean_push >= kTunerFillThreshold * cur) {
      next = std::min(
          policy_.max_batch_cap,
          std::max(cur + 1, static_cast<size_t>(cur * kTunerIncreaseFactor)));
      if (next > cur) ++adjust_up_;
    }
    if (next != cur) {
      target_.store(next, std::memory_order_relaxed);
      holds_ = 0;
      converged_ = 0;
    } else if (converged_ == 0 && ++holds_ >= kTunerConvergeAfter) {
      converged_ = cur;
    }
  }

  /// Consistent state snapshot (for reports and tests).
  TunerState Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    TunerState s;
    s.target_batch = target_.load(std::memory_order_relaxed);
    s.min_batch = policy_.min_batch;
    s.max_batch_cap = policy_.max_batch_cap;
    s.samples = samples_;
    s.adjust_up = adjust_up_;
    s.adjust_down = adjust_down_;
    s.converged_batch = converged_;
    s.last_mean_push_batch = last_mean_push_;
    s.last_pop_ms = std::isinf(last_pop_ms_) ? -1.0 : last_pop_ms_;
    return s;
  }

  /// Merges the tuner state into an edge's StageMetrics snapshot (wired
  /// by Pipeline::RegisterChannelStage so ReportJson exposes it).
  void FillStageMetrics(StageMetrics* m) const {
    if (!policy_.adaptive()) return;
    const TunerState s = Snapshot();
    m->tuned = true;
    m->tuner_target_batch = s.target_batch;
    m->tuner_min_batch = s.min_batch;
    m->tuner_batch_cap = s.max_batch_cap;
    m->tuner_samples = s.samples;
    m->tuner_adjust_up = s.adjust_up;
    m->tuner_adjust_down = s.adjust_down;
    m->tuner_converged_batch = s.converged_batch;
    m->tuner_mean_push_batch = s.last_mean_push_batch;
    m->tuner_pop_ms = s.last_pop_ms;
  }

 private:
  const BatchPolicy policy_;
  const std::function<StageMetrics()> snapshot_;

  std::atomic<size_t> target_;
  std::atomic<uint64_t> pending_{0};  ///< records since the last sample

  mutable std::mutex mutex_;  // guards everything below
  StageMetrics last_;         ///< edge snapshot at the last sample
  std::chrono::steady_clock::time_point last_time_;
  uint64_t samples_ = 0;
  uint64_t adjust_up_ = 0;
  uint64_t adjust_down_ = 0;
  uint64_t holds_ = 0;
  size_t converged_ = 0;
  double last_mean_push_ = 0.0;
  double last_pop_ms_ = 0.0;
};

/// Skew-aware aggregate over a keyed stage's partition-edge snapshots
/// (StageMetrics::worker_edges). The per-edge controllers are independent
/// by construction — a hot partition backs off on its own slow-pop
/// evidence while the starvation gate (kTunerBackoffMaxStarvedFraction)
/// keeps cold edges from shrinking in sympathy — so aggregation here is pure reporting: it must classify
/// edges against the record distribution instead of averaging controller
/// state away (a mean target over one hot and three cold edges describes
/// no edge at all).
struct WorkerEdgeSkew {
  size_t edges = 0;          ///< partition edges summarized
  size_t hot_edges = 0;      ///< edges with records_in ≥ hot_factor × mean
  uint64_t hot_records = 0;  ///< records_in summed over the hot edges
  double mean_records = 0.0; ///< mean records_in across all edges
  double skew_ratio = 0.0;   ///< hottest edge / mean (WorkerEdgeSkewRatio)
  size_t min_target = 0;     ///< smallest live tuner target across edges
  size_t max_target = 0;     ///< largest live tuner target across edges
  uint64_t hot_adjust_down = 0;   ///< back-offs taken by hot edges
  uint64_t cold_adjust_down = 0;  ///< back-offs taken by cold edges
};

/// Classifies each partition edge as hot (records_in ≥ `hot_factor` ×
/// the mean across edges) or cold and splits the controllers' back-off
/// counts accordingly. A healthy skewed stage shows hot_adjust_down > 0
/// with cold_adjust_down == 0: the hot worker's edge shrank its batch
/// target (slow-pop evidence) and the cold edges held theirs.
inline WorkerEdgeSkew SummarizeWorkerEdges(
    const std::vector<StageMetrics>& edges, double hot_factor = 2.0) {
  WorkerEdgeSkew s;
  s.edges = edges.size();
  if (edges.empty()) return s;
  uint64_t total = 0;
  for (const StageMetrics& e : edges) total += e.records_in;
  s.mean_records = static_cast<double>(total) / edges.size();
  s.skew_ratio = WorkerEdgeSkewRatio(edges);
  for (const StageMetrics& e : edges) {
    const bool hot = s.mean_records > 0.0 &&
                     static_cast<double>(e.records_in) >=
                         hot_factor * s.mean_records;
    if (hot) {
      ++s.hot_edges;
      s.hot_records += e.records_in;
      s.hot_adjust_down += e.tuner_adjust_down;
    } else {
      s.cold_adjust_down += e.tuner_adjust_down;
    }
    if (e.tuned) {
      if (s.min_target == 0 || e.tuner_target_batch < s.min_target) {
        s.min_target = e.tuner_target_batch;
      }
      s.max_target = std::max<size_t>(s.max_target, e.tuner_target_batch);
    }
  }
  return s;
}

}  // namespace tcmf::stream

#endif  // TCMF_STREAM_TUNING_H_
