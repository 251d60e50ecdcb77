#ifndef TCMF_STREAM_TUNING_H_
#define TCMF_STREAM_TUNING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace tcmf::stream {

/// Batch transport policy for dataflow operators — the per-edge knob set
/// of the stream substrate. The full written performance model (what each
/// knob does, how to read the metrics) lives in docs/STREAM_TUNING.md.
///
/// Static mode (`Batched()`): `max_batch` is the largest number of
/// elements moved per channel transfer (1 = the record-at-a-time path,
/// bit-compatible with the pre-batching runtime); `max_linger_ms` bounds
/// how long a partially-filled output batch may be held back waiting to
/// fill up — the classic throughput/latency linger knob (Kafka
/// `linger.ms`). A negative linger means "flush only when the batch is
/// full or the stream ends" (maximum amortization, unbounded staging
/// latency).
///
/// Adaptive mode (`Adaptive()`): the batch is whatever one pop takes.
/// Every stage pops what is queued on its input, up to `max_batch`
/// clamped to the edge's capacity (CapFor), and flushes the outputs of
/// that pop when it ends — so a busy edge moves large batches and a quiet
/// one moves single records, with no output held back waiting for more
/// input. Adaptive sources stage up to the clamped cap or
/// `max_linger_ms`, whichever comes first.
///
/// Batch boundaries are invisible to operators and to observers of the
/// output: the differential harness (tests/stream_batch_equiv_test.cc)
/// proves every {batch, capacity, parallelism, adaptivity} combination
/// produces the same output multiset as record-at-a-time execution.
struct BatchPolicy {
  size_t max_batch = 1;       ///< per-transfer element cap
  int64_t max_linger_ms = 5;  ///< partial-batch flush bound (<0 = never)
  bool adaptive = false;      ///< flush at the end of every pop

  bool batched() const { return max_batch > 1 || adaptive; }

  /// True when partial batches are flushed on a timer.
  bool LingerEnabled() const { return max_linger_ms >= 0; }

  /// Per-transfer cap on an edge holding at most `capacity` elements.
  /// Adaptive caps are clamped to it: a batch larger than the queue only
  /// makes every flush wait for the consumer to drain a full queue.
  size_t CapFor(size_t capacity) const {
    return adaptive ? std::min(max_batch, capacity) : max_batch;
  }

  /// Record-at-a-time transport (the default).
  static BatchPolicy Single() { return BatchPolicy{1, 0}; }

  /// Amortized transport: up to `max_batch` elements per lock
  /// acquisition, partial batches flushed after `linger_ms`.
  static BatchPolicy Batched(size_t max_batch = 64, int64_t linger_ms = 5) {
    return BatchPolicy{max_batch == 0 ? 1 : max_batch, linger_ms};
  }

  /// Pop-sized transport: each stage moves what one pop takes, up to
  /// `cap`; sources stage up to `cap` or `linger_ms`.
  static BatchPolicy Adaptive(size_t cap = 1024, int64_t linger_ms = 5) {
    return BatchPolicy{cap == 0 ? 1 : cap, linger_ms, true};
  }
};

}  // namespace tcmf::stream

#endif  // TCMF_STREAM_TUNING_H_
