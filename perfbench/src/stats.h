#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Sample statistics and span arithmetic for the Figure-2 benchmark. Kept
// free of tcmf headers so the benchmark's own tests can check them alone.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Exact quantile of `samples` (nearest rank on a sorted copy); 0 when
/// empty.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const size_t rank = static_cast<size_t>(q * (samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

/// The tail quantile a sample of `n` supports: the highest quantile at or
/// below `wanted` that leaves at least ten samples beyond it, so a
/// reported "p99" never rests on fewer than ten observations. With fewer
/// than twenty samples it falls back to the median.
inline double SupportedTailQuantile(size_t n, double wanted = 0.99) {
  if (n < 20) return 0.5;
  return std::min(wanted, 1.0 - 10.0 / static_cast<double>(n));
}

/// Median and supported tail of one sample.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;       ///< value at `tail_q`
  double tail_q = 0.0;     ///< the quantile actually reported as the tail
};

inline Summary Summarize(const std::vector<double>& samples,
                         double wanted_tail = 0.99) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.tail_q = SupportedTailQuantile(samples.size(), wanted_tail);
  s.p50 = Quantile(samples, 0.5);
  s.tail = Quantile(samples, s.tail_q);
  return s;
}

/// Median of a small set of per-segment or per-pass values.
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// One traced interval: a layer call on behalf of one record (`trace_id`)
/// or of a batch. `parent` is the index of the enclosing span in the same
/// span list, or -1.
struct Span {
  std::string layer;
  uint64_t trace_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once; a child
/// running past its parent is clipped to the parent).
inline std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t a = std::max(s.start_ns, p.start_ns);
    const int64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) children[static_cast<size_t>(s.parent)].push_back({a, b});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > cur_b) {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (open) covered += cur_b - cur_a;
    self[i] = std::max<int64_t>(0, (spans[i].end_ns - spans[i].start_ns) -
                                       covered);
  }
  return self;
}

/// Waits between consecutive layers of one record: for each trace id, its
/// root spans (parent < 0) ordered by start; the wait charged to a layer
/// is that span's start minus the previous span's end (never negative).
/// Returns layer -> list of waits in ns.
inline std::map<std::string, std::vector<int64_t>> WaitsNs(
    const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<const Span*>> by_trace;
  for (const Span& s : spans) {
    if (s.parent < 0) by_trace[s.trace_id].push_back(&s);
  }
  std::map<std::string, std::vector<int64_t>> waits;
  for (auto& [id, list] : by_trace) {
    std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
      return a->start_ns < b->start_ns;
    });
    for (size_t i = 1; i < list.size(); ++i) {
      waits[list[i]->layer].push_back(
          std::max<int64_t>(0, list[i]->start_ns - list[i - 1]->end_ns));
    }
  }
  return waits;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
