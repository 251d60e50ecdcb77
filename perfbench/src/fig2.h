#ifndef PERFBENCH_FIG2_H_
#define PERFBENCH_FIG2_H_

// The Figure-2 pipeline as the benchmark drives it: an mlog topic tailed
// by a stream graph of cleaning -> FLP/CPA -> synopses -> {area links,
// CEP forecasts, RDF -> knowledge store}, plus the serial oracle that
// replays the same records through the same public calls.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cep/automaton.h"
#include "cep/forecast.h"
#include "common/position.h"
#include "geom/geometry.h"
#include "geom/stcell.h"
#include "insitu/lowlevel.h"
#include "linkdiscovery/linker.h"
#include "mlog/partitioned.h"
#include "prediction/cpa.h"
#include "rdf/rdfgen.h"
#include "scenario/fleet.h"
#include "store/kgstore.h"
#include "stats.h"
#include "stream/pipeline.h"
#include "synopses/critical_points.h"

namespace perfbench {

// The benchmark's private code reads the library's names unqualified.
using namespace tcmf;  // NOLINT(build/namespaces)

int64_t NowNs();
void SleepUntilNs(int64_t deadline_ns);

/// The records a workload offers, in offer order (which is event-time
/// order), plus the (entity, time) -> offer index map used to find a
/// record's scheduled arrival from any output derived from it.
struct Inputs {
  std::vector<uint64_t> keys;
  std::vector<Position> positions;
  std::unordered_map<uint64_t, std::unordered_map<int64_t, uint32_t>> index;

  size_t size() const { return positions.size(); }
  /// The record appended to the topic for offer `i` (built on demand so
  /// a large offer is held once, as positions).
  stream::Record RecordAt(size_t i) const {
    return stream::PositionToRecord(positions[i]);
  }
  /// Offer index of the first record with this entity and time; -1 when
  /// no offered record has them.
  int64_t IndexOf(uint64_t entity, TimeMs t) const;
};

/// Generates the position reports of `mix` (weather off) and keeps the
/// first `max_records` of them, with every entity id relabeled by a
/// bijection drawn from `relabel_seed`. The routing key stays the fleet's
/// own id, so the partition layout is the same for every seed (it alone
/// moved dense_drain's rate by about 30% between seeds). Never replays: when
/// the mix yields fewer records the caller gets fewer, and must size the
/// mix up.
Inputs MakeInputs(scenario::FleetMix mix, size_t max_records,
                  uint64_t relabel_seed);

/// The relabeling: XOR with a seed-drawn mask, then an odd multiplier,
/// both modulo 2^31 (a bijection there; fleet ids are below 2^31, and the
/// CPA screen's pair key needs ids below 2^32).
uint64_t RelabelId(uint64_t id, uint64_t seed);

/// The analytics' fixed configuration (regions, thresholds, CEP pattern,
/// RDF template). Built once per run from the seed.
struct Analytics {
  insitu::StreamCleaner::Options clean;
  prediction::CpaScreenOptions cpa;
  synopses::SynopsesConfig synopses;
  linkdiscovery::LinkerConfig link;
  std::vector<geom::Area> regions;
  cep::Dfa dfa;
  cep::WayebEngine::Options wayeb;
  geom::StCellEncoder encoder{geom::BBox{-10.0, 34.0, 10.0, 45.0}, 10, 0,
                              kMillisPerMinute};
  static constexpr size_t kFlpSteps = 6;
  static constexpr size_t kTriplesPerRecord = 7;  ///< position template
};
Analytics MakeAnalytics(uint64_t seed);
void MakeTemplate(rdf::GraphTemplate* tmpl, rdf::VariableVector* vars);
/// A fresh linker over the analytics' region catalog.
std::shared_ptr<linkdiscovery::SpatioTemporalLinker> NewLinker(
    const Analytics& a);

/// Identity of a critical point: entity, time, type.
using CpKey = std::tuple<uint64_t, TimeMs, int>;
CpKey KeyOf(const synopses::CriticalPoint& cp);

/// Per-family outputs. Streamed and oracle runs fill the same shape so
/// they compare as multisets (sorted vectors).
struct Outputs {
  std::vector<std::tuple<uint64_t, TimeMs, double, double>> cleaned;
  std::vector<std::tuple<uint64_t, TimeMs, double, double>> flp;
  std::vector<CpKey> cps;
  std::vector<std::tuple<uint64_t, TimeMs, uint64_t, int>> links;
  std::vector<std::tuple<uint64_t, TimeMs, int, int, int, double>> cep;
  /// CPA warnings with the two positions the screen compared.
  struct Warning {
    prediction::CollisionWarning w;
    Position a, b;
  };
  std::vector<Warning> warnings;
  uint64_t triples = 0;
  uint64_t cleaner_accepted = 0;
  uint64_t cleaner_seen = 0;
  linkdiscovery::LinkerStats link_stats;
  uint64_t cpa_pairs = 0;
  uint64_t cep_detections = 0;
  uint64_t cep_forecasts = 0;
  void Sort();
};

/// Per-layer counters and sampled spans, filled by the benchmark's
/// wrappers around each layer call. Untraced runs only count; traced runs
/// also time every call and keep a span for sampled trace ids. Safe to
/// share between the workers of one keyed stage; spans are read only
/// after every stage thread has joined.
class Probe {
 public:
  Probe(std::string layer, bool trace, uint64_t sample_every)
      : layer_(std::move(layer)), trace_(trace), every_(sample_every) {}
  bool tracing() const { return trace_; }
  bool Sampled(uint64_t trace_id) const {
    return trace_ && trace_id % every_ == 0;
  }

  /// Runs one call of the layer; when tracing, times it.
  template <typename F>
  auto Call(uint64_t trace_id, F&& f) -> decltype(f()) {
    if (!trace_) return f();
    struct Timer {
      Probe* p;
      uint64_t id;
      int64_t t0;
      ~Timer() { p->Close(id, t0, NowNs()); }
    } timer{this, trace_id, NowNs()};
    return f();
  }
  /// Records an already-timed call; returns the span's index or -1.
  int64_t Close(uint64_t trace_id, int64_t t0, int64_t t1,
                int64_t parent = -1) {
    Count(t0, t1);
    if (!Sampled(trace_id)) return -1;
    return AddSpan(layer_, trace_id, t0, t1, parent);
  }
  /// Counts one call without keeping a span.
  void Count(int64_t t0, int64_t t1) {
    calls.fetch_add(1, std::memory_order_relaxed);
    busy_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
  }
  /// Adds a span without counting a call (batch spans, child spans).
  int64_t AddSpan(const std::string& layer, uint64_t trace_id, int64_t t0,
                  int64_t t1, int64_t parent = -1) {
    std::lock_guard<std::mutex> lock(mu_);
    spans.push_back({layer, trace_id, t0, t1, parent});
    return static_cast<int64_t>(spans.size()) - 1;
  }

  const std::string& layer() const { return layer_; }
  std::atomic<uint64_t> calls{0};
  std::atomic<int64_t> busy_ns{0};
  std::atomic<uint64_t> failures{0};
  std::vector<Span> spans;

 private:
  std::mutex mu_;
  std::string layer_;
  bool trace_;
  uint64_t every_;
};

/// Owns every Probe of a run; stage threads each hold their own.
class Tracer {
 public:
  Tracer(bool trace, uint64_t sample_every)
      : trace_(trace), every_(sample_every) {}
  Probe* Make(const std::string& layer) {
    std::lock_guard<std::mutex> lock(mu_);
    probes_.push_back(std::make_unique<Probe>(layer, trace_, every_));
    return probes_.back().get();
  }
  bool tracing() const { return trace_; }
  /// Adds per-layer calls/busy/wait/self/failures to `metrics`.
  void Summarize(std::map<std::string, double>* metrics) const;
  /// Writes every kept span as one JSON object per line.
  bool WriteSpans(const std::string& path) const;

 private:
  bool trace_;
  uint64_t every_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Probe>> probes_;
};

/// Completion of one derived output: the position it came from (found
/// in Inputs::index after the run, off the timed path), and when it was
/// done.
struct Done {
  uint64_t entity = 0;
  TimeMs t = 0;
  int64_t done_ns = 0;
};
struct CpDone {
  CpKey cp;
  int64_t done_ns = 0;
};

/// Live consumption counters the workload's lag monitor samples.
struct TailProgress {
  std::atomic<uint64_t> consumed{0};
  std::atomic<bool> producer_done{false};
};

/// One consumer-group member reading every partition of a topic, plus
/// the delivery checks made on what it reads (read after the pipeline
/// has joined).
struct Tail {
  std::shared_ptr<mlog::GroupCursor> cursor;
  std::vector<uint64_t> next_expected;
  std::vector<mlog::GroupRecord> scratch;
  uint64_t read_batches = 0;
  uint64_t gaps = 0;
  uint64_t dups = 0;
  std::string error;
};

/// Joins `group` and returns the mlog source stage named `name`: decoded
/// positions, ending once the producer is done and the group has caught
/// up. `trace_base` offsets trace ids so two graphs over the same records
/// keep separate span chains.
stream::Flow<Position> TailSource(stream::Pipeline* pipeline,
                                  mlog::PartitionedLog* topic,
                                  const std::string& group,
                                  const std::string& name,
                                  std::shared_ptr<Tail> tail,
                                  TailProgress* progress, Probe* probe,
                                  const Inputs& inputs, uint64_t trace_base);

/// One run of the Figure-2 graph over a topic.
struct Fig2Result {
  Outputs out;
  std::vector<Done> alerts;   ///< per cleaned position, FLP+CPA done
  std::vector<CpDone> enrich; ///< per critical point, link+CEP+store done
  std::string report_json;    ///< Pipeline::ReportJson
  std::shared_ptr<Tail> tail = std::make_shared<Tail>();
  int64_t end_ns = 0;
};

/// Runs the graph as consumer group `group` of `topic` until the producer
/// is done and the group has caught up. The store receives the critical
/// points' triples through store::KgStoreSink. `linker` must be fresh:
/// building its cell masks is set-up, so callers do it before their clock
/// starts (NewLinker).
Fig2Result RunFig2(const Inputs& inputs, const Analytics& analytics,
                   mlog::PartitionedLog* topic, const std::string& group,
                   TailProgress* progress, store::KnowledgeStore* store,
                   Tracer* tracer,
                   std::shared_ptr<linkdiscovery::SpatioTemporalLinker> linker);

/// The serial oracle: the same public calls, one record at a time in offer
/// order. Also returns which offered record triggered each critical point.
struct OracleResult {
  Outputs out;
  std::map<CpKey, int64_t> trigger;
  std::vector<rdf::Triple> triples;
  double seconds = 0.0;
};
OracleResult RunOracle(const Inputs& inputs, size_t count,
                       const Analytics& analytics);

/// Compares streamed outputs with the oracle's. Per-key families must be
/// equal as multisets. CPA warnings must each recompute to a true warning,
/// and the distinct warned pairs must number within 25% (or 10) of the
/// oracle's: a drain reads the partitions round-robin in batches, which
/// reorders entities by up to a batch, and a pair's warn-once state
/// follows that order. Returns the number of mismatching outputs; `why`
/// collects the first few reasons.
uint64_t CompareWithOracle(const Outputs& streamed, const OracleResult& oracle,
                           const Analytics& analytics, std::string* why);

/// The star query of the benchmark's query mix: three predicates plus an
/// st-box (a fixed window over the western Mediterranean, all time).
store::StarQuery MakeStarQuery(const store::KnowledgeStore& store);

}  // namespace perfbench

#endif  // PERFBENCH_FIG2_H_
