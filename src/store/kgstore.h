#ifndef TCMF_STORE_KGSTORE_H_
#define TCMF_STORE_KGSTORE_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/position.h"
#include "common/status.h"
#include "geom/stcell.h"
#include "rdf/graph.h"
#include "rdf/term.h"

namespace tcmf::store {

/// Physical layout / plan selector for star queries (Section 4.2.5):
/// the paper's "one-triples-table" vs vertical partitioning, each with or
/// without the spatio-temporal dictionary-encoding pushdown, plus the
/// adjacency-indexed layout (per-predicate sorted postings + cardinality
/// stats, the SNIPPETS.md triplestore shape) that drives the star join
/// from the predicate with the fewest distinct subjects.
enum class StarPlan {
  kTriplesTableScan = 0,      ///< full scan + hash join + late st-filter
  kVerticalPartition,         ///< binary-searched postings + late st-filter
  kVerticalPartitionPushdown, ///< = kAdjacencyIndexPushdown (one path)
  kPropertyTable,             ///< pre-joined wide rows + late st-filter
  kPropertyTablePushdown,     ///< property table + integer st pre-filter
  kAdjacencyIndex,            ///< stats-ordered postings intersection
  kAdjacencyIndexPushdown,    ///< st-cell pre-filter + postings probes
};

const char* StarPlanName(StarPlan plan);

/// A star query: all listed predicates must be present on the subject,
/// optionally constrained to a spatio-temporal box.
struct StarQuery {
  std::vector<uint64_t> predicate_ids;
  bool has_st_constraint = false;
  geom::StCellEncoder::StBox st_box;
};

/// One result row of a star query: the subject plus the object bound per
/// queried predicate (first match = smallest object id for the indexed
/// plans; plans agree whenever subjects carry one object per predicate).
struct StarRow {
  uint64_t subject = 0;
  std::vector<uint64_t> objects;  ///< parallel to StarQuery::predicate_ids
};

/// Per-query evaluation counters, filled by RunStar.
struct StarQueryMetrics {
  size_t triples_scanned = 0;
  size_t candidate_subjects = 0;
  size_t st_filter_evaluations = 0;  ///< exact (string/geometry) st checks
  size_t rows = 0;
  double wall_ms = 0.0;
};

/// Cumulative, thread-safe store counters: every Add and every RunStar
/// accumulates here regardless of which caller held the metrics pointer.
/// This is what stage helpers (store::KgStoreSink) splice into
/// stream::StageMetrics so Pipeline::ReportJson surfaces the store's
/// work (the kg_* fields) — per-query StarQueryMetrics alone are
/// invisible once the store is driven from a pipeline stage.
struct StoreCounters {
  uint64_t triples_added = 0;
  uint64_t star_queries = 0;
  uint64_t star_rows = 0;
  uint64_t triples_scanned = 0;
  uint64_t st_filter_evaluations = 0;
};

/// Batch knowledge-graph store: the star-join layouts and the
/// spatio-temporal pruning of Section 4.2.5 over one rdf::Graph. The
/// graph owns the dictionary, the triples table and the lazily rebuilt
/// adjacency index; the store adds what the graph lacks: the subject ->
/// st-cell side index, exact positions, property tables and cumulative
/// counters. The table-scan plan splits the triples table across
/// min(partitions, hardware threads) workers (the local stand-in for
/// Spark executors).
///
/// Lifecycle: every Add is visible to the next RunStar, which rebuilds
/// the graph's index on its first read after a write; Compile() only
/// builds it early. An Add drops the property tables.
///
/// Thread-safety: ingestion (Add/AddPositionNode/LoadTriples/
/// BuildPropertyTable) is single-writer. Between writes, any number of
/// threads may call RunStar / LookupPosition / CountersSnapshot: the
/// graph's double-checked build covers concurrent first reads, and the
/// cumulative counters are atomics.
class KnowledgeStore {
 public:
  /// `encoder` defines the spatio-temporal discretization; `partitions`
  /// the table-scan parallelism and the SaveTriples file count.
  KnowledgeStore(const geom::StCellEncoder& encoder, size_t partitions = 8);

  rdf::Dictionary& dictionary() { return graph_.dictionary(); }
  const rdf::Dictionary& dictionary() const { return graph_.dictionary(); }

  /// Adds a triple. Triples whose predicate is vocab::kHasStCell with an
  /// integer-literal object also feed the subject -> st-cell side index
  /// (the paper's dictionary-encoding of approximate positions), so
  /// streamed ingestion through a template that emits hasStCell keeps
  /// the pushdown plans usable.
  void Add(const rdf::Triple& triple);

  /// Registers the exact position of a subject for final st filtering
  /// (the store keeps it alongside the WKT literal, as decoding WKT at
  /// query time is exactly the "post-processing cost" being measured).
  /// Also assigns the subject's st-cell id.
  void AddPositionNode(const rdf::Term& subject, double lon, double lat,
                       TimeMs t);

  /// Builds the graph's adjacency index now rather than at the next
  /// read. Optional.
  void Compile();

  /// Materializes a property table over `predicate_ids` (one wide row per
  /// subject holding the first object per predicate). Property-table
  /// plans serve any star query whose predicates are a subset of a built
  /// table's columns, until the next Add.
  void BuildPropertyTable(const std::vector<uint64_t>& predicate_ids);

  /// Evaluates a star query under the chosen plan. Safe for concurrent
  /// callers between writes. All plans return the same row set for the
  /// same query (the differential invariant the test suite and the
  /// bench gates enforce).
  std::vector<StarRow> RunStar(const StarQuery& query, StarPlan plan,
                               StarQueryMetrics* metrics) const;

  /// Persists/loads the triples table as columnar partition files under
  /// `dir` (partition-%04zu.col; triple i goes to file i mod partitions).
  /// Dictionary is not persisted (ids only). LoadTriples appends.
  Status SaveTriples(const std::string& dir) const;
  Result<size_t> LoadTriples(const std::string& dir);

  size_t size() const { return graph_.size(); }
  size_t partitions() const { return partition_count_; }
  const geom::StCellEncoder& encoder() const { return encoder_; }

  /// The store's triples, dictionary and index, for BGP and SPARQL
  /// evaluation over the same data the star plans read.
  const rdf::Graph& graph() const { return graph_; }

  /// Snapshot of the cumulative counters (thread-safe; see
  /// StoreCounters).
  StoreCounters CountersSnapshot() const;

  /// Exact spatio-temporal point of a subject (for verification); false
  /// when the subject has no registered position.
  bool LookupPosition(uint64_t subject, double* lon, double* lat,
                      TimeMs* t) const;

 private:
  bool ExactStMatch(uint64_t subject,
                    const geom::StCellEncoder::StBox& box) const;

  geom::StCellEncoder encoder_;
  size_t partition_count_;
  rdf::Graph graph_;
  /// Interned at construction: the vocabulary ids the ingest fast path
  /// and ExactStMatch compare against (no per-call Lookup).
  uint64_t stcell_pid_ = 0;
  uint64_t wkt_pid_ = 0;
  uint64_t ts_pid_ = 0;

  /// Property tables: columns (predicate ids) + rows sorted by subject.
  struct PropertyTable {
    std::vector<uint64_t> columns;
    std::vector<uint64_t> subjects;        ///< sorted
    std::vector<std::vector<uint64_t>> rows;  ///< parallel to subjects
  };
  std::vector<PropertyTable> property_tables_;
  const PropertyTable* FindPropertyTable(
      const std::vector<uint64_t>& predicate_ids) const;
  /// subject -> st cell id (integer approximation of position+time).
  std::unordered_map<uint64_t, uint64_t> subject_stcell_;
  struct ExactPos {
    double lon, lat;
    TimeMs t;
  };
  std::unordered_map<uint64_t, ExactPos> subject_pos_;

  // Cumulative counters (StoreCounters). Mutable + relaxed atomics: the
  // const query path accumulates them and concurrent RunStar callers
  // must not race.
  mutable std::atomic<uint64_t> cum_added_{0};
  mutable std::atomic<uint64_t> cum_queries_{0};
  mutable std::atomic<uint64_t> cum_rows_{0};
  mutable std::atomic<uint64_t> cum_scanned_{0};
  mutable std::atomic<uint64_t> cum_st_filters_{0};
};

}  // namespace tcmf::store

#endif  // TCMF_STORE_KGSTORE_H_
