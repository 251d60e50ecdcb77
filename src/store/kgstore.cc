#include "store/kgstore.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <thread>

#include "common/strings.h"
#include "geom/geometry.h"
#include "rdf/vocab.h"
#include "store/columnar.h"

namespace tcmf::store {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Advances `cur` within [cur, end) to the first posting with key >= s by
// exponential (galloping) search: cheap when the next match is near —
// the common case when both lists are subject-sorted — and O(log gap)
// when it is far.
const rdf::Posting* Gallop(const rdf::Posting* cur, const rdf::Posting* end,
                           uint64_t s) {
  if (cur == end || cur->key >= s) return cur;
  size_t step = 1;
  const rdf::Posting* probe = cur;
  while (probe + step < end && (probe + step)->key < s) {
    probe += step;
    step *= 2;
  }
  const rdf::Posting* hi = (probe + step < end) ? probe + step : end;
  return std::lower_bound(
      probe, hi, s,
      [](const rdf::Posting& p, uint64_t key) { return p.key < key; });
}

// Smallest object of (s, p) in the forward postings, or 0 (no term)
// when `s` carries no `p`.
uint64_t FirstObject(const rdf::AdjacencyIndex& index, uint64_t p,
                     uint64_t s) {
  auto [lo, hi] = index.ObjectsOf(p, s);
  return lo == hi ? 0 : lo->value;
}

bool HasAllPredicates(const rdf::AdjacencyIndex& index,
                      const std::vector<uint64_t>& predicates) {
  return std::all_of(predicates.begin(), predicates.end(),
                     [&](uint64_t p) { return index.Stats(p) != nullptr; });
}

// Stats-ordered postings intersection: drives from the predicate with
// the fewest distinct subjects, then leapfrogs the other forward
// postings with galloping cursors (monotonic — each list is walked at
// most once). Calls `fn(row)` per subject carrying every predicate, in
// ascending subject order, bound to its smallest object per predicate.
// Every predicate must be indexed (HasAllPredicates). Returns the
// postings visited plus the probes made.
template <typename Fn>
size_t IntersectPostings(const rdf::AdjacencyIndex& index,
                         const std::vector<uint64_t>& predicates, Fn&& fn) {
  const size_t k = predicates.size();
  if (k == 0) return 0;
  std::vector<rdf::AdjacencyIndex::Span> spans(k);
  for (size_t i = 0; i < k; ++i) spans[i] = index.Subjects(predicates[i]);
  std::vector<size_t> ord(k);
  std::iota(ord.begin(), ord.end(), 0);
  std::sort(ord.begin(), ord.end(), [&](size_t a, size_t b) {
    return index.Stats(predicates[a])->distinct_subjects <
           index.Stats(predicates[b])->distinct_subjects;
  });
  std::vector<const rdf::Posting*> cur(k);
  for (size_t i = 0; i < k; ++i) cur[i] = spans[i].first;

  size_t scanned = 0;
  const size_t driver = ord[0];
  const rdf::Posting* d = spans[driver].first;
  const rdf::Posting* d_end = spans[driver].second;
  while (d != d_end) {
    StarRow row;
    row.subject = d->key;
    row.objects.assign(k, 0);
    row.objects[driver] = d->value;  // smallest object of the run
    // Skip the rest of the equal-subject run.
    do {
      ++scanned;
      ++d;
    } while (d != d_end && d->key == row.subject);

    bool complete = true;
    for (size_t j = 1; j < k && complete; ++j) {
      const size_t slot = ord[j];
      ++scanned;  // one galloping probe
      cur[slot] = Gallop(cur[slot], spans[slot].second, row.subject);
      complete = cur[slot] != spans[slot].second &&
                 cur[slot]->key == row.subject;
      if (complete) row.objects[slot] = cur[slot]->value;
    }
    if (complete) fn(std::move(row));
  }
  return scanned;
}

}  // namespace

const char* StarPlanName(StarPlan plan) {
  switch (plan) {
    case StarPlan::kTriplesTableScan:
      return "triples-table-scan";
    case StarPlan::kVerticalPartition:
      return "vertical-partitioning";
    case StarPlan::kVerticalPartitionPushdown:
      return "vertical-partitioning+st-pushdown";
    case StarPlan::kPropertyTable:
      return "property-table";
    case StarPlan::kPropertyTablePushdown:
      return "property-table+st-pushdown";
    case StarPlan::kAdjacencyIndex:
      return "adjacency-index";
    case StarPlan::kAdjacencyIndexPushdown:
      return "adjacency-index+st-pushdown";
  }
  return "unknown";
}

KnowledgeStore::KnowledgeStore(const geom::StCellEncoder& encoder,
                               size_t partitions)
    : encoder_(encoder), partition_count_(partitions == 0 ? 1 : partitions) {
  // Intern the vocabulary the ingest fast path and the exact st-filter
  // compare against, so neither ever pays a per-call string lookup.
  rdf::Dictionary& dict = graph_.dictionary();
  stcell_pid_ = dict.Encode(rdf::Iri(rdf::vocab::kHasStCell));
  wkt_pid_ = dict.Encode(rdf::Iri(rdf::vocab::kAsWKT));
  ts_pid_ = dict.Encode(rdf::Iri(rdf::vocab::kHasTimestamp));
}

void KnowledgeStore::Add(const rdf::Triple& triple) {
  const rdf::EncodedTriple enc = graph_.dictionary().Encode(triple);
  graph_.AddEncoded(enc);
  property_tables_.clear();
  cum_added_.fetch_add(1, std::memory_order_relaxed);
  // hasStCell integer literals feed the subject -> st-cell side index so
  // streamed template ingestion keeps the pushdown plans usable.
  if (enc.p == stcell_pid_ && triple.o.kind == rdf::Term::Kind::kLiteral) {
    if (Result<long long> cell = ParseInt(triple.o.lexical); cell.ok()) {
      subject_stcell_[enc.s] = static_cast<uint64_t>(cell.value());
    }
  }
}

void KnowledgeStore::AddPositionNode(const rdf::Term& subject, double lon,
                                     double lat, TimeMs t) {
  uint64_t cell = encoder_.Encode(lon, lat, t);
  Add(rdf::Triple{subject, rdf::Iri(rdf::vocab::kHasStCell),
                  rdf::IntLiteral(static_cast<int64_t>(cell))});
  Add(rdf::Triple{subject, rdf::Iri(rdf::vocab::kAsWKT),
                  rdf::TypedLiteral(StrFormat("POINT (%.6f %.6f)", lon, lat),
                                    rdf::vocab::kWktLiteral)});
  Add(rdf::Triple{subject, rdf::Iri(rdf::vocab::kHasTimestamp),
                  rdf::IntLiteral(t)});
  uint64_t sid = graph_.dictionary().Encode(subject);
  subject_stcell_[sid] = cell;
  subject_pos_[sid] = {lon, lat, t};
}

void KnowledgeStore::Compile() { graph_.index(); }

void KnowledgeStore::BuildPropertyTable(
    const std::vector<uint64_t>& predicate_ids) {
  // Complete rows only: the property table materializes the star join.
  const rdf::AdjacencyIndex& index = graph_.index();
  PropertyTable table;
  table.columns = predicate_ids;
  if (HasAllPredicates(index, predicate_ids)) {
    IntersectPostings(index, predicate_ids, [&](StarRow row) {
      table.subjects.push_back(row.subject);
      table.rows.push_back(std::move(row.objects));
    });
  }
  property_tables_.push_back(std::move(table));
}

const KnowledgeStore::PropertyTable* KnowledgeStore::FindPropertyTable(
    const std::vector<uint64_t>& predicate_ids) const {
  for (const PropertyTable& table : property_tables_) {
    bool all = true;
    for (uint64_t pid : predicate_ids) {
      if (std::find(table.columns.begin(), table.columns.end(), pid) ==
          table.columns.end()) {
        all = false;
        break;
      }
    }
    if (all) return &table;
  }
  return nullptr;
}

bool KnowledgeStore::ExactStMatch(
    uint64_t subject, const geom::StCellEncoder::StBox& box) const {
  // Deliberately pays the realistic post-processing cost: fetch the WKT
  // and timestamp literals of the subject and parse them, exactly what a
  // layout without pushdown has to do for every candidate.
  const rdf::AdjacencyIndex& index = graph_.index();
  const rdf::Dictionary& dict = graph_.dictionary();
  std::optional<rdf::Term> wkt_term =
      dict.Decode(FirstObject(index, wkt_pid_, subject));
  std::optional<rdf::Term> ts_term =
      dict.Decode(FirstObject(index, ts_pid_, subject));
  if (!wkt_term || !ts_term) return false;
  Result<geom::LonLat> point = geom::ParseWktPoint(wkt_term->lexical);
  Result<long long> t = ParseInt(ts_term->lexical);
  if (!point.ok() || !t.ok()) return false;
  return box.bounds.Contains(point.value().lon, point.value().lat) &&
         t.value() >= box.t_begin && t.value() <= box.t_end;
}

StoreCounters KnowledgeStore::CountersSnapshot() const {
  StoreCounters c;
  c.triples_added = cum_added_.load(std::memory_order_relaxed);
  c.star_queries = cum_queries_.load(std::memory_order_relaxed);
  c.star_rows = cum_rows_.load(std::memory_order_relaxed);
  c.triples_scanned = cum_scanned_.load(std::memory_order_relaxed);
  c.st_filter_evaluations = cum_st_filters_.load(std::memory_order_relaxed);
  return c;
}

std::vector<StarRow> KnowledgeStore::RunStar(const StarQuery& query,
                                             StarPlan plan,
                                             StarQueryMetrics* metrics) const {
  StarQueryMetrics local;
  Clock::time_point start = Clock::now();
  std::vector<StarRow> rows;
  const size_t k = query.predicate_ids.size();

  auto finish = [&] {
    local.rows = rows.size();
    local.wall_ms = ElapsedMs(start);
    cum_queries_.fetch_add(1, std::memory_order_relaxed);
    cum_rows_.fetch_add(local.rows, std::memory_order_relaxed);
    cum_scanned_.fetch_add(local.triples_scanned, std::memory_order_relaxed);
    cum_st_filters_.fetch_add(local.st_filter_evaluations,
                              std::memory_order_relaxed);
    if (metrics != nullptr) *metrics = local;
    return std::move(rows);
  };
  // Every plan ends alike: count the candidate, run the exact st check
  // when the query has a box, keep the row.
  auto accept = [&](StarRow row) {
    ++local.candidate_subjects;
    if (query.has_st_constraint) {
      ++local.st_filter_evaluations;
      if (!ExactStMatch(row.subject, query.st_box)) return;
    }
    rows.push_back(std::move(row));
  };

  if (k == 0) return finish();

  if (plan == StarPlan::kTriplesTableScan) {
    // Full scan of the triples table, hash-joining subject -> slot
    // values. Contiguous slices of the table go to parallel workers.
    const std::vector<rdf::EncodedTriple>& table = graph_.triples();
    const size_t workers = std::min<size_t>(
        partition_count_,
        std::max<unsigned>(1, std::thread::hardware_concurrency()));
    std::vector<std::unordered_map<uint64_t, std::vector<uint64_t>>> maps(
        workers);
    std::vector<std::thread> threads;
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        const size_t end = table.size() * (w + 1) / workers;
        for (size_t i = table.size() * w / workers; i < end; ++i) {
          const rdf::EncodedTriple& t = table[i];
          for (size_t slot = 0; slot < k; ++slot) {
            if (t.p == query.predicate_ids[slot]) {
              auto [it, inserted] = maps[w].try_emplace(
                  t.s, std::vector<uint64_t>(k, 0));
              if (it->second[slot] == 0) it->second[slot] = t.o;
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    local.triples_scanned = table.size();

    std::unordered_map<uint64_t, std::vector<uint64_t>> merged;
    for (size_t w = 0; w < workers; ++w) {
      for (auto& [s, slots] : maps[w]) {
        auto [it, inserted] = merged.try_emplace(s, slots);
        if (!inserted) {
          for (size_t slot = 0; slot < k; ++slot) {
            if (it->second[slot] == 0) it->second[slot] = slots[slot];
          }
        }
      }
    }
    for (auto& [s, slots] : merged) {
      if (std::all_of(slots.begin(), slots.end(),
                      [](uint64_t o) { return o != 0; })) {
        accept({s, std::move(slots)});
      }
    }
    return finish();
  }

  if (plan == StarPlan::kPropertyTable ||
      plan == StarPlan::kPropertyTablePushdown) {
    const PropertyTable* table = FindPropertyTable(query.predicate_ids);
    if (table == nullptr) return finish();
    // Map query slots to table columns.
    std::vector<size_t> col_of(k);
    for (size_t i = 0; i < k; ++i) {
      col_of[i] = static_cast<size_t>(
          std::find(table->columns.begin(), table->columns.end(),
                    query.predicate_ids[i]) -
          table->columns.begin());
    }
    bool pushdown = plan == StarPlan::kPropertyTablePushdown &&
                    query.has_st_constraint;
    for (size_t i = 0; i < table->subjects.size(); ++i) {
      uint64_t s = table->subjects[i];
      ++local.triples_scanned;  // one wide-row visit
      if (pushdown) {
        auto it = subject_stcell_.find(s);
        if (it == subject_stcell_.end() ||
            !encoder_.MayIntersect(it->second, query.st_box)) {
          continue;
        }
      }
      StarRow row;
      row.subject = s;
      row.objects.reserve(k);
      for (size_t slot = 0; slot < k; ++slot) {
        row.objects.push_back(table->rows[i][col_of[slot]]);
      }
      accept(std::move(row));
    }
    return finish();
  }

  // The remaining plans read the graph's forward postings.
  const rdf::AdjacencyIndex& index = graph_.index();
  if (!HasAllPredicates(index, query.predicate_ids)) return finish();

  if (query.has_st_constraint &&
      (plan == StarPlan::kVerticalPartitionPushdown ||
       plan == StarPlan::kAdjacencyIndexPushdown)) {
    // Both pushdown plans: integer st-cell pre-filter over the side
    // index, then one postings probe per predicate. Without a box they
    // fall through to their base plans below.
    for (const auto& [s, cell] : subject_stcell_) {
      ++local.triples_scanned;  // side-index probe (integer compare)
      if (!encoder_.MayIntersect(cell, query.st_box)) continue;
      StarRow row;
      row.subject = s;
      row.objects.assign(k, 0);
      bool complete = true;
      for (size_t i = 0; i < k && complete; ++i) {
        ++local.triples_scanned;  // one indexed probe
        row.objects[i] = FirstObject(index, query.predicate_ids[i], s);
        complete = row.objects[i] != 0;
      }
      if (complete) accept(std::move(row));
    }
    return finish();
  }

  if (plan == StarPlan::kVerticalPartition ||
      plan == StarPlan::kVerticalPartitionPushdown) {
    // Drive from the predicate with the fewest triples; binary-search
    // the others' postings per distinct driver subject.
    size_t driver = 0;
    for (size_t i = 1; i < k; ++i) {
      if (index.Stats(query.predicate_ids[i])->triples <
          index.Stats(query.predicate_ids[driver])->triples) {
        driver = i;
      }
    }
    auto [d, d_end] = index.Subjects(query.predicate_ids[driver]);
    local.triples_scanned += static_cast<size_t>(d_end - d);
    for (uint64_t prev_s = 0; d != d_end; ++d) {
      if (d->key == prev_s) continue;  // distinct subjects
      prev_s = d->key;
      StarRow row;
      row.subject = d->key;
      row.objects.assign(k, 0);
      row.objects[driver] = d->value;
      bool complete = true;
      for (size_t i = 0; i < k && complete; ++i) {
        if (i == driver) continue;
        ++local.triples_scanned;  // one indexed probe
        row.objects[i] = FirstObject(index, query.predicate_ids[i], d->key);
        complete = row.objects[i] != 0;
      }
      if (complete) accept(std::move(row));
    }
    return finish();
  }

  // kAdjacencyIndex, and its pushdown plan without a box.
  local.triples_scanned += IntersectPostings(
      index, query.predicate_ids, [&](StarRow row) { accept(std::move(row)); });
  return finish();
}

Status KnowledgeStore::SaveTriples(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create directory: " + dir);
  const std::vector<rdf::EncodedTriple>& all = graph_.triples();
  for (size_t part = 0; part < partition_count_; ++part) {
    std::vector<rdf::EncodedTriple> sorted;
    for (size_t i = part; i < all.size(); i += partition_count_) {
      sorted.push_back(all[i]);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const rdf::EncodedTriple& a, const rdf::EncodedTriple& b) {
                return std::tuple(a.s, a.p, a.o) < std::tuple(b.s, b.p, b.o);
              });
    TCMF_RETURN_IF_ERROR(WriteTriplePartition(
        dir + StrFormat("/partition-%04zu.col", part), sorted));
  }
  return Status::Ok();
}

Result<size_t> KnowledgeStore::LoadTriples(const std::string& dir) {
  size_t loaded = 0;
  for (size_t i = 0; i < partition_count_; ++i) {
    std::string path = dir + StrFormat("/partition-%04zu.col", i);
    if (!std::filesystem::exists(path)) break;
    Result<std::vector<rdf::EncodedTriple>> part = ReadTriplePartition(path);
    if (!part.ok()) return part.status();
    for (const rdf::EncodedTriple& t : part.value()) graph_.AddEncoded(t);
    loaded += part.value().size();
  }
  property_tables_.clear();
  return loaded;
}

bool KnowledgeStore::LookupPosition(uint64_t subject, double* lon,
                                    double* lat, TimeMs* t) const {
  auto it = subject_pos_.find(subject);
  if (it == subject_pos_.end()) return false;
  *lon = it->second.lon;
  *lat = it->second.lat;
  *t = it->second.t;
  return true;
}

}  // namespace tcmf::store
