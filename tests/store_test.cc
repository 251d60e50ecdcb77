#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>

#include "common/rng.h"
#include "geom/stcell.h"
#include "rdf/bgp.h"
#include "rdf/vocab.h"
#include "store/columnar.h"
#include "store/kgstore.h"
#include "store/stages.h"

namespace tcmf::store {
namespace {

// -------------------------------------------------------------- Columnar

TEST(VarintTest, RoundTripValues) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 40,
                     ~0ull}) {
    std::string buf;
    AppendVarint(&buf, v);
    size_t pos = 0;
    uint64_t out = 0;
    ASSERT_TRUE(ReadVarint(buf, &pos, &out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, TruncationDetected) {
  std::string buf;
  AppendVarint(&buf, 1ull << 40);
  buf.pop_back();
  size_t pos = 0;
  uint64_t out;
  EXPECT_FALSE(ReadVarint(buf, &pos, &out));
}

TEST(ColumnTest, RoundTripRandom) {
  Rng rng(1);
  std::vector<uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(static_cast<uint64_t>(rng.UniformInt(0, 1 << 30)));
  }
  auto decoded = DecodeColumn(EncodeColumn(values));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), values);
}

TEST(ColumnTest, SortedColumnCompressesWell) {
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 10000; ++i) values.push_back(i * 3);
  std::string encoded = EncodeColumn(values);
  // Delta+varint: ~1 byte per element vs 8 raw.
  EXPECT_LT(encoded.size(), values.size() * 2);
}

TEST(ColumnTest, EmptyColumn) {
  auto decoded = DecodeColumn(EncodeColumn({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(PartitionFileTest, RoundTrip) {
  std::string path = testing::TempDir() + "/tcmf_part.col";
  std::vector<rdf::EncodedTriple> triples;
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    triples.push_back({static_cast<uint64_t>(rng.UniformInt(1, 100)),
                       static_cast<uint64_t>(rng.UniformInt(1, 10)),
                       static_cast<uint64_t>(rng.UniformInt(1, 1000))});
  }
  ASSERT_TRUE(WriteTriplePartition(path, triples).ok());
  auto loaded = ReadTriplePartition(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), triples);
  std::remove(path.c_str());
}

TEST(PartitionFileTest, BadMagicRejected) {
  std::string path = testing::TempDir() + "/tcmf_bad.col";
  {
    std::ofstream out(path);
    out << "NOT A PARTITION FILE";
  }
  EXPECT_FALSE(ReadTriplePartition(path).ok());
  std::remove(path.c_str());
}

TEST(PartitionFileTest, MissingFileRejected) {
  EXPECT_FALSE(ReadTriplePartition("/no/such/part.col").ok());
}

// --------------------------------------------------------------- KgStore

class KgStoreTest : public ::testing::Test {
 protected:
  static constexpr size_t kNodes = 400;

  KgStoreTest()
      : encoder_({0.0, 35.0, 10.0, 44.0}, 8, 0, kMillisPerHour),
        store_(encoder_, 4) {
    Rng rng(3);
    for (size_t i = 0; i < kNodes; ++i) {
      rdf::Term node = rdf::Iri("http://x/node/" + std::to_string(i));
      double lon = rng.Uniform(0.0, 10.0);
      double lat = rng.Uniform(35.0, 44.0);
      TimeMs t = static_cast<TimeMs>(
          rng.Uniform(0.0, 24.0 * kMillisPerHour));
      store_.AddPositionNode(node, lon, lat, t);
      store_.Add({node, rdf::Iri(rdf::vocab::kHasSpeed),
                  rdf::DoubleLiteral(rng.Uniform(0.0, 12.0))});
      store_.Add({node, rdf::Iri(rdf::vocab::kHasHeading),
                  rdf::DoubleLiteral(rng.Uniform(0.0, 360.0))});
      lons_.push_back(lon);
      lats_.push_back(lat);
      times_.push_back(t);
    }
    store_.Compile();

    query_.predicate_ids = {
        store_.dictionary().Lookup(rdf::Iri(rdf::vocab::kHasSpeed)),
        store_.dictionary().Lookup(rdf::Iri(rdf::vocab::kHasHeading)),
        store_.dictionary().Lookup(rdf::Iri(rdf::vocab::kHasTimestamp)),
    };
    query_.has_st_constraint = true;
    query_.st_box.bounds = {2.0, 38.0, 6.0, 42.0};
    query_.st_box.t_begin = 4 * kMillisPerHour;
    query_.st_box.t_end = 16 * kMillisPerHour;
  }

  size_t ExpectedMatches() const {
    size_t n = 0;
    for (size_t i = 0; i < kNodes; ++i) {
      if (query_.st_box.bounds.Contains(lons_[i], lats_[i]) &&
          times_[i] >= query_.st_box.t_begin &&
          times_[i] <= query_.st_box.t_end) {
        ++n;
      }
    }
    return n;
  }

  geom::StCellEncoder encoder_;
  KnowledgeStore store_;
  StarQuery query_;
  std::vector<double> lons_, lats_;
  std::vector<TimeMs> times_;
};

TEST_F(KgStoreTest, TripleCountTracksAdds) {
  // 3 position triples + 2 property triples per node.
  EXPECT_EQ(store_.size(), kNodes * 5);
}

TEST_F(KgStoreTest, AllPlansAgreeOnStarQuery) {
  StarQueryMetrics m1, m2, m3;
  auto r1 = store_.RunStar(query_, StarPlan::kTriplesTableScan, &m1);
  auto r2 = store_.RunStar(query_, StarPlan::kVerticalPartition, &m2);
  auto r3 = store_.RunStar(query_, StarPlan::kVerticalPartitionPushdown, &m3);

  auto subjects = [](const std::vector<StarRow>& rows) {
    std::set<uint64_t> out;
    for (const auto& r : rows) out.insert(r.subject);
    return out;
  };
  EXPECT_EQ(subjects(r1), subjects(r2));
  EXPECT_EQ(subjects(r2), subjects(r3));
  EXPECT_EQ(r1.size(), ExpectedMatches());
}

TEST_F(KgStoreTest, PushdownPrunesExactFilterWork) {
  StarQueryMetrics late, pushdown;
  store_.RunStar(query_, StarPlan::kVerticalPartition, &late);
  store_.RunStar(query_, StarPlan::kVerticalPartitionPushdown, &pushdown);
  // The st-cell integer pre-filter must cut exact (WKT-parsing) filter
  // evaluations by a large factor.
  EXPECT_LT(pushdown.st_filter_evaluations,
            late.st_filter_evaluations / 2);
}

TEST_F(KgStoreTest, UnconstrainedQueryReturnsAllCompleteSubjects) {
  StarQuery q = query_;
  q.has_st_constraint = false;
  auto rows = store_.RunStar(q, StarPlan::kVerticalPartition, nullptr);
  EXPECT_EQ(rows.size(), kNodes);
}

TEST_F(KgStoreTest, MissingPredicateYieldsNoRows) {
  StarQuery q = query_;
  q.predicate_ids.push_back(999999);  // never interned
  auto rows = store_.RunStar(q, StarPlan::kVerticalPartition, nullptr);
  EXPECT_TRUE(rows.empty());
}

TEST_F(KgStoreTest, EmptyQueryYieldsNoRows) {
  StarQuery q;
  auto rows = store_.RunStar(q, StarPlan::kTriplesTableScan, nullptr);
  EXPECT_TRUE(rows.empty());
}

TEST_F(KgStoreTest, RowsCarryObjectBindings) {
  auto rows = store_.RunStar(query_, StarPlan::kVerticalPartition, nullptr);
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    ASSERT_EQ(row.objects.size(), 3u);
    for (uint64_t o : row.objects) EXPECT_NE(o, 0u);
    // Speed object decodes to a double literal.
    auto term = store_.dictionary().Decode(row.objects[0]);
    ASSERT_TRUE(term.has_value());
    EXPECT_EQ(term->kind, rdf::Term::Kind::kLiteral);
  }
}

TEST_F(KgStoreTest, LookupPosition) {
  uint64_t sid =
      store_.dictionary().Lookup(rdf::Iri("http://x/node/0"));
  double lon, lat;
  TimeMs t;
  ASSERT_TRUE(store_.LookupPosition(sid, &lon, &lat, &t));
  EXPECT_DOUBLE_EQ(lon, lons_[0]);
  EXPECT_EQ(t, times_[0]);
  EXPECT_FALSE(store_.LookupPosition(999999, &lon, &lat, &t));
}

TEST_F(KgStoreTest, SaveLoadTriplesRoundTrip) {
  std::string dir = testing::TempDir() + "/tcmf_store_test";
  ASSERT_TRUE(store_.SaveTriples(dir).ok());
  KnowledgeStore loaded(encoder_, store_.partitions());
  auto n = loaded.LoadTriples(dir);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), store_.size());
  EXPECT_EQ(loaded.size(), store_.size());
  std::filesystem::remove_all(dir);
}

TEST_F(KgStoreTest, PlanNames) {
  EXPECT_STREQ(StarPlanName(StarPlan::kTriplesTableScan),
               "triples-table-scan");
  EXPECT_STRNE(StarPlanName(StarPlan::kVerticalPartitionPushdown),
               "unknown");
}


TEST_F(KgStoreTest, PropertyTablePlansAgreeWithOthers) {
  store_.BuildPropertyTable(query_.predicate_ids);
  auto subjects = [](const std::vector<StarRow>& rows) {
    std::set<uint64_t> out;
    for (const auto& r : rows) out.insert(r.subject);
    return out;
  };
  auto base = store_.RunStar(query_, StarPlan::kVerticalPartition, nullptr);
  auto pt = store_.RunStar(query_, StarPlan::kPropertyTable, nullptr);
  auto ptp =
      store_.RunStar(query_, StarPlan::kPropertyTablePushdown, nullptr);
  EXPECT_EQ(subjects(base), subjects(pt));
  EXPECT_EQ(subjects(pt), subjects(ptp));
}

TEST_F(KgStoreTest, PropertyTablePushdownPrunesExactFilters) {
  store_.BuildPropertyTable(query_.predicate_ids);
  StarQueryMetrics plain, pushdown;
  store_.RunStar(query_, StarPlan::kPropertyTable, &plain);
  store_.RunStar(query_, StarPlan::kPropertyTablePushdown, &pushdown);
  EXPECT_LT(pushdown.st_filter_evaluations, plain.st_filter_evaluations / 2);
}

TEST_F(KgStoreTest, PropertyTableServesSubsetQueries) {
  // A table over three predicates serves a two-predicate star.
  store_.BuildPropertyTable(query_.predicate_ids);
  StarQuery narrow = query_;
  narrow.predicate_ids.pop_back();
  auto base = store_.RunStar(narrow, StarPlan::kVerticalPartition, nullptr);
  auto pt = store_.RunStar(narrow, StarPlan::kPropertyTable, nullptr);
  EXPECT_EQ(base.size(), pt.size());
}

TEST_F(KgStoreTest, MissingPropertyTableYieldsNoRows) {
  // No table built: property-table plans return empty (planner would fall
  // back to another layout in a full system).
  auto rows = store_.RunStar(query_, StarPlan::kPropertyTable, nullptr);
  EXPECT_TRUE(rows.empty());
}

// Sweep the selectivity of the st-box: plans must agree everywhere.
class PlanAgreementSweep : public ::testing::TestWithParam<double> {};

TEST_P(PlanAgreementSweep, AgreeAtAllSelectivities) {
  double frac = GetParam();
  geom::StCellEncoder encoder({0.0, 35.0, 10.0, 44.0}, 8, 0, kMillisPerHour);
  KnowledgeStore store(encoder, 3);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    rdf::Term node = rdf::Iri("http://x/n/" + std::to_string(i));
    store.AddPositionNode(node, rng.Uniform(0, 10), rng.Uniform(35, 44),
                          static_cast<TimeMs>(rng.Uniform(0, 86400000.0)));
    store.Add({node, rdf::Iri(rdf::vocab::kHasSpeed),
               rdf::DoubleLiteral(1.0)});
  }
  store.Compile();
  StarQuery q;
  q.predicate_ids = {
      store.dictionary().Lookup(rdf::Iri(rdf::vocab::kHasSpeed))};
  q.has_st_constraint = true;
  q.st_box.bounds = {0.0, 35.0, 0.0 + 10 * frac, 35.0 + 9 * frac};
  q.st_box.t_begin = 0;
  q.st_box.t_end = static_cast<TimeMs>(86400000.0 * frac);
  auto r1 = store.RunStar(q, StarPlan::kTriplesTableScan, nullptr);
  auto r2 = store.RunStar(q, StarPlan::kVerticalPartition, nullptr);
  auto r3 = store.RunStar(q, StarPlan::kVerticalPartitionPushdown, nullptr);
  EXPECT_EQ(r1.size(), r2.size());
  EXPECT_EQ(r2.size(), r3.size());
}

INSTANTIATE_TEST_SUITE_P(Selectivities, PlanAgreementSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 1.0));

// ------------------------------------------ One graph, lazy index

std::set<uint64_t> SubjectSet(const std::vector<StarRow>& rows) {
  std::set<uint64_t> out;
  for (const StarRow& r : rows) out.insert(r.subject);
  return out;
}

std::vector<std::pair<uint64_t, std::vector<uint64_t>>> SortedRows(
    const std::vector<StarRow>& rows) {
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> out;
  for (const StarRow& r : rows) out.emplace_back(r.subject, r.objects);
  std::sort(out.begin(), out.end());
  return out;
}

// Adds nodes [first, first + n) with a position and a speed.
void AddSpeedNodes(KnowledgeStore* store, int first, int n, Rng* rng) {
  for (int i = first; i < first + n; ++i) {
    rdf::Term node = rdf::Iri("http://x/lazy/" + std::to_string(i));
    store->AddPositionNode(node, rng->Uniform(0.0, 10.0),
                           rng->Uniform(35.0, 44.0),
                           static_cast<TimeMs>(rng->Uniform(0.0, 86400000.0)));
    store->Add({node, rdf::Iri(rdf::vocab::kHasSpeed),
                rdf::DoubleLiteral(rng->Uniform(0.0, 12.0))});
  }
}

StarQuery SpeedStar(const KnowledgeStore& store, bool st) {
  StarQuery q;
  q.predicate_ids = {
      store.dictionary().Lookup(rdf::Iri(rdf::vocab::kHasSpeed)),
      store.dictionary().Lookup(rdf::Iri(rdf::vocab::kHasTimestamp))};
  q.has_st_constraint = st;
  q.st_box.bounds = {2.0, 38.0, 6.0, 42.0};
  q.st_box.t_begin = 4 * kMillisPerHour;
  q.st_box.t_end = 16 * kMillisPerHour;
  return q;
}

TEST(KgLazyIndexTest, RunStarSeesEveryAddWithoutCompile) {
  geom::StCellEncoder encoder({0.0, 35.0, 10.0, 44.0}, 8, 0, kMillisPerHour);
  KnowledgeStore store(encoder, 4);
  Rng rng(41);
  AddSpeedNodes(&store, 0, 150, &rng);
  std::vector<size_t> st_rows;
  for (int round = 0; round < 2; ++round) {
    for (bool st : {false, true}) {
      const StarQuery q = SpeedStar(store, st);
      const auto scan =
          SortedRows(store.RunStar(q, StarPlan::kTriplesTableScan, nullptr));
      ASSERT_FALSE(scan.empty());
      if (st) st_rows.push_back(scan.size());
      for (StarPlan plan :
           {StarPlan::kVerticalPartition, StarPlan::kVerticalPartitionPushdown,
            StarPlan::kAdjacencyIndex, StarPlan::kAdjacencyIndexPushdown}) {
        EXPECT_EQ(SortedRows(store.RunStar(q, plan, nullptr)), scan)
            << StarPlanName(plan) << " round " << round << " st " << st;
      }
    }
    // No Compile(): the next round's queries must see these nodes too.
    AddSpeedNodes(&store, 150 * (round + 1), 150, &rng);
  }
  EXPECT_GT(st_rows[1], st_rows[0]);
}

TEST_F(KgStoreTest, EveryPlanMatchesBgpOverTheStoresGraph) {
  store_.BuildPropertyTable(query_.predicate_ids);
  // The star as a BGP: ?s p_i ?o_i for each queried predicate.
  std::vector<rdf::TriplePattern> patterns;
  for (uint64_t p : query_.predicate_ids) {
    patterns.push_back(
        {rdf::PatternTerm::Var("s"),
         rdf::PatternTerm::Const(*store_.dictionary().Decode(p)),
         rdf::PatternTerm::Var("o" + std::to_string(patterns.size()))});
  }
  std::set<uint64_t> bound;
  for (const rdf::Binding& b : rdf::EvaluateBgp(store_.graph(), patterns)) {
    bound.insert(b.at("s"));
  }
  ASSERT_EQ(bound.size(), kNodes);
  // Under the st box, the oracle filters the BGP's subjects by their
  // registered exact positions.
  std::set<uint64_t> in_box;
  for (uint64_t s : bound) {
    double lon, lat;
    TimeMs t;
    ASSERT_TRUE(store_.LookupPosition(s, &lon, &lat, &t));
    if (query_.st_box.bounds.Contains(lon, lat) &&
        t >= query_.st_box.t_begin && t <= query_.st_box.t_end) {
      in_box.insert(s);
    }
  }
  ASSERT_EQ(in_box.size(), ExpectedMatches());

  for (bool st : {false, true}) {
    StarQuery q = query_;
    q.has_st_constraint = st;
    for (int plan = 0;
         plan <= static_cast<int>(StarPlan::kAdjacencyIndexPushdown); ++plan) {
      const StarPlan p = static_cast<StarPlan>(plan);
      EXPECT_EQ(SubjectSet(store_.RunStar(q, p, nullptr)),
                st ? in_box : bound)
          << StarPlanName(p) << " st " << st;
    }
  }
}

TEST_F(KgStoreTest, AddDropsPropertyTables) {
  store_.BuildPropertyTable(query_.predicate_ids);
  ASSERT_EQ(store_.RunStar(query_, StarPlan::kPropertyTable, nullptr).size(),
            ExpectedMatches());
  store_.Add({rdf::Iri("http://x/node/late"), rdf::Iri(rdf::vocab::kHasSpeed),
              rdf::DoubleLiteral(1.0)});
  EXPECT_TRUE(
      store_.RunStar(query_, StarPlan::kPropertyTable, nullptr).empty());
  EXPECT_TRUE(
      store_.RunStar(query_, StarPlan::kPropertyTablePushdown, nullptr)
          .empty());
  // The index plans still answer.
  EXPECT_EQ(store_.RunStar(query_, StarPlan::kAdjacencyIndex, nullptr).size(),
            ExpectedMatches());
}

TEST(KgStoreConcurrentTest, RunStarRacesTheLazyIndexBuild) {
  geom::StCellEncoder encoder({0.0, 35.0, 10.0, 44.0}, 8, 0, kMillisPerHour);
  KnowledgeStore store(encoder, 4);
  Rng rng(43);
  AddSpeedNodes(&store, 0, 300, &rng);
  const StarQuery q = SpeedStar(store, true);
  // The oracle reads the registered positions, not the index.
  size_t expected = 0;
  for (int i = 0; i < 300; ++i) {
    double lon, lat;
    TimeMs t;
    ASSERT_TRUE(store.LookupPosition(
        store.dictionary().Lookup(
            rdf::Iri("http://x/lazy/" + std::to_string(i))),
        &lon, &lat, &t));
    if (q.st_box.bounds.Contains(lon, lat) && t >= q.st_box.t_begin &&
        t <= q.st_box.t_end) {
      ++expected;
    }
  }
  ASSERT_GT(expected, 0u);

  // Never compiled: every reader races to trigger the first build.
  const StarPlan plans[] = {StarPlan::kAdjacencyIndex,
                            StarPlan::kVerticalPartition,
                            StarPlan::kAdjacencyIndexPushdown,
                            StarPlan::kTriplesTableScan};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, plan = plans[i % 4]] {
      if (store.RunStar(q, plan, nullptr).size() != expected) ++mismatches;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(store.CountersSnapshot().star_queries, 8u);
}

TEST(KgStoreSinkTest, AddsEachPopWithoutWaitingForAFullBatch) {
  geom::StCellEncoder encoder({0.0, 35.0, 10.0, 44.0}, 8, 0, kMillisPerHour);
  KnowledgeStore store(encoder, 2);
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  int emitted = 0;
  stream::Pipeline pipeline;
  // The source emits 10 triples, then holds its stream open until
  // released.
  KgStoreSink(stream::Flow<rdf::Triple>::FromGenerator(
                  &pipeline,
                  [&]() -> std::optional<rdf::Triple> {
                    if (emitted == 10) {
                      std::unique_lock<std::mutex> lock(mu);
                      cv.wait(lock, [&] { return released; });
                      return std::nullopt;
                    }
                    ++emitted;
                    return rdf::Triple{
                        rdf::Iri("http://x/s/" + std::to_string(emitted)),
                        rdf::Iri(rdf::vocab::kHasSpeed),
                        rdf::DoubleLiteral(1.0)};
                  }),
              &store);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (store.CountersSnapshot().triples_added < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t added_while_held = store.CountersSnapshot().triples_added;
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  pipeline.Run();
  EXPECT_EQ(added_while_held, 10u);
  EXPECT_EQ(store.size(), 10u);
}

}  // namespace
}  // namespace tcmf::store
