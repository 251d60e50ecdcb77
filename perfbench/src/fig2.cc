#include "fig2.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <set>
#include <thread>

#include "cep/pmc.h"
#include "common/hash.h"
#include "common/rng.h"
#include "datagen/areas.h"
#include "insitu/stages.h"
#include "prediction/rmf.h"
#include "rdf/stages.h"
#include "rdf/vocab.h"
#include "store/stages.h"
#include "stream/pipeline.h"
#include "synopses/stages.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t deadline_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(deadline_ns)));
}

int64_t Inputs::IndexOf(uint64_t entity, TimeMs t) const {
  auto e = index.find(entity);
  if (e == index.end()) return -1;
  auto it = e->second.find(t);
  return it == e->second.end() ? -1 : static_cast<int64_t>(it->second);
}

uint64_t RelabelId(uint64_t id, uint64_t seed) {
  constexpr uint64_t kMask = (1ull << 31) - 1;
  return (((id ^ Mix64(seed)) & kMask) * 0x9E3779B1ull) & kMask;
}

Inputs MakeInputs(scenario::FleetMix mix, size_t max_records,
                  uint64_t relabel_seed) {
  mix.weather_cols = 0;
  Inputs in;
  for (const scenario::FleetEvent& ev : scenario::MakeFleet(mix)) {
    if (in.positions.size() >= max_records) break;
    Position p = stream::RecordToPosition(ev.record);
    p.entity_id = RelabelId(p.entity_id, relabel_seed);
    in.positions.push_back(p);
    in.keys.push_back(ev.key);
  }
  for (size_t i = 0; i < in.positions.size(); ++i) {
    const Position& p = in.positions[i];
    in.index[p.entity_id].try_emplace(p.t, static_cast<uint32_t>(i));
  }
  return in;
}

Analytics MakeAnalytics(uint64_t seed) {
  Analytics a;
  a.link.extent = geom::BBox{-10.0, 34.0, 10.0, 45.0};
  Rng rng(seed * 7919 + 3);
  a.regions = datagen::MakeRegions(rng, a.link.extent, 400, "protected",
                                   2000.0, 15000.0);
  a.dfa = cep::CompileStreamingDfa(cep::NorthToSouthReversalPattern(),
                                   cep::kHeadingSymbolCount);
  return a;
}

void MakeTemplate(rdf::GraphTemplate* tmpl, rdf::VariableVector* vars) {
  rdf::MakePositionTemplate("http://perfbench.example/", tmpl, vars);
}

std::shared_ptr<linkdiscovery::SpatioTemporalLinker> NewLinker(
    const Analytics& a) {
  return std::make_shared<linkdiscovery::SpatioTemporalLinker>(a.link,
                                                               a.regions);
}

CpKey KeyOf(const synopses::CriticalPoint& cp) {
  return {cp.pos.entity_id, cp.pos.t, static_cast<int>(cp.type)};
}

void Outputs::Sort() {
  std::sort(cleaned.begin(), cleaned.end());
  std::sort(flp.begin(), flp.end());
  std::sort(cps.begin(), cps.end());
  std::sort(links.begin(), links.end());
  std::sort(cep.begin(), cep.end());
}

void Tracer::Summarize(std::map<std::string, double>* metrics) const {
  std::lock_guard<std::mutex> lock(mu_);
  struct Agg {
    double calls = 0, busy_ns = 0, failures = 0;
    double self_ns = 0, self_spans = 0;
    double wait_ns = 0, waits = 0;
  };
  std::map<std::string, Agg> agg;
  std::vector<Span> all;
  for (const auto& p : probes_) {
    Agg& a = agg[p->layer()];
    a.calls += static_cast<double>(p->calls.load());
    a.busy_ns += static_cast<double>(p->busy_ns.load());
    a.failures += static_cast<double>(p->failures.load());
    const std::vector<int64_t> self = SelfTimesNs(p->spans);
    for (size_t i = 0; i < self.size(); ++i) {
      Agg& s = agg[p->spans[i].layer];
      s.self_ns += static_cast<double>(self[i]);
      s.self_spans += 1;
    }
    all.insert(all.end(), p->spans.begin(), p->spans.end());
  }
  for (const auto& [layer, waits] : WaitsNs(all)) {
    Agg& a = agg[layer];
    for (int64_t w : waits) a.wait_ns += static_cast<double>(w);
    a.waits += static_cast<double>(waits.size());
  }
  for (const auto& [layer, a] : agg) {
    (*metrics)[layer + ".calls"] = a.calls;
    (*metrics)[layer + ".busy_ms"] = a.busy_ns / 1e6;
    (*metrics)[layer + ".failures"] = a.failures;
    (*metrics)[layer + ".wait_ms"] = a.waits > 0 ? a.wait_ns / a.waits / 1e6 : 0;
    // Spans are sampled: scale the mean sampled self time to every call.
    (*metrics)[layer + ".self_ms"] =
        a.self_spans > 0 ? a.self_ns / a.self_spans * a.calls / 1e6 : 0;
  }
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& p : probes_) {
    for (const Span& s : p->spans) {
      std::fprintf(f,
                   "{\"layer\":\"%s\",\"trace_id\":%llu,\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"probe\":\"%s\"}\n",
                   s.layer.c_str(), static_cast<unsigned long long>(s.trace_id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent), p->layer().c_str());
    }
  }
  return std::fclose(f) == 0;
}

namespace {

using Tuple4 = std::tuple<uint64_t, TimeMs, double, double>;

Tuple4 PosTuple(const Position& p) { return {p.entity_id, p.t, p.lon, p.lat}; }

/// FLP digest: the last of kFlpSteps predicted points.
void RecordFlp(const prediction::RmfStarPredictor& pred, const Position& p,
               Outputs* out) {
  if (!pred.ready()) return;
  const std::vector<prediction::PredictedPoint> pts =
      pred.Predict(Analytics::kFlpSteps);
  if (pts.empty()) return;
  out->flp.emplace_back(p.entity_id, p.t, pts.back().loc.lon,
                        pts.back().loc.lat);
}

void RecordCep(const synopses::CriticalPoint& cp,
               const cep::WayebEngine::StepResult& r, Outputs* out) {
  if (r.detected) ++out->cep_detections;
  if (r.forecast_emitted) ++out->cep_forecasts;
  out->cep.emplace_back(cp.pos.entity_id, cp.pos.t, r.detected ? 1 : 0,
                        r.forecast_emitted ? r.forecast.start : -1,
                        r.forecast_emitted ? r.forecast.end : -1,
                        r.forecast_emitted ? r.forecast.prob : 0.0);
}

std::unique_ptr<cep::WayebEngine> MakeEngine(const Analytics& a) {
  return std::make_unique<cep::WayebEngine>(
      a.dfa, cep::MarkovInputModel(cep::kHeadingSymbolCount, 1), a.wayeb);
}

struct FlpState {
  prediction::RmfStarPredictor pred;
};
struct CepState {
  std::unique_ptr<cep::WayebEngine> engine;
};
struct SynState {
  std::unique_ptr<synopses::SynopsesGenerator> gen;
};

/// Critical points waiting for their triples to be counted in the store.
struct PendingEnrich {
  std::mutex mu;
  std::deque<std::pair<CpKey, uint64_t>> queue;  ///< (cp, triples needed)
};

}  // namespace

stream::Flow<Position> TailSource(stream::Pipeline* pipeline,
                                  mlog::PartitionedLog* topic,
                                  const std::string& group,
                                  const std::string& name,
                                  std::shared_ptr<Tail> tail,
                                  TailProgress* progress, Probe* probe,
                                  const Inputs& inputs, uint64_t trace_base) {
  auto cursor_or = topic->JoinGroup(group, 0, 1);
  if (!cursor_or.ok()) {
    tail->error = cursor_or.status().ToString();
    return stream::Flow<Position>::FromVector(pipeline, {}, {.name = name});
  }
  tail->cursor = std::move(cursor_or).value();
  tail->next_expected.assign(topic->partition_count(), 0);
  const bool trace = probe->tracing();
  auto next = [tail, topic, progress, probe, &inputs, trace, trace_base](
                  std::vector<Position>* out, size_t max_n) -> size_t {
    for (;;) {
      tail->scratch.clear();
      const int64_t t0 = trace ? NowNs() : 0;
      const size_t n = tail->cursor->NextBatch(&tail->scratch, max_n);
      if (n > 0) {
        ++tail->read_batches;
        for (mlog::GroupRecord& gr : tail->scratch) {
          uint64_t& expect = tail->next_expected[gr.partition];
          if (gr.offset < expect) ++tail->dups;
          if (gr.offset > expect) tail->gaps += gr.offset - expect;
          expect = std::max(expect, gr.offset + 1);
          out->push_back(stream::RecordToPosition(gr.record));
        }
        if (trace) {
          const int64_t t1 = NowNs();
          probe->calls += 1;
          probe->busy_ns += t1 - t0;
          for (size_t i = out->size() - n; i < out->size(); ++i) {
            const Position& p = (*out)[i];
            const uint64_t id =
                trace_base +
                static_cast<uint64_t>(inputs.IndexOf(p.entity_id, p.t));
            if (probe->Sampled(id)) probe->AddSpan(probe->layer(), id, t0, t1);
          }
        } else {
          probe->calls += 1;
        }
        progress->consumed.fetch_add(n, std::memory_order_relaxed);
        return n;
      }
      if (!tail->cursor->status().ok()) {
        tail->error = tail->cursor->status().ToString();
        return 0;
      }
      if (progress->producer_done.load(std::memory_order_acquire)) {
        bool caught_up = true;
        for (size_t part : tail->cursor->assignment()) {
          caught_up = caught_up && tail->cursor->committed(part) >=
                                       topic->partition(part)->next_offset();
        }
        if (caught_up) return 0;
        continue;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  };
  return stream::Flow<Position>::FromBatchGenerator(pipeline, next,
                                                    {.name = name});
}

Fig2Result RunFig2(const Inputs& inputs, const Analytics& analytics,
                   mlog::PartitionedLog* topic, const std::string& group,
                   TailProgress* progress, store::KnowledgeStore* store,
                   Tracer* tracer,
                   std::shared_ptr<linkdiscovery::SpatioTemporalLinker> linker) {
  Fig2Result res;
  const bool trace = tracer->tracing();
  auto id_of = [&inputs, trace](const Position& p) -> uint64_t {
    return trace ? static_cast<uint64_t>(inputs.IndexOf(p.entity_id, p.t)) : 0;
  };

  Probe* read_probe = tracer->Make("mlog");
  Probe* clean_probe = tracer->Make("insitu");
  Probe* cpa_probe = tracer->Make("cpa");
  Probe* flp_probe = tracer->Make("flp");
  Probe* syn_probe = tracer->Make("synopses");
  Probe* link_probe = tracer->Make("link");
  Probe* cep_probe = tracer->Make("cep");
  Probe* rdf_probe = tracer->Make("rdf");

  PendingEnrich pending;
  std::atomic<bool> stop_poller{false};
  auto resolve = [&](uint64_t triples_added, int64_t now) {
    std::lock_guard<std::mutex> lock(pending.mu);
    while (!pending.queue.empty() &&
           pending.queue.front().second <= triples_added) {
      res.enrich.push_back({pending.queue.front().first, now});
      pending.queue.pop_front();
    }
  };

  stream::Pipeline pipeline;
  {
    // mlog: one consumer-group member tailing every partition.
    auto src = TailSource(&pipeline, topic, group, "mlog.tail", res.tail,
                          progress, read_probe, inputs, 0);

    // insitu: the stage helper, or the same Filter with a span around
    // StreamCleaner::Observe when tracing.
    std::shared_ptr<insitu::StreamCleaner> cleaner;
    auto cleaned = [&]() -> stream::Flow<Position> {
      if (!trace) {
        return insitu::CleaningStage(src, analytics.clean,
                                     {.name = "insitu.clean"}, &cleaner);
      }
      cleaner = std::make_shared<insitu::StreamCleaner>(analytics.clean);
      return src.Filter(
          [cleaner, clean_probe, id_of](const Position& p) {
            return clean_probe->Call(id_of(p), [&] {
              return cleaner->Observe(p) == insitu::CleanVerdict::kOk;
            });
          },
          {.name = "insitu.clean", .batch = stream::BatchPolicy::Adaptive()});
    }();

    // prediction: the CPA screen sees every cleaned position in one thread.
    auto screen = std::make_shared<prediction::CpaScreen>(analytics.cpa);
    auto latest = std::make_shared<std::unordered_map<uint64_t, Position>>();
    auto after_cpa = cleaned.Map<Position>(
        [&res, screen, latest, cpa_probe, id_of](const Position& p) {
          res.out.cleaned.push_back(PosTuple(p));
          std::vector<prediction::CollisionWarning> ws =
              cpa_probe->Call(id_of(p), [&] { return screen->Observe(p); });
          for (const prediction::CollisionWarning& w : ws) {
            res.out.warnings.push_back({w, p, (*latest)[w.entity_b]});
          }
          (*latest)[p.entity_id] = p;
          return p;
        },
        {.name = "cpa"});

    // prediction: RMF* per entity. A cleaned position's alert is done once
    // both its CPA screen and its FLP have run.
    auto after_flp = after_cpa.KeyedProcess<Position, FlpState>(
        [](const Position& p) { return p.entity_id; },
        [&res, flp_probe, id_of](const Position& p, FlpState& s,
                                 const std::function<void(Position)>& emit) {
          flp_probe->Call(id_of(p), [&] {
            s.pred.Observe(p);
            RecordFlp(s.pred, p, &res.out);
          });
          res.alerts.push_back({p.entity_id, p.t, NowNs()});
          emit(p);
        },
        nullptr, {.name = "flp"});

    // synopses: the keyed stage helper, or the same keyed operator with a
    // span around SynopsesGenerator::Observe when tracing.
    auto cps = [&]() -> stream::Flow<synopses::CriticalPoint> {
      if (!trace) {
        return synopses::SynopsesStage(after_flp, analytics.synopses, 2,
                                       {.name = "synopses"});
      }
      const synopses::SynopsesConfig cfg = analytics.synopses;
      return after_flp.KeyedProcessParallel<synopses::CriticalPoint, SynState>(
          [](const Position& p) { return p.entity_id; },
          [cfg, syn_probe, id_of](
              const Position& p, SynState& s,
              const std::function<void(synopses::CriticalPoint)>& emit) {
            if (!s.gen) s.gen = std::make_unique<synopses::SynopsesGenerator>(cfg);
            for (auto& cp : syn_probe->Call(id_of(p),
                                            [&] { return s.gen->Observe(p); })) {
              emit(std::move(cp));
            }
          },
          2,
          [](uint64_t, SynState& s,
             const std::function<void(synopses::CriticalPoint)>& emit) {
            if (!s.gen) return;
            for (auto& cp : s.gen->Flush()) emit(std::move(cp));
          },
          {.name = "synopses", .batch = stream::BatchPolicy::Adaptive()});
    }();

    // linkdiscovery: area links of every critical point.
    auto linked = cps.Map<synopses::CriticalPoint>(
        [&res, linker, link_probe, id_of](const synopses::CriticalPoint& cp) {
          res.out.cps.push_back(KeyOf(cp));
          for (const linkdiscovery::Link& l : link_probe->Call(
                   id_of(cp.pos), [&] { return linker->Observe(cp.pos); })) {
            res.out.links.emplace_back(l.subject_entity, l.subject_t,
                                       l.object_id,
                                       static_cast<int>(l.relation));
          }
          return cp;
        },
        {.name = "link"});

    // cep: one Wayeb engine per entity over heading symbols; the critical
    // point then leaves as a record for the RDF template.
    uint64_t records_out = 0;
    auto cep_out = linked.KeyedProcess<stream::Record, CepState>(
        [](const synopses::CriticalPoint& cp) { return cp.pos.entity_id; },
        [&res, &analytics, &pending, &records_out, cep_probe, id_of](
            const synopses::CriticalPoint& cp, CepState& s,
            const std::function<void(stream::Record)>& emit) {
          if (!s.engine) s.engine = MakeEngine(analytics);
          cep_probe->Call(id_of(cp.pos), [&] {
            RecordCep(cp, s.engine->Observe(cep::CriticalPointSymbol(cp)),
                      &res.out);
          });
          ++records_out;
          {
            std::lock_guard<std::mutex> lock(pending.mu);
            pending.queue.emplace_back(
                KeyOf(cp), records_out * Analytics::kTriplesPerRecord);
          }
          emit(stream::PositionToRecord(cp.pos));
        },
        nullptr, {.name = "cep"});

    // rdf -> store: the template stage helper (or the same FlatMap with a
    // span around TripleGenerator::GenerateOne) into store::KgStoreSink.
    rdf::GraphTemplate tmpl;
    rdf::VariableVector vars;
    MakeTemplate(&tmpl, &vars);
    auto triples = [&]() -> stream::Flow<rdf::Triple> {
      if (!trace) {
        return rdf::TripleGeneratorStage(cep_out, tmpl, vars,
                                         {.name = "rdf.generate"});
      }
      auto gen = std::make_shared<rdf::TripleGenerator>(tmpl, vars);
      return cep_out.FlatMap<rdf::Triple>(
          [gen, rdf_probe, &inputs](const stream::Record& r) {
            const int64_t id = inputs.IndexOf(
                static_cast<uint64_t>(r.GetInt("entity_id").value_or(0)),
                r.GetInt("t").value_or(0));
            return rdf_probe->Call(static_cast<uint64_t>(id),
                                   [&] { return gen->GenerateOne(r); });
          },
          {.name = "rdf.generate", .batch = stream::BatchPolicy::Adaptive()});
    }();
    store::KgStoreSink(triples, store, {.name = "store.kgsink"});

    // The store's counters say when a critical point's triples are in.
    std::thread poller([&] {
      while (!stop_poller.load(std::memory_order_acquire)) {
        resolve(store->CountersSnapshot().triples_added, NowNs());
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
    pipeline.Run();
    stop_poller.store(true, std::memory_order_release);
    poller.join();
    res.end_ns = NowNs();
    resolve(store->CountersSnapshot().triples_added, res.end_ns);

    res.out.cleaner_accepted = cleaner->accepted();
    res.out.cleaner_seen = cleaner->accepted() + cleaner->rejected();
    res.out.link_stats = linker->stats();
    res.out.cpa_pairs = screen->pairs_evaluated();
  }
  res.out.triples = store->CountersSnapshot().triples_added;
  res.report_json = pipeline.ReportJson();
  if (!trace) {
    // Untraced runs count calls from the layers' own statistics.
    clean_probe->calls += res.out.cleaner_seen;
    cpa_probe->calls += res.out.cleaned.size();
    flp_probe->calls += res.out.cleaned.size();
    syn_probe->calls += res.out.cleaned.size();
    link_probe->calls += res.out.cps.size();
    cep_probe->calls += res.out.cps.size();
    rdf_probe->calls += res.out.cps.size();
  }
  return res;
}

OracleResult RunOracle(const Inputs& inputs, size_t count,
                       const Analytics& a) {
  OracleResult r;
  const int64_t t0 = NowNs();
  insitu::StreamCleaner cleaner(a.clean);
  prediction::CpaScreen screen(a.cpa);
  std::unordered_map<uint64_t, Position> latest;
  std::unordered_map<uint64_t, prediction::RmfStarPredictor> flp;
  std::unordered_map<uint64_t, synopses::SynopsesGenerator> syn;
  std::unordered_map<uint64_t, std::unique_ptr<cep::WayebEngine>> engines;
  linkdiscovery::SpatioTemporalLinker linker(a.link, a.regions);
  rdf::GraphTemplate tmpl;
  rdf::VariableVector vars;
  MakeTemplate(&tmpl, &vars);
  rdf::TripleGenerator gen(tmpl, vars);

  auto on_cp = [&](const synopses::CriticalPoint& cp, int64_t trigger) {
    r.out.cps.push_back(KeyOf(cp));
    r.trigger.emplace(KeyOf(cp), trigger);
    for (const linkdiscovery::Link& l : linker.Observe(cp.pos)) {
      r.out.links.emplace_back(l.subject_entity, l.subject_t, l.object_id,
                               static_cast<int>(l.relation));
    }
    auto& engine = engines[cp.pos.entity_id];
    if (!engine) engine = MakeEngine(a);
    RecordCep(cp, engine->Observe(cep::CriticalPointSymbol(cp)), &r.out);
    for (rdf::Triple& t : gen.GenerateOne(stream::PositionToRecord(cp.pos))) {
      r.triples.push_back(std::move(t));
    }
  };

  count = std::min(count, inputs.size());
  for (size_t i = 0; i < count; ++i) {
    const Position& p = inputs.positions[i];
    ++r.out.cleaner_seen;
    if (cleaner.Observe(p) != insitu::CleanVerdict::kOk) continue;
    ++r.out.cleaner_accepted;
    r.out.cleaned.push_back(PosTuple(p));
    for (const prediction::CollisionWarning& w : screen.Observe(p)) {
      r.out.warnings.push_back({w, p, latest[w.entity_b]});
    }
    latest[p.entity_id] = p;
    prediction::RmfStarPredictor& pred = flp[p.entity_id];
    pred.Observe(p);
    RecordFlp(pred, p, &r.out);
    auto it = syn.try_emplace(p.entity_id, a.synopses).first;
    for (const synopses::CriticalPoint& cp : it->second.Observe(p)) {
      on_cp(cp, static_cast<int64_t>(i));
    }
  }
  for (auto& [entity, g] : syn) {
    for (const synopses::CriticalPoint& cp : g.Flush()) on_cp(cp, -1);
  }
  r.out.triples = r.triples.size();
  r.out.link_stats = linker.stats();
  r.out.cpa_pairs = screen.pairs_evaluated();
  r.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  r.out.Sort();
  return r;
}

namespace {

template <typename T>
uint64_t MultisetDiff(const std::vector<T>& a, const std::vector<T>& b,
                      const char* family, std::string* why) {
  std::vector<T> diff;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(diff));
  if (!diff.empty() && why->size() < 400) {
    *why += std::string(family) + ": " + std::to_string(a.size()) +
            " streamed vs " + std::to_string(b.size()) + " oracle; ";
  }
  return diff.size();
}

/// Distinct entity pairs that were warned at least once.
size_t WarnedPairs(const std::vector<Outputs::Warning>& ws) {
  std::set<std::pair<uint64_t, uint64_t>> pairs;
  for (const Outputs::Warning& w : ws) {
    pairs.insert(std::minmax(w.w.entity_a, w.w.entity_b));
  }
  return pairs.size();
}

}  // namespace

uint64_t CompareWithOracle(const Outputs& streamed_in,
                           const OracleResult& oracle, const Analytics& a,
                           std::string* why) {
  Outputs s = streamed_in;
  s.Sort();
  const Outputs& o = oracle.out;
  uint64_t bad = 0;
  bad += MultisetDiff(s.cleaned, o.cleaned, "cleaned", why);
  bad += MultisetDiff(s.flp, o.flp, "flp", why);
  bad += MultisetDiff(s.cps, o.cps, "critical points", why);
  bad += MultisetDiff(s.links, o.links, "links", why);
  bad += MultisetDiff(s.cep, o.cep, "cep", why);
  if (s.triples != o.triples) {
    bad += s.triples > o.triples ? s.triples - o.triples : o.triples - s.triples;
    *why += "triples: " + std::to_string(s.triples) + " vs " +
            std::to_string(o.triples) + "; ";
  }
  // CPA warnings depend on cross-entity interleaving: each must recompute
  // to a true warning, and their number must track the oracle's.
  for (const Outputs::Warning& w : s.warnings) {
    const prediction::CpaResult c = prediction::ComputeCpa(w.a, w.b);
    const bool risky = c.dcpa_m < a.cpa.dcpa_m && c.tcpa_s >= 0 &&
                       c.tcpa_s < a.cpa.tcpa_s;
    if (!risky || w.a.entity_id != w.w.entity_a ||
        w.b.entity_id != w.w.entity_b) {
      ++bad;
      if (why->size() < 400) *why += "invalid cpa warning; ";
    }
  }
  const double n_s = static_cast<double>(WarnedPairs(s.warnings));
  const double n_o = static_cast<double>(WarnedPairs(o.warnings));
  if (std::abs(n_s - n_o) > std::max(10.0, 0.25 * n_o)) {
    bad += static_cast<uint64_t>(std::abs(n_s - n_o));
    *why += "cpa warned pairs: " + std::to_string(static_cast<uint64_t>(n_s)) +
            " vs " + std::to_string(static_cast<uint64_t>(n_o)) + "; ";
  }
  return bad;
}

store::StarQuery MakeStarQuery(const store::KnowledgeStore& store) {
  const rdf::Dictionary& d = store.dictionary();
  store::StarQuery q;
  q.predicate_ids = {d.Lookup(rdf::Iri(rdf::vocab::kHasSpeed)),
                     d.Lookup(rdf::Iri(rdf::vocab::kHasHeading)),
                     d.Lookup(rdf::Iri(rdf::vocab::kAsWKT))};
  q.has_st_constraint = true;
  q.st_box.bounds = geom::BBox{-2.0, 37.0, 6.0, 42.0};
  q.st_box.t_begin = 0;
  q.st_box.t_end = 1000LL * kMillisPerHour;
  return q;
}

}  // namespace perfbench
