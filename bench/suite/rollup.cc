// `rollup`: long Parscan leaf scans across many class codes. Two
// three-level ontologies (day ⊑ month ⊑ year, city ⊑ state ⊑ country)
// with thousands of leaf classes, facts on the leaves, and one closed-loop
// client calling `Database::Select` over a 20-value range at a random
// level; a root roll-up returns about 750 rows. The OQL layer is
// bypassed. A quarter of each window of the timed phase writes a
// non-indexed attribute.

#include <iterator>
#include <optional>

#include "bench/suite/suite.h"
#include "db/database.h"
#include "util/random.h"
#include "workload/rollup_generator.h"

namespace uindex {
namespace suite {

namespace {

constexpr size_t kQueries = 2048;
constexpr double kReadShare = 0.75;
constexpr int64_t kRangeWidth = 20;

struct RollupQuery {
  Database::Selection selection;
  size_t index_pos = 0;
  Query index_query;  ///< What Select hands to Parscan.
  uint64_t expected = 0;
};

RollupConfig Shape(const RunConfig& cfg) {
  RollupConfig shape = RollupConfig::Quick();
  shape.num_events = cfg.Scale(7500);
  shape.num_readings = cfg.Scale(7500);
  shape.seed = cfg.seed;
  return shape;
}

// Roll-up levels as a fixed cycle, so every seed runs exactly the same
// shares: root 20%, level-1 20%, level-2 30%, leaf 30%.
constexpr int kLevels[] = {0, 1, 2, 3, 2, 3, 0, 1, 2, 3};

// A random class at `level` of one ontology (0 = its root).
ClassId DrawClass(const RollupOntology& o, int level, Random& rng) {
  if (level == 0) return o.root;
  const size_t a = rng.Uniform(o.level1.size());
  if (level == 1) return o.level1[a];
  const size_t b = rng.Uniform(o.level2[a].size());
  if (level == 2) return o.level2[a][b];
  return o.leaves[a][b][rng.Uniform(o.leaves[a][b].size())];
}

// Queries alternate between the two ontologies.
std::vector<RollupQuery> MakeQueries(const RollupDbInfo& info,
                                     const RollupConfig& shape, uint64_t seed,
                                     size_t n) {
  Random rng(seed ^ 0x20112011ull);
  std::vector<RollupQuery> out(n);
  for (size_t i = 0; i < n; ++i) {
    RollupQuery& q = out[i];
    const bool time = i % 2 == 0;
    const ClassId cls = DrawClass(time ? info.time : info.geo,
                                  kLevels[(i / 2) % std::size(kLevels)], rng);
    const int64_t lo = static_cast<int64_t>(rng.Uniform(
        static_cast<uint64_t>(shape.num_distinct_values - kRangeWidth + 1)));
    q.selection.cls = cls;
    q.selection.with_subclasses = true;
    q.selection.attr = kRollupValueAttr;
    q.selection.lo = Value::Int(lo);
    q.selection.hi = Value::Int(lo + kRangeWidth - 1);
    q.index_pos = time ? info.time_index : info.geo_index;
    q.index_query = Query::Range(q.selection.lo, q.selection.hi);
    ClassSelector selector;
    selector.include.push_back({cls, true});
    q.index_query.With(std::move(selector), ValueSlot::Wanted());
  }
  return out;
}

// One Select; a sampled request is also decomposed into CompileParscan and
// Parscan on the live index, whose rows must equal the façade's.
void Read(const Database& db, const RollupQuery& q, uint64_t request,
          Tracer::Buffer* trace, IoSum* io, Report* report) {
  report->Attempt();
  ScopedSpan root(trace, "read", request);
  std::optional<Result<Database::SelectResult>> facade;
  const IoStats before = db.buffers().stats();
  {
    ScopedSpan span(trace, "db.Select", request, root.id());
    facade.emplace(db.Select(q.selection));
  }
  if (!facade->ok() || facade->value().oids.size() != q.expected) {
    report->Fail("wrong or failed roll-up");
    return;
  }
  if (trace == nullptr) return;
  io->Add(db.buffers().stats() - before, q.expected);

  const Result<QueryResult> rows = DecomposedParscan(
      db.index(q.index_pos), q.index_query, request, root.id(), trace);
  if (!rows.ok() || rows.value().Distinct(0) != facade->value().oids) {
    report->Fail("decomposed roll-up differs from the façade");
  }
}

}  // namespace

int RunRollup(const RunConfig& cfg, Report* report) {
  const RollupConfig shape = Shape(cfg);
  std::unique_ptr<Database> db;
  RollupDbInfo info;
  std::vector<double> setups;
  for (int i = 0; i < cfg.setups(); ++i) {
    db.reset();
    info = RollupDbInfo();
    const Clock::time_point start = Clock::now();
    db = std::make_unique<Database>(MemoryOptions());
    if (Status s = LoadRollupIntoDatabase(shape, db.get(), &info); !s.ok()) {
      report->Fail("rollup set-up: " + s.ToString());
      return 1;
    }
    setups.push_back(SecondsSince(start));
  }
  report->Set("setup_s", Median(setups), "s");
  const uint64_t live_pages = db->live_pages();
  const uint64_t objects = db->store().size();

  // Every query in the cycled list is checked once against brute force.
  std::vector<RollupQuery> queries =
      MakeQueries(info, shape, cfg.seed, cfg.smoke ? kQueries / 8 : kQueries);
  for (RollupQuery& q : queries) {
    report->Attempt();
    const std::vector<Oid> expected =
        RollupScan(db->store(), q.selection.cls, q.selection.lo.AsInt(),
                   q.selection.hi.AsInt());
    Result<Database::SelectResult> got = db->Select(q.selection);
    if (!got.ok() || !got.value().used_index ||
        got.value().oids != expected) {
      report->Fail("roll-up differs from RollupScan");
      continue;
    }
    q.expected = expected.size();
  }
  if (report->failed() != 0) return 1;

  CountingPass(
      db.get(), queries.size(),
      [&](size_t i) -> Result<uint64_t> {
        Result<Database::SelectResult> r = db->Select(queries[i].selection);
        if (!r.ok()) return r.status();
        if (r.value().oids.size() != queries[i].expected) {
          return Status::Corruption("wrong roll-up answer");
        }
        return queries[i].expected;
      },
      report);

  std::vector<Oid> facts = info.events;
  facts.insert(facts.end(), info.readings.begin(), info.readings.end());
  Random rng(cfg.seed ^ 0xD112ull);
  RunSingleClient(
      cfg, db.get(), kReadShare, "db.Select",
      [&](uint64_t i, Tracer::Buffer* trace, IoSum* sampled) {
        Read(*db, queries[i % queries.size()], i, trace, sampled, report);
      },
      [&](uint64_t) {
        const Oid oid = facts[rng.Uniform(facts.size())];
        return db->SetAttr(
            oid, "Note", Value::Int(static_cast<int64_t>(rng.Uniform(1 << 16))));
      },
      report);

  IoSum unused;
  for (size_t i = 0; i < queries.size(); i += 7) {
    Read(*db, queries[i], i, nullptr, &unused, report);
  }
  ReportFootprint(*db, live_pages, objects, report);
  return report->failed() == 0 ? 0 : 1;
}

}  // namespace suite
}  // namespace uindex
