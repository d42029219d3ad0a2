// `point`: per-query fixed costs. OQL parse and plan, partial-key compile
// and B-tree descent through the decoded-node cache dominate, because the
// working set is far smaller than the cache: 8,000 objects on the memory
// backend, one closed-loop client. A quarter of each window of the timed
// phase writes the non-indexed `Pad` attribute, which measures the façade's
// per-DML cost on the same database without changing any verified answer.

#include "bench/suite/fig5.h"
#include "bench/suite/suite.h"
#include "util/random.h"

namespace uindex {
namespace suite {

namespace {

constexpr size_t kQueries = 4096;
constexpr double kReadShare = 0.75;

}  // namespace

int RunPoint(const RunConfig& cfg, Report* report) {
  Fig5Config shape;
  shape.objects = cfg.Scale(shape.objects);

  Fig5Db fig;
  std::vector<double> setups;
  for (int i = 0; i < cfg.setups(); ++i) {
    fig = Fig5Db();
    if (Status s = LoadFig5(shape, cfg.seed, MemoryOptions(), &fig); !s.ok()) {
      report->Fail("point set-up: " + s.ToString());
      return 1;
    }
    setups.push_back(fig.setup_s);
  }
  Database& db = *fig.db;
  report->Set("setup_s", Median(setups), "s");
  report->Set("setup.dml_first_us", fig.dml_first_us, "us");
  report->Set("setup.dml_last_us", fig.dml_last_us, "us");
  report->Set("setup.index_build_s", fig.index_build_s, "s");
  const uint64_t live_pages = db.live_pages();
  const uint64_t objects = db.store().size();

  std::vector<Fig5Query> queries =
      MakeFig5Queries(fig, shape, cfg.seed, kQueries);
  VerifyFig5Queries(fig, &queries, report);
  if (report->failed() != 0) return 1;
  Fig5CountingPass(fig, queries, report);

  Session session(&db);
  Random rng(cfg.seed ^ 0xD111ull);
  RunSingleClient(
      cfg, &db, kReadShare, "db.ExecuteOql",
      [&](uint64_t i, Tracer::Buffer* trace, IoSum* sampled) {
        Fig5Read(&session, fig, queries[i % queries.size()], i, trace,
                 sampled, report);
      },
      [&](uint64_t) {
        const Oid oid = fig.oids[rng.Uniform(fig.oids.size())];
        return db.SetAttr(
            oid, "Pad", Value::Int(static_cast<int64_t>(rng.Uniform(1 << 16))));
      },
      report);

  // The written attribute is not indexed: every answer must be unchanged.
  IoSum unused;
  for (size_t i = 0; i < queries.size(); i += 7) {
    Fig5Read(&session, fig, queries[i], i, nullptr, &unused, report);
  }
  ReportFootprint(db, live_pages, objects, report);
  return report->failed() == 0 ? 0 : 1;
}

}  // namespace suite
}  // namespace uindex
