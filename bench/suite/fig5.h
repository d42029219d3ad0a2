#ifndef UINDEX_BENCH_SUITE_FIG5_H_
#define UINDEX_BENCH_SUITE_FIG5_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/suite/suite.h"
#include "core/query.h"
#include "db/database.h"
#include "db/session.h"

namespace uindex {
namespace suite {

/// The paper's §5.1 Fig. 5 shape: a root class with many subclasses, an
/// int key drawn uniformly, one class-hierarchy U-index on the root.
struct Fig5Config {
  uint32_t objects = 8000;
  uint32_t subclasses = 40;
  int64_t keys = 3000;
  int64_t range_width = 30;  ///< BETWEEN k AND k + range_width - 1.
};

/// A Fig. 5 database loaded through the `Database` façade one
/// `CreateObject` + `SetAttr` at a time, then indexed with one
/// `CreateIndex` (a bulk build from the loaded store).
struct Fig5Db {
  std::unique_ptr<Database> db;
  ClassId root = kInvalidClassId;
  std::vector<ClassId> subclasses;
  size_t index_pos = 0;
  std::vector<Oid> oids;  ///< Creation order.

  double setup_s = 0;        ///< Construction to the end of CreateIndex.
  double dml_first_us = 0;   ///< Median CreateObject+SetAttr, first 1,000.
  double dml_last_us = 0;    ///< Median CreateObject+SetAttr, last 1,000.
  double index_build_s = 0;  ///< CreateIndex.
};

/// Loads the database. Objects go to subclasses and keys are drawn from
/// `seed`.
Status LoadFig5(const Fig5Config& cfg, uint64_t seed,
                const DatabaseOptions& options, Fig5Db* out);

/// One read of the query stream.
struct Fig5Query {
  std::string oql;
  Query index_query;  ///< The query the OQL planner hands to Parscan.
  uint64_t expected = 0;  ///< Verified row count.
  std::string http_count;  ///< `],"count":<expected>,` in a gateway reply.
};

/// The read mix, as a fixed cycle of ten: 40% `Item* Key = k`, 20%
/// `ItemN Key = k`, 20% `Item* Key IN (a, b)`, 20%
/// `Item* Key BETWEEN k AND k+29`. Keys and subclasses come from `seed`.
std::vector<Fig5Query> MakeFig5Queries(const Fig5Db& fig,
                                       const Fig5Config& cfg, uint64_t seed,
                                       size_t n);

/// Checks every query once through a `Session` against a key → oids map
/// built in one pass over the object store, and records each verified row
/// count. Mismatches count as failures in `report`.
void VerifyFig5Queries(const Fig5Db& fig, std::vector<Fig5Query>* queries,
                       Report* report);

/// Runs one read through `session`. When `trace` is non-null the read is a
/// sampled request: the façade call gets a span and an IoStats delta in
/// `io`, and is then decomposed from outside into `ParseOql`,
/// `PlanOqlRouting`, `CompileParscan` and `Parscan` on the live index
/// (callers only sample while no writer runs), whose rows must equal the
/// façade's. Returns false (and counts a failure) on any error or wrong
/// row count.
bool Fig5Read(Session* session, const Fig5Db& fig, const Fig5Query& q,
              uint64_t request, Tracer::Buffer* trace, IoSum* io,
              Report* report);

/// The counting pass (`CountingPass`) over every query of `qs`.
void Fig5CountingPass(const Fig5Db& fig, const std::vector<Fig5Query>& qs,
                      Report* report);

}  // namespace suite
}  // namespace uindex

#endif  // UINDEX_BENCH_SUITE_FIG5_H_
