// `paths_rw`: the only workload larger than the cache and the only one
// with concurrent durable writes. Deep skewed reference chains (8 hops,
// 6,000 heads; about 130 live pages) on the file backend behind a 16-frame
// LRU pool, the journal on with group commit. One closed-loop reader runs
// 6-value chain-range `Database::Execute` while two closed-loop writers
// re-point mid-path references with `SetAttr`, which exercises the pool,
// MVCC copy-on-write, index maintenance and the journal together. The pool
// has 2 prefetch threads, but through the façade they issue no read yet
// (bench/suite/README.md, "Known gaps"), so `storage.prefetch_*` read 0.
// The process runs on one CPU, because with reader and writers spread
// across CPUs results spread between runs by more than 15%.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "baselines/pathindex/nested_index.h"
#include "bench/suite/suite.h"
#include "db/database.h"
#include "util/random.h"
#include "workload/path_generator.h"

namespace uindex {
namespace suite {

namespace {

constexpr int64_t kRangeWidth = 6;
constexpr size_t kCachePages = 16;
constexpr size_t kPrefetchThreads = 2;
constexpr int kWriters = 2;

DatabaseOptions FileOptions(const std::string& data_path) {
  DatabaseOptions options;
  options.backend = DatabaseOptions::Backend::kFile;
  options.page_size = 1024;
  options.cache_pages = kCachePages;
  options.data_path = data_path;
  options.eviction = BufferPool::Eviction::kLru;
  options.prefetch_threads = kPrefetchThreads;
  options.group_commit = true;
  return options;
}

// Full-range chain query over every position, rows tail → head.
Query ChainQuery(const DeepPathDbInfo& info, int64_t lo, int64_t hi) {
  Query q = Query::Range(Value::Int(lo), Value::Int(hi));
  const size_t hops = info.roots.size();
  for (size_t pos = 0; pos < hops; ++pos) {
    q.With(ClassSelector::Subtree(info.roots[hops - 1 - pos]),
           ValueSlot::Wanted());
  }
  return q;
}

// Every complete chain (tail → head) with its tail value, by brute force
// over the object store.
struct Chain {
  int64_t value;
  std::vector<Oid> oids;
};
std::vector<Chain> BruteChains(const Database& db, size_t index_pos) {
  std::vector<Chain> out;
  const Status s = ForEachInstantiation(
      db.store(), db.index(index_pos).spec(),
      [&](const PathInstantiation& inst) {
        out.push_back({inst.attr.AsInt(),
                       std::vector<Oid>(inst.oids.rbegin(), inst.oids.rend())});
        return Status::OK();
      });
  if (!s.ok()) out.clear();
  return out;
}

std::vector<std::vector<Oid>> ChainsIn(const std::vector<Chain>& chains,
                                       int64_t lo, int64_t hi) {
  std::vector<std::vector<Oid>> out;
  for (const Chain& c : chains) {
    if (c.value >= lo && c.value <= hi) out.push_back(c.oids);
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct Load {
  Database* db;
  const DeepPathDbInfo* info;
  const std::vector<Query>* queries;
  /// Per level, the target each object referenced at set-up (0 if none).
  const std::vector<std::vector<Oid>>* original_refs;
  double skew;
  Report* report;
};

std::vector<std::vector<Oid>> OriginalRefs(const Database& db,
                                           const DeepPathDbInfo& info) {
  std::vector<std::vector<Oid>> refs(info.oids.size());
  for (size_t level = 0; level + 1 < info.oids.size(); ++level) {
    for (const Oid oid : info.oids[level]) {
      Result<Oid> target = db.store().Deref(oid, info.ref_attrs[level]);
      refs[level].push_back(target.ok() ? target.value() : 0);
    }
  }
  return refs;
}

// One timed read: every row must be a full-length chain. A sampled
// request in a quiesced phase is also decomposed into CompileParscan and
// Parscan on the live index, whose rows must equal the façade's.
void Read(const Load& load, uint64_t i, Tracer::Buffer* trace,
          const char* facade_span, bool decompose, IoSum* io) {
  const Query& q = (*load.queries)[i % load.queries->size()];
  const size_t hops = load.info->roots.size();
  load.report->Attempt();
  ScopedSpan root(trace, "read", i);
  std::optional<Result<QueryResult>> facade;
  const IoStats before = load.db->buffers().stats();
  {
    ScopedSpan span(trace, facade_span, i, root.id());
    facade.emplace(load.db->Execute(load.info->index_pos, q));
  }
  if (!facade->ok()) {
    load.report->Fail("chain read: " + facade->status().ToString());
    return;
  }
  for (const std::vector<Oid>& row : facade->value().rows) {
    if (row.size() != hops) {
      load.report->Fail("chain read returned a partial chain");
      return;
    }
  }
  if (trace == nullptr || !decompose) return;
  io->Add(load.db->buffers().stats() - before, facade->value().rows.size());
  const Result<QueryResult> rows = DecomposedParscan(
      load.db->index(load.info->index_pos), q, i, root.id(), trace);
  if (!rows.ok() || rows.value().rows != facade->value().rows) {
    load.report->Fail("decomposed chain read differs from the façade");
  }
}

// One writer's mid-path re-reference churn. Each write either re-points
// one of the writer's own sources (an object at a non-head, non-tail level
// whose index has the writer's parity) at an object of the next level
// drawn with the generator's power-law skew, or points the previous one
// back. At most one reference per writer is displaced at any time, so the
// database, and with it the work per read, stays the one built at set-up
// however many writes a run completes. Levels are distinct hierarchies, so
// no write can close a cycle.
class Churn {
 public:
  Churn(const Load& load, int writer, int writers, uint64_t seed)
      : load_(load), writer_(writer), writers_(writers), rng_(seed) {}

  Status Step() {
    const DeepPathDbInfo& info = *load_.info;
    if (displaced_ != 0) {
      const Oid source = displaced_;
      displaced_ = 0;
      return load_.db->SetAttr(source, info.ref_attrs[level_],
                               Value::Ref(original_));
    }
    size_t index = 0;
    do {
      level_ = 1 + rng_.Uniform(info.roots.size() - 2);
      const size_t n = info.oids[level_].size();
      const size_t mine = (n - static_cast<size_t>(writer_) +
                           static_cast<size_t>(writers_) - 1) /
                          static_cast<size_t>(writers_);
      index = static_cast<size_t>(writer_) +
              static_cast<size_t>(writers_) * rng_.Uniform(mine);
      original_ = (*load_.original_refs)[level_][index];
    } while (original_ == 0);  // An unset reference has nothing to restore.
    const std::vector<Oid>& targets = info.oids[level_ + 1];
    const double u = static_cast<double>(rng_.Next() >> 11) * 0x1.0p-53;
    const size_t target = std::min(
        targets.size() - 1,
        static_cast<size_t>(std::pow(u, load_.skew) *
                            static_cast<double>(targets.size())));
    displaced_ = info.oids[level_][index];
    return load_.db->SetAttr(displaced_, info.ref_attrs[level_],
                             Value::Ref(targets[target]));
  }

  /// Points a displaced reference back (untimed, at the end of a phase).
  Status Restore() { return displaced_ == 0 ? Status::OK() : Step(); }

 private:
  const Load& load_;
  int writer_;
  int writers_;
  Random rng_;
  Oid displaced_ = 0;  // The source currently re-pointed, or 0.
  size_t level_ = 0;
  Oid original_ = 0;
};

struct PhaseResult {
  Samples reads;
  Samples writes;
  double window_s = 0;
};

// Runs `readers` (0 or 1) reader and `writers` writer threads closed-loop
// for `seconds`. `trace` samples 1 request in kTraceSample per thread.
PhaseResult RunPhase(const Load& load, const RunConfig& cfg, double seconds,
                     int readers, int writers, bool trace,
                     const char* read_span, bool decompose, IoSum* io,
                     uint64_t stream) {
  const size_t windows = cfg.windows();
  PhaseResult out{Samples(windows), Samples(windows), 0};
  Tracer& tracer = ProcessTracer();
  std::vector<Samples> write_samples(writers, Samples(windows));
  std::vector<Tracer::Buffer*> buffers;
  for (int t = 0; t < readers + writers; ++t) {
    buffers.push_back(trace ? tracer.NewBuffer() : nullptr);
  }
  const Phase phase(seconds, windows);
  out.window_s = phase.window_seconds();
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      Churn churn(load, w, writers,
                  cfg.seed ^ (stream * 131 + static_cast<uint64_t>(w) + 1));
      Tracer::Buffer* buffer = buffers[readers + w];
      ClosedLoop(phase, &write_samples[w], [&](uint64_t i) {
        load.report->Attempt();
        ScopedSpan span(i % kTraceSample == 0 ? buffer : nullptr,
                        "db.SetAttr", i);
        if (Status s = churn.Step(); !s.ok()) {
          load.report->Fail("chain write: " + s.ToString());
        }
      });
      if (Status s = churn.Restore(); !s.ok()) {
        load.report->Fail("chain restore: " + s.ToString());
      }
    });
  }
  if (readers > 0) {
    const uint64_t offset = stream * 7919;
    ClosedLoop(phase, &out.reads, [&](uint64_t i) {
      Read(load, i + offset, i % kTraceSample == 0 ? buffers[0] : nullptr,
           read_span, decompose, io);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Samples& s : write_samples) out.writes.Merge(s);
  return out;
}

}  // namespace

int RunPathsRw(const RunConfig& cfg, Report* report) {
  if (!PinToOneCpu()) std::fprintf(stderr, "paths_rw: runs unpinned\n");
  // The database is the generator's own fixed draw: its power-law hubs make
  // databases drawn from different seeds differ in work per read by more
  // than the benchmark's bounds. The seed draws the read order and the
  // write stream.
  DeepPathConfig shape;
  shape.heads = cfg.Scale(6000);

  std::unique_ptr<Database> db;
  DeepPathDbInfo info;
  std::string journal_path;
  std::vector<double> setups;
  for (int i = 0; i < cfg.setups(); ++i) {
    db.reset();
    info = DeepPathDbInfo();
    const std::string base = cfg.work_dir + "/paths-" + std::to_string(i);
    journal_path = base + ".journal";
    const Clock::time_point start = Clock::now();
    db = std::make_unique<Database>(FileOptions(base + ".db"));
    if (!db->backend_status().ok()) {
      report->Fail("paths_rw file backend: " +
                   db->backend_status().ToString());
      return 1;
    }
    Status s = LoadDeepPathsIntoDatabase(shape, db.get(), &info);
    if (s.ok()) s = db->EnableJournal(journal_path);
    if (!s.ok()) {
      report->Fail("paths_rw set-up: " + s.ToString());
      return 1;
    }
    setups.push_back(SecondsSince(start));
  }
  report->Set("setup_s", Median(setups), "s");
  const uint64_t live_pages = db->live_pages();
  const uint64_t objects = db->store().size();

  // The cycled read list covers every 6-value range once, in an order drawn
  // from the seed, so each cycle reads every chain the same number of
  // times. Each range is checked against brute force before timing.
  std::vector<int64_t> los(
      static_cast<size_t>(shape.num_distinct_values - kRangeWidth + 1));
  for (size_t i = 0; i < los.size(); ++i) los[i] = static_cast<int64_t>(i);
  Random qrng(cfg.seed ^ 0x9A7C5ull);
  qrng.Shuffle(los);
  std::vector<Query> queries;
  const std::vector<Chain> chains = BruteChains(*db, info.index_pos);
  if (chains.empty()) report->Fail("no complete chains generated");
  for (const int64_t lo : los) {
    queries.push_back(ChainQuery(info, lo, lo + kRangeWidth - 1));
    report->Attempt();
    Result<QueryResult> got = db->Execute(info.index_pos, queries.back());
    if (!got.ok()) {
      report->Fail("chain pre-check: " + got.status().ToString());
      continue;
    }
    std::vector<std::vector<Oid>> rows = std::move(got).value().rows;
    std::sort(rows.begin(), rows.end());
    if (rows != ChainsIn(chains, lo, lo + kRangeWidth - 1)) {
      report->Fail("chain answer differs from ForEachInstantiation");
    }
  }
  if (report->failed() != 0) return 1;

  CountingPass(
      db.get(), queries.size(),
      [&](size_t i) -> Result<uint64_t> {
        Result<QueryResult> r = db->Execute(info.index_pos, queries[i]);
        if (!r.ok()) return r.status();
        return r.value().rows.size();
      },
      report);

  const std::vector<std::vector<Oid>> original_refs = OriginalRefs(*db, info);
  const Load load{db.get(), &info, &queries, &original_refs, shape.skew,
                  report};
  IoSum sampled;
  RunPhase(load, cfg, cfg.warmup_s(), 1, kWriters, false, "db.Execute",
           false, &sampled, 0);

  const double untraced_s = cfg.trace ? cfg.seconds * 0.5 : cfg.seconds;
  PhaseResult main =
      RunPhase(load, cfg, untraced_s, 1, kWriters, false, "db.Execute", false,
               &sampled, 1);
  ReportReads(main.reads, main.window_s, report);
  ReportWrites(main.writes, main.window_s, report);

  if (cfg.trace) {
    // Reader alone: the decomposition and exact per-read counters.
    RunPhase(load, cfg, cfg.seconds * 0.2, 1, 0, true, "db.Execute", true,
             &sampled, 2);
    ReportReadDecomposition(ProcessTracer(), "db.Execute", sampled, report);

    // Writers alone: exact per-write counters and journal growth.
    const IoStats w0 = db->buffers().stats();
    const uint64_t j0 = FileBytes(journal_path);
    const PhaseResult writers = RunPhase(load, cfg, cfg.seconds * 0.1, 0,
                                         kWriters, false, "", false,
                                         &sampled, 3);
    const uint64_t writes = writers.writes.Count();
    ReportWriteCounters(db->buffers().stats() - w0, writes, report);
    report->Set("db.journal_bytes_per_write",
                Ratio(static_cast<double>(FileBytes(journal_path) - j0),
                      static_cast<double>(writes)),
                "B");

    // Both together, traced: pool and commit behaviour.
    const IoStats c0 = db->buffers().stats();
    const PhaseResult both =
        RunPhase(load, cfg, cfg.seconds * 0.2, 1, kWriters, true,
                 "db.Execute.concurrent", false, &sampled, 4);
    const IoStats d = db->buffers().stats() - c0;
    const double ops =
        static_cast<double>(both.reads.Count() + both.writes.Count());
    report->Set("db.write_us", ProcessTracer().MeanMicros("db.SetAttr"),
                "us");
    report->Set("db.commit_records_per_batch",
                Ratio(static_cast<double>(d.commit_records.load()),
                      static_cast<double>(d.commit_batches.load())),
                "records");
    report->Set("storage.pool_hit_ratio",
                Ratio(static_cast<double>(d.pool_hits.load()),
                      static_cast<double>(d.pool_hits.load() +
                                          d.pool_misses.load())),
                "ratio");
    report->Set("storage.evictions_per_op",
                Ratio(static_cast<double>(d.evictions.load()), ops),
                "frames");
    report->Set("storage.prefetch_hit_ratio",
                Ratio(static_cast<double>(d.prefetch_hits.load()),
                      static_cast<double>(d.prefetch_issued.load())),
                "ratio");
    report->Set("storage.prefetch_wasted_ratio",
                Ratio(static_cast<double>(d.prefetch_wasted.load()),
                      static_cast<double>(d.prefetch_issued.load())),
                "ratio");
    ReportTraceOverhead(main.reads.RateMedian(main.window_s),
                        both.reads.RateMedian(both.window_s), report);
  }
  // Quiesced: the full-range answer equals brute force over the store, and
  // since every displaced reference was pointed back, it equals the
  // set-up's answer too; the tree is structurally valid after the churn.
  report->Attempt();
  Result<QueryResult> all = db->Execute(
      info.index_pos,
      ChainQuery(info, 0, shape.num_distinct_values));
  if (!all.ok()) {
    report->Fail("final full-range read: " + all.status().ToString());
  } else {
    std::vector<std::vector<Oid>> rows = std::move(all).value().rows;
    std::sort(rows.begin(), rows.end());
    const std::vector<std::vector<Oid>> before =
        ChainsIn(chains, 0, shape.num_distinct_values);
    if (rows != ChainsIn(BruteChains(*db, info.index_pos), 0,
                         shape.num_distinct_values)) {
      report->Fail("churned index differs from ForEachInstantiation");
    } else if (rows != before) {
      report->Fail("churn did not restore the set-up's chains");
    }
  }
  report->Attempt();
  if (Status s = db->index(info.index_pos).btree().Validate(); !s.ok()) {
    report->Fail("BTree::Validate after churn: " + s.ToString());
  }
  ReportFootprint(*db, live_pages, objects, report);
  return report->failed() == 0 ? 0 : 1;
}

}  // namespace suite
}  // namespace uindex
