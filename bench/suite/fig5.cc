#include "bench/suite/fig5.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>

#include "db/oql.h"
#include "util/random.h"

namespace uindex {
namespace suite {

Status LoadFig5(const Fig5Config& cfg, uint64_t seed,
                const DatabaseOptions& options, Fig5Db* out) {
  const Clock::time_point start = Clock::now();
  out->db = std::make_unique<Database>(options);
  Database& db = *out->db;
  Result<ClassId> root = db.CreateClass("Item");
  if (!root.ok()) return root.status();
  out->root = root.value();
  for (uint32_t s = 0; s < cfg.subclasses; ++s) {
    Result<ClassId> sub =
        db.CreateSubclass("Item" + std::to_string(s), out->root);
    if (!sub.ok()) return sub.status();
    out->subclasses.push_back(sub.value());
  }

  Random rng(seed);
  std::vector<double> first, last;
  out->oids.reserve(cfg.objects);
  for (uint32_t i = 0; i < cfg.objects; ++i) {
    const ClassId cls = out->subclasses[rng.Uniform(cfg.subclasses)];
    const int64_t key =
        static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(cfg.keys)));
    const Clock::time_point t0 = Clock::now();
    Result<Oid> oid = db.CreateObject(cls);
    if (!oid.ok()) return oid.status();
    UINDEX_RETURN_IF_ERROR(db.SetAttr(oid.value(), "Key", Value::Int(key)));
    const double us = MicrosBetween(t0, Clock::now());
    if (i < 1000) first.push_back(us);
    if (i + 1000 >= cfg.objects) last.push_back(us);
    out->oids.push_back(oid.value());
  }

  const Clock::time_point index_start = Clock::now();
  Result<size_t> pos = db.CreateIndex(
      PathSpec::ClassHierarchy(out->root, "Key", Value::Kind::kInt));
  if (!pos.ok()) return pos.status();
  out->index_pos = pos.value();
  out->index_build_s = SecondsSince(index_start);
  out->setup_s = SecondsSince(start);
  out->dml_first_us = Median(std::move(first));
  out->dml_last_us = Median(std::move(last));
  return Status::OK();
}

namespace {

// The read mix as a fixed cycle, so every seed runs exactly the same
// shares: 4 exact `Item*`, 2 exact `ItemN`, 2 `IN`, 2 `BETWEEN`.
enum class Fig5Kind { kExact, kExactSubclass, kIn, kBetween };
constexpr Fig5Kind kMix[] = {
    Fig5Kind::kExact, Fig5Kind::kExactSubclass, Fig5Kind::kExact,
    Fig5Kind::kIn,    Fig5Kind::kExact,         Fig5Kind::kBetween,
    Fig5Kind::kExact, Fig5Kind::kExactSubclass, Fig5Kind::kIn,
    Fig5Kind::kBetween,
};

}  // namespace

std::vector<Fig5Query> MakeFig5Queries(const Fig5Db& fig,
                                       const Fig5Config& cfg, uint64_t seed,
                                       size_t n) {
  Random rng(seed ^ 0x51DE51DEull);  // Independent of the loader's stream.
  auto key = [&](int64_t span) {
    return static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(span)));
  };
  std::vector<Fig5Query> out(n);
  for (size_t i = 0; i < n; ++i) {
    Fig5Query& q = out[i];
    const Fig5Kind kind = kMix[i % std::size(kMix)];
    ClassSelector::Term from{fig.root, true};
    if (kind == Fig5Kind::kExact) {
      const int64_t k = key(cfg.keys);
      q.oql = "SELECT i FROM Item* i WHERE i.Key = " + std::to_string(k);
      q.index_query = Query::ExactValue(Value::Int(k));
    } else if (kind == Fig5Kind::kExactSubclass) {
      const uint64_t s = rng.Uniform(cfg.subclasses);
      const int64_t k = key(cfg.keys);
      q.oql = "SELECT i FROM Item" + std::to_string(s) +
              " i WHERE i.Key = " + std::to_string(k);
      q.index_query = Query::ExactValue(Value::Int(k));
      from = ClassSelector::Term{fig.subclasses[s], false};
    } else if (kind == Fig5Kind::kIn) {
      const int64_t a = key(cfg.keys);
      const int64_t b = key(cfg.keys);
      q.oql = "SELECT i FROM Item* i WHERE i.Key IN (" + std::to_string(a) +
              ", " + std::to_string(b) + ")";
      q.index_query = Query::AnyOf({Value::Int(a), Value::Int(b)});
    } else {
      const int64_t k = key(cfg.keys - cfg.range_width + 1);
      q.oql = "SELECT i FROM Item* i WHERE i.Key BETWEEN " +
              std::to_string(k) + " AND " +
              std::to_string(k + cfg.range_width - 1);
      q.index_query = Query::Range(Value::Int(k),
                                   Value::Int(k + cfg.range_width - 1));
    }
    ClassSelector selector;
    selector.include.push_back(from);
    q.index_query.With(std::move(selector), ValueSlot::Wanted());
  }
  return out;
}

void VerifyFig5Queries(const Fig5Db& fig, std::vector<Fig5Query>* queries,
                       Report* report) {
  const Database& db = *fig.db;
  // key -> (oid, class), one pass over the object store.
  std::map<int64_t, std::vector<std::pair<Oid, ClassId>>> by_key;
  for (const Oid oid : fig.oids) {
    Result<const Object*> obj = db.store().Get(oid);
    if (!obj.ok()) {
      report->Fail("fig5 oracle: object " + std::to_string(oid) + " missing");
      return;
    }
    const Value* key = obj.value()->FindAttr("Key");
    if (key == nullptr) continue;
    by_key[key->AsInt()].emplace_back(oid, obj.value()->cls);
  }

  Session session(&db);
  for (Fig5Query& q : *queries) {
    const Query& iq = q.index_query;
    const ClassSelector::Term& from = iq.components[0].selector.include[0];
    std::vector<int64_t> keys;
    if (!iq.values.empty()) {
      for (const Value& v : iq.values) keys.push_back(v.AsInt());
    } else {
      for (int64_t k = iq.lo.AsInt(); k <= iq.hi.AsInt(); ++k) keys.push_back(k);
    }
    std::vector<Oid> expected;
    for (const int64_t k : keys) {
      auto it = by_key.find(k);
      if (it == by_key.end()) continue;
      for (const auto& [oid, cls] : it->second) {
        const bool fits = from.with_subclasses
                              ? db.schema().IsSubclassOf(cls, from.cls)
                              : cls == from.cls;
        if (fits) expected.push_back(oid);
      }
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());

    report->Attempt();
    Result<Database::OqlResult> got = session.ExecuteOql(q.oql);
    if (!got.ok() || got.value().oids != expected) {
      report->Fail("fig5 answer differs from the store for: " + q.oql);
      continue;
    }
    q.expected = expected.size();
    q.http_count = "],\"count\":" + std::to_string(q.expected) + ",";
  }
}

bool Fig5Read(Session* session, const Fig5Db& fig, const Fig5Query& q,
              uint64_t request, Tracer::Buffer* trace, IoSum* io,
              Report* report) {
  report->Attempt();
  if (trace == nullptr) {
    Result<Database::OqlResult> r = session->ExecuteOql(q.oql);
    if (r.ok() && r.value().count == q.expected) return true;
    report->Fail("wrong or failed read: " + q.oql);
    return false;
  }

  const Database& db = *fig.db;
  ScopedSpan root(trace, "read", request);
  std::optional<Result<Database::OqlResult>> facade;
  const IoStats before = db.buffers().stats();
  {
    ScopedSpan span(trace, "db.ExecuteOql", request, root.id());
    facade.emplace(session->ExecuteOql(q.oql));
  }
  if (!facade->ok() || facade->value().count != q.expected) {
    report->Fail("wrong or failed read: " + q.oql);
    return false;
  }
  io->Add(db.buffers().stats() - before, facade->value().count);

  bool parsed = false, planned = false;
  {
    ScopedSpan span(trace, "db.ParseOql", request, root.id());
    parsed = ParseOql(q.oql).ok();
  }
  {
    ScopedSpan span(trace, "db.PlanOqlRouting", request, root.id());
    planned = db.PlanOqlRouting(q.oql).ok();
  }
  const Result<QueryResult> rows = DecomposedParscan(
      db.index(fig.index_pos), q.index_query, request, root.id(), trace);
  if (!parsed || !planned || !rows.ok() ||
      rows.value().Distinct(0) != facade->value().oids) {
    report->Fail("decomposed read differs from the façade for: " + q.oql);
    return false;
  }
  return true;
}

void Fig5CountingPass(const Fig5Db& fig, const std::vector<Fig5Query>& qs,
                      Report* report) {
  Session session(fig.db.get());
  CountingPass(
      fig.db.get(), qs.size(),
      [&](size_t i) -> Result<uint64_t> {
        Result<Database::OqlResult> r = session.ExecuteOql(qs[i].oql);
        if (!r.ok()) return r.status();
        if (r.value().count != qs[i].expected) {
          return Status::Corruption("wrong answer to " + qs[i].oql);
        }
        return r.value().count;
      },
      report);
}

}  // namespace suite
}  // namespace uindex
