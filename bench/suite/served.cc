// `served`: the `point` database behind `net::Server` (2 workers) and the
// HTTP/JSON gateway, the only path through HTTP, JSON, admission control
// and the worker hand-off. Load comes over 2 keep-alive connections: 95%
// `/v1/query` reads of the `point` mix and 5% `/v1/dml set_attr` of the
// non-indexed `Pad` attribute, so verified answers stay fixed. The
// end-to-end figures are closed-loop. The traced run adds the open-loop
// view: ops due on a fixed schedule, latency timed from each op's due
// instant, how late the generator ran, and the highest rate of a ladder
// that meets the read p90 limit. The process runs on one CPU: every
// request crosses three threads (client, gateway connection, server
// worker), and across CPUs each crossing waits for a virtual CPU to wake,
// which spread results between runs by more than 15%.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <thread>

#include "bench/suite/fig5.h"
#include "bench/suite/suite.h"
#include "http/backend.h"
#include "http/gateway.h"
#include "http/http_client.h"
#include "net/server.h"
#include "util/json.h"
#include "util/random.h"

namespace uindex {
namespace suite {

namespace {

constexpr size_t kQueries = 4096;
constexpr size_t kOps = 1 << 16;
constexpr int kConnections = 2;
constexpr size_t kServerWorkers = 2;
constexpr uint64_t kWritePercent = 5;
constexpr double kNominalRate = 8000;
constexpr double kLadder[] = {2000, 4000, 8000, 16000, 32000, 64000};
constexpr double kSloReadP90Us = 1000;

struct Op {
  bool read = true;
  size_t query = 0;  // Reads: index into the query list.
  std::string body;
};

// The server stack. Members are destroyed gateway-first, database-last.
struct Stack {
  Fig5Db fig;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<http::ServerBackend> backend;
  std::unique_ptr<http::HttpGateway> gateway;

  void Shutdown() {
    if (gateway != nullptr) gateway->Shutdown();
    if (server != nullptr) server->Shutdown();
  }
  void Reset() {
    Shutdown();
    gateway.reset();
    backend.reset();
    server.reset();
    fig = Fig5Db();
  }
};

Status StartStack(const Fig5Config& shape, uint64_t seed, Stack* out) {
  UINDEX_RETURN_IF_ERROR(LoadFig5(shape, seed, MemoryOptions(), &out->fig));
  net::ServerOptions options;
  options.worker_threads = kServerWorkers;
  Result<std::unique_ptr<net::Server>> server =
      net::Server::Start(out->fig.db.get(), options);
  if (!server.ok()) return server.status();
  out->server = std::move(server).value();
  out->backend = std::make_unique<http::ServerBackend>(out->server.get());
  Result<std::unique_ptr<http::HttpGateway>> gateway =
      http::HttpGateway::Start(out->backend.get(), http::GatewayOptions{});
  if (!gateway.ok()) return gateway.status();
  out->gateway = std::move(gateway).value();
  return Status::OK();
}

std::vector<Op> MakeOps(const Fig5Db& fig, size_t queries, uint64_t seed) {
  Random rng(seed ^ 0x5E4EDull);
  std::vector<Op> ops(kOps);
  size_t next_query = 0;
  for (Op& op : ops) {
    op.read = rng.Uniform(100) >= kWritePercent;
    if (op.read) {
      op.query = next_query++ % queries;
    } else {
      const Oid oid = fig.oids[rng.Uniform(fig.oids.size())];
      op.body = "{\"op\": \"set_attr\", \"oid\": " + std::to_string(oid) +
                ", \"attr\": \"Pad\", \"value\": " +
                std::to_string(rng.Uniform(1 << 16)) + "}";
    }
  }
  return ops;
}

std::string QueryBody(const std::string& oql) {
  std::string body = "{\"oql\": ";
  json::AppendQuoted(&body, oql);
  body += "}";
  return body;
}

// One load connection, opened on first use and after a transport error.
struct Conn {
  std::unique_ptr<http::HttpClient> client;
  uint16_t port = 0;
};

enum class Outcome { kOk, kShed, kFailed };

// Sends one op and checks the reply: status 200, and for a read the
// verified row count.
Outcome Send(Conn* conn, const Op& op, const std::vector<Fig5Query>& queries,
             const std::vector<std::string>& bodies, Report* report) {
  report->Attempt();
  if (conn->client == nullptr) {
    Result<std::unique_ptr<http::HttpClient>> c =
        http::HttpClient::Connect("127.0.0.1", conn->port);
    if (!c.ok()) {
      report->Fail("connect: " + c.status().ToString());
      return Outcome::kFailed;
    }
    conn->client = std::move(c).value();
  }
  Result<http::HttpClient::Response> r =
      op.read ? conn->client->Post("/v1/query", bodies[op.query])
              : conn->client->Post("/v1/dml", op.body);
  if (!r.ok()) {
    conn->client.reset();  // Poisoned; the next op reconnects.
    report->Fail("transport: " + r.status().ToString());
    return Outcome::kFailed;
  }
  if (r.value().status == 429) {
    report->Fail("admission shed");
    return Outcome::kShed;
  }
  if (r.value().status != 200) {
    report->Fail("HTTP " + std::to_string(r.value().status));
    return Outcome::kFailed;
  }
  if (op.read &&
      r.value().body.find(queries[op.query].http_count) == std::string::npos) {
    report->Fail("wrong row count over HTTP: " + queries[op.query].oql);
    return Outcome::kFailed;
  }
  return Outcome::kOk;
}

struct LoadResult {
  Samples reads;
  Samples writes;
  Samples lag;  // Open loop: send time minus scheduled time.
  uint64_t sheds = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;
  double window_s = 0;
  double elapsed_s = 0;  // Open loop: start to the last completion.
};

struct Shared {
  uint16_t port;
  const std::vector<Op>* ops;
  const std::vector<Fig5Query>* queries;
  const std::vector<std::string>* bodies;
  Report* report;
};

// `rate` 0: closed loop, each connection sending its next op when the
// previous one returns. Otherwise open loop: op i is due at start + i/rate
// on connection i % kConnections, and its latency runs from that instant.
// A traced run wraps 1 op in kTraceSample per connection in a span.
LoadResult RunLoad(const Shared& shared, const RunConfig& cfg, double seconds,
                   double rate, bool trace, uint64_t first_op) {
  const size_t windows = cfg.windows();
  const Phase phase(seconds, windows);
  std::vector<LoadResult> per(kConnections);
  std::vector<Tracer::Buffer*> buffers;
  for (int c = 0; c < kConnections; ++c) {
    per[c].reads = Samples(windows);
    per[c].writes = Samples(windows);
    per[c].lag = Samples(windows);
    buffers.push_back(trace ? ProcessTracer().NewBuffer() : nullptr);
  }
  const Clock::time_point start = Clock::now();
  const uint64_t scheduled_ops =
      rate > 0 ? static_cast<uint64_t>(rate * seconds) : 0;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& out = per[c];
      Conn conn;
      conn.port = shared.port;
      Clock::time_point last_done = start;
      for (uint64_t k = 0;; ++k) {
        const uint64_t i = k * kConnections + static_cast<uint64_t>(c);
        Clock::time_point due = Clock::now();
        if (rate > 0) {
          if (i >= scheduled_ops) break;
          due = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                static_cast<double>(i) / rate));
          std::this_thread::sleep_until(due);
          const Clock::time_point sent = Clock::now();
          out.lag.Record(phase.WindowOf(due), MicrosBetween(due, sent));
        } else if (phase.Over(due)) {
          break;
        }
        const Op& op = (*shared.ops)[(first_op + i) % shared.ops->size()];
        Outcome outcome;
        {
          ScopedSpan span(k % kTraceSample == 0 ? buffers[c] : nullptr,
                          op.read ? "http.POST /v1/query"
                                  : "http.POST /v1/dml",
                          i);
          outcome = Send(&conn, op, *shared.queries, *shared.bodies,
                         shared.report);
        }
        last_done = Clock::now();
        if (outcome == Outcome::kShed) ++out.sheds;
        if (outcome == Outcome::kFailed) ++out.failed;
        if (outcome != Outcome::kOk) continue;
        ++out.completed;
        (op.read ? out.reads : out.writes)
            .Record(phase.WindowOf(due), MicrosBetween(due, last_done));
      }
      out.elapsed_s = std::chrono::duration<double>(last_done - start).count();
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult all;
  all.reads = Samples(windows);
  all.writes = Samples(windows);
  all.lag = Samples(windows);
  all.window_s = phase.window_seconds();
  for (const LoadResult& r : per) {
    all.reads.Merge(r.reads);
    all.writes.Merge(r.writes);
    all.lag.Merge(r.lag);
    all.sheds += r.sheds;
    all.failed += r.failed;
    all.completed += r.completed;
    all.elapsed_s = std::max(all.elapsed_s, r.elapsed_s);
  }
  return all;
}

// Every distinct read in the cycled list, over HTTP against in-process.
void VerifyOverHttp(const Stack& stack, const std::vector<Fig5Query>& queries,
                    const std::vector<std::string>& bodies, Report* report) {
  Result<std::unique_ptr<http::HttpClient>> client =
      http::HttpClient::Connect("127.0.0.1", stack.gateway->port());
  if (!client.ok()) {
    report->Fail("connect: " + client.status().ToString());
    return;
  }
  Session session(stack.fig.db.get());
  for (size_t q = 0; q < queries.size(); ++q) {
    report->Attempt();
    Result<http::HttpClient::Response> r =
        client.value()->Post("/v1/query", bodies[q]);
    Result<Database::OqlResult> local = session.ExecuteOql(queries[q].oql);
    if (!r.ok() || r.value().status != 200 || !local.ok()) {
      report->Fail("HTTP identity read failed: " + queries[q].oql);
      continue;
    }
    Result<json::Value> doc = json::Parse(r.value().body);
    const json::Value* oids = doc.ok() ? doc.value().Find("oids") : nullptr;
    std::vector<Oid> remote;
    if (oids != nullptr && oids->is_array()) {
      for (const json::Value& v : oids->items()) {
        remote.push_back(static_cast<Oid>(v.AsInt()));
      }
    }
    if (oids == nullptr || remote != local.value().oids) {
      report->Fail("rows differ over HTTP for: " + queries[q].oql);
    }
  }
}

}  // namespace

int RunServed(const RunConfig& cfg, Report* report) {
  if (!PinToOneCpu()) std::fprintf(stderr, "served: runs unpinned\n");
  Fig5Config shape;
  shape.objects = cfg.Scale(shape.objects);

  Stack stack;
  std::vector<double> setups;
  for (int i = 0; i < cfg.setups(); ++i) {
    stack.Reset();
    const Clock::time_point start = Clock::now();
    if (Status s = StartStack(shape, cfg.seed, &stack); !s.ok()) {
      report->Fail("served set-up: " + s.ToString());
      return 1;
    }
    setups.push_back(SecondsSince(start));
  }
  Fig5Db& fig = stack.fig;
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
  std::vector<std::string> bodies;
  for (const Fig5Query& q : queries) bodies.push_back(QueryBody(q.oql));
  VerifyOverHttp(stack, queries, bodies, report);
  if (report->failed() != 0) {
    stack.Shutdown();
    return 1;
  }
  Fig5CountingPass(fig, queries, report);

  const std::vector<Op> ops = MakeOps(fig, queries.size(), cfg.seed);
  const Shared shared{stack.gateway->port(), &ops, &queries, &bodies, report};
  RunLoad(shared, cfg, cfg.warmup_s(), 0, false, 0);

  const double s = cfg.seconds;
  if (!cfg.trace) {
    const LoadResult closed = RunLoad(shared, cfg, s, 0, false, 1000);
    ReportReads(closed.reads, closed.window_s, report);
    ReportWrites(closed.writes, closed.window_s, report);
  } else {
    // In process, server idle: the same reads through a Session, 1 in
    // kTraceSample decomposed, then in-process writes with spans.
    Tracer::Buffer* trace = ProcessTracer().NewBuffer();
    Session session(&db);
    IoSum sampled;
    Samples local(cfg.windows());
    ClosedLoop(Phase(0.1 * s, cfg.windows()), &local, [&](uint64_t i) {
      Fig5Read(&session, fig, queries[i % queries.size()], i,
               i % kTraceSample == 0 ? trace : nullptr, &sampled, report);
    });
    ReportReadDecomposition(ProcessTracer(), "db.ExecuteOql", sampled,
                            report);
    Random rng(cfg.seed ^ 0xD113ull);
    Samples local_writes(1);
    ClosedLoop(Phase(0.05 * s, 1), &local_writes, [&](uint64_t i) {
      report->Attempt();
      ScopedSpan span(i % kTraceSample == 0 ? trace : nullptr, "db.SetAttr",
                      i);
      const Status st = db.SetAttr(
          fig.oids[rng.Uniform(fig.oids.size())], "Pad",
          Value::Int(static_cast<int64_t>(rng.Uniform(1 << 16))));
      if (!st.ok()) report->Fail("in-process write: " + st.ToString());
    });
    report->Set("db.write_us", ProcessTracer().MeanMicros("db.SetAttr"),
                "us");

    const LoadResult untraced = RunLoad(shared, cfg, 0.2 * s, 0, false, 1000);
    const LoadResult traced = RunLoad(shared, cfg, 0.2 * s, 0, true, 1000);
    ReportReads(untraced.reads, untraced.window_s, report);
    ReportWrites(untraced.writes, untraced.window_s, report);
    ReportTraceOverhead(untraced.reads.RateMedian(untraced.window_s),
                        traced.reads.RateMedian(traced.window_s), report);
    report->Set("http.overhead_us",
                untraced.reads.WindowMedian(50) - local.WindowMedian(50),
                "us");

    // Open loop at the nominal rate: how late the generator ran.
    const LoadResult open =
        RunLoad(shared, cfg, 0.15 * s, kNominalRate, false, 2000);
    report->Set("loadgen.lag_p99_us", open.lag.Pooled(99), "us");

    // The rate ladder: the highest offered rate whose reads meet the p90
    // limit with no failures and at least 99% of the offered rate achieved.
    uint64_t sheds = open.sheds;
    uint64_t offered = open.completed + open.failed;
    double best = 0;
    const double step_s = 0.3 * s / std::size(kLadder);
    for (const double rate : kLadder) {
      const LoadResult step = RunLoad(shared, cfg, step_s, rate, false, 3000);
      sheds += step.sheds;
      offered += step.completed + step.failed;
      const double achieved = Ratio(static_cast<double>(step.completed),
                                    step.elapsed_s);
      if (step.failed == 0 && step.sheds == 0 &&
          step.reads.Pooled(90) <= kSloReadP90Us &&
          achieved >= 0.99 * rate) {
        best = rate;
      }
    }
    report->Set("max_qps_at_slo", best, "1/s");
    report->Set("net.shed_frac",
                Ratio(static_cast<double>(sheds), static_cast<double>(offered)),
                "ratio");
  }
  stack.Shutdown();
  ReportFootprint(db, live_pages, objects, report);
  return report->failed() == 0 ? 0 : 1;
}

}  // namespace suite
}  // namespace uindex
