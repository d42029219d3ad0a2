#include "bench/suite/suite.h"

#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>

#include "db/database.h"

namespace uindex {
namespace suite {

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

const Report::Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::Fail(const std::string& why, uint64_t n) {
  failed_.fetch_add(n, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(failures_mu_);
  if (failures_.size() < 16) failures_.push_back(why);
}

std::vector<std::string> Report::failures() const {
  std::lock_guard<std::mutex> lock(failures_mu_);
  return failures_;
}

// ---------------------------------------------------------------- Histogram

void Histogram::Record(double us) {
  const double ns = us * 1000.0;
  size_t i = 0;
  if (ns >= 1) {
    int exp = 0;
    const double mantissa = std::frexp(ns, &exp);  // In [0.5, 1).
    const size_t octave = static_cast<size_t>(exp - 1);
    i = octave >= kOctaves
            ? counts_.size() - 1
            : octave * kPerOctave +
                  static_cast<size_t>((2 * mantissa - 1) * kPerOctave);
  }
  ++counts_[i];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double Histogram::Percentile(double pct) const {
  if (count_ == 0) return 0;
  const double rank =
      std::min(pct / 100.0, 1.0) * static_cast<double>(count_);
  uint64_t below = 0;
  size_t i = 0;
  for (; i + 1 < counts_.size(); ++i) {
    if (counts_[i] != 0 && static_cast<double>(below + counts_[i]) >= rank) {
      break;
    }
    below += counts_[i];
  }
  // Bucket i spans [2^octave (1 + sub/64), 2^octave (1 + (sub+1)/64)) ns.
  const double width =
      std::ldexp(1.0, static_cast<int>(i / kPerOctave)) / kPerOctave;
  const double lo =
      width * static_cast<double>(kPerOctave + i % kPerOctave);
  const double share = Ratio(rank - static_cast<double>(below),
                             static_cast<double>(counts_[i]));
  return (lo + share * width) / 1000.0;
}

// ------------------------------------------------------------------ Samples

void Samples::Merge(const Samples& other) {
  if (other.windows_.size() > windows_.size()) {
    windows_.resize(other.windows_.size());
  }
  for (size_t w = 0; w < other.windows_.size(); ++w) {
    windows_[w].Merge(other.windows_[w]);
  }
}

uint64_t Samples::Count() const {
  uint64_t n = 0;
  for (const auto& w : windows_) n += w.Count();
  return n;
}

double Samples::WindowMedian(double pct) const {
  std::vector<double> per_window;
  for (const auto& w : windows_) {
    if (w.Count() != 0) per_window.push_back(w.Percentile(pct));
  }
  return Median(std::move(per_window));
}

double Samples::RateMedian(double window_seconds) const {
  std::vector<double> rates;
  for (const auto& w : windows_) {
    rates.push_back(static_cast<double>(w.Count()) / window_seconds);
  }
  return Median(std::move(rates));
}

double Samples::Pooled(double pct) const {
  Histogram all;
  for (const auto& w : windows_) all.Merge(w);
  return all.Percentile(pct);
}

// ------------------------------------------------------------------- Tracer

int32_t Tracer::Buffer::Begin(const char* name, uint64_t request,
                              int32_t parent) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return -1;
  }
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::Buffer::End(int32_t span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

Tracer::Buffer* Tracer::NewBuffer(size_t capacity) {
  buffers_.push_back(std::make_unique<Buffer>(
      static_cast<int>(buffers_.size()), capacity, origin_));
  return buffers_.back().get();
}

double Tracer::MeanMicros(const std::string& name) const {
  double sum = 0;
  uint64_t n = 0;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) {
      if (s.end_ns != 0 && name == s.name) {
        sum += static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
        ++n;
      }
    }
  }
  return Ratio(sum, static_cast<double>(n));
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  bool first = true;
  uint64_t dropped = 0;
  for (const auto& b : buffers_) {
    dropped += b->dropped();
    const std::vector<Span>& spans = b->spans();
    for (const Span& s : spans) {
      if (s.end_ns == 0) continue;
      const char* parent =
          s.parent >= 0 ? spans[static_cast<size_t>(s.parent)].name : "";
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"uindex_bench\", "
                   "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                   "\"dur\": %.3f, \"args\": {\"request\": %llu, "
                   "\"parent\": \"%s\"}}",
                   first ? "" : ",\n", s.name, b->tid(),
                   static_cast<double>(s.start_ns) / 1000.0,
                   static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                   static_cast<unsigned long long>(s.request), parent);
      first = false;
    }
  }
  std::fprintf(f, "\n], \"otherData\": {\"dropped_spans\": %llu}}\n",
               static_cast<unsigned long long>(dropped));
  return std::fclose(f) == 0;
}

Tracer& ProcessTracer() {
  static Tracer tracer;
  return tracer;
}

// -------------------------------------------------------------------- misc

void IoSum::Add(const IoStats& d, uint64_t rows_returned) {
  ++calls;
  rows += rows_returned;
  pages_read += d.pages_read.load();
  cache_hits += d.cache_hits.load();
  nodes_parsed += d.nodes_parsed.load();
  node_cache_hits += d.node_cache_hits.load();
  bytes_decoded += d.bytes_decoded.load();
  pool_misses += d.pool_misses.load();
}

DatabaseOptions MemoryOptions() {
  DatabaseOptions options;
  options.backend = DatabaseOptions::Backend::kMemory;
  options.page_size = 1024;
  options.cache_pages = 256;  // Unused by the memory backend.
  options.eviction = BufferPool::Eviction::kLru;
  options.prefetch_threads = 0;
  options.group_commit = true;
  return options;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

namespace {

// Device interrupts taken so far by each CPU, from /proc/interrupts (empty
// when unreadable).
std::vector<uint64_t> DeviceInterruptsPerCpu() {
  std::ifstream in("/proc/interrupts");
  std::string header;
  std::getline(in, header);
  size_t cpus = 0;
  for (size_t pos = header.find("CPU"); pos != std::string::npos;
       pos = header.find("CPU", pos + 3)) {
    ++cpus;
  }
  std::vector<uint64_t> counts(cpus, 0);
  std::string label;
  while (in >> label) {
    // Numbered lines are device interrupts; named ones (timer, IPIs) hit
    // every CPU alike.
    const bool device =
        std::isdigit(static_cast<unsigned char>(label[0])) != 0;
    for (size_t cpu = 0; cpu < cpus; ++cpu) {
      uint64_t n = 0;
      if (!(in >> n)) break;
      if (device) counts[cpu] += n;
    }
    in.clear();
    std::string rest;
    std::getline(in, rest);
  }
  return counts;
}

}  // namespace

bool PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  const std::vector<uint64_t> interrupts = DeviceInterruptsPerCpu();
  auto load = [&](int cpu) {
    const size_t i = static_cast<size_t>(cpu);
    return i < interrupts.size() ? interrupts[i] : UINT64_MAX;
  };
  int best = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && (best < 0 || load(cpu) < load(best))) {
      best = cpu;
    }
  }
  if (best < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  return ::sched_setaffinity(0, sizeof(one), &one) == 0;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},           {"read_p50_us", "us"},
      {"read_p90_us", "us"},      {"read_qps", "1/s"},
      {"write_p50_us", "us"},     {"write_p90_us", "us"},
      {"write_qps", "1/s"},       {"pages_per_read", "pages"},
      {"bytes_per_object", "B"},  {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"db.parse_us", "us"},
      {"db.plan_us", "us"},
      {"db.facade_us", "us"},
      {"db.write_us", "us"},
      {"db.commit_records_per_batch", "records"},
      {"db.journal_bytes_per_write", "B"},
      {"core.compile_us", "us"},
      {"core.parscan_us", "us"},
      {"core.rows_per_read", "rows"},
      {"core.rows_per_page", "rows"},
      {"btree.nodes_parsed_per_read", "nodes"},
      {"btree.node_cache_hit_ratio", "ratio"},
      {"btree.bytes_decoded_per_read", "B"},
      {"btree.nodes_parsed_per_write", "nodes"},
      {"storage.cache_hits_per_read", "hits"},
      {"storage.pool_hit_ratio", "ratio"},
      {"storage.pool_misses_per_read", "misses"},
      {"storage.evictions_per_op", "frames"},
      {"storage.prefetch_hit_ratio", "ratio"},
      {"storage.prefetch_wasted_ratio", "ratio"},
      {"storage.writebacks_per_write", "frames"},
      {"storage.pages_cow_per_write", "pages"},
      {"storage.reader_pin_max_age_us", "us"},
      {"setup.dml_first_us", "us"},
      {"setup.dml_last_us", "us"},
      {"setup.index_build_s", "s"},
      {"http.overhead_us", "us"},
      {"net.shed_frac", "ratio"},
      {"loadgen.lag_p99_us", "us"},
      {"max_qps_at_slo", "1/s"},
      {"tail.read_p99_us", "us"},
      {"tail.read_p999_us", "us"},
      {"tail.write_p99_us", "us"},
      {"tail.read_samples", "count"},
      {"tail.write_samples", "count"},
      {"trace.read_us", "us"},
      {"trace.overhead_frac", "ratio"},
  };
  return kMetrics;
}

void ReportReadDecomposition(const Tracer& tracer, const std::string& facade,
                             const IoSum& io, Report* report) {
  const double parse = tracer.MeanMicros("db.ParseOql");
  const double plan_total = tracer.MeanMicros("db.PlanOqlRouting");
  const double plan = plan_total > 0 ? plan_total - parse : 0;
  const double compile = tracer.MeanMicros("core.CompileParscan");
  const double parscan = tracer.MeanMicros("core.Parscan");
  const double whole = tracer.MeanMicros(facade);
  report->Set("db.parse_us", parse, "us");
  report->Set("db.plan_us", plan, "us");
  report->Set("core.compile_us", compile, "us");
  report->Set("core.parscan_us", parscan, "us");
  report->Set("db.facade_us", whole - parse - plan - compile - parscan, "us");
  report->Set("trace.read_us", whole, "us");
  const double calls = static_cast<double>(io.calls);
  report->Set("btree.nodes_parsed_per_read",
              Ratio(static_cast<double>(io.nodes_parsed), calls), "nodes");
  report->Set("btree.node_cache_hit_ratio",
              Ratio(static_cast<double>(io.node_cache_hits),
                    static_cast<double>(io.node_cache_hits + io.nodes_parsed)),
              "ratio");
  report->Set("btree.bytes_decoded_per_read",
              Ratio(static_cast<double>(io.bytes_decoded), calls), "B");
  report->Set("storage.pool_misses_per_read",
              Ratio(static_cast<double>(io.pool_misses), calls), "misses");
}

Result<QueryResult> DecomposedParscan(const UIndex& index, const Query& query,
                                      uint64_t request, int32_t parent,
                                      Tracer::Buffer* trace) {
  std::optional<Result<CompiledQuery>> compiled;
  {
    ScopedSpan span(trace, "core.CompileParscan", request, parent);
    compiled.emplace(index.CompileParscan(query));
  }
  if (!compiled->ok()) return compiled->status();
  QueryResult rows;
  ScopedSpan span(trace, "core.Parscan", request, parent);
  UINDEX_RETURN_IF_ERROR(index.ParscanIntervals(
      compiled->value(), 0, compiled->value().intervals().size(), &rows));
  return rows;
}

void CountingPass(Database* db, size_t n,
                  const std::function<Result<uint64_t>(size_t)>& read,
                  Report* report) {
  IoSum pass;
  for (size_t i = 0; i < n; ++i) {
    report->Attempt();
    const IoStats before = db->buffers().stats();
    QueryCost cost(&db->buffers());
    Result<uint64_t> rows = read(i);
    if (!rows.ok()) {
      report->Fail("counting pass: " + rows.status().ToString());
      continue;
    }
    pass.Add(db->buffers().stats() - before, rows.value());
  }
  const double calls = static_cast<double>(pass.calls);
  report->Set("pages_per_read",
              Ratio(static_cast<double>(pass.pages_read), calls), "pages");
  report->Set("core.rows_per_read",
              Ratio(static_cast<double>(pass.rows), calls), "rows");
  report->Set("core.rows_per_page",
              Ratio(static_cast<double>(pass.rows),
                    static_cast<double>(pass.pages_read)),
              "rows");
  report->Set("storage.cache_hits_per_read",
              Ratio(static_cast<double>(pass.cache_hits), calls), "hits");
}

void ReportReads(const Samples& reads, double window_s, Report* report) {
  report->Set("read_p50_us", reads.WindowMedian(50), "us");
  report->Set("read_p90_us", reads.WindowMedian(90), "us");
  report->Set("read_qps", reads.RateMedian(window_s), "1/s");
  report->Set("tail.read_p99_us", reads.Pooled(99), "us");
  report->Set("tail.read_p999_us", reads.Pooled(99.9), "us");
  report->Set("tail.read_samples", static_cast<double>(reads.Count()),
              "count");
}

void ReportWrites(const Samples& writes, double window_s, Report* report) {
  report->Set("write_p50_us", writes.WindowMedian(50), "us");
  report->Set("write_p90_us", writes.WindowMedian(90), "us");
  report->Set("write_qps", writes.RateMedian(window_s), "1/s");
  report->Set("tail.write_p99_us", writes.Pooled(99), "us");
  report->Set("tail.write_samples", static_cast<double>(writes.Count()),
              "count");
}

void ReportWriteCounters(const IoStats& delta, uint64_t writes,
                         Report* report) {
  const double n = static_cast<double>(writes);
  report->Set("btree.nodes_parsed_per_write",
              Ratio(static_cast<double>(delta.nodes_parsed.load()), n),
              "nodes");
  report->Set("storage.writebacks_per_write",
              Ratio(static_cast<double>(delta.writebacks.load()), n),
              "frames");
  report->Set("storage.pages_cow_per_write",
              Ratio(static_cast<double>(delta.pages_cow.load()), n), "pages");
}

void RunSingleClient(
    const RunConfig& cfg, Database* db, double read_share,
    const std::string& facade,
    const std::function<void(uint64_t, Tracer::Buffer*, IoSum*)>& read,
    const std::function<Status(uint64_t)>& write, Report* report) {
  Tracer& tracer = ProcessTracer();
  Tracer::Buffer* trace = cfg.trace ? tracer.NewBuffer() : nullptr;
  IoSum sampled;
  auto untraced_read = [&](uint64_t i) { read(i, nullptr, &sampled); };
  auto checked_write = [&](uint64_t i, Tracer::Buffer* buffer) {
    report->Attempt();
    ScopedSpan span(i % kTraceSample == 0 ? buffer : nullptr, "db.SetAttr",
                    i);
    if (Status s = write(i); !s.ok()) report->Fail("write: " + s.ToString());
  };
  auto untraced_write = [&](uint64_t i) { checked_write(i, nullptr); };
  {
    Samples warm(1);
    ClosedLoop(Phase(cfg.warmup_s(), 1), &warm, untraced_read);
  }

  // Reads and writes take turns window by window, so both sample the
  // whole timed phase: the host's slow and fast spells, which last
  // seconds, fall on both alike.
  const size_t windows = cfg.windows();
  const double timed_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const double read_s = timed_s * read_share / static_cast<double>(windows);
  const double write_s = timed_s / static_cast<double>(windows) - read_s;
  Samples reads(windows);
  Samples writes(windows);
  uint64_t n_reads = 0;
  uint64_t n_writes = 0;
  for (size_t w = 0; w < windows; ++w) {
    n_reads +=
        ClosedLoop(Phase(read_s, 1, w), &reads, untraced_read, n_reads);
    n_writes +=
        ClosedLoop(Phase(write_s, 1, w), &writes, untraced_write, n_writes);
  }
  ReportReads(reads, read_s, report);
  ReportWrites(writes, write_s, report);
  if (!cfg.trace) return;

  // Traced: reads sampling 1 in kTraceSample, then writes alone for exact
  // per-write counters.
  Samples traced(windows);
  const Phase traced_phase(timed_s * read_share, windows);
  ClosedLoop(traced_phase, &traced, [&](uint64_t i) {
    read(i, i % kTraceSample == 0 ? trace : nullptr, &sampled);
  });
  ReportReadDecomposition(tracer, facade, sampled, report);
  ReportTraceOverhead(reads.RateMedian(read_s),
                      traced.RateMedian(traced_phase.window_seconds()),
                      report);
  Samples traced_writes(windows);
  const IoStats before = db->buffers().stats();
  const uint64_t n = ClosedLoop(
      Phase(timed_s * (1 - read_share), windows), &traced_writes,
      [&](uint64_t i) { checked_write(i, trace); }, n_writes);
  ReportWriteCounters(db->buffers().stats() - before, n, report);
  report->Set("db.write_us", tracer.MeanMicros("db.SetAttr"), "us");
}

void ReportFootprint(const Database& db, uint64_t live_pages,
                     uint64_t objects, Report* report) {
  report->Set("bytes_per_object",
              Ratio(static_cast<double>(live_pages) * db.buffers().page_size(),
                    static_cast<double>(objects)),
              "B");
  report->Set("peak_rss_mb", PeakRssMiB(), "MiB");
  report->Set("storage.reader_pin_max_age_us",
              static_cast<double>(
                  db.buffers().stats().reader_pin_max_age_us.load()),
              "us");
}

}  // namespace suite
}  // namespace uindex
