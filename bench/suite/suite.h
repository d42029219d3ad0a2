#ifndef UINDEX_BENCH_SUITE_SUITE_H_
#define UINDEX_BENCH_SUITE_SUITE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db/database.h"
#include "storage/io_stats.h"
#include "util/status.h"

namespace uindex {
namespace suite {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// What one workload process was asked to do. Run lengths other than the
/// timed phase are constants here, so two runs with the same arguments do
/// the same work.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1996;
  double seconds = 20;  ///< Length of the timed phase.
  bool trace = false;   ///< Per-layer run instead of the end-to-end one.
  bool smoke = false;   ///< About 1/10 scale, one set-up, one second.
  std::string work_dir;  ///< Scratch space for data files and journals.

  /// Set-ups per run; `setup_s` is their median.
  int setups() const { return smoke ? 1 : 3; }
  /// Untimed warm-up before the timed phase.
  double warmup_s() const { return smoke ? 0.05 : 1.0; }
  /// Windows each timed phase is split into; statistics are the median
  /// over windows.
  size_t windows() const { return smoke ? 2 : 10; }
  uint32_t Scale(uint32_t full) const { return smoke ? full / 10 : full; }
};

/// Requests sampled by the tracer: 1 in kTraceSample.
constexpr uint64_t kTraceSample = 64;

/// The result of one workload run: named metrics plus error accounting.
/// Every failed call, wrong answer, shed or transport error counts in
/// `failed`; a failed gate also records why. `Attempt` and `Fail` may be
/// called from load threads; metrics are set from the main thread.
class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;

  void Attempt(uint64_t n = 1) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Counts `n` failed operations and remembers `why` (first few only).
  void Fail(const std::string& why, uint64_t n = 1);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> failures() const;

 private:
  std::vector<Metric> metrics_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex failures_mu_;
  std::vector<std::string> failures_;
};

/// Latencies (µs) in a fixed-size log-linear histogram: 64 equal buckets
/// per power of two of nanoseconds, each under 1.6% wide. Recording is one
/// increment and memory does not grow with the number of samples. A
/// percentile interpolates linearly inside its bucket, so it moves with
/// the samples instead of snapping to a bucket's midpoint.
class Histogram {
 public:
  Histogram() : counts_(kOctaves * kPerOctave, 0) {}

  void Record(double us);
  void Merge(const Histogram& other);
  uint64_t Count() const { return count_; }
  /// The `pct` percentile in µs; 0 when empty.
  double Percentile(double pct) const;

 private:
  static constexpr size_t kOctaves = 40;  // 1 ns to about 18 minutes.
  static constexpr size_t kPerOctave = 64;

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

/// Latencies (µs) of one operation class, one histogram per time window.
/// A run reports the median over windows of each statistic, so one noisy
/// second moves one window rather than the result.
class Samples {
 public:
  explicit Samples(size_t windows = 1) : windows_(windows == 0 ? 1 : windows) {}

  void Record(size_t window, double us) {
    if (window >= windows_.size()) window = windows_.size() - 1;
    windows_[window].Record(us);
  }
  void Merge(const Samples& other);

  uint64_t Count() const;
  /// Median over non-empty windows of each window's `pct` percentile.
  double WindowMedian(double pct) const;
  /// Median over windows of samples per second of window.
  double RateMedian(double window_seconds) const;
  /// Percentile over all windows merged.
  double Pooled(double pct) const;

 private:
  std::vector<Histogram> windows_;
};

/// A fixed-length timed phase split into equal windows, numbered from
/// `first_window` (a phase may be one window of a longer run).
class Phase {
 public:
  Phase(double seconds, size_t windows, size_t first_window = 0)
      : start_(Clock::now()),
        length_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds))),
        windows_(windows == 0 ? 1 : windows),
        first_window_(first_window) {}

  bool Over(Clock::time_point t) const { return t - start_ >= length_; }
  size_t WindowOf(Clock::time_point t) const {
    const auto elapsed = t - start_;
    if (elapsed <= Clock::duration::zero()) return first_window_;
    const size_t w = static_cast<size_t>(elapsed.count() *
                                         static_cast<int64_t>(windows_) /
                                         length_.count());
    return first_window_ + (w < windows_ ? w : windows_ - 1);
  }
  double window_seconds() const {
    return std::chrono::duration<double>(length_).count() /
           static_cast<double>(windows_);
  }

 private:
  Clock::time_point start_;
  Clock::duration length_;
  size_t windows_;
  size_t first_window_;
};

/// Runs `op(first + i)` back to back on the calling thread until `phase`
/// is over, recording each call's latency in `samples` under the window it
/// started in. Returns the number of calls.
template <typename Op>
uint64_t ClosedLoop(const Phase& phase, Samples* samples, Op&& op,
                    uint64_t first = 0) {
  uint64_t i = 0;
  for (;; ++i) {
    const Clock::time_point t0 = Clock::now();
    if (phase.Over(t0)) break;
    op(first + i);
    samples->Record(phase.WindowOf(t0), MicrosBetween(t0, Clock::now()));
  }
  return i;
}

/// Spans recorded from the benchmark's own code around calls into each
/// layer's public functions, for 1 request in kTraceSample. Each thread
/// writes into its own preallocated buffer, so recording never allocates
/// or locks; a full buffer drops further spans and counts them.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint64_t request = 0;
  };

  class Buffer {
   public:
    Buffer(int tid, size_t capacity, Clock::time_point origin)
        : tid_(tid), origin_(origin) {
      spans_.reserve(capacity);
    }
    /// Opens a span and returns its handle (-1 when the buffer is full).
    int32_t Begin(const char* name, uint64_t request, int32_t parent);
    void End(int32_t span);

    int tid() const { return tid_; }
    const std::vector<Span>& spans() const { return spans_; }
    uint64_t dropped() const { return dropped_; }

   private:
    int64_t NowNs() const {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - origin_)
          .count();
    }

    int tid_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
  };

  Tracer() : origin_(Clock::now()) {}

  /// A buffer for one thread; create every buffer before threads start.
  Buffer* NewBuffer(size_t capacity = 1u << 17);

  /// Mean duration (µs) of every closed span called `name`.
  double MeanMicros(const std::string& name) const;

  /// Writes all spans as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a no-op when `buffer` is null (untraced or unsampled).
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Buffer* buffer, const char* name, uint64_t request,
             int32_t parent = -1)
      : buffer_(buffer),
        id_(buffer == nullptr ? -1 : buffer->Begin(name, request, parent)) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer::Buffer* buffer_;
  int32_t id_;
};

/// IoStats deltas summed over the calls they bracket, for per-call ratios.
struct IoSum {
  uint64_t calls = 0;
  uint64_t rows = 0;
  uint64_t pages_read = 0;
  uint64_t cache_hits = 0;
  uint64_t nodes_parsed = 0;
  uint64_t node_cache_hits = 0;
  uint64_t bytes_decoded = 0;
  uint64_t pool_misses = 0;

  void Add(const IoStats& delta, uint64_t rows_returned);
};

/// Options of the in-memory workloads, every field the benchmark depends
/// on set explicitly.
DatabaseOptions MemoryOptions();

/// Ratio that reads 0 when the base is 0.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMiB();

/// Size of a file in bytes; 0 when it does not exist.
uint64_t FileBytes(const std::string& path);

/// Runs this process, and every thread it starts afterwards, on one CPU:
/// of those it may use, the one that has taken the fewest device
/// interrupts. The workloads whose threads hand work to each other call it
/// first (bench/suite/README.md, "Threads and CPUs"). Returns false, and
/// leaves the process as it was, when the CPU set cannot be changed.
bool PinToOneCpu();

// ---------------------------------------------------------------- metrics
// The end-to-end metrics every untraced run reports, and the per-layer
// metrics every traced run reports (BENCHMARK.json lists the same names).
// A per-layer metric a workload cannot measure reads 0.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Per-layer figures of the reads sampled by `tracer`: the parts of each
/// sampled read timed from outside (`ParseOql`, `PlanOqlRouting` minus its
/// parse, `CompileParscan`, `Parscan`) and the façade call's residual over
/// them, so the parts sum to `trace.read_us` by construction. `facade` is
/// the span name of the façade call; `io` holds the IoStats deltas of the
/// same façade calls.
void ReportReadDecomposition(const Tracer& tracer, const std::string& facade,
                             const IoSum& io, Report* report);

/// The decomposed half of a sampled read: `CompileParscan` and `Parscan`
/// (`ParscanIntervals` over the whole plan) of `query` on `index`, each in
/// a span under `parent`. `index` is the live index, so callers decompose
/// only while no writer runs.
Result<QueryResult> DecomposedParscan(const UIndex& index, const Query& query,
                                      uint64_t request, int32_t parent,
                                      Tracer::Buffer* trace);

/// The counting pass: `read(i)` for every i < n on the quiesced database,
/// each under its own `QueryCost`; `read` returns its row count, or an
/// error for a failed or wrong answer. Sets `pages_per_read`,
/// `core.rows_per_read`, `core.rows_per_page` and
/// `storage.cache_hits_per_read`.
void CountingPass(Database* db, size_t n,
                  const std::function<Result<uint64_t>(size_t)>& read,
                  Report* report);

/// Latency and throughput figures of one closed-loop timed phase, with
/// the `tail.*` figures of the same samples.
void ReportReads(const Samples& reads, double window_s, Report* report);
void ReportWrites(const Samples& writes, double window_s, Report* report);

/// Per-write figures of a phase in which only writers ran: `delta` is the
/// phase's IoStats delta.
void ReportWriteCounters(const IoStats& delta, uint64_t writes,
                         Report* report);

/// What a run leaves behind: `bytes_per_object` from the set-up's page and
/// object counts, `peak_rss_mb`, and `db`'s longest reader pin.
void ReportFootprint(const Database& db, uint64_t live_pages,
                     uint64_t objects, Report* report);

/// `trace.overhead_frac` from the read throughput of an untraced and a
/// traced run of the same phase.
inline void ReportTraceOverhead(double untraced_qps, double traced_qps,
                                Report* report) {
  report->Set("trace.overhead_frac", 1.0 - Ratio(traced_qps, untraced_qps),
              "ratio");
}

/// The timed phase of a single-client in-memory workload. In each window,
/// reads run back to back for `read_share` of it and writes, each one
/// `write(i)` returning its status, for the rest. A trace run spends half
/// its time so and then, traced, reads sampling 1 in kTraceSample into
/// `read`'s trace buffer (null otherwise), reporting the decomposition
/// under the façade span `facade`, and writes alone, reporting their
/// per-write IoStats. Sets the read, write and trace metrics.
void RunSingleClient(
    const RunConfig& cfg, Database* db, double read_share,
    const std::string& facade,
    const std::function<void(uint64_t, Tracer::Buffer*, IoSum*)>& read,
    const std::function<Status(uint64_t)>& write, Report* report);

// ------------------------------------------------------------- workloads
int RunPoint(const RunConfig& cfg, Report* report);
int RunRollup(const RunConfig& cfg, Report* report);
int RunPathsRw(const RunConfig& cfg, Report* report);
int RunServed(const RunConfig& cfg, Report* report);

/// The tracer every workload of this process records into.
Tracer& ProcessTracer();

}  // namespace suite
}  // namespace uindex

#endif  // UINDEX_BENCH_SUITE_SUITE_H_
