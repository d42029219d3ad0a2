// uindex_bench: the repository's end-to-end benchmark (bench/suite/README.md).
//
//   uindex_bench [--seed=N] [--seconds=S] [--trace] [--smoke]
//       runs all four workloads, each in a child process of its own, prints
//       `workload metric value unit` lines and writes
//       bench_results/uindex_bench.json;
//   uindex_bench --workload=NAME [...]
//       runs one workload in this process and prints, as its last line,
//       {"correct", "attempted", "failed", "metrics"} as JSON.
//
// Untraced runs report the end-to-end metrics; --trace runs report the
// per-layer metrics and write a Chrome trace. The exit code is non-zero
// when any correctness gate fails. Flags take `--flag=value` or
// `--flag value`.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/suite/suite.h"
#include "util/json.h"

#ifndef UINDEX_BENCH_BUILD_TYPE
#define UINDEX_BENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define UINDEX_BENCH_COMPILER "clang " __clang_version__
#else
#define UINDEX_BENCH_COMPILER "gcc " __VERSION__
#endif

namespace uindex {
namespace suite {
namespace {

constexpr const char* kWorkloads[] = {"point", "rollup", "paths_rw",
                                      "served"};

// Environment knobs that silently change what the program under test does.
// A run with any of them set would not measure the configuration the
// benchmark names, so it refuses to start.
constexpr const char* kForbiddenEnv[] = {
    "UINDEX_SIM_READ_LATENCY", "UINDEX_NODE_CACHE", "UINDEX_PREFETCH",
    "UINDEX_BACKEND",          "UINDEX_CACHE_PAGES", "UINDEX_EVICTION",
};

struct Args {
  RunConfig run;
  bool seconds_given = false;
  bool ok = true;
};

bool ParseBool(const std::string& v) { return v != "0" && v != "false"; }

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    bool has_value = false;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_value = true;
    }
    auto next = [&]() -> std::string {
      if (has_value) return value;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        return argv[++i];
      }
      args.ok = false;
      return "";
    };
    if (flag == "--workload") {
      args.run.workload = next();
    } else if (flag == "--seed") {
      args.run.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.run.seconds = std::strtod(next().c_str(), nullptr);
      args.seconds_given = true;
      if (!(args.run.seconds > 0)) args.ok = false;
    } else if (flag == "--trace") {
      // A bare --trace means on; `--trace 0|1` sets it explicitly.
      if (has_value) {
        args.run.trace = ParseBool(value);
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        args.run.trace = ParseBool(argv[++i]);
      } else {
        args.run.trace = true;
      }
    } else if (flag == "--smoke") {
      args.run.smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      args.ok = false;
    }
  }
  if (args.run.smoke && !args.seconds_given) args.run.seconds = 1;
  return args;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

json::Value MachineRecord(const RunConfig& run) {
  json::Value m = json::Value::Object();
  m.members().emplace_back("seed",
                           json::Value::Int(static_cast<int64_t>(run.seed)));
  m.members().emplace_back(
      "nproc", json::Value::Int(std::thread::hardware_concurrency()));
  m.members().emplace_back("cpu", json::Value::Str(CpuModel()));
  m.members().emplace_back("compiler",
                           json::Value::Str(UINDEX_BENCH_COMPILER));
  m.members().emplace_back("build_type",
                           json::Value::Str(UINDEX_BENCH_BUILD_TYPE));
  m.members().emplace_back("seconds", json::Value::Double(run.seconds));
  m.members().emplace_back("trace", json::Value::Bool(run.trace));
  m.members().emplace_back("smoke", json::Value::Bool(run.smoke));
  return m;
}

int Dispatch(const RunConfig& run, Report* report) {
  if (run.workload == "point") return RunPoint(run, report);
  if (run.workload == "rollup") return RunRollup(run, report);
  if (run.workload == "paths_rw") return RunPathsRw(run, report);
  if (run.workload == "served") return RunServed(run, report);
  std::fprintf(stderr, "unknown workload %s\n", run.workload.c_str());
  return 2;
}

// One workload in this process; the last stdout line is the result.
int RunOne(RunConfig run) {
  namespace fs = std::filesystem;
  run.work_dir = "bench_results/work-" + std::to_string(::getpid());
  std::error_code ec;
  fs::create_directories(run.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", run.work_dir.c_str());
    return 2;
  }

  Report report;
  if (run.trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) report.Set(name, 0, unit);
  }
  const int rc = Dispatch(run, &report);
  fs::remove_all(run.work_dir, ec);
  if (rc == 2) return rc;

  // Only the metric set of this kind of run is printed, each by name.
  json::Value metrics = json::Value::Object();
  for (const auto& [name, unit] :
       run.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const Report::Metric* m = report.Find(name);
    if (m == nullptr || (!run.trace && !(m->value > 0))) {
      report.Fail("metric " + name + " was not measured", 0);
      continue;
    }
    std::printf("%s %s %.6g %s\n", run.workload.c_str(), name.c_str(),
                m->value, m->unit.c_str());
    json::Value entry = json::Value::Object();
    entry.members().emplace_back("value", json::Value::Double(m->value));
    entry.members().emplace_back("unit", json::Value::Str(m->unit));
    metrics.members().emplace_back(name, std::move(entry));
  }
  for (const std::string& why : report.failures()) {
    std::fprintf(stderr, "%s: GATE FAILED: %s\n", run.workload.c_str(),
                 why.c_str());
  }
  const bool correct = rc == 0 && report.failed() == 0 &&
                       report.failures().empty() && report.attempted() > 0;

  json::Value result = json::Value::Object();
  result.members().emplace_back("correct", json::Value::Bool(correct));
  result.members().emplace_back(
      "attempted",
      json::Value::Int(static_cast<int64_t>(std::max<uint64_t>(
          report.attempted(), 1))));
  result.members().emplace_back(
      "failed", json::Value::Int(static_cast<int64_t>(report.failed())));
  result.members().emplace_back("metrics", metrics);

  json::Value failures = json::Value::Array();
  for (const std::string& why : report.failures()) {
    failures.items().push_back(json::Value::Str(why));
  }
  json::Value artifact = json::Value::Object();
  artifact.members().emplace_back("bench", json::Value::Str("uindex_bench"));
  artifact.members().emplace_back("machine", MachineRecord(run));
  json::Value workloads = json::Value::Object();
  json::Value mine = result;
  mine.members().emplace_back("failures", failures);
  workloads.members().emplace_back(run.workload, mine);
  artifact.members().emplace_back("workloads", workloads);
  bench::WriteArtifact("uindex_bench_" + run.workload, json::Dump(artifact));
  if (run.trace) {
    const std::string path =
        "bench_results/uindex_bench_trace_" + run.workload + ".json";
    if (ProcessTracer().WriteChromeTrace(path)) {
      std::printf("wrote %s\n", path.c_str());
    }
  }
  std::printf("%s\n", json::Dump(result).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// All workloads, one child process each, so peak RSS and warm caches
// never carry from one workload into the next.
int RunAll(const Args& args) {
  const RunConfig& run = args.run;
  json::Value artifact = json::Value::Object();
  artifact.members().emplace_back("bench", json::Value::Str("uindex_bench"));
  artifact.members().emplace_back("machine", MachineRecord(run));
  json::Value workloads = json::Value::Object();
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) {
    std::fprintf(stderr, "cannot find this program: %s\n",
                 ec.message().c_str());
    return 1;
  }
  bool all_ok = true;
  for (const char* workload : kWorkloads) {
    std::string cmd = "'";
    cmd += self.string();
    cmd += "' --workload=";
    cmd += workload;
    cmd += " --seed=" + std::to_string(run.seed);
    if (args.seconds_given || run.smoke) {
      cmd += " --seconds=" + std::to_string(run.seconds);
    }
    if (run.trace) cmd += " --trace=1";
    if (run.smoke) cmd += " --smoke";
    std::fflush(stdout);
    std::FILE* child = ::popen(cmd.c_str(), "r");
    if (child == nullptr) {
      std::fprintf(stderr, "cannot start %s\n", cmd.c_str());
      return 1;
    }
    std::string line, last;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), child) != nullptr) {
      line += buf;
      if (line.back() != '\n') continue;
      std::fputs(line.c_str(), stdout);
      last = line;
      line.clear();
    }
    const int status = ::pclose(child);
    Result<json::Value> parsed = json::Parse(last);
    if (status != 0 || !parsed.ok()) {
      std::fprintf(stderr, "workload %s failed (status %d)\n", workload,
                   status);
      all_ok = false;
      if (!parsed.ok()) continue;
    }
    workloads.members().emplace_back(workload, std::move(parsed).value());
  }
  artifact.members().emplace_back("workloads", workloads);
  bench::WriteArtifact("uindex_bench", json::Dump(artifact));
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace suite
}  // namespace uindex

int main(int argc, char** argv) {
  using namespace uindex::suite;
  for (const char* var : kForbiddenEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "uindex_bench: refusing to start: %s is set; the "
                   "benchmark sets every knob itself\n",
                   var);
      return 2;
    }
  }
  const Args args = ParseArgs(argc, argv);
  if (!args.ok) {
    std::fprintf(stderr,
                 "usage: uindex_bench [--workload=point|rollup|paths_rw|"
                 "served] [--seed=N] [--seconds=S] [--trace[=0|1]] "
                 "[--smoke]\n");
    return 2;
  }
  if (!args.run.workload.empty()) return RunOne(args.run);
  return RunAll(args);
}
