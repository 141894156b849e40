// jobbench: the repository's end-to-end job benchmark.
//
//   jobbench --workload NAME --seed N --seconds S --trace 0|1 --work DIR
//            [--size full|tiny] [--inject drop-record] [--trace-out FILE]
//
// Runs real-mode MapReduce jobs (mr::LocalJobRunner over hdfs::MiniDfs)
// through JBS over TCP, closed loop: one job at a time, the next submitted
// when Run returns. Every job's output is checked. The last stdout line is
// one JSON object {correct, attempted, failed, metrics}; a human summary
// goes to stderr. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it alternates traced JBS jobs, untraced JBS jobs and the http
// and local reference shuffles, reports the per-layer metrics and writes a
// Chrome trace of the traced jobs. README.md in this directory describes
// the workloads, the metrics and what each one should move.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baseline/plugin.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "hdfs/minidfs.h"
#include "jbs/plugin.h"
#include "mapred/engine.h"
#include "mapred/local_shuffle.h"
#include "heap.h"
#include "probe.h"
#include "spans.h"
#include "workloads/tarazu.h"
#include "workloads/teragen.h"

namespace fs = std::filesystem;
using namespace jbs;
using jobbench::JobObservation;
using jobbench::ProbePlugin;
using jobbench::SpanLog;

namespace {

// ---------------------------------------------------------------------------
// Command line and workload shapes.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool inject_drop = false;
  std::string work;       // scratch root, inside the checkout
  std::string trace_out;  // Chrome trace path (traced runs)
};

struct Shape {
  bool terasort = true;
  uint64_t records = 0;     // terasort input records (100 bytes each)
  uint64_t split_size = 0;  // map split size in bytes
  uint64_t lines = 0;       // wordcount input lines
};

constexpr int kNodes = 4;
constexpr int kReducers = 8;
constexpr uint64_t kBlockSize = 256 << 10;
constexpr size_t kSortBuffer = 1 << 20;
constexpr int kWordsPerLine = 10;
constexpr uint64_t kVocabulary = 20000;
constexpr int kSetups = 5;          // set-ups per run; setup_s is their median
constexpr int kMinTimedJobs = 8;    // per untraced run
constexpr int kMinTracedJobs = 5;   // per traced run: 40 reducer samples
constexpr double kMaxRunSeconds = 120;  // stop starting jobs after this
constexpr double kJobTimeoutSeconds = 60;

std::optional<Shape> ShapeFor(const std::string& workload, bool tiny) {
  Shape shape;
  if (workload == "terasort-small-seg" || workload == "terasort-large-seg") {
    const bool small = workload == "terasort-small-seg";
    shape.records = tiny ? 20000 : 1000000;
    if (tiny) {
      shape.split_size = small ? 64 << 10 : 1 << 20;
    } else {
      shape.split_size = small ? 256 << 10 : 4 << 20;
    }
    return shape;
  }
  if (workload == "wordcount") {
    shape.terasort = false;
    shape.lines = tiny ? 8000 : 400000;
    shape.split_size = kBlockSize;
    return shape;
  }
  return std::nullopt;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return false;
      args->tiny = value == "tiny";
    } else if (flag == "--inject") {
      if (value != "drop-record") return false;
      args->inject_drop = true;
    } else if (flag == "--work") {
      args->work = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->work.empty() && args->seconds > 0;
}

// ---------------------------------------------------------------------------
// Small statistics helpers.

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile: with n samples, pNN has n - ceil(NN/100 * n)
// samples above it.
double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double TvSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Metrics registry snapshots. DumpText() is Prometheus text: one
// `name{labels} value` line per series. A snapshot keeps every series'
// value by name (bucket lines dropped; histograms keep _sum and _count).

using RegistrySnapshot = std::map<std::string, std::vector<double>>;

RegistrySnapshot ParseRegistry(const std::string& text) {
  RegistrySnapshot snap;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string_view::npos) continue;
    const size_t brace = line.find('{');
    const std::string name(line.substr(0, std::min(brace, space)));
    if (name.size() > 7 && name.compare(name.size() - 7, 7, "_bucket") == 0) {
      continue;
    }
    snap[name].push_back(
        std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr));
  }
  return snap;
}

double Sum(const RegistrySnapshot& snap, const std::string& name) {
  auto it = snap.find(name);
  if (it == snap.end()) return 0;
  double total = 0;
  for (double v : it->second) total += v;
  return total;
}

double Max(const RegistrySnapshot& snap, const std::string& name) {
  auto it = snap.find(name);
  if (it == snap.end() || it->second.empty()) return 0;
  return *std::max_element(it->second.begin(), it->second.end());
}

// Per-job view of the JBS registry. Counters are keyed per node and shared
// by every supplier/merger the plug-in creates, so a job's share is the
// delta across the job. The mirrored cache and connection gauges belong to
// the per-job supplier/merger objects (refreshed at Stop), so their value
// after the job is the job's own. jbs_serve_bytes_copied_total mirrors a
// process-wide odometer into every instance: delta of the max.
struct RegistryDelta {
  const RegistrySnapshot& before;
  const RegistrySnapshot& after;
  double Counter(const std::string& name) const {
    return Sum(after, name) - Sum(before, name);
  }
  double Gauge(const std::string& name) const { return Sum(after, name); }
  double ProcessOdometer(const std::string& name) const {
    return Max(after, name) - Max(before, name);
  }
  double HitRatio(const std::string& hits, const std::string& misses) const {
    const double h = Gauge(hits);
    return Ratio(h, h + Gauge(misses));
  }
  // Mean of the observations a histogram took during the job.
  double HistogramMean(const std::string& name) const {
    const double count = Counter(name + "_count");
    return count > 0 ? Counter(name + "_sum") / count : 0;
  }
};

// ---------------------------------------------------------------------------
// Trace-ring stages, per job.

struct TraceStages {
  std::vector<double> queue_wait_ms;   // queued -> request_sent
  std::vector<double> first_chunk_ms;  // request_sent -> first chunk
  std::vector<double> transfer_ms;     // first chunk -> merged
  uint64_t dropped = 0;                // this job's entries lost to wrap
  uint64_t complete = 0;               // fetches with a whole timeline
};

// `entries` are the ring entries the job recorded (oldest first), of which
// `lost` were overwritten before the job ended.
TraceStages AnalyzeRing(const std::vector<TraceEntry>& entries,
                        uint64_t lost) {
  struct Timeline {
    int64_t queued = -1, request = -1, chunk = -1, merged = -1;
    bool failed = false;
  };
  std::unordered_map<uint64_t, Timeline> fetches;
  for (const TraceEntry& e : entries) {
    Timeline& t = fetches[e.fetch_id];
    const auto first = [&](int64_t* slot) {
      if (*slot < 0) *slot = e.t_us;
    };
    switch (e.event) {
      case TraceEvent::kQueued: first(&t.queued); break;
      case TraceEvent::kRequestSent: first(&t.request); break;
      case TraceEvent::kChunkReceived: first(&t.chunk); break;
      case TraceEvent::kMerged: first(&t.merged); break;
      case TraceEvent::kFailed: t.failed = true; break;
      default: break;
    }
  }
  TraceStages stages;
  stages.dropped = lost;
  for (const auto& [id, t] : fetches) {
    if (t.failed || t.queued < 0 || t.request < t.queued ||
        t.chunk < t.request || t.merged < t.chunk) {
      continue;
    }
    ++stages.complete;
    stages.queue_wait_ms.push_back(static_cast<double>(t.request - t.queued) /
                                   1e3);
    stages.first_chunk_ms.push_back(static_cast<double>(t.chunk - t.request) /
                                    1e3);
    stages.transfer_ms.push_back(static_cast<double>(t.merged - t.chunk) /
                                 1e3);
  }
  return stages;
}

// ---------------------------------------------------------------------------
// Output checks.

uint64_t Fnv1a(uint64_t h, std::span<const uint8_t> bytes) {
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Digest of a job's part files: names (without the job's output dir) and
// contents, in part order.
StatusOr<uint64_t> DigestParts(hdfs::MiniDfs& dfs,
                               const std::vector<std::string>& parts) {
  uint64_t h = 0xcbf29ce484222325ull;
  std::vector<uint8_t> data;
  for (const std::string& part : parts) {
    const std::string base = part.substr(part.rfind('/') + 1);
    h = Fnv1a(h, {reinterpret_cast<const uint8_t*>(base.data()), base.size()});
    JBS_RETURN_IF_ERROR(dfs.ReadFile(part, data));
    h = Fnv1a(h, data);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Set-up: input generation into a fresh MiniDfs plus plug-in construction.

struct Inputs {
  fs::path root;
  std::unique_ptr<hdfs::MiniDfs> dfs;
  mr::JobSpec spec;
  std::unique_ptr<shuffle::JbsShufflePlugin> jbs;
  double gen_s = 0;
  double setup_s = 0;
};

StatusOr<Inputs> SetUp(const Args& args, const Shape& shape,
                       const fs::path& root) {
  const auto start = std::chrono::steady_clock::now();
  Inputs in;
  in.root = root;
  fs::remove_all(root);
  hdfs::MiniDfs::Options dfs_options;
  dfs_options.root = root / "dfs";
  dfs_options.num_datanodes = kNodes;
  dfs_options.replication = 2;
  dfs_options.block_size = kBlockSize;
  dfs_options.seed = args.seed;
  in.dfs = std::make_unique<hdfs::MiniDfs>(dfs_options);
  if (shape.terasort) {
    JBS_RETURN_IF_ERROR(
        wl::TeraGen(*in.dfs, "/in/tera", shape.records, args.seed));
    auto spec = wl::TerasortJob(*in.dfs, "/in/tera", "/out", kReducers);
    JBS_RETURN_IF_ERROR(spec.status());
    in.spec = std::move(spec).value();
  } else {
    JBS_RETURN_IF_ERROR(wl::GenerateText(*in.dfs, "/in/text", shape.lines,
                                         kWordsPerLine, kVocabulary,
                                         args.seed));
    in.spec = wl::WordCountJob("/in/text", "/out", kReducers);
  }
  in.gen_s = Seconds(std::chrono::steady_clock::now() - start);
  in.jbs = std::make_unique<shuffle::JbsShufflePlugin>();
  in.setup_s = Seconds(std::chrono::steady_clock::now() - start);
  return in;
}

// Writes the generated input back to disk now. Otherwise the kernel flushes
// it about 30 s after set-up, in the middle of the timed jobs.
void FlushToDisk(const fs::path& root) {
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(root, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const int fd = ::open(entry.path().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    ::fdatasync(fd);
    ::close(fd);
  }
}

// ---------------------------------------------------------------------------
// Arms: one inner plug-in seen through one probe and one runner. The JBS
// arms of a traced run share one JbsShufflePlugin, as a node's long-lived
// supplier and merger would be shared by every job.

struct JobRecord {
  bool ok = false;
  std::string error;
  double job_s = 0, map_s = 0, reduce_s = 0;
  double user_s = 0, sys_s = 0;
  double ctxsw_vol = 0, ctxsw_invol = 0;
  double peak_rss_mb = 0;
  double peak_heap_mb = 0;
  double heap_start_mb = 0;  // live heap when the job was submitted
  double steal = 0;
  mr::JobCounters counters;
  JobObservation obs;
  // JBS arms only.
  std::optional<RegistrySnapshot> reg_before, reg_after;
  TraceStages stages;
  double cpu_s() const { return user_s + sys_s; }
};

struct Arm {
  std::string name;
  bool traced = false;
  shuffle::JbsShufflePlugin* jbs = nullptr;  // set for JBS arms
  fs::path work;
  std::unique_ptr<ProbePlugin> probe;
  std::unique_ptr<mr::LocalJobRunner> runner;
  std::optional<uint64_t> bytes_fetched;  // first job's, for the check
  std::vector<JobRecord> warmups;
  std::vector<JobRecord> timed;
};

mr::LocalJobRunner::Options RunnerOptions(const Inputs& in, const Shape& shape,
                                          mr::ShufflePlugin* plugin,
                                          const fs::path& work_dir) {
  mr::LocalJobRunner::Options options;
  options.dfs = in.dfs.get();
  options.plugin = plugin;
  options.work_dir = work_dir;
  options.num_nodes = kNodes;
  options.map_slots = 1;
  options.reduce_slots = 1;
  options.split_size = shape.split_size;
  options.sort_buffer_bytes = kSortBuffer;
  options.output_format =
      shape.terasort ? mr::OutputFormat::kRaw : mr::OutputFormat::kKeyTabValue;
  return options;
}

std::unique_ptr<Arm> MakeArm(const std::string& name, bool traced,
                             mr::ShufflePlugin* inner,
                             shuffle::JbsShufflePlugin* jbs,
                             const Inputs& in, const Shape& shape,
                             const fs::path& work, SpanLog* spans) {
  auto arm = std::make_unique<Arm>();
  arm->name = name;
  arm->traced = traced;
  arm->jbs = jbs;
  arm->work = work;
  arm->probe = std::make_unique<ProbePlugin>(inner, traced ? spans : nullptr);
  arm->runner = std::make_unique<mr::LocalJobRunner>(
      RunnerOptions(in, shape, arm->probe.get(), work / "mapred"));
  return arm;
}

// Samples the process's memory every 5 ms while one job runs: resident
// set size from /proc/self/statm and the live heap from heap.h. The
// sampler's own CPU time and context switches are kept so the job's
// rusage can exclude them.
class MemorySampler {
 public:
  MemorySampler() : thread_([this] { Loop(); }) {}
  ~MemorySampler() { Stop(); }
  MemorySampler(const MemorySampler&) = delete;
  MemorySampler& operator=(const MemorySampler&) = delete;

  void Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
  }
  // Valid after Stop().
  double peak_rss_mb() const {
    return static_cast<double>(peak_rss_pages_) *
           static_cast<double>(page_size_) / (1 << 20);
  }
  double peak_heap_mb() const {
    return static_cast<double>(peak_heap_) / (1 << 20);
  }
  const rusage& usage() const { return usage_; }

 private:
  void Loop() {
    const int fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
    char buf[128];
    while (true) {
      peak_heap_ = std::max(peak_heap_, jobbench::LiveHeapBytes());
      // Each pread at offset 0 regenerates the file: a fresh sample.
      const ssize_t n = fd < 0 ? -1 : ::pread(fd, buf, sizeof(buf) - 1, 0);
      unsigned long long size = 0, resident = 0;
      if (n > 0) {
        buf[n] = '\0';
        if (std::sscanf(buf, "%llu %llu", &size, &resident) == 2) {
          peak_rss_pages_ = std::max<uint64_t>(peak_rss_pages_, resident);
        }
      }
      if (stop_.load()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (fd >= 0) ::close(fd);
    getrusage(RUSAGE_THREAD, &usage_);
  }

  const long page_size_ = sysconf(_SC_PAGESIZE);
  std::atomic<bool> stop_{false};
  // Written by the sampler thread, read after it is joined.
  uint64_t peak_rss_pages_ = 0;
  int64_t peak_heap_ = 0;
  rusage usage_{};
  std::thread thread_;
};

// Machine-wide CPU time from /proc/stat: (steal, total) in clock ticks.
// The share of steal over a job shows when other guests on the host took
// CPU time from the run.
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  uint64_t total = 0;
  for (unsigned long long x : v) total += x;
  return {v[7], total};
}

struct Watchdog {
  std::atomic<int64_t> job_started_us{0};
  std::atomic<bool> done{false};
};

class Bench {
 public:
  Bench(const Args& args, const Shape& shape, Inputs& in)
      : args_(args), shape_(shape), in_(in) {}

  // Runs one job of `arm`, checks its output, cleans up. Never throws.
  JobRecord RunJob(Arm& arm, Watchdog& watchdog) {
    JobRecord rec;
    ++attempted_;
    const uint64_t job_id = ++job_seq_;
    mr::JobSpec spec = in_.spec;
    spec.output_dir = "/out/" + arm.name + "-" + std::to_string(job_id);
    if (arm.traced) spec = arm.probe->Wrap(spec);
    jobbench::JobSpanIds ids;
    if (arm.traced) {
      ids = spans_.BeginJob(job_id);
      spans_.NameJob(job_id, "job " + std::to_string(job_id) + " " +
                                 args_.workload + " " + arm.name);
    }
    if (arm.jbs != nullptr) {
      rec.reg_before = ParseRegistry(arm.jbs->metrics().DumpText());
    }
    const uint64_t ring_before =
        arm.jbs != nullptr ? arm.jbs->trace().recorded() : 0;

    arm.probe->BeginJob(ids, arm.traced);
    rusage r0{}, r1{};
    getrusage(RUSAGE_SELF, &r0);
    rec.heap_start_mb =
        static_cast<double>(jobbench::LiveHeapBytes()) / (1 << 20);
    MemorySampler memory;
    const auto ticks0 = CpuTicks();
    const int64_t start_us = jobbench::NowUs();
    watchdog.job_started_us.store(start_us + 1);
    auto result = arm.runner->Run(spec);
    const int64_t end_us = jobbench::NowUs();
    watchdog.job_started_us.store(0);
    const auto ticks1 = CpuTicks();
    rec.steal = Ratio(static_cast<double>(ticks1.first - ticks0.first),
                      static_cast<double>(ticks1.second - ticks0.second));
    memory.Stop();
    rec.peak_rss_mb = memory.peak_rss_mb();
    rec.peak_heap_mb = memory.peak_heap_mb();
    getrusage(RUSAGE_SELF, &r1);
    rec.obs = arm.probe->EndJob();

    // The process's usage over the job, less the memory sampler's own.
    const rusage& sampler = memory.usage();
    rec.job_s = static_cast<double>(end_us - start_us) / 1e6;
    rec.user_s = TvSeconds(r1.ru_utime) - TvSeconds(r0.ru_utime) -
                 TvSeconds(sampler.ru_utime);
    rec.sys_s = TvSeconds(r1.ru_stime) - TvSeconds(r0.ru_stime) -
                TvSeconds(sampler.ru_stime);
    rec.ctxsw_vol =
        static_cast<double>(r1.ru_nvcsw - r0.ru_nvcsw - sampler.ru_nvcsw);
    rec.ctxsw_invol =
        static_cast<double>(r1.ru_nivcsw - r0.ru_nivcsw - sampler.ru_nivcsw);

    if (arm.jbs != nullptr) {
      rec.reg_after = ParseRegistry(arm.jbs->metrics().DumpText());
      if (arm.traced) {
        TraceRecorder& ring = arm.jbs->trace();
        const uint64_t written = ring.recorded() - ring_before;
        std::vector<TraceEntry> entries = ring.Snapshot();
        const uint64_t kept = std::min<uint64_t>(written, entries.size());
        entries.erase(entries.begin(),
                      entries.end() - static_cast<std::ptrdiff_t>(kept));
        rec.stages = AnalyzeRing(entries, written - kept);
      }
    }

    if (!result.ok()) {
      rec.error = "Run: " + result.status().ToString();
    } else {
      rec.counters = *result;
      rec.map_s = result->map_phase_sec;
      rec.reduce_s = result->reduce_phase_sec;
      rec.error = Check(arm, rec);
    }
    rec.ok = rec.error.empty();
    std::fprintf(stderr,
                 "jobbench: job %3llu %-10s %s job %.3fs map %.3fs reduce "
                 "%.3fs cpu %.3fs rss %.1fMiB heap %.1f/%.1fMiB "
                 "steal %.3f\n",
                 static_cast<unsigned long long>(job_id), arm.name.c_str(),
                 rec.ok ? "ok  " : "FAIL", rec.job_s, rec.map_s, rec.reduce_s,
                 rec.cpu_s(), rec.peak_rss_mb, rec.heap_start_mb,
                 rec.peak_heap_mb, rec.steal);
    if (!rec.ok) {
      ++failed_;
      std::fprintf(stderr, "jobbench: job %llu (%s) FAILED: %s\n",
                   static_cast<unsigned long long>(job_id), arm.name.c_str(),
                   rec.error.c_str());
    }
    if (arm.traced) RecordPhaseSpans(ids, start_us, end_us, rec);
    CleanUp(arm, spec.output_dir);
    return rec;
  }

  // Reference digest of the wordcount output: the in-process local shuffle
  // on the same input, once per run, outside every timed window.
  Status ComputeReference(const fs::path& work) {
    if (shape_.terasort) return Status::Ok();
    mr::LocalShufflePlugin local;
    mr::LocalJobRunner runner(
        RunnerOptions(in_, shape_, &local, work / "mapred"));
    mr::JobSpec spec = in_.spec;
    spec.output_dir = "/ref";
    auto result = runner.Run(spec);
    JBS_RETURN_IF_ERROR(result.status());
    auto digest = DigestParts(*in_.dfs, result->output_files);
    JBS_RETURN_IF_ERROR(digest.status());
    reference_digest_ = *digest;
    for (const std::string& part : result->output_files) {
      (void)in_.dfs->Delete(part);
    }
    fs::remove_all(work);
    return Status::Ok();
  }

  SpanLog& spans() { return spans_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::string Check(Arm& arm, const JobRecord& rec) {
    const mr::JobCounters& c = rec.counters;
    if (c.output_files.size() != static_cast<size_t>(kReducers)) {
      return "expected " + std::to_string(kReducers) + " part files, got " +
             std::to_string(c.output_files.size());
    }
    if (shape_.terasort) {
      auto total = wl::ValidateSorted(*in_.dfs, c.output_files);
      if (!total.ok()) return "ValidateSorted: " + total.status().ToString();
      if (*total != shape_.records) {
        return "sorted output has " + std::to_string(*total) +
               " records, input has " + std::to_string(shape_.records);
      }
    } else {
      auto digest = DigestParts(*in_.dfs, c.output_files);
      if (!digest.ok()) return "digest: " + digest.status().ToString();
      if (*digest != reference_digest_) {
        return "part files differ from the local-shuffle reference";
      }
    }
    const uint64_t bytes = rec.obs.bytes_fetched;
    if (bytes == 0) return "shuffle fetched no bytes";
    if (!arm.bytes_fetched) arm.bytes_fetched = bytes;
    if (*arm.bytes_fetched != bytes) {
      return "fetched " + std::to_string(bytes) + " shuffle bytes, earlier " +
             "jobs fetched " + std::to_string(*arm.bytes_fetched);
    }
    return "";
  }

  void CleanUp(Arm& arm, const std::string& output_dir) {
    const std::string prefix = output_dir + "/";
    for (const std::string& path : in_.dfs->ListFiles()) {
      if (path.compare(0, prefix.size(), prefix) == 0) {
        (void)in_.dfs->Delete(path);
      }
    }
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(arm.work, ec)) {
      fs::remove_all(entry.path(), ec);
    }
    fs::create_directories(arm.work / "mapred", ec);
  }

  // Phase spans from JobCounters: the map phase starts the job, the reduce
  // phase (shuffle, merge, reduce and every Stop) ends it.
  void RecordPhaseSpans(const jobbench::JobSpanIds& ids, int64_t start_us,
                        int64_t end_us, const JobRecord& rec) {
    const auto add = [&](uint64_t id, uint64_t parent, const char* name,
                         int64_t s, int64_t e) {
      spans_.Add(jobbench::Span{.id = id,
                                .parent = parent,
                                .job = ids.job,
                                .name = name,
                                .start_us = s,
                                .end_us = e,
                                .tid = jobbench::ThreadNumber(),
                                .args = {}});
    };
    add(ids.job_span, 0, "job", start_us, end_us);
    if (!rec.ok) return;
    const auto us = [](double s) { return static_cast<int64_t>(s * 1e6); };
    const int64_t job_begin = end_us - us(rec.counters.total_sec);
    add(ids.map_phase, ids.job_span, "map_phase", job_begin,
        job_begin + us(rec.counters.map_phase_sec));
    add(ids.reduce_phase, ids.job_span, "reduce_phase",
        end_us - us(rec.counters.reduce_phase_sec), end_us);
  }

  const Args& args_;
  const Shape& shape_;
  Inputs& in_;
  SpanLog spans_;
  uint64_t reference_digest_ = 0;
  uint64_t job_seq_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Result line.

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %14.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Median of `field` over the jobs that passed their checks.
template <typename Field>
double MedianOf(const std::vector<JobRecord>& jobs, const Field& field) {
  std::vector<double> values;
  for (const JobRecord& rec : jobs) {
    if (rec.ok) values.push_back(field(rec));
  }
  return Median(std::move(values));
}

std::vector<Metric> EndToEndMetrics(const std::vector<double>& setups,
                                    const Arm& arm, uint64_t attempted,
                                    uint64_t failed) {
  const auto& jobs = arm.timed;
  std::vector<Metric> m;
  m.push_back({"setup_s", "s", Median(setups)});
  m.push_back({"job_s", "s",
               MedianOf(jobs, [](const JobRecord& r) { return r.job_s; })});
  m.push_back({"map_s", "s",
               MedianOf(jobs, [](const JobRecord& r) { return r.map_s; })});
  m.push_back({"reduce_s", "s",
               MedianOf(jobs, [](const JobRecord& r) { return r.reduce_s; })});
  m.push_back({"cpu_s", "s",
               MedianOf(jobs, [](const JobRecord& r) { return r.cpu_s(); })});
  m.push_back({"peak_heap_mb", "MiB", MedianOf(jobs, [](const JobRecord& r) {
                 return r.peak_heap_mb;
               })});
  m.push_back({"success_ratio", "ratio",
               1.0 - Ratio(static_cast<double>(failed),
                           static_cast<double>(attempted))});
  return m;
}

// Pooled samples of the traced JBS jobs.
struct TracedSamples {
  std::vector<double> task_s;        // reducer span durations
  std::vector<double> fetch_wait_s;  // FetchAndMerge per reducer
  std::vector<double> stragglers;    // slowest / median reducer, per job
  double task_total_s = 0;
  double self_total_s = 0;  // task time not covered by its child spans
  std::vector<double> queue_wait_ms, first_chunk_ms, transfer_ms;
  uint64_t ring_dropped = 0, ring_complete = 0, fetches = 0;
};

TracedSamples Pool(const std::vector<JobRecord>& jobs) {
  TracedSamples p;
  const auto append = [](std::vector<double>* to,
                         const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  for (const JobRecord& r : jobs) {
    if (!r.ok) continue;
    std::vector<double> job_tasks;
    for (const auto& t : r.obs.reduce_tasks) {
      const double dur = static_cast<double>(t.end_us - t.start_us) / 1e6;
      const double children =
          static_cast<double>(t.fetch_end_us - t.start_us) / 1e6 +
          static_cast<double>(t.merge_ns + t.reduce_ns) / 1e9;
      job_tasks.push_back(dur);
      p.task_total_s += dur;
      p.self_total_s += dur - children;
    }
    append(&p.task_s, job_tasks);
    append(&p.fetch_wait_s, r.obs.fetch_wait_s);
    if (!job_tasks.empty()) {
      p.stragglers.push_back(
          Ratio(*std::max_element(job_tasks.begin(), job_tasks.end()),
                Median(job_tasks)));
    }
    append(&p.queue_wait_ms, r.stages.queue_wait_ms);
    append(&p.first_chunk_ms, r.stages.first_chunk_ms);
    append(&p.transfer_ms, r.stages.transfer_ms);
    p.ring_dropped += r.stages.dropped;
    p.ring_complete += r.stages.complete;
    p.fetches += r.obs.fetches;
  }
  return p;
}

std::vector<Metric> PerLayerMetrics(const std::vector<double>& gen_times,
                                    const Arm& traced, const Arm& untraced,
                                    const Arm& http, const Arm& local,
                                    uint64_t attempted, uint64_t failed) {
  std::vector<Metric> m;
  const auto add = [&](const char* name, const char* unit, double value) {
    m.push_back({name, unit, value});
  };
  // Per-job totals: median over the traced JBS jobs.
  const auto per_job = [&](const auto& field) {
    return MedianOf(traced.timed, field);
  };
  const auto registry = [&](const auto& field) {
    return per_job([&](const JobRecord& r) {
      return field(RegistryDelta{*r.reg_before, *r.reg_after});
    });
  };
  const auto task_sum = [&](int64_t jobbench::ReduceTaskSample::*field) {
    return per_job([&](const JobRecord& r) {
      int64_t ns = 0;
      for (const auto& t : r.obs.reduce_tasks) ns += t.*field;
      return static_cast<double>(ns) / 1e9;
    });
  };
  const TracedSamples pool = Pool(traced.timed);

  add("workloads.gen_s", "s", Median(gen_times));

  // mapred: user-function wrappers, JobCounters, reducer spans.
  add("mapred.map_fn_s", "s",
      per_job([](const JobRecord& r) { return r.obs.map_fn_s; }));
  add("mapred.combine_s", "s",
      per_job([](const JobRecord& r) { return r.obs.combine_s; }));
  add("mapred.spills", "count", per_job([](const JobRecord& r) {
        return static_cast<double>(r.counters.map_spills);
      }));
  add("mapred.map_output_mb", "MiB", per_job([](const JobRecord& r) {
        return static_cast<double>(r.counters.map_output_bytes) / (1 << 20);
      }));
  add("mapred.merge_next_s", "s",
      task_sum(&jobbench::ReduceTaskSample::merge_ns));
  add("mapred.reduce_fn_s", "s",
      task_sum(&jobbench::ReduceTaskSample::reduce_ns));
  add("mapred.reduce_task_s.p50", "s", Percentile(pool.task_s, 50));
  add("mapred.reduce_task_s.p75", "s", Percentile(pool.task_s, 75));
  add("mapred.reduce_task_s.n", "count",
      static_cast<double>(pool.task_s.size()));
  add("mapred.reduce_task_self_ratio", "ratio",
      Ratio(pool.self_total_s, pool.task_total_s));
  add("mapred.reduce_straggler", "ratio", Median(pool.stragglers));
  // Totals over every job of every arm, warm-ups included.
  uint64_t tasks = 0, retries = 0;
  double max_rss = 0;
  std::vector<double> steal;
  for (const Arm* arm : {&traced, &untraced, &http, &local}) {
    for (const auto* jobs : {&arm->warmups, &arm->timed}) {
      for (const JobRecord& r : *jobs) {
        max_rss = std::max(max_rss, r.peak_rss_mb);
        steal.push_back(r.steal);
        if (!r.ok) continue;
        tasks += r.counters.map_tasks + r.counters.reduce_tasks;
        retries += r.counters.task_retries;
      }
    }
  }
  add("mapred.task_retries", "count", static_cast<double>(retries));
  add("mapred.task_useful_ratio", "ratio",
      Ratio(static_cast<double>(tasks), static_cast<double>(tasks + retries)));
  add("mapred.warmup_job_s", "s",
      traced.warmups.empty() ? 0 : traced.warmups.front().job_s);

  // jbs, at the plug-in boundary.
  add("jbs.start_s", "s",
      per_job([](const JobRecord& r) { return r.obs.start_s; }));
  add("jbs.publish_s", "s",
      per_job([](const JobRecord& r) { return r.obs.publish_s; }));
  add("jbs.fetch_wait_s.p50", "s", Percentile(pool.fetch_wait_s, 50));
  add("jbs.fetch_wait_s.p75", "s", Percentile(pool.fetch_wait_s, 75));
  add("jbs.fetch_wait_s.n", "count",
      static_cast<double>(pool.fetch_wait_s.size()));
  add("jbs.stop_s", "s",
      per_job([](const JobRecord& r) { return r.obs.stop_s; }));
  add("jbs.fetches", "count", per_job([](const JobRecord& r) {
        return static_cast<double>(r.obs.fetches);
      }));
  add("jbs.bytes_fetched_mb", "MiB", per_job([](const JobRecord& r) {
        return static_cast<double>(r.obs.bytes_fetched) / (1 << 20);
      }));
  add("jbs.bytes_per_fetch_kb", "KiB", per_job([](const JobRecord& r) {
        return Ratio(static_cast<double>(r.obs.bytes_fetched) / 1024,
                     static_cast<double>(r.obs.fetches));
      }));

  // jbs, from the trace ring: per-fetch stages of complete timelines.
  add("jbs.trace.queue_wait_ms.p50", "ms", Percentile(pool.queue_wait_ms, 50));
  add("jbs.trace.queue_wait_ms.p95", "ms", Percentile(pool.queue_wait_ms, 95));
  add("jbs.trace.first_chunk_ms.p50", "ms",
      Percentile(pool.first_chunk_ms, 50));
  add("jbs.trace.first_chunk_ms.p95", "ms",
      Percentile(pool.first_chunk_ms, 95));
  add("jbs.trace.transfer_ms.p50", "ms", Percentile(pool.transfer_ms, 50));
  add("jbs.trace.transfer_ms.p95", "ms", Percentile(pool.transfer_ms, 95));
  add("jbs.trace.n", "count", static_cast<double>(pool.ring_complete));
  add("jbs.trace.dropped", "count", static_cast<double>(pool.ring_dropped));
  add("jbs.trace.complete_ratio", "ratio",
      Ratio(static_cast<double>(pool.ring_complete),
            static_cast<double>(pool.fetches)));
  add("jbs.trace.partial", "flag", pool.ring_dropped > 0 ? 1.0 : 0.0);

  // jbs, from the metrics registry: per-job deltas.
  add("jbs.merger.fetch_latency_ms.mean", "ms",
      registry([](const RegistryDelta& d) {
        return d.HistogramMean("shuffle_fetch_latency_ms");
      }));
  add("jbs.supplier.request_latency_ms.mean", "ms",
      registry([](const RegistryDelta& d) {
        return d.HistogramMean("shuffle_request_latency_ms");
      }));
  add("jbs.supplier.batches", "count", registry([](const RegistryDelta& d) {
        return d.Counter("jbs_mofsupplier_batches_total");
      }));
  add("jbs.supplier.group_switches", "count",
      registry([](const RegistryDelta& d) {
        return d.Counter("jbs_mofsupplier_group_switches_total");
      }));
  add("jbs.supplier.indexcache_hit_ratio", "ratio",
      registry([](const RegistryDelta& d) {
        return d.HitRatio("jbs_mofsupplier_indexcache_hits",
                          "jbs_mofsupplier_indexcache_misses");
      }));
  add("jbs.supplier.fdcache_hit_ratio", "ratio",
      registry([](const RegistryDelta& d) {
        return d.HitRatio("jbs_mofsupplier_fdcache_hits",
                          "jbs_mofsupplier_fdcache_misses");
      }));
  add("jbs.supplier.bytes_copied_per_byte", "ratio",
      registry([](const RegistryDelta& d) {
        return Ratio(d.ProcessOdometer("jbs_serve_bytes_copied_total"),
                     d.Counter("shuffle_bytes_served_total"));
      }));
  add("jbs.merger.chunks", "count", registry([](const RegistryDelta& d) {
        return d.Counter("jbs_netmerger_chunks_total");
      }));
  add("jbs.merger.fetch_useful_ratio", "ratio",
      registry([](const RegistryDelta& d) {
        return Ratio(d.Counter("shuffle_fetches_total"),
                     d.Counter("jbs_netmerger_fetch_attempts_sum"));
      }));
  add("jbs.merger.retries", "count", registry([](const RegistryDelta& d) {
        return d.Counter("jbs_netmerger_fetch_retries_total");
      }));
  add("jbs.merger.pushback", "count", registry([](const RegistryDelta& d) {
        return d.Counter("jbs_netmerger_pushback_total");
      }));
  add("jbs.supplier.shed", "count", registry([](const RegistryDelta& d) {
        return d.Counter("jbs_supplier_shed_total");
      }));
  add("jbs.merger.chunks_corrupt", "count",
      registry([](const RegistryDelta& d) {
        return d.Counter("jbs_netmerger_chunks_corrupt_total");
      }));

  // transport: the merger's connection manager.
  add("transport.conn_reuse_ratio", "ratio",
      registry([](const RegistryDelta& d) {
        return d.HitRatio("jbs_connmgr_hits", "jbs_connmgr_misses");
      }));
  add("transport.connections_opened", "count",
      registry([](const RegistryDelta& d) {
        return d.Counter("shuffle_connections_opened_total");
      }));
  add("transport.dial_failures", "count", registry([](const RegistryDelta& d) {
        return d.Gauge("jbs_connmgr_dial_failures");
      }));

  // process: getrusage of the untraced JBS jobs, which run no wrappers.
  const auto plain = [&](const auto& field) {
    return MedianOf(untraced.timed, field);
  };
  add("process.user_s", "s",
      plain([](const JobRecord& r) { return r.user_s; }));
  add("process.sys_s", "s", plain([](const JobRecord& r) { return r.sys_s; }));
  add("process.ctxsw_vol", "count",
      plain([](const JobRecord& r) { return r.ctxsw_vol; }));
  add("process.ctxsw_invol", "count",
      plain([](const JobRecord& r) { return r.ctxsw_invol; }));
  add("jbs.ctxsw_per_fetch", "switch/fetch", plain([](const JobRecord& r) {
        return Ratio(r.ctxsw_vol, static_cast<double>(r.obs.fetches));
      }));
  // Resident memory climbs from job to job while the live heap stays flat
  // (allocator retention), so it is reported here, over the whole traced
  // run, and not as an end-to-end metric.
  add("process.max_rss_mb", "MiB", max_rss);

  // references, run in turn with the JBS arms.
  const auto reduce_s = [](const JobRecord& r) { return r.reduce_s; };
  const double jbs_reduce = MedianOf(untraced.timed, reduce_s);
  const double http_reduce = MedianOf(http.timed, reduce_s);
  const double local_reduce = MedianOf(local.timed, reduce_s);
  add("ref.http.reduce_s", "s", http_reduce);
  add("ref.local.reduce_s", "s", local_reduce);
  add("ref.http.cpu_s", "s",
      MedianOf(http.timed, [](const JobRecord& r) { return r.cpu_s(); }));
  add("ref.http.ctxsw_vol", "count",
      MedianOf(http.timed, [](const JobRecord& r) { return r.ctxsw_vol; }));
  add("jbs.overhead_vs_local_s", "s", jbs_reduce - local_reduce);
  add("jbs.gap_vs_http_s", "s", jbs_reduce - http_reduce);

  // host: CPU time the hypervisor gave to other guests while jobs ran.
  // Not a layer of the program; it tells a noisy run from a slow build.
  add("host.cpu_steal_ratio", "ratio", Median(steal));

  const auto job_s = [](const JobRecord& r) { return r.job_s; };
  add("trace.overhead_s", "s", per_job(job_s) - plain(job_s));
  add("trace.jobs", "count", static_cast<double>(traced.timed.size()));
  add("fail_ratio", "ratio",
      Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: jobbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work DIR [--size full|tiny] "
                 "[--inject drop-record] [--trace-out FILE]\n");
    return 2;
  }
  const std::optional<Shape> shape = ShapeFor(args.workload, args.tiny);
  if (!shape) {
    std::fprintf(stderr, "jobbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  logging::SetLevel(LogLevel::kWarn);
  const fs::path work = args.work;

  // Watchdog: a job that hangs is a failed job, and the run still ends.
  Watchdog watchdog;
  std::thread watchdog_thread([&] {
    while (!watchdog.done.load()) {
      const int64_t started = watchdog.job_started_us.load();
      if (started != 0 && static_cast<double>(jobbench::NowUs() - started) /
                                  1e6 >
                              kJobTimeoutSeconds) {
        std::fprintf(stderr, "jobbench: job timed out after %.0fs\n",
                     kJobTimeoutSeconds);
        PrintResult(false, 1, 1, {});
        std::fflush(nullptr);
        std::_Exit(3);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  struct JoinOnExit {
    Watchdog& w;
    std::thread& t;
    ~JoinOnExit() {
      w.done.store(true);
      t.join();
    }
  } join_on_exit{watchdog, watchdog_thread};

  // ---- Set-up, several times; the last one is kept for the jobs. ----
  std::vector<double> setup_times, gen_times;
  std::optional<Inputs> in;
  for (int i = 0; i < kSetups; ++i) {
    if (in) {
      const fs::path old = in->root;
      in.reset();
      fs::remove_all(old);
    }
    auto made = SetUp(args, *shape, work / ("setup" + std::to_string(i)));
    if (!made.ok()) {
      std::fprintf(stderr, "jobbench: set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 2;
    }
    in.emplace(std::move(made).value());
    setup_times.push_back(in->setup_s);
    gen_times.push_back(in->gen_s);
  }
  std::fprintf(stderr, "jobbench: %s seed %llu: set-up", args.workload.c_str(),
               static_cast<unsigned long long>(args.seed));
  for (double t : setup_times) std::fprintf(stderr, " %.3fs", t);
  std::fprintf(stderr, "\n");

  FlushToDisk(in->root);

  Bench bench(args, *shape, *in);
  if (Status st = bench.ComputeReference(work / "reference"); !st.ok()) {
    std::fprintf(stderr, "jobbench: reference run failed: %s\n",
                 st.ToString().c_str());
    return 2;
  }

  // ---- Arms. ----
  baseline::HadoopShufflePlugin::Options http_options;
  http_options.spill_dir = work / "http-spill";
  baseline::HadoopShufflePlugin http_plugin(http_options);
  mr::LocalShufflePlugin local_plugin;
  std::vector<std::unique_ptr<Arm>> arms;
  if (args.trace) {
    arms.push_back(MakeArm("jbs-traced", true, in->jbs.get(), in->jbs.get(),
                           *in, *shape, work / "arm-jbs-traced",
                           &bench.spans()));
  }
  arms.push_back(MakeArm("jbs", false, in->jbs.get(), in->jbs.get(), *in,
                         *shape, work / "arm-jbs", &bench.spans()));
  if (args.trace) {
    arms.push_back(MakeArm("http", false, &http_plugin, nullptr, *in, *shape,
                           work / "arm-http", &bench.spans()));
    arms.push_back(MakeArm("local", false, &local_plugin, nullptr, *in,
                           *shape, work / "arm-local", &bench.spans()));
  }
  if (args.inject_drop) {
    for (auto& arm : arms) arm->probe->set_drop_first_record(true);
  }

  // ---- Warm-up, then the closed loop: one job at a time, arms in turn. ----
  for (auto& arm : arms) arm->warmups.push_back(bench.RunJob(*arm, watchdog));
  const auto loop_start = std::chrono::steady_clock::now();
  const int min_rounds = args.trace ? kMinTracedJobs : kMinTimedJobs;
  for (int round = 0;; ++round) {
    const double elapsed =
        Seconds(std::chrono::steady_clock::now() - loop_start);
    if (round >= min_rounds && elapsed >= args.seconds) break;
    if (round >= 1 && elapsed >= kMaxRunSeconds) break;
    for (auto& arm : arms) arm->timed.push_back(bench.RunJob(*arm, watchdog));
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = PerLayerMetrics(gen_times, *arms[0], *arms[1], *arms[2],
                              *arms[3], bench.attempted(), bench.failed());
    if (!args.trace_out.empty()) {
      Status st = bench.spans().WriteChromeTrace(args.trace_out);
      if (!st.ok()) {
        std::fprintf(stderr, "jobbench: %s\n", st.ToString().c_str());
      } else {
        std::fprintf(stderr, "jobbench: span trace written to %s\n",
                     args.trace_out.c_str());
      }
    }
  } else {
    metrics = EndToEndMetrics(setup_times, *arms[0], bench.attempted(),
                              bench.failed());
  }

  // Tear down before reporting so every shuffle thread has ended.
  const size_t timed_jobs = arms[0]->timed.size();
  arms.clear();
  in.reset();
  fs::remove_all(work);

  const bool correct = bench.failed() == 0;
  std::fprintf(stderr,
               "jobbench: %zu timed jobs, %llu attempted, %llu failed\n",
               timed_jobs, static_cast<unsigned long long>(bench.attempted()),
               static_cast<unsigned long long>(bench.failed()));
  PrintResult(correct, bench.attempted(), bench.failed(), metrics);
  return correct ? 0 : 1;
}
