// In-memory span log for the traced run, written out once at the end as
// Chrome trace-event JSON (chrome://tracing and Perfetto open it offline).
// A span has a name, a start, an end and the span that caused it; all
// spans of one job share the job id, which becomes the trace "process".
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"

namespace jobbench {

/// Microseconds on the steady clock since the first call in this process.
int64_t NowUs();

/// Small per-thread number for the trace's "tid" field.
int ThreadNumber();

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t job = 0;
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int tid = 0;
  std::string args;  // extra JSON members, without braces ("" for none)
};

/// Span ids reserved when a job starts, so layer spans recorded while the
/// job runs can name their parents before those parents are closed.
struct JobSpanIds {
  uint64_t job = 0;
  uint64_t job_span = 0;
  uint64_t map_phase = 0;
  uint64_t reduce_phase = 0;
};

class SpanLog {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  JobSpanIds BeginJob(uint64_t job);

  void Add(Span span) EXCLUDES(mu_);
  /// Names a job's row group in the trace viewer.
  void NameJob(uint64_t job, const std::string& label) EXCLUDES(mu_);

  jbs::Status WriteChromeTrace(const std::string& path) const EXCLUDES(mu_);

 private:
  std::atomic<uint64_t> next_id_{0};
  mutable jbs::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
  std::vector<std::pair<uint64_t, std::string>> job_names_ GUARDED_BY(mu_);
};

}  // namespace jobbench
