#include "spans.h"

#include <chrono>
#include <cstdio>
#include <memory>

namespace jobbench {

int64_t NowUs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int ThreadNumber() {
  static std::atomic<int> next{0};
  thread_local const int number = next.fetch_add(1) + 1;
  return number;
}

JobSpanIds SpanLog::BeginJob(uint64_t job) {
  JobSpanIds ids;
  ids.job = job;
  ids.job_span = NewId();
  ids.map_phase = NewId();
  ids.reduce_phase = NewId();
  return ids;
}

void SpanLog::Add(Span span) {
  jbs::MutexLock lock(mu_);
  spans_.push_back(std::move(span));
}

void SpanLog::NameJob(uint64_t job, const std::string& label) {
  jbs::MutexLock lock(mu_);
  job_names_.emplace_back(job, label);
}

jbs::Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "w"),
                                              &std::fclose);
  if (!file) return jbs::IoError("cannot write trace " + path);
  jbs::MutexLock lock(mu_);
  std::fprintf(file.get(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (const auto& [job, label] : job_names_) {
    std::fprintf(file.get(),
                 "%s{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%llu,"
                 "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", static_cast<unsigned long long>(job),
                 label.c_str());
    first = false;
  }
  for (const Span& span : spans_) {
    std::fprintf(file.get(),
                 "%s{\"ph\":\"X\",\"cat\":\"jobbench\",\"name\":\"%s\","
                 "\"pid\":%llu,\"tid\":%d,\"ts\":%lld,\"dur\":%lld,"
                 "\"args\":{\"span\":%llu,\"parent\":%llu%s%s}}",
                 first ? "" : ",\n", span.name.c_str(),
                 static_cast<unsigned long long>(span.job), span.tid,
                 static_cast<long long>(span.start_us),
                 static_cast<long long>(span.end_us - span.start_us),
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 span.args.empty() ? "" : ",", span.args.c_str());
    first = false;
  }
  std::fprintf(file.get(), "\n]}\n");
  if (std::fflush(file.get()) != 0) {
    return jbs::IoError("short write to trace " + path);
  }
  return jbs::Status::Ok();
}

}  // namespace jobbench
