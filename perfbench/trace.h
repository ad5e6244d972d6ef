// Span recorder for the benchmark's traced run.
//
// A span is (name, start, end, parent) around one call into a layer of
// the library, recorded from the benchmark's own code. Each thread
// appends to its own buffer, so recording takes no lock; the buffers are
// read only after every recording thread has been joined. With tracing
// off, opening a span is one branch.
#ifndef LISPOISON_PERFBENCH_TRACE_H_
#define LISPOISON_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// Monotonic wall clock and process CPU clock, in nanoseconds.
std::int64_t WallNs();
std::int64_t CpuNs();

/// Parent id meaning "the innermost span open on this thread".
constexpr std::int64_t kInnermost = -2;
/// Parent id of a root span.
constexpr std::int64_t kNoParent = -1;

/// Turns recording on for the rest of the process (off by default).
void EnableTracing();
bool TracingOn();

/// Appends a finished span measured by the caller (for calls the caller
/// already times, so tracing them adds no clock reads). Returns its id,
/// or kNoParent with tracing off.
std::int64_t RecordSpan(const char* name, std::int64_t start_ns,
                        std::int64_t end_ns, std::int64_t parent = kInnermost);

/// RAII span. With \p cpu, the span also records the process CPU time
/// spent while it was open (all threads of the process).
class Span {
 public:
  explicit Span(const char* name, bool cpu = false,
                std::int64_t parent = kInnermost);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// This span's id (kNoParent with tracing off), for children opened on
  /// other threads.
  std::int64_t id() const { return id_; }

 private:
  std::int64_t id_ = kNoParent;
};

/// Totals over every recorded span named \p name.
struct SpanTotals {
  double wall_s = 0;
  double cpu_s = 0;
};
SpanTotals Totals(const std::string& name);

/// Writes every recorded span as a JSON array. Call only after every
/// thread that recorded spans has been joined.
bool WriteSpans(const std::string& path);

}  // namespace perfbench

#endif  // LISPOISON_PERFBENCH_TRACE_H_
