#include "trace.h"

#include <time.h>

#include <cstdio>
#include <deque>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

struct Record {
  const char* name;
  std::int64_t id, parent, start_ns, end_ns, cpu_ns;  // cpu_ns < 0: not taken.
};

struct Buffer {
  int thread = 0;
  std::vector<Record> records;
  std::vector<std::size_t> open;  // Indices of the spans open on this thread.
};

bool g_on = false;
std::mutex g_mu;             // Guards g_buffers' shape, not the buffers.
std::deque<Buffer> g_buffers;  // Deque: element addresses stay stable.

Buffer& Mine() {
  thread_local Buffer* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.emplace_back();
    mine = &g_buffers.back();
    mine->thread = static_cast<int>(g_buffers.size()) - 1;
  }
  return *mine;
}

std::int64_t Push(Buffer& b, const char* name, std::int64_t parent,
                  std::int64_t start, std::int64_t end, std::int64_t cpu) {
  if (parent == kInnermost) {
    parent = b.open.empty() ? kNoParent : b.records[b.open.back()].id;
  }
  const std::int64_t id = (static_cast<std::int64_t>(b.thread) << 40) |
                          static_cast<std::int64_t>(b.records.size());
  b.records.push_back({name, id, parent, start, end, cpu});
  return id;
}

std::int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

std::int64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }
std::int64_t CpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

void EnableTracing() { g_on = true; }
bool TracingOn() { return g_on; }

std::int64_t RecordSpan(const char* name, std::int64_t start_ns,
                        std::int64_t end_ns, std::int64_t parent) {
  if (!g_on) return kNoParent;
  return Push(Mine(), name, parent, start_ns, end_ns, -1);
}

Span::Span(const char* name, bool cpu, std::int64_t parent) {
  if (!g_on) return;
  Buffer& b = Mine();
  id_ = Push(b, name, parent, WallNs(), -1, cpu ? CpuNs() : -1);
  b.open.push_back(b.records.size() - 1);
}

Span::~Span() {
  if (id_ == kNoParent) return;
  Buffer& b = Mine();
  Record& r = b.records[b.open.back()];
  b.open.pop_back();
  r.end_ns = WallNs();
  if (r.cpu_ns >= 0) r.cpu_ns = CpuNs() - r.cpu_ns;
}

SpanTotals Totals(const std::string& name) {
  SpanTotals t;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const Buffer& b : g_buffers) {
    for (const Record& r : b.records) {
      if (name != r.name) continue;
      t.wall_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
      if (r.cpu_ns >= 0) t.cpu_s += static_cast<double>(r.cpu_ns) * 1e-9;
    }
  }
  return t;
}

bool WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  std::fputs("[\n", f);
  bool first = true;
  for (const Buffer& b : g_buffers) {
    for (const Record& r : b.records) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                   "\"thread\":%d,\"start_ns\":%lld,\"end_ns\":%lld",
                   first ? "" : ",\n", r.name, static_cast<long long>(r.id),
                   static_cast<long long>(r.parent), b.thread,
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
      if (r.cpu_ns >= 0) {
        std::fprintf(f, ",\"cpu_ns\":%lld", static_cast<long long>(r.cpu_ns));
      }
      std::fputs("}", f);
      first = false;
    }
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
