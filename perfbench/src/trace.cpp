#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>

#include "campaign/json.hpp"
#include "system.hpp"

namespace perfbench {

namespace {

std::atomic<int> g_next_id{0};
std::atomic<int> g_next_thread{0};
std::mutex g_mutex;
std::vector<Span> g_spans;  ///< guarded by g_mutex

thread_local int t_open = -1;    ///< innermost open span on this thread
thread_local int t_thread = -1;  ///< this thread's number, assigned lazily

int thread_number() {
  if (t_thread < 0) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

}  // namespace

Scope::Scope(const char* name)
    : name_(name), start_(0.0), id_(g_next_id.fetch_add(1)), parent_(t_open) {
  t_open = id_;
  start_ = now_seconds();
}

Scope::~Scope() {
  const double end = now_seconds();
  t_open = parent_;
  const Span span{name_, start_, end, id_, parent_, thread_number()};
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.push_back(span);
}

Adopt::Adopt(int parent) : saved_(t_open) { t_open = parent; }

Adopt::~Adopt() { t_open = saved_; }

std::vector<Span> take_spans() {
  std::vector<Span> spans;
  {
    const std::lock_guard<std::mutex> lock(g_mutex);
    spans.swap(g_spans);
  }
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return spans;
}

LayerTotals summarise(const std::vector<Span>& spans) {
  LayerTotals totals;
  std::set<int> threads;
  for (const auto& span : spans) {
    const double duration = span.end - span.start;
    totals.busy_seconds[span.name] += duration;
    ++totals.count[span.name];
    if (span.parent < 0) totals.top_level_seconds += duration;
    threads.insert(span.thread);
  }
  totals.threads = threads.size();
  return totals;
}

std::size_t threads_under(const std::vector<Span>& spans, int parent) {
  std::set<int> threads;
  for (const auto& span : spans) {
    if (span.parent == parent) threads.insert(span.thread);
  }
  return threads.size();
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        double origin) {
  std::string events;
  for (const auto& span : spans) {
    samurai::campaign::JsonWriter args;
    args.add_u64("id", static_cast<std::uint64_t>(span.id));
    args.add("parent", static_cast<double>(span.parent));
    samurai::campaign::JsonWriter event;
    event.add("name", span.name);
    event.add("ph", "X");
    event.add("ts", (span.start - origin) * 1e6);
    event.add("dur", (span.end - span.start) * 1e6);
    event.add_u64("pid", 1);
    event.add_u64("tid", static_cast<std::uint64_t>(span.thread));
    event.add_raw("args", args.str());
    if (!events.empty()) events += ",\n";
    events += event.str();
  }
  samurai::campaign::JsonWriter document;
  document.add_raw("traceEvents", "[\n" + events + "\n]");
  document.add("displayTimeUnit", "ms");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << document.str() << "\n";
  if (!out.flush()) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench
