// In-memory span recorder for the traced runs.
//
// A span is one call into a library layer: name, start, end, the span that
// was open on the same thread when it started (its parent), and a small
// thread number. Spans are kept in memory and written out once, at exit,
// as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Worker threads of a parallel region have no open span of their own; an
// Adopt guard makes the region's span their parent, so per-thread layer
// spans nest under the region that spawned them.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< a string literal: the layer name
  double start = 0.0;     ///< now_seconds()
  double end = 0.0;
  int id = -1;
  int parent = -1;        ///< -1: top-level
  int thread = 0;
};

/// Records one span for the lifetime of the object.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const noexcept { return id_; }

 private:
  const char* name_;
  double start_;
  int id_;
  int parent_;
};

/// Makes `parent` the open span of the current thread while alive.
class Adopt {
 public:
  explicit Adopt(int parent);
  ~Adopt();
  Adopt(const Adopt&) = delete;
  Adopt& operator=(const Adopt&) = delete;

 private:
  int saved_;
};

/// Every span recorded so far, in id order; clears the recorder.
std::vector<Span> take_spans();

/// Per-layer totals over a set of spans.
struct LayerTotals {
  std::map<std::string, double> busy_seconds;  ///< Σ duration by name
  std::map<std::string, std::size_t> count;    ///< spans by name
  double top_level_seconds = 0.0;  ///< Σ duration of parent-less spans
  std::size_t threads = 0;         ///< distinct threads that recorded
};
LayerTotals summarise(const std::vector<Span>& spans);

/// Distinct threads that recorded a span whose parent is `parent`.
std::size_t threads_under(const std::vector<Span>& spans, int parent);

/// Write `spans` as Chrome trace-event JSON (timestamps relative to
/// `origin`, microseconds). Throws std::runtime_error on I/O failure.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        double origin);

}  // namespace perfbench
