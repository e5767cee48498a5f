// Shared plumbing of the repository benchmark: arguments, the thread
// budget, the closed-loop op generator, spans, statistics, product checks
// and the result report.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "matrix/csr.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using cw::Csr;

double ms_between(Clock::time_point a, Clock::time_point b);

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// Directory inside the checkout for run files (snapshots, spans).
  std::string scratch = ".bench_build";
};

/// The threads one workload may use: one generator thread plus
/// `workers` engine workers × `threads_per_worker` kernel threads (or, with
/// no engine, the kernel's own team of `threads_per_worker`).
struct ThreadBudget {
  int nproc = 0;
  int workers = 0;  // 0 = no engine: the generator thread runs the kernel
  int threads_per_worker = 0;
  [[nodiscard]] int kernel_threads() const {
    return (workers > 0 ? workers : 1) * threads_per_worker;
  }
  /// Throws unless every thread count is explicit and the kernel threads
  /// fit the cores.
  void check() const;
  [[nodiscard]] std::string describe() const;
};

/// Cores this process may run on (the affinity mask, as `nproc` counts).
int online_cores();

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile (0 < p <= 100) of `v`.
double percentile(std::vector<double> v, double p);
/// Samples strictly above the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

// --- spans -------------------------------------------------------------------

/// In-memory span log: name, start, end and parent of every call the
/// benchmark makes into the library while tracing. Written out at the end.
class SpanLog {
 public:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    std::int64_t parent = -1;
    std::int64_t op = -1;  // the op the span belongs to, -1 outside ops
  };

  /// Open a span on the calling thread (its parent is the innermost span
  /// still open on that thread); returns its id.
  std::int64_t begin(const std::string& name);
  void end(std::int64_t id);
  /// Record an already-finished span.
  std::int64_t add(const std::string& name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent,
                   std::int64_t op);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Per span name: calls, total and self milliseconds (self = duration
  /// minus the part its children cover).
  struct NameTotals {
    std::size_t calls = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  [[nodiscard]] std::map<std::string, NameTotals> totals() const;
  /// Write every span to `path` as a JSON array and note the per-name
  /// totals.
  void write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span; a null log makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name)
      : log_(log), id_(log != nullptr ? log->begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int64_t id_;
};

/// Time `fn` `reps` times on the calling thread; median milliseconds.
double median_ms(int reps, const std::function<void()>& fn);

// --- products ----------------------------------------------------------------

/// Byte-for-byte equality: dimensions, then the row_ptr, col_idx and value
/// arrays compared with memcmp (stricter than Csr::operator==, which
/// cannot see a -0.0 flip).
bool same_bytes(const Csr& x, const Csr& y);

// --- the closed loop -----------------------------------------------------------

struct LoopResult {
  std::vector<double> latency_ms;  // measured ops only, submit → seen
  std::vector<double> submit_us;   // time inside the submit call
  double elapsed_s = 0;            // first measured submit → last seen
  std::uint64_t attempted = 0;     // every op, warm-up included
  std::uint64_t failed = 0;
};

/// One generator thread keeping `depth` ops in flight: op i is started by
/// `submit(i)`. The generator waits for the oldest op, takes every op
/// already done behind it (an op's latency ends when the generator sees
/// its product), sends their successors, and then checks each product
/// with `check(i, product)`; false or an exception is a failed op.
/// `warmup` ops run and drain first and are excluded from the latencies.
/// Then ops are sent for `seconds` (and on until the measured count is a
/// multiple of `cycle`), and the loop drains. With a span log every op
/// records an "op" span (submit → seen) with a `submit_name` child around
/// the submit call and a "future.get" child, then a "check" span.
LoopResult closed_loop(int depth, std::size_t warmup, double seconds,
                       const std::function<std::future<Csr>(std::size_t)>& submit,
                       const std::function<bool(std::size_t, const Csr&)>& check,
                       SpanLog* spans, const std::string& submit_name,
                       std::size_t cycle = 1);

/// A future already holding `fn()`'s result (or its exception): the
/// synchronous op of a workload without an engine.
std::future<Csr> run_now(const std::function<Csr()>& fn);

// --- the report ------------------------------------------------------------------

/// Every end-to-end metric, and every per-layer metric named in
/// BENCHMARK.json, with its unit.
struct MetricDef {
  std::string name;
  std::string unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// Record a metric (must be in the table the run prints).
  void set(const std::string& name, double value);
  [[nodiscard]] double get(const std::string& name) const;

  /// A "# key {json}" line on standard output, printed at once.
  static void note(const std::string& key, const std::string& json);

  /// Print the result line. Per-layer metrics this workload never set are
  /// printed as 0 and listed, with `absent_reason`, on a note line first.
  void print(std::uint64_t attempted, std::uint64_t failed,
             const std::string& absent_reason) const;

 private:
  bool trace_;
  std::map<std::string, double> values_;
};

/// Minimal JSON object builder for the note lines.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& str(const std::string& key, const std::string& v);
  Json& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  void key_(const std::string& key);
  std::string body_;
};
std::string json_number(double v);
std::string json_string(const std::string& s);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Seed mixing (splitmix64) so neighbouring seeds give unrelated inputs.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
