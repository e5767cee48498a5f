#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- thread budget -------------------------------------------------------------

int online_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

void ThreadBudget::check() const {
  if (threads_per_worker < 1 || workers < 0)
    throw std::runtime_error("thread budget: every thread count must be set "
                             "explicitly (" + describe() + ")");
  if (kernel_threads() > nproc)
    throw std::runtime_error("thread budget oversubscribes the host: " +
                             describe());
}

std::string ThreadBudget::describe() const {
  std::ostringstream os;
  if (workers > 0)
    os << "1 generator + " << workers << " workers x " << threads_per_worker
       << " kernel threads = " << kernel_threads() << " of " << nproc
       << " cores";
  else
    os << "1 generator running a " << threads_per_worker
       << "-thread kernel, of " << nproc << " cores";
  return os.str();
}

// --- statistics -------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
std::size_t rank_index(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::min(n - 1, rank > 0 ? rank - 1 : 0);
}
}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[rank_index(v.size(), p)];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - 1 - rank_index(n, p);
}

double median_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(ms_between(t0, Clock::now()));
  }
  return median(t);
}

// --- spans -------------------------------------------------------------------------

namespace {
thread_local std::vector<std::int64_t> open_stack;
}  // namespace

std::int64_t SpanLog::begin(const std::string& name) {
  const auto now = Clock::now();
  const std::int64_t parent = open_stack.empty() ? -1 : open_stack.back();
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, now, now, parent, -1});
  }
  open_stack.push_back(id);
  return id;
}

void SpanLog::end(std::int64_t id) {
  const auto now = Clock::now();
  if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

std::int64_t SpanLog::add(const std::string& name, Clock::time_point start,
                          Clock::time_point end, std::int64_t parent,
                          std::int64_t op) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, parent, op});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, SpanLog::NameTotals> SpanLog::totals() const {
  const std::vector<Span> all = spans();
  // Children of each span, to subtract the time they cover (children of
  // one parent never overlap: they run in sequence on one thread).
  std::vector<double> child_ms(all.size(), 0.0);
  for (const Span& s : all)
    if (s.parent >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] += ms_between(s.start, s.end);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    NameTotals& t = out[all[i].name];
    const double d = ms_between(all[i].start, all[i].end);
    ++t.calls;
    t.total_ms += d;
    t.self_ms += std::max(0.0, d - child_ms[i]);
  }
  return out;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  const std::vector<Span> all = spans();
  f << "[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    f << Json()
             .num("id", static_cast<double>(i))
             .str("name", s.name)
             .num("start_us", ms_between(origin_, s.start) * 1e3)
             .num("end_us", ms_between(origin_, s.end) * 1e3)
             .num("parent", static_cast<double>(s.parent))
             .num("op", static_cast<double>(s.op))
             .done()
      << (i + 1 < all.size() ? ",\n" : "\n");
  }
  f << "]\n";
  for (const auto& [name, t] : totals())
    Report::note("span", Json()
                             .str("name", name)
                             .num("calls", static_cast<double>(t.calls))
                             .num("total_ms", t.total_ms)
                             .num("self_ms", t.self_ms)
                             .done());
}

// --- products ------------------------------------------------------------------------

namespace {
template <typename T>
bool same_segment(const cw::ArraySegment<T>& x, const cw::ArraySegment<T>& y) {
  return x.size() == y.size() &&
         (x.size() == 0 || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
}
}  // namespace

bool same_bytes(const Csr& x, const Csr& y) {
  return x.nrows() == y.nrows() && x.ncols() == y.ncols() &&
         same_segment(x.row_ptr(), y.row_ptr()) &&
         same_segment(x.col_idx(), y.col_idx()) &&
         same_segment(x.values(), y.values());
}

// --- the closed loop -------------------------------------------------------------------

std::future<Csr> run_now(const std::function<Csr()>& fn) {
  std::promise<Csr> p;
  try {
    p.set_value(fn());
  } catch (...) {
    p.set_exception(std::current_exception());
  }
  return p.get_future();
}

LoopResult closed_loop(int depth, std::size_t warmup, double seconds,
                       const std::function<std::future<Csr>(std::size_t)>& submit,
                       const std::function<bool(std::size_t, const Csr&)>& check,
                       SpanLog* spans, const std::string& submit_name,
                       std::size_t cycle) {
  struct Op {
    std::size_t i = 0;
    bool measured = false;
    Clock::time_point t0, submitted, waited, seen;
    std::future<Csr> fut;
  };
  LoopResult r;
  std::deque<Op> q;
  std::size_t next = 0;
  int failures_noted = 0;
  Clock::time_point last_seen;

  auto launch = [&](bool measured) {
    Op f;
    f.i = next++;
    f.measured = measured;
    f.t0 = Clock::now();
    try {
      f.fut = submit(f.i);
    } catch (...) {
      std::promise<Csr> p;
      p.set_exception(std::current_exception());
      f.fut = p.get_future();
    }
    f.submitted = Clock::now();
    q.push_back(std::move(f));
  };
  auto check_op = [&](Op& f) {
    bool ok = false;
    std::string why = "product differs from the reference";
    try {
      ok = check(f.i, f.fut.get());
    } catch (const std::exception& e) {
      why = e.what();
    }
    const auto checked = Clock::now();
    ++r.attempted;
    if (!ok) {
      ++r.failed;
      if (failures_noted++ < 5)
        Report::note("failed_op", Json()
                                      .num("op", static_cast<double>(f.i))
                                      .str("why", why)
                                      .done());
    }
    if (f.measured && ok) {
      r.latency_ms.push_back(ms_between(f.t0, f.seen));
      r.submit_us.push_back(ms_between(f.t0, f.submitted) * 1e3);
    }
    if (spans != nullptr) {
      const auto op = static_cast<std::int64_t>(f.i);
      const std::int64_t id = spans->add("op", f.t0, f.seen, -1, op);
      spans->add(submit_name, f.t0, f.submitted, id, op);
      spans->add("future.get", f.waited, f.seen, id, op);
      spans->add("check", f.seen, checked, -1, op);
    }
  };
  // Wait for the oldest op, take every op already done behind it, send
  // their successors (while `more()`), then check the products taken.
  auto step = [&](const std::function<bool()>& more, bool measured) {
    std::vector<Op> done;
    do {
      Op f = std::move(q.front());
      q.pop_front();
      f.waited = Clock::now();
      f.fut.wait();
      f.seen = last_seen = Clock::now();
      done.push_back(std::move(f));
    } while (!q.empty() && q.front().fut.wait_for(std::chrono::seconds(0)) ==
                               std::future_status::ready);
    for (std::size_t k = 0; k < done.size() && more(); ++k) launch(measured);
    for (Op& f : done) check_op(f);
  };

  auto more_warmup = [&] { return next < warmup; };
  while (static_cast<int>(q.size()) < depth && more_warmup()) launch(false);
  while (!q.empty()) step(more_warmup, false);

  const std::size_t first = next;
  const auto begin = Clock::now();
  const auto deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto more_measured = [&] {
    return Clock::now() < deadline || (next - first) % cycle != 0;
  };
  while (static_cast<int>(q.size()) < depth) launch(true);
  while (!q.empty()) step(more_measured, true);
  r.elapsed_s = ms_between(begin, last_seen) / 1e3;
  return r;
}

// --- the report -----------------------------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    const std::vector<MetricDef> per_matrix = {
        {"core.advise_ms", "ms"},
        {"reorder.ms", "ms"},
        {"core.cluster_ms", "ms"},
        {"matrix.format_ms", "ms"},
        {"matrix.bytes_ratio", "ratio"},
        {"core.rows_per_cluster", "rows"},
        {"spgemm.symbolic_ms", "ms"},
        {"spgemm.numeric_ms", "ms"},
        {"spgemm.products", "count"},
        {"spgemm.products_per_s", "1/s"},
        {"spgemm.b_row_fetches", "count"},
        {"spgemm.bytes_moved_computed", "bytes"},
        {"spgemm.speedup_vs_rowwise", "ratio"},
        {"spgemm.parallel_efficiency", "ratio"},
    };
    const std::vector<std::string> tags = {"M6", "conf5", "er-sparse",
                                           "europe_osm"};
    std::vector<MetricDef> out;
    for (const MetricDef& d : per_matrix)
      for (const std::string& tag : tags)
        out.push_back({d.name + "." + tag, d.unit});
    const std::vector<MetricDef> rest = {
        {"serve.submit_us", "us"},
        {"serve.multiply_ms", "ms"},
        {"serve.stacked_ms_per_req", "ms"},
        {"serve.unpermute_ms", "ms"},
        {"serve.wait_ms", "ms"},
        {"serve.mean_batch_size", "count"},
        {"serve.stacked_share", "ratio"},
        {"serve.window_timeout_share", "ratio"},
        {"serve.max_queued", "count"},
        {"shard.plan_ms", "ms"},
        {"shard.prepare_ms", "ms"},
        {"shard.multiply_ms", "ms"},
        {"shard.imbalance", "ratio"},
        {"shard.gather_wait_ms", "ms"},
        {"shard.fanout", "count"},
        {"shard.retries", "count"},
        {"serve.snapshot_load_ms", "ms"},
        {"io.prefetch_issued", "count"},
        {"io.prefetch_hits", "count"},
        {"io.prefetch_bytes", "bytes"},
        {"io.prefetch_coalesced", "count"},
        {"io.prefetch_failed", "count"},
        {"shard.cold_multiplies", "ratio"},
        {"shard.warm_at_dispatch", "ratio"},
        {"io.streamed_over_corpus", "ratio"},
        {"shard.prefetch_wait_ms", "ms"},
        {"serve.resident_mb", "MiB"},
        {"bench.trace_overhead_ops_per_s", "1/s"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
  }();
  return defs;
}

void Report::set(const std::string& name, double value) {
  const auto& table = trace_ ? per_layer_metrics() : end_to_end_metrics();
  if (std::none_of(table.begin(), table.end(),
                   [&](const MetricDef& d) { return d.name == name; }))
    throw std::logic_error("metric not in this run's table: " + name);
  values_[name] = value;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::logic_error("metric unset: " + name);
  return it->second;
}

void Report::note(const std::string& key, const std::string& json) {
  std::printf("# %s %s\n", key.c_str(), json.c_str());
  std::fflush(stdout);
}

void Report::print(std::uint64_t attempted, std::uint64_t failed,
                   const std::string& absent_reason) const {
  const auto& table = trace_ ? per_layer_metrics() : end_to_end_metrics();
  std::string absent;
  std::string metrics;
  for (const MetricDef& d : table) {
    const auto it = values_.find(d.name);
    double v = 0;
    if (it != values_.end()) {
      v = it->second;
    } else if (trace_) {
      absent += (absent.empty() ? "" : ",") + json_string(d.name);
    } else {
      throw std::logic_error("end-to-end metric unset: " + d.name);
    }
    metrics += (metrics.empty() ? "" : ", ") + json_string(d.name) +
               ": {\"value\": " + json_number(v) +
               ", \"unit\": " + json_string(d.unit) + "}";
  }
  if (!absent.empty())
    note("absent", Json()
                       .str("why", absent_reason)
                       .raw("printed_as_zero", "[" + absent + "]")
                       .done());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
}

// --- json ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Json::key_(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(key) + ": ";
}

Json& Json::num(const std::string& key, double v) {
  key_(key);
  body_ += json_number(v);
  return *this;
}

Json& Json::str(const std::string& key, const std::string& v) {
  key_(key);
  body_ += json_string(v);
  return *this;
}

Json& Json::raw(const std::string& key, const std::string& json) {
  key_(key);
  body_ += json;
  return *this;
}

// --- misc --------------------------------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
