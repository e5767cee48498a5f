#include "workloads.hpp"

#include <algorithm>

namespace perfbench {

double median_setup_s(const std::function<double()>& setup_once) {
  std::vector<double> s;
  double total = 0;
  while (s.size() < kMaxSetups &&
         (s.size() < kMinSetups || total < kMinSetupSeconds)) {
    s.push_back(setup_once());
    total += s.back();
  }
  Report::note("setup", Json()
                            .num("reps", static_cast<double>(s.size()))
                            .num("median_s", median(s))
                            .num("min_s", *std::min_element(s.begin(), s.end()))
                            .num("max_s", *std::max_element(s.begin(), s.end()))
                            .done());
  return median(s);
}

void use_budget(const ThreadBudget& budget) {
  budget.check();
  Report::note("thread_budget", Json()
                                    .num("nproc", budget.nproc)
                                    .num("workers", budget.workers)
                                    .num("threads_per_worker",
                                         budget.threads_per_worker)
                                    .num("kernel_threads",
                                         budget.kernel_threads())
                                    .str("budget", budget.describe())
                                    .done());
}

namespace {

double ops_per_s(const LoopResult& r) {
  return static_cast<double>(r.latency_ms.size()) / r.elapsed_s;
}

void note_loop(const std::string& label, const LoopResult& r, double tail_pct) {
  const std::size_t n = r.latency_ms.size();
  const std::size_t beyond = samples_beyond(n, tail_pct);
  Report::note(label, Json()
                          .num("ops", static_cast<double>(n))
                          .num("elapsed_s", r.elapsed_s)
                          .num("ops_per_s", ops_per_s(r))
                          .num("latency_p50_ms", median(r.latency_ms))
                          .num("tail_percentile", tail_pct)
                          .num("latency_tail_ms",
                               percentile(r.latency_ms, tail_pct))
                          .num("samples_beyond_tail",
                               static_cast<double>(beyond))
                          .num("latency_max_ms",
                               percentile(r.latency_ms, 100))
                          .num("submit_us_p50", median(r.submit_us))
                          .done());
  if (beyond < 10)
    Report::note("warning", Json()
                                .str("loop", label)
                                .str("what", "fewer than 10 samples beyond "
                                             "the tail percentile")
                                .done());
}

}  // namespace

Phases measure(const Args& args, Report& report, double setup_s,
               const LoopSpec& spec, SpanLog* spans, Outcome& outcome) {
  Phases ph;
  auto run = [&](SpanLog* log) {
    LoopResult r = closed_loop(spec.depth, spec.warmup, args.seconds,
                               spec.submit, spec.check, log, spec.submit_name,
                               spec.cycle);
    outcome.attempted += r.attempted;
    outcome.failed += r.failed;
    return r;
  };
  ph.untraced = run(nullptr);
  note_loop("loop_untraced", ph.untraced, spec.tail_pct);
  if (!args.trace) {
    report.set("setup_s", setup_s);
    report.set("ops_per_s", ops_per_s(ph.untraced));
    report.set("latency_p50_ms", median(ph.untraced.latency_ms));
    report.set("latency_tail_ms",
               percentile(ph.untraced.latency_ms, spec.tail_pct));
    report.set("peak_rss_mb", peak_rss_mb());
    return ph;
  }
  ph.traced = run(spans);
  note_loop("loop_traced", ph.traced, spec.tail_pct);
  report.set("bench.trace_overhead_ops_per_s",
             ops_per_s(ph.traced) - ops_per_s(ph.untraced));
  return ph;
}

void set_engine_counter_metrics(Report& report,
                                cw::obs::MetricsRegistry& registry,
                                double max_queued) {
  auto count = [&](const char* name) {
    return static_cast<double>(registry.counter(name).value());
  };
  auto share = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  report.set("serve.mean_batch_size",
             registry.histogram("cw_engine_batch_size").snapshot().mean());
  report.set("serve.stacked_share",
             share(count("cw_engine_stacked_requests_total"),
                   count("cw_engine_completed_total")));
  report.set("serve.window_timeout_share",
             share(count("cw_engine_window_timeouts_total"),
                   count("cw_engine_windows_opened_total")));
  report.set("serve.max_queued", max_queued);
}

}  // namespace perfbench
