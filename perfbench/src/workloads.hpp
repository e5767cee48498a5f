// The four workloads (see perfbench/README.md for why each exists) and the
// measured phase they share.
#pragma once

#include <string>

#include "bench.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Why the per-layer metrics this workload never sets are absent.
  std::string absent_reason;
};

Outcome square_amortized(const Args& args, Report& report);
Outcome serve_skinny(const Args& args, Report& report);
Outcome serve_sharded(const Args& args, Report& report);
Outcome serve_mmap(const Args& args, Report& report);

/// Set-ups per run, setup_s being their median: at least kMinSetups and
/// at least kMinSetupSeconds of set-up in all, at most kMaxSetups.
constexpr int kMinSetups = 9;
constexpr int kMaxSetups = 1000;
constexpr double kMinSetupSeconds = 2.0;
/// Replays per timed call in the traced run (median taken).
constexpr int kReplayReps = 3;

/// Median seconds of repeated `setup_once` calls (each returns its own
/// timed seconds, so tear-down between set-ups stays outside the clock).
double median_setup_s(const std::function<double()>& setup_once);

/// How a workload's closed loop runs.
struct LoopSpec {
  int depth = 1;            // ops in flight
  std::size_t warmup = 0;   // ops run and drained before measuring
  std::size_t cycle = 1;    // measured ops end on a multiple of this
  double tail_pct = 90;     // the fixed tail percentile
  std::string submit_name;  // span name of the submit call
  std::function<std::future<Csr>(std::size_t)> submit;
  std::function<bool(std::size_t, const Csr&)> check;
};

struct Phases {
  LoopResult untraced;
  LoopResult traced;  // run only with --trace 1, after the untraced loop
  [[nodiscard]] double p50_ms() const { return median(untraced.latency_ms); }
};

/// The measured phase. Untraced: one loop, whose figures become the
/// end-to-end metrics. Traced: the untraced loop, then the same loop with
/// spans; both are noted, and their ops/s difference is the tracing
/// overhead metric. `outcome` accumulates the checked ops.
Phases measure(const Args& args, Report& report, double setup_s,
               const LoopSpec& spec, SpanLog* spans, Outcome& outcome);

/// Note a thread budget after checking it.
void use_budget(const ThreadBudget& budget);

/// Serving counters every engine-backed workload publishes: mean batch
/// size, stacked share, window-timeout share and queue high-water mark.
void set_engine_counter_metrics(Report& report,
                                cw::obs::MetricsRegistry& registry,
                                double max_queued);

}  // namespace perfbench
