// serve_skinny: ServeEngine serving one prepared A (M6, hierarchical) with
// independent random tall-skinny payloads of one shape, four in flight, the
// batch window on.
#include <chrono>
#include <cmath>
#include <memory>

#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "layers.hpp"
#include "serve/engine.hpp"
#include "serve/fingerprint.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {
constexpr std::size_t kPool = 16;  // distinct payloads, cycled
constexpr int kDepth = 4;
}  // namespace

Outcome serve_skinny(const Args& args, Report& report) {
  const int nproc = online_cores();
  const int workers = std::min(2, nproc);
  const ThreadBudget budget{nproc, workers, std::max(1, nproc / workers)};
  use_budget(budget);

  Csr a = cw::make_dataset("M6", cw::SuiteScale::kSmall);
  cw::randomize_values(a, mix_seed(args.seed, 0));
  std::vector<std::shared_ptr<const Csr>> payloads;
  for (std::size_t i = 0; i < kPool; ++i)
    payloads.push_back(std::make_shared<const Csr>(cw::gen_request_payload(
        a.nrows(), 32, 3, mix_seed(args.seed, 100 + i))));

  cw::serve::EngineOptions eo;
  eo.num_workers = budget.workers;
  eo.omp_threads_per_worker = budget.threads_per_worker;
  // The engine's default max_batch (bench/serve_throughput and cwtool use
  // it too) and the longest window bench/serve_throughput sweeps. Batch
  // sizes are whatever the traffic makes; serve.mean_batch_size reports
  // them.
  eo.max_batch = 16;
  eo.batch_window = std::chrono::microseconds(1000);
  eo.registry.capacity_bytes = std::size_t{1} << 30;

  cw::Recommendation rec;
  std::unique_ptr<cw::serve::ServeEngine> engine;
  std::shared_ptr<const cw::Pipeline> handle;
  const double setup_s = median_setup_s([&] {
    // The previous set-up's engine joins, and its pipeline is freed, off
    // the clock.
    handle.reset();
    engine.reset();
    const auto t0 = Clock::now();
    rec = cw::advise(a, cw::ReuseBudget::kTens);
    auto p = std::make_shared<const cw::Pipeline>(a, rec.pipeline_options());
    engine = std::make_unique<cw::serve::ServeEngine>(eo);
    handle = engine->admit(cw::serve::fingerprint(a), std::move(p));
    return ms_between(t0, Clock::now()) / 1e3;
  });
  note_matrix("M6", a, rec);
  std::vector<Csr> refs;
  for (const auto& b : payloads)
    refs.push_back(handle->unpermute_rows(handle->multiply(*b)));

  LoopSpec spec;
  spec.depth = kDepth;
  spec.warmup = kPool;
  spec.cycle = kPool;
  spec.tail_pct = 95;
  spec.submit_name = "cw::serve::ServeEngine::submit";
  spec.submit = [&](std::size_t i) {
    return engine->submit(handle, payloads[i % kPool]);
  };
  spec.check = [&](std::size_t i, const Csr& c) {
    return same_bytes(c, refs[i % kPool]);
  };
  SpanLog spans;
  Outcome out;
  const Phases ph = measure(args, report, setup_s, spec, &spans, out);
  if (!args.trace) return out;

  report.set("serve.submit_us", median(ph.traced.submit_us));
  set_engine_counter_metrics(report, *engine->metrics(),
                             static_cast<double>(engine->stats().max_queued));

  // Replays of the engine's per-request work on the workers' budget.
  const int tpw = budget.threads_per_worker;
  const auto batch = static_cast<std::size_t>(std::max(
      1L, std::lround(report.get("serve.mean_batch_size"))));
  double multiply_ms = 0, stacked_ms = 0, unpermute_ms = 0;
  {
    ScopedSpan replay(&spans, "replay:serve");
    std::size_t k = 0;
    multiply_ms = with_threads(tpw, [&] {
      return median_ms(static_cast<int>(kPool), [&] {
        ScopedSpan s(&spans, "cw::Pipeline::multiply");
        (void)handle->multiply(*payloads[k++ % kPool]);
      });
    });
    std::vector<const Csr*> bs;
    for (std::size_t i = 0; i < batch; ++i) bs.push_back(payloads[i].get());
    stacked_ms = with_threads(tpw, [&] {
      return median_ms(kReplayReps, [&] {
        ScopedSpan s(&spans, "cw::Pipeline::multiply_stacked");
        (void)handle->multiply_stacked(bs);
      });
    });
    const Csr permuted = handle->multiply(*payloads[0]);
    unpermute_ms = with_threads(tpw, [&] {
      return median_ms(kReplayReps, [&] {
        ScopedSpan s(&spans, "cw::Pipeline::unpermute_rows");
        (void)handle->unpermute_rows(permuted);
      });
    });
  }
  report.set("serve.multiply_ms", multiply_ms);
  report.set("serve.stacked_ms_per_req",
             stacked_ms / static_cast<double>(batch));
  report.set("serve.unpermute_ms", unpermute_ms);
  // A stacked request waits for its whole fused batch.
  const double share = report.get("serve.stacked_share");
  const double service =
      share * stacked_ms + (1 - share) * multiply_ms + unpermute_ms;
  report.set("serve.wait_ms", ph.p50_ms() - service);
  Report::note("residue", Json()
                              .str("metric", "serve.wait_ms")
                              .num("latency_p50_ms", ph.p50_ms())
                              .num("replayed_service_ms", service)
                              .num("batch_size_replayed",
                                   static_cast<double>(batch))
                              .num("wait_ms", ph.p50_ms() - service)
                              .done());

  PreprocessTimes pre;
  {
    ScopedSpan s(&spans, "replay:M6");
    const double advise_ms = time_advise(a, &spans);
    pre = replay_preprocess(a, rec.pipeline_options(),
                            cw::PermutationMode::kSymmetric, &spans);
    pre.advise_ms = advise_ms;
  }
  set_preprocess_metrics(report, "M6", pre);
  set_kernel_metrics(report, "M6",
                     replay_kernel(*handle, payloads[0].get(), a, tpw,
                                   kReplayReps, &spans));
  spans.write(args.scratch + "/spans-serve_skinny.json");
  out.absent_reason =
      "serve_skinny serves one owned, unsharded pipeline, so the shard and io "
      "layers are bypassed; conf5, er-sparse and europe_osm are not its "
      "matrices";
  return out;
}

}  // namespace perfbench
