// square_amortized: the paper's A² through Pipeline::multiply_square, one op
// in flight, the kernel on every core, three suite matrices cycled with
// equal weight, each prepared as the advisor recommends.
#include <memory>

#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

Outcome square_amortized(const Args& args, Report& report) {
  const int nproc = online_cores();
  const ThreadBudget budget{nproc, 0, nproc};
  use_budget(budget);
  cw::set_num_threads(budget.threads_per_worker);

  // Inputs: the suite's structure, values from the seed.
  const std::vector<std::string> names = {"M6", "conf5", "er-sparse"};
  std::vector<Csr> mats;
  for (std::size_t k = 0; k < names.size(); ++k) {
    mats.push_back(cw::make_dataset(names[k], cw::SuiteScale::kSmall));
    cw::randomize_values(mats.back(), mix_seed(args.seed, k));
  }

  std::vector<cw::Recommendation> recs(names.size());
  std::vector<std::shared_ptr<const cw::Pipeline>> pipes(names.size());
  const double setup_s = median_setup_s([&] {
    // The previous set-up's pipelines are freed off the clock.
    for (auto& p : pipes) p.reset();
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < names.size(); ++k) {
      recs[k] = cw::advise(mats[k], cw::ReuseBudget::kTens);
      pipes[k] = std::make_shared<const cw::Pipeline>(
          mats[k], recs[k].pipeline_options());
    }
    return ms_between(t0, Clock::now()) / 1e3;
  });

  std::vector<Csr> refs;
  for (std::size_t k = 0; k < names.size(); ++k) {
    note_matrix(names[k], mats[k], recs[k]);
    refs.push_back(pipes[k]->multiply_square());
  }

  LoopSpec spec;
  spec.depth = 1;
  spec.warmup = names.size();
  spec.cycle = names.size();
  spec.tail_pct = 90;
  spec.submit_name = "cw::Pipeline::multiply_square";
  spec.submit = [&](std::size_t i) {
    return run_now([&] { return pipes[i % names.size()]->multiply_square(); });
  };
  spec.check = [&](std::size_t i, const Csr& c) {
    return same_bytes(c, refs[i % names.size()]);
  };
  SpanLog spans;
  Outcome out;
  measure(args, report, setup_s, spec, &spans, out);
  if (!args.trace) return out;

  for (std::size_t k = 0; k < names.size(); ++k) {
    ScopedSpan replay(&spans, "replay:" + names[k]);
    const double advise_ms = time_advise(mats[k], &spans);
    PreprocessTimes pre = replay_preprocess(
        mats[k], recs[k].pipeline_options(), cw::PermutationMode::kSymmetric,
        &spans);
    pre.advise_ms = advise_ms;
    set_preprocess_metrics(report, names[k], pre);
    set_kernel_metrics(report, names[k],
                       replay_kernel(*pipes[k], nullptr, mats[k],
                                     budget.threads_per_worker, kReplayReps,
                                     &spans));
  }
  spans.write(args.scratch + "/spans-square_amortized.json");
  out.absent_reason =
      "square_amortized runs no engine, shard plan or snapshot, so the "
      "serve, shard and io layers are bypassed; europe_osm is not one of its "
      "matrices";
  return out;
}

}  // namespace perfbench
