// serve_sharded: ShardedEngine over a fully resident, owned row-block split
// of europe_osm, four sharded requests in flight.
// serve_mmap: ShardedEngine over a corpus of mmap-loaded v3 sharded
// snapshots with the prefetcher and the paging governor on, their budgets
// above the corpus, two requests in flight round-robin.
#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "io/prefetcher.hpp"
#include "layers.hpp"
#include "obs/sampler.hpp"
#include "serve/paging_governor.hpp"
#include "shard/engine.hpp"
#include "shard/snapshot.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using cw::shard::ShardedPipeline;
using SpHandle = std::shared_ptr<const ShardedPipeline>;

constexpr std::size_t kPool = 16;  // distinct payloads, cycled
constexpr cw::index_t kShards = 4;

/// The advisor's recommendation as a rows-only shard can take it: shards
/// keep their column labels, so only an implicit (clustering) row order
/// applies.
cw::PipelineOptions rows_only_options(const cw::Recommendation& rec) {
  cw::PipelineOptions opt = rec.pipeline_options();
  opt.reorder = cw::ReorderAlgo::kOriginal;
  return opt;
}

std::vector<std::shared_ptr<const Csr>> make_payloads(cw::index_t nrows,
                                                      std::size_t count,
                                                      std::uint64_t seed) {
  std::vector<std::shared_ptr<const Csr>> out;
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(std::make_shared<const Csr>(
        cw::gen_request_payload(nrows, 32, 3, mix_seed(seed, 100 + i))));
  return out;
}

/// Replay each shard's engine work (multiply + unpermute) on the workers'
/// budget: shard.multiply_ms is the mean shard, shard.imbalance the slowest
/// over the mean, shard.gather_wait_ms the p50 latency the slowest shard
/// leaves unexplained.
void replay_shards(Report& report, const ShardedPipeline& sp, const Csr& b,
                   int threads, double p50_ms, SpanLog* spans) {
  std::vector<double> shard_ms;
  for (cw::index_t s = 0; s < sp.num_shards(); ++s) {
    const cw::Pipeline& p = *sp.shard(s);
    std::string name = "shard:";
    name += std::to_string(s);
    shard_ms.push_back(with_threads(threads, [&] {
      return median_ms(kReplayReps, [&] {
        ScopedSpan span(spans, name);
        (void)p.unpermute_rows(p.multiply(b));
      });
    }));
  }
  double mean = 0;
  for (const double t : shard_ms) mean += t / static_cast<double>(shard_ms.size());
  const double slowest = *std::max_element(shard_ms.begin(), shard_ms.end());
  report.set("shard.multiply_ms", mean);
  report.set("shard.imbalance", slowest / mean);
  report.set("shard.gather_wait_ms", p50_ms - slowest);
  std::string per_shard;
  for (const double t : shard_ms) {
    if (!per_shard.empty()) per_shard += ',';
    per_shard += json_number(t);
  }
  Report::note("residue", Json()
                              .str("metric", "shard.gather_wait_ms")
                              .num("latency_p50_ms", p50_ms)
                              .num("slowest_shard_ms", slowest)
                              .raw("shard_ms", "[" + per_shard + "]")
                              .num("gather_wait_ms", p50_ms - slowest)
                              .done());
}

void set_sharded_counter_metrics(Report& report,
                                 const cw::shard::ShardedEngine& eng) {
  const cw::shard::ShardedEngineStats st = eng.stats();
  report.set("shard.fanout", static_cast<double>(st.shard_multiplies) /
                                 static_cast<double>(st.submitted));
  report.set("shard.retries", static_cast<double>(st.shard_retries));
  set_engine_counter_metrics(
      report, *eng.metrics(),
      static_cast<double>(eng.shard_engine_stats().max_queued));
}

}  // namespace

Outcome serve_sharded(const Args& args, Report& report) {
  const int nproc = online_cores();
  const int workers = std::min(4, nproc);
  const ThreadBudget budget{nproc, workers, std::max(1, nproc / workers)};
  use_budget(budget);

  Csr a = cw::make_dataset("europe_osm", cw::SuiteScale::kSmall);
  cw::randomize_values(a, mix_seed(args.seed, 0));
  const auto payloads = make_payloads(a.nrows(), kPool, args.seed);

  cw::shard::PlanOptions plan_opt;
  plan_opt.num_shards = kShards;
  plan_opt.strategy = cw::shard::SplitStrategy::kBalanced;
  cw::shard::ShardedEngineOptions so;
  so.num_workers = budget.workers;
  so.omp_threads_per_worker = budget.threads_per_worker;
  so.gather_workers = 2;
  so.registry.capacity_bytes = std::size_t{1} << 30;

  cw::Recommendation rec;
  cw::PipelineOptions opt;
  std::unique_ptr<cw::shard::ShardedEngine> eng;
  SpHandle sp;
  const double setup_s = median_setup_s([&] {
    // The previous set-up's engine joins, and its shards are freed, off
    // the clock.
    eng.reset();
    sp.reset();
    const auto t0 = Clock::now();
    rec = cw::advise(a, cw::ReuseBudget::kTens);
    opt = rows_only_options(rec);
    sp = std::make_shared<const ShardedPipeline>(a, plan_opt, opt);
    eng = std::make_unique<cw::shard::ShardedEngine>(so);
    eng->admit(*sp);
    return ms_between(t0, Clock::now()) / 1e3;
  });
  note_matrix("europe_osm", a, rec);
  std::vector<Csr> refs;
  for (const auto& b : payloads) refs.push_back(sp->multiply(*b));

  LoopSpec spec;
  spec.depth = 4;
  spec.warmup = kPool;
  spec.cycle = kPool;
  spec.tail_pct = 95;
  spec.submit_name = "cw::shard::ShardedEngine::submit";
  spec.submit = [&](std::size_t i) {
    return eng->submit(sp, Csr(*payloads[i % kPool]));
  };
  spec.check = [&](std::size_t i, const Csr& c) {
    return same_bytes(c, refs[i % kPool]);
  };
  SpanLog spans;
  Outcome out;
  const Phases ph = measure(args, report, setup_s, spec, &spans, out);
  if (!args.trace) return out;

  report.set("serve.submit_us", median(ph.traced.submit_us));
  set_sharded_counter_metrics(report, *eng);

  // Preprocessing replay: plan, then each shard's rows-only preparation.
  const int tpw = budget.threads_per_worker;
  PreprocessTimes pre;
  KernelTimes kern;
  {
    ScopedSpan replay(&spans, "replay:europe_osm");
    pre.advise_ms = time_advise(a, &spans);
    cw::shard::RowBlockPlan plan;
    auto t0 = Clock::now();
    {
      ScopedSpan s(&spans, "cw::shard::RowBlockPlan::build");
      plan = cw::shard::RowBlockPlan::build(a, plan_opt);
    }
    report.set("shard.plan_ms", ms_between(t0, Clock::now()));
    double prepare_ms = 0;
    for (cw::index_t s = 0; s < plan.num_shards(); ++s) {
      const Csr block = plan.extract_block(a, s);
      t0 = Clock::now();
      {
        ScopedSpan span(&spans, "cw::Pipeline::prepare_rows");
        (void)cw::Pipeline::prepare_rows(block, opt);
      }
      prepare_ms += ms_between(t0, Clock::now());
      pre += replay_preprocess(block, opt, cw::PermutationMode::kRowsOnly,
                               &spans);
      kern += replay_kernel(*sp->shard(s), payloads[0].get(), block, tpw,
                            kReplayReps, &spans);
    }
    report.set("shard.prepare_ms", prepare_ms);
  }
  set_preprocess_metrics(report, "europe_osm", pre);
  set_kernel_metrics(report, "europe_osm", kern);
  replay_shards(report, *sp, *payloads[0], tpw, ph.p50_ms(), &spans);
  spans.write(args.scratch + "/spans-serve_sharded.json");
  out.absent_reason =
      "serve_sharded serves owned, fully resident shards, so nothing pages "
      "(io and snapshot metrics), and it runs no per-request multiply "
      "outside its shards (serve replay metrics); M6, conf5 and er-sparse "
      "are not its matrices";
  return out;
}

// --- serve_mmap ------------------------------------------------------------------

namespace {

constexpr std::size_t kCorpus = 8;    // sharded snapshots
constexpr std::size_t kPayloads = 2;  // per pipeline, cycled
constexpr cw::index_t kCorpusRows = 16000;

/// A fresh directory under the run scratch, removed with its contents on
/// scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    fs::create_directories(parent);
    std::string templ = parent + "/mmap-XXXXXX";
    if (mkdtemp(templ.data()) == nullptr)
      throw std::runtime_error("cannot create a directory under " + parent);
    path_ = templ;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Everything one set-up starts, torn down in dependency order.
struct MmapState {
  std::shared_ptr<cw::obs::MetricsRegistry> metrics =
      std::make_shared<cw::obs::MetricsRegistry>();
  std::vector<SpHandle> sps;
  std::shared_ptr<cw::io::ShardPrefetcher> prefetcher;
  std::unique_ptr<cw::shard::ShardedEngine> eng;
  std::unique_ptr<cw::serve::PagingGovernor> governor;
  std::unique_ptr<cw::obs::PeriodicSampler> sampler;

  MmapState() = default;
  MmapState(const MmapState&) = delete;
  MmapState& operator=(const MmapState&) = delete;
  ~MmapState() {
    if (sampler) sampler->stop();
    if (eng) {
      eng->set_governor(nullptr);
      eng->shutdown();
    }
    if (prefetcher) prefetcher->stop();
  }

  [[nodiscard]] std::size_t resident_bytes() const {
    std::size_t total = 0;
    for (const SpHandle& sp : sps)
      for (cw::index_t s = 0; s < sp->num_shards(); ++s) {
        const cw::PipelineResidency r = sp->shard(s)->residency();
        total += r.owned_bytes + r.resident_mapped_bytes;
      }
    return total;
  }
};

/// Polls MmapState::resident_bytes() from its own thread; keeps the peak.
class ResidentSampler {
 public:
  explicit ResidentSampler(const MmapState& state) : state_(state) {}
  ~ResidentSampler() { stop(); }
  ResidentSampler(const ResidentSampler&) = delete;
  ResidentSampler& operator=(const ResidentSampler&) = delete;

  void start() {
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        peak_ = std::max(peak_.load(), state_.resident_bytes());
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    });
  }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] std::size_t peak() const { return peak_.load(); }

 private:
  const MmapState& state_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> peak_{0};
  std::thread thread_;
};

/// The cw_* counters the paging metrics are deltas of.
struct PagingCounters {
  double issued, hits, bytes, coalesced, failed, cold, shard_multiplies,
      wait_sum, wait_count;
  static PagingCounters read(cw::obs::MetricsRegistry& m) {
    auto c = [&](const char* name) {
      return static_cast<double>(m.counter(name).value());
    };
    const cw::obs::HistogramSnapshot wait =
        m.histogram("cw_sharded_prefetch_wait_ms").snapshot();
    return {c("cw_prefetch_issued_total"),
            c("cw_prefetch_hits_total"),
            c("cw_prefetch_bytes_total"),
            c("cw_prefetch_coalesced_total"),
            c("cw_prefetch_failed_total"),
            c("cw_shard_cold_multiplies_total"),
            c("cw_sharded_shard_multiplies_total"),
            wait.sum,
            static_cast<double>(wait.count)};
  }
};

}  // namespace

Outcome serve_mmap(const Args& args, Report& report) {
  const int nproc = online_cores();
  const int workers = std::min(2, nproc);
  const ThreadBudget budget{nproc, workers, std::max(1, nproc / workers)};
  use_budget(budget);

  // Inputs: the corpus, written as v3 snapshots, and the references from
  // the in-memory pipelines the snapshots were saved from.
  const TempDir dir(args.scratch + "/run");
  const auto payloads = make_payloads(kCorpusRows, kPayloads, args.seed);
  cw::shard::PlanOptions plan_opt;
  plan_opt.num_shards = kShards;
  std::vector<std::string> paths;
  std::vector<std::vector<Csr>> refs(kCorpus);
  double corpus_bytes = 0;
  for (std::size_t p = 0; p < kCorpus; ++p) {
    Csr a = cw::gen_banded(kCorpusRows, 16, 0.9, mix_seed(args.seed, 300 + p));
    cw::randomize_values(a, mix_seed(args.seed, 400 + p));
    const cw::Recommendation rec = cw::advise(a, cw::ReuseBudget::kTens);
    if (p == 0) note_matrix("corpus", a, rec);
    const ShardedPipeline built(a, plan_opt, rows_only_options(rec));
    paths.push_back(dir.path() + "/corpus-" + std::to_string(p) + ".cwsnap");
    cw::shard::save_sharded_pipeline_file(paths.back(), built);
    corpus_bytes += static_cast<double>(fs::file_size(paths.back()));
    for (const auto& b : payloads) refs[p].push_back(built.multiply(*b));
  }
  // Both budgets sit above the corpus, so the governor never releases and
  // nothing is read back from disk. A release drops the page cache
  // (Pipeline::release_residency), so a budget under the corpus would make
  // the loop wait on disk reads, whose speed the host's other guests set.
  const auto budget_bytes = static_cast<std::size_t>(2 * corpus_bytes);
  Report::note("corpus", Json()
                             .num("snapshots", kCorpus)
                             .num("bytes", corpus_bytes)
                             .num("governor_high_watermark_bytes",
                                  static_cast<double>(budget_bytes))
                             .done());

  std::unique_ptr<MmapState> st;
  std::vector<double> load_ms;
  const double setup_s = median_setup_s([&] {
    st.reset();  // the previous set-up joins its threads off the clock
    const auto t0 = Clock::now();
    auto s = std::make_unique<MmapState>();
    for (const std::string& path : paths) {
      const auto tl = Clock::now();
      s->sps.push_back(std::make_shared<const ShardedPipeline>(
          cw::shard::load_sharded_pipeline_file(path)));
      load_ms.push_back(ms_between(tl, Clock::now()));
    }
    cw::obs::Gauge& resident = s->metrics->gauge(
        "cw_governor_resident_mapped_bytes",
        "Registry resident mapped bytes at last governor check");
    cw::io::PrefetchOptions popt;
    popt.num_workers = 1;
    popt.max_in_flight = kCorpus * kShards + 4;
    popt.budget_bytes = budget_bytes;
    popt.wait_resident = false;
    popt.metrics = s->metrics;
    popt.resident_bytes_fn = [&resident] {
      return static_cast<std::size_t>(resident.value());
    };
    s->prefetcher = std::make_shared<cw::io::ShardPrefetcher>(std::move(popt));
    s->prefetcher->start();
    cw::shard::ShardedEngineOptions so;
    so.num_workers = budget.workers;
    so.omp_threads_per_worker = budget.threads_per_worker;
    so.gather_workers = 2;
    so.metrics = s->metrics;
    so.registry.capacity_bytes = std::size_t{4} << 30;
    so.prefetcher = s->prefetcher;
    so.max_prefetch_wait = std::chrono::milliseconds(10);
    so.prefetch_lookahead = 1;
    s->eng = std::make_unique<cw::shard::ShardedEngine>(so);
    for (const SpHandle& sp : s->sps) s->eng->admit(*sp);
    cw::serve::PagingGovernorOptions gopt;
    gopt.high_watermark_bytes = budget_bytes;
    gopt.low_watermark_bytes = budget_bytes / 2 + budget_bytes / 4;
    gopt.metrics = s->metrics;
    s->governor = std::make_unique<cw::serve::PagingGovernor>(
        *s->eng->registry(), *s->prefetcher, gopt);
    s->eng->set_governor(s->governor.get());
    s->sampler = std::make_unique<cw::obs::PeriodicSampler>(
        s->metrics, std::chrono::milliseconds(20));
    s->governor->register_probes(*s->sampler);
    s->sampler->start();
    st = std::move(s);
    return ms_between(t0, Clock::now()) / 1e3;
  });

  ResidentSampler resident(*st);
  const PagingCounters before = PagingCounters::read(*st->metrics);
  if (args.trace) resident.start();
  LoopSpec spec;
  spec.depth = 2;
  spec.warmup = kCorpus;
  spec.cycle = kCorpus;
  spec.tail_pct = 95;
  spec.submit_name = "cw::shard::ShardedEngine::submit";
  spec.submit = [&](std::size_t i) {
    return st->eng->submit(st->sps[i % kCorpus],
                           Csr(*payloads[(i / kCorpus) % kPayloads]));
  };
  spec.check = [&](std::size_t i, const Csr& c) {
    return same_bytes(c, refs[i % kCorpus][(i / kCorpus) % kPayloads]);
  };
  SpanLog spans;
  Outcome out;
  const Phases ph = measure(args, report, setup_s, spec, &spans, out);
  if (!args.trace) return out;
  resident.stop();

  // Deltas over both loops of the traced run, warm-ups included.
  const PagingCounters after = PagingCounters::read(*st->metrics);
  const double multiplies = after.shard_multiplies - before.shard_multiplies;
  const double cold = (after.cold - before.cold) / multiplies;
  const double waits = after.wait_count - before.wait_count;
  report.set("serve.submit_us", median(ph.traced.submit_us));
  set_sharded_counter_metrics(report, *st->eng);
  report.set("serve.snapshot_load_ms", median(load_ms));
  report.set("io.prefetch_issued", after.issued - before.issued);
  report.set("io.prefetch_hits", after.hits - before.hits);
  report.set("io.prefetch_bytes", after.bytes - before.bytes);
  report.set("io.prefetch_coalesced", after.coalesced - before.coalesced);
  report.set("io.prefetch_failed", after.failed - before.failed);
  report.set("shard.cold_multiplies", cold);
  report.set("shard.warm_at_dispatch", 1 - cold);
  report.set("io.streamed_over_corpus",
             (after.bytes - before.bytes) / corpus_bytes);
  report.set("shard.prefetch_wait_ms",
             waits > 0 ? (after.wait_sum - before.wait_sum) / waits : 0.0);
  report.set("serve.resident_mb",
             static_cast<double>(resident.peak()) / (1 << 20));

  replay_shards(report, *st->sps[0], *payloads[0], budget.threads_per_worker,
                ph.p50_ms(), &spans);
  spans.write(args.scratch + "/spans-serve_mmap.json");
  out.absent_reason =
      "serve_mmap loads prepared shards from snapshots, so it runs no "
      "preprocessing or plan (core, reorder, matrix, shard.plan/prepare "
      "metrics), its corpus is none of the tagged matrices (spgemm metrics), "
      "and it runs no per-request multiply outside its shards (serve replay "
      "metrics)";
  return out;
}

}  // namespace perfbench
