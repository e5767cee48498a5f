#include "layers.hpp"

#include <unistd.h>

#include "core/clustering_schemes.hpp"
#include "reorder/reorder.hpp"
#include "spgemm/spgemm.hpp"

namespace perfbench {

using cw::index_t;

namespace {

double cache_bytes(int name, double fallback) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<double>(v) : fallback;
}

}  // namespace

void note_matrix(const std::string& tag, const Csr& a,
                 const cw::Recommendation& rec) {
  // Fallbacks: the evaluation host's 2 MiB per-core L2 and 105 MiB LLC.
  const double l2 = cache_bytes(_SC_LEVEL2_CACHE_SIZE, 2.0 * (1 << 20));
  const double llc = cache_bytes(_SC_LEVEL3_CACHE_SIZE, 105.0 * (1 << 20));
  const auto bytes = static_cast<double>(a.memory_bytes());
  Report::note("matrix", Json()
                             .str("tag", tag)
                             .num("n", a.nrows())
                             .num("nnz", static_cast<double>(a.nnz()))
                             .num("csr_bytes", bytes)
                             .num("over_l2", bytes / l2)
                             .num("over_llc", bytes / llc)
                             .num("l2_bytes", l2)
                             .num("llc_bytes", llc)
                             .str("reorder", cw::to_string(rec.reorder))
                             .str("scheme", cw::to_string(rec.scheme))
                             .done());
}

PreprocessTimes& PreprocessTimes::operator+=(const PreprocessTimes& o) {
  advise_ms += o.advise_ms;
  reorder_ms += o.reorder_ms;
  cluster_ms += o.cluster_ms;
  format_ms += o.format_ms;
  csr_bytes += o.csr_bytes;
  clustered_bytes += o.clustered_bytes;
  rows += o.rows;
  clusters += o.clusters;
  return *this;
}

double time_advise(const Csr& a, SpanLog* spans) {
  const auto t0 = Clock::now();
  ScopedSpan s(spans, "cw::advise");
  (void)cw::advise(a, cw::ReuseBudget::kTens);
  return ms_between(t0, Clock::now());
}

PreprocessTimes replay_preprocess(const Csr& a, const cw::PipelineOptions& opt,
                                  cw::PermutationMode mode, SpanLog* spans) {
  const bool symmetric = mode == cw::PermutationMode::kSymmetric;
  PreprocessTimes t;
  t.csr_bytes = a.memory_bytes();
  t.rows = a.nrows();

  Csr ar;
  auto t0 = Clock::now();
  {
    ScopedSpan s(spans, "cw::reorder");
    if (symmetric && opt.reorder != cw::ReorderAlgo::kOriginal)
      ar = a.permute_symmetric(cw::reorder(a, opt.reorder, opt.reorder_opt));
    else
      ar = a;
  }
  t.reorder_ms = ms_between(t0, Clock::now());

  cw::Clustering clustering;
  t0 = Clock::now();
  switch (opt.scheme) {
    case cw::ClusterScheme::kNone:
      clustering = cw::Clustering::singletons(ar.nrows());
      break;
    case cw::ClusterScheme::kFixed: {
      ScopedSpan s(spans, "cw::fixed_length_clustering");
      const index_t k = opt.fixed_length > 0 ? opt.fixed_length
                                             : cw::choose_fixed_length(ar);
      clustering = cw::fixed_length_clustering(ar.nrows(), k);
      break;
    }
    case cw::ClusterScheme::kVariable: {
      ScopedSpan s(spans, "cw::variable_length_clustering");
      clustering = cw::variable_length_clustering(ar, opt.variable_opt);
      break;
    }
    case cw::ClusterScheme::kHierarchical: {
      ScopedSpan s(spans, "cw::hierarchical_clustering");
      cw::HierarchicalResult h =
          cw::hierarchical_clustering(ar, opt.hierarchical_opt);
      ar = symmetric ? ar.permute_symmetric(h.order) : ar.permute_rows(h.order);
      clustering = std::move(h.clustering);
      break;
    }
  }
  t.cluster_ms = ms_between(t0, Clock::now());
  t.clusters = clustering.num_clusters();

  t.clustered_bytes = t.csr_bytes;
  if (opt.scheme != cw::ClusterScheme::kNone) {
    t0 = Clock::now();
    ScopedSpan s(spans, "cw::CsrCluster::build");
    t.clustered_bytes = cw::CsrCluster::build(ar, clustering).memory_bytes();
    t.format_ms = ms_between(t0, Clock::now());
  }
  return t;
}

void set_preprocess_metrics(Report& report, const std::string& tag,
                            const PreprocessTimes& t) {
  report.set("core.advise_ms." + tag, t.advise_ms);
  report.set("reorder.ms." + tag, t.reorder_ms);
  report.set("core.cluster_ms." + tag, t.cluster_ms);
  report.set("matrix.format_ms." + tag, t.format_ms);
  report.set("matrix.bytes_ratio." + tag,
             static_cast<double>(t.clustered_bytes) /
                 static_cast<double>(t.csr_bytes));
  report.set("core.rows_per_cluster." + tag, t.rows / t.clusters);
}

KernelTimes& KernelTimes::operator+=(const KernelTimes& o) {
  op_ms += o.op_ms;
  one_thread_ms += o.one_thread_ms;
  rowwise_ms += o.rowwise_ms;
  symbolic_ms += o.symbolic_ms;
  numeric_ms += o.numeric_ms;
  products += o.products;
  b_row_fetches += o.b_row_fetches;
  bytes_moved += o.bytes_moved;
  threads = o.threads;
  return *this;
}

KernelTimes replay_kernel(const cw::Pipeline& p, const Csr* b,
                          const Csr& rowwise_a, int threads, int reps,
                          SpanLog* spans) {
  KernelTimes t;
  t.threads = threads;
  // The B operand as the kernel sees it: symmetric pipelines permute B's
  // rows to match A's relabelled columns.
  Csr b_perm;
  const Csr* bk = &p.matrix();
  if (b != nullptr) {
    bk = b;
    if (p.mode() == cw::PermutationMode::kSymmetric) {
      b_perm = b->permute_rows(p.order());
      bk = &b_perm;
    }
  }
  const std::string op_name =
      b != nullptr ? "cw::Pipeline::multiply" : "cw::Pipeline::multiply_square";

  Csr product;
  std::vector<double> sym, num;
  auto op = [&] {
    ScopedSpan s(spans, op_name);
    cw::SpgemmStats st;
    product = b != nullptr ? p.multiply(*b, &st) : p.multiply_square(&st);
    sym.push_back(st.symbolic_seconds * 1e3);
    num.push_back(st.numeric_seconds * 1e3);
  };
  t.op_ms = with_threads(threads, [&] { return median_ms(reps, op); });
  t.symbolic_ms = median(sym);
  t.numeric_ms = median(num);
  t.one_thread_ms = with_threads(1, [&] { return median_ms(reps, op); });
  const Csr& rowwise_b = b != nullptr ? *b : rowwise_a;
  t.rowwise_ms = with_threads(threads, [&] {
    return median_ms(reps, [&] {
      ScopedSpan s(spans, "cw::spgemm(row-wise)");
      (void)cw::spgemm(rowwise_a, rowwise_b);
    });
  });

  t.products = static_cast<double>(cw::spgemm_products(p.matrix(), *bk));
  // B traffic: one fetch per distinct column of each cluster (CsrCluster
  // col_idx), or per nonzero of A for the row-wise kernel. Each fetch reads
  // the row's two offsets and its (index, value) pairs.
  const auto& rp = bk->row_ptr();
  double fetch_bytes = 0;
  auto fetch = [&](index_t j) {
    const auto row_nnz = static_cast<double>(rp[j + 1] - rp[j]);
    fetch_bytes += row_nnz * (sizeof(index_t) + sizeof(cw::value_t)) +
                   2 * sizeof(cw::offset_t);
  };
  double a_bytes = 0;
  if (p.clustered()) {
    const auto& cols = p.clustered()->col_idx();
    for (std::size_t k = 0; k < cols.size(); ++k) fetch(cols[k]);
    t.b_row_fetches = static_cast<double>(cols.size());
    a_bytes = static_cast<double>(p.clustered()->memory_bytes());
  } else {
    const auto& cols = p.matrix().col_idx();
    for (std::size_t k = 0; k < cols.size(); ++k) fetch(cols[k]);
    t.b_row_fetches = static_cast<double>(cols.size());
    a_bytes = static_cast<double>(p.matrix().memory_bytes());
  }
  t.bytes_moved =
      a_bytes + fetch_bytes + static_cast<double>(product.memory_bytes());
  return t;
}

void set_kernel_metrics(Report& report, const std::string& tag,
                        const KernelTimes& t) {
  report.set("spgemm.symbolic_ms." + tag, t.symbolic_ms);
  report.set("spgemm.numeric_ms." + tag, t.numeric_ms);
  report.set("spgemm.products." + tag, t.products);
  report.set("spgemm.products_per_s." + tag, t.products / (t.op_ms / 1e3));
  report.set("spgemm.b_row_fetches." + tag, t.b_row_fetches);
  report.set("spgemm.bytes_moved_computed." + tag, t.bytes_moved);
  report.set("spgemm.speedup_vs_rowwise." + tag, t.rowwise_ms / t.op_ms);
  report.set("spgemm.parallel_efficiency." + tag,
             t.one_thread_ms / (t.threads * t.op_ms));
}

}  // namespace perfbench
