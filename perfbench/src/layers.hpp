// Layer replays for the traced run: preprocessing step by step (advise,
// reorder, clustering, CsrCluster::build) and the kernel of one op timed
// against its one-thread and row-wise runs, each call wrapped in a span.
#pragma once

#include <string>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "core/advisor.hpp"
#include "core/pipeline.hpp"

namespace perfbench {

/// Note a matrix's size against the caches: n, nnz, CSR bytes, and those
/// bytes over one core's L2 and over the shared LLC.
void note_matrix(const std::string& tag, const Csr& a,
                 const cw::Recommendation& rec);

/// Run `fn` with the calling thread's kernels capped at `threads`.
template <typename Fn>
auto with_threads(int threads, Fn&& fn) {
  struct Restore {
    int n;
    ~Restore() { cw::set_num_threads(n); }
  } restore{cw::num_threads()};
  cw::set_num_threads(threads);
  return fn();
}

struct PreprocessTimes {
  double advise_ms = 0;
  double reorder_ms = 0;
  double cluster_ms = 0;
  double format_ms = 0;
  std::size_t csr_bytes = 0;
  std::size_t clustered_bytes = 0;  // the CSR bytes for a row-wise scheme
  double rows = 0;
  double clusters = 0;
  PreprocessTimes& operator+=(const PreprocessTimes& o);
};

/// Milliseconds of one advise(a, ReuseBudget::kTens) call.
double time_advise(const Csr& a, SpanLog* spans);

/// Replay Pipeline's preprocessing of `a` under `opt` one public call at a
/// time (advise_ms is left to the caller). Rows-only mode never reorders
/// columns, as for a shard's row block.
PreprocessTimes replay_preprocess(const Csr& a, const cw::PipelineOptions& opt,
                                  cw::PermutationMode mode, SpanLog* spans);

void set_preprocess_metrics(Report& report, const std::string& tag,
                            const PreprocessTimes& t);

struct KernelTimes {
  double op_ms = 0;          // the op with the workload's kernel threads
  double one_thread_ms = 0;  // the same op on one thread
  double rowwise_ms = 0;     // row-wise SpGEMM of the unprepared operands
  double symbolic_ms = 0;
  double numeric_ms = 0;
  double products = 0;
  double b_row_fetches = 0;
  double bytes_moved = 0;
  int threads = 1;
  KernelTimes& operator+=(const KernelTimes& o);
};

/// Replay the kernel of one op: `p.multiply(*b)`, or `p.multiply_square()`
/// when b is null, `reps` times at `threads` and at one thread, and the
/// row-wise kernel on `rowwise_a` × (b, or rowwise_a). Counts come from
/// the prepared arrays, so they repeat exactly.
KernelTimes replay_kernel(const cw::Pipeline& p, const Csr* b,
                          const Csr& rowwise_a, int threads, int reps,
                          SpanLog* spans);

void set_kernel_metrics(Report& report, const std::string& tag,
                        const KernelTimes& t);

}  // namespace perfbench
