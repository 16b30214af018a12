#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

/**
 * @file
 * Types shared by the three workloads and the driver (main.cpp).
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "tensor/tensor.h"

namespace perfbench {

/** Command line of one run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where a traced run writes its spans (Chrome trace JSON). */
    std::string traceOut;
};

/** Metric name -> measured value. */
using MetricValues = std::map<std::string, double>;

/** Everything one workload run measured. */
struct Report
{
    /** End-to-end metrics of the untraced measured phase. */
    MetricValues e2e;
    /** Per-layer metrics of the traced run (traced runs only). */
    MetricValues layer;
    /** Requests sent in the reported phase(s) / not kOk. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** False on any correctness mismatch or broken accounting. */
    bool correct = true;
    /** Threads the workload keeps busy (client or server workers plus
     *  kernel-pool helpers); recorded against nproc. */
    int busyThreads = 0;
    int serverWorkers = 0;
    /** Human-readable lines printed before the result. */
    std::vector<std::string> notes;
};

Report runZooDirect(const Args& args, SpanLog& spans);
Report runZooServed(const Args& args, SpanLog& spans);
Report runSmallBurst(const Args& args, SpanLog& spans);

/**
 * Adds latency_p50_ms, latency_tail_ms, slo_met_ratio and ok_ratio for
 * one measured phase, with notes naming the tail percentile, its
 * sample count and each ratio's base. Percentiles are over the kOk
 * requests; @p latency is index-aligned with @p outcomes.
 */
Slo exportLatency(const std::vector<Outcome>& outcomes,
                  const std::vector<double>& latency, double slo_seconds,
                  MetricValues* out, std::vector<std::string>* notes);

/** Owning copies of @p tensors (engine outputs alias the arena). */
std::vector<sod2::Tensor> cloneAll(const std::vector<sod2::Tensor>& tensors);

/** Same count, dtypes, shapes and bytes. */
bool sameBytes(const std::vector<sod2::Tensor>& got,
               const std::vector<sod2::Tensor>& want);

/** Same count and shapes; float tensors within
 *  Tensor::allClose(1e-3, 1e-3), others byte-equal. */
bool closeTo(const std::vector<sod2::Tensor>& got,
             const std::vector<sod2::Tensor>& want);

/** Seed of the zoo models' weights: the weights are part of the
 *  program under test, not of the workload, so they do not follow the
 *  workload seed. Model m of allModelNames() uses kWeightSeed + m. */
constexpr uint64_t kWeightSeed = 0x50d2;

/** Set-ups per run; setup_s (and core.compile_s, models.build_s) is
 *  their median. */
constexpr int kSetupReps = 5;

/** Kernel-pool helper threads (the pool runs parallel loops on these
 *  plus the calling thread). */
int poolHelpers();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
