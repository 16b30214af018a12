#ifndef PERFBENCH_PROFILE_H_
#define PERFBENCH_PROFILE_H_

/**
 * @file
 * Per-layer measurement of a traced run: one direct engine call with
 * its bind / plan / per-group child spans (from RunStats), the
 * aggregation of those spans by op kind, and timed direct calls to the
 * GEMM, Conv and Softmax kernels on operand shapes taken from the
 * workload's models.
 */

#include <map>
#include <vector>

#include "bench.h"
#include "core/sod2_engine.h"
#include "models/model_zoo.h"

namespace perfbench {

/** Per-layer breakdown accumulated over traced direct runs. */
class GroupProfile
{
  public:
    /**
     * Runs @p inputs on @p engine in @p ctx as one traced request:
     * a "bind" span around signatureFor, a "run" span around run(),
     * and "plan" plus one span per executed fusion group under it,
     * laid back to back in plan order (RunStats gives durations, not
     * start times). Throws what run() throws.
     *
     * @return run() wall seconds (the "run" span)
     */
    double run(const sod2::Sod2Engine& engine, sod2::RunContext& ctx,
               const std::vector<sod2::Tensor>& inputs, uint64_t request,
               SpanLog& spans, sod2::RunStats* stats,
               std::vector<sod2::Tensor>* outputs = nullptr);

    size_t requests() const { return requests_; }

    /** kernels.*, fusion.*, core.bind_us / plan_us / plan_miss_us /
     *  executed_groups_per_req, runtime.unattributed_ms_per_req,
     *  memory.peak_arena_mb / peak_dynamic_mb. */
    void exportTo(MetricValues* out) const;

  private:
    /** Op kind of each fusion group of @p engine (cached). */
    const std::vector<int>& kinds(const sod2::Sod2Engine& engine);

    std::map<const sod2::Sod2Engine*, std::vector<int>> kinds_;
    std::vector<double> kind_seconds_ = std::vector<double>(7, 0.0);
    double wall_seconds_ = 0.0;
    double bind_seconds_ = 0.0;
    double plan_seconds_ = 0.0;
    double miss_plan_seconds_ = 0.0;
    double unattributed_seconds_ = 0.0;
    size_t misses_ = 0;
    size_t requests_ = 0;
    double groups_ = 0.0;
    size_t peak_arena_ = 0;
    size_t peak_dynamic_ = 0;
};

/** One model and the inputs whose kernel shapes the probes use. */
struct ProbeTarget
{
    const sod2::ModelSpec* spec = nullptr;
    const sod2::Sod2Engine* engine = nullptr;
    std::vector<const std::vector<sod2::Tensor>*> inputs;
};

/**
 * Times gemmF32, conv2d and softmax on the heaviest operand shapes the
 * RDP analysis resolves in @p targets, for about @p seconds in total,
 * and reports kernels.gemm.gflops, kernels.conv.gflops and
 * kernels.softmax.gbps (0 when the models have no such op). FLOPs come
 * from matmulFlops / convFlops; softmax bytes are one read and one
 * write of the tensor.
 */
void probeKernels(const std::vector<ProbeTarget>& targets, double seconds,
                  MetricValues* out);

/** Adds core.plan_cache_{hits,lookups,hit_ratio,evictions} for the
 *  counter deltas @p after - @p before, summed over engines. */
void exportPlanCache(const std::vector<sod2::PlanCache::Counters>& before,
                     const std::vector<sod2::PlanCache::Counters>& after,
                     MetricValues* out, std::vector<std::string>* notes);

/** Snapshot of each engine's plan-cache counters (zeros when the
 *  cache is disabled). */
std::vector<sod2::PlanCache::Counters>
planCounters(const std::vector<const sod2::Sod2Engine*>& engines);

}  // namespace perfbench

#endif  // PERFBENCH_PROFILE_H_
