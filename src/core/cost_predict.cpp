/**
 * @file
 * Static latency prediction for the portability bench.
 *
 * CostMeter::predictRunMicros is declared in kernels/device_profile.h
 * but defined here: prediction walks the engine's RDP result and
 * execution plan, and kernels/ must not depend on core/. Its caller is
 * the CPU/GPU crossover table of bench/fig13_portability.
 */

#include "core/sod2_engine.h"

#include "graph/graph.h"
#include "kernels/device_profile.h"
#include "runtime/op_executor.h"
#include "symbolic/shape_info.h"

namespace sod2 {

double
Sod2Engine::estimateRunSeconds(const std::vector<int64_t>& values,
                               CostMeter* meter) const
{
    const std::map<std::string, int64_t> bindings =
        binder_->toBindingMap(values);

    // Charge every node of every live compile-time group whose shapes
    // RDP can evaluate under this binding. This deliberately mirrors
    // what the real executors charge (interpreter: per node;
    // fused executor: per group anchor + epilogue terms) closely
    // enough to rank devices: the per-node launch overhead is an
    // overestimate relative to fused execution, but the bias is
    // common-mode across engines compiled from the same graph.
    for (int gi : plan_.order) {
        if (gi >= 0 && static_cast<size_t>(gi) < group_folded_.size() &&
            group_folded_[gi])
            continue;
        for (NodeId nid : fusion_.groups[gi].nodes) {
            const Node& node = graph_->node(nid);
            // Control flow moves no data and launches no kernel.
            if (node.op == kSwitchOp || node.op == kCombineOp)
                continue;
            auto shapesFor =
                [&](const std::vector<ValueId>& ids,
                    std::vector<Shape>* out) -> bool {
                out->reserve(ids.size());
                for (ValueId v : ids) {
                    if (v < 0)
                        return false;
                    const ShapeInfo& si = rdp_->shapeOf(v);
                    if (!si.isRanked())
                        return false;
                    auto dims = si.evaluate(bindings);
                    if (!dims)
                        return false;
                    out->emplace_back(*dims);
                }
                return true;
            };
            std::vector<Shape> ins, outs;
            // Data-dependent (EDO/nac) shapes stay unpriced — the
            // estimate is a lower bound.
            if (!shapesFor(node.inputs, &ins) ||
                !shapesFor(node.outputs, &outs))
                continue;
            auto [flops, bytes] = nodeCost(node, ins, outs);
            meter->chargeKernel(flops, bytes);
        }
    }
    return meter->seconds();
}

double
CostMeter::predictRunMicros(const Sod2Engine& engine,
                            const std::vector<int64_t>& values)
{
    CostMeter meter(engine.options().device);
    return engine.estimateRunSeconds(values, &meter) * 1e6;
}

}  // namespace sod2
