#include "profile.h"

#include <algorithm>
#include <functional>
#include <map>
#include <string>

#include "kernels/conv.h"
#include "kernels/gemm.h"
#include "kernels/reduce.h"
#include "rdp/rdp_analysis.h"

using namespace sod2;

namespace perfbench {

namespace {

/** Op kinds of the breakdown, indexing kKindMetric. */
enum Kind { kConv, kMatMul, kSoftmax, kLayerNorm, kTranspose, kOther, kFused };
const char* const kKindMetric[] = {
    "kernels.conv",      "kernels.matmul",    "kernels.softmax",
    "kernels.layernorm", "kernels.transpose", "kernels.other",
    "fusion.fused_elementwise"};

/** Kind of one group, keyed by its head op: Conv and MatMul groups
 *  include their fused epilogues; elementwise chains are their own
 *  kind whatever op heads them. */
int
groupKind(const Graph& g, const FusionGroup& grp)
{
    if (grp.kind == GroupKind::kElementwiseChain)
        return kFused;
    const std::string& op = g.node(grp.nodes.front()).op;
    if (op == "Conv")
        return kConv;
    if (op == "MatMul")
        return kMatMul;
    if (op == "Softmax")
        return kSoftmax;
    if (op == "LayerNormalization")
        return kLayerNorm;
    if (op == "Transpose")
        return kTranspose;
    return kOther;
}

std::vector<Shape>
inputShapes(const std::vector<Tensor>& inputs)
{
    std::vector<Shape> shapes;
    for (const Tensor& t : inputs)
        shapes.push_back(t.shape());
    return shapes;
}

}  // namespace

const std::vector<int>&
GroupProfile::kinds(const Sod2Engine& engine)
{
    auto it = kinds_.find(&engine);
    if (it != kinds_.end())
        return it->second;
    std::vector<int> k;
    for (const FusionGroup& grp : engine.fusionPlan().groups)
        k.push_back(groupKind(*engine.graph(), grp));
    return kinds_[&engine] = std::move(k);
}

double
GroupProfile::run(const Sod2Engine& engine, RunContext& ctx,
                  const std::vector<Tensor>& inputs, uint64_t request,
                  SpanLog& spans, RunStats* stats,
                  std::vector<Tensor>* outputs)
{
    double t0 = now();
    engine.signatureFor(inputs);
    double t1 = now();
    std::vector<Tensor> outs = engine.run(ctx, inputs, stats);
    double t2 = now();
    if (outputs)
        *outputs = std::move(outs);

    double wall = t2 - t1;
    uint64_t root = spans.add("request", request, 0, t0, t2);
    spans.add("bind", request, root, t0, t1);
    uint64_t run_span = spans.add("run", request, root, t1, t2);
    double cursor = t1 + stats->planSeconds;
    spans.add("plan", request, run_span, t1, cursor);

    const std::vector<int>& kind = kinds(engine);
    const std::vector<FusionGroup>& groups = engine.fusionPlan().groups;
    double group_sum = 0.0;
    for (int gi : engine.executionPlan().order) {
        if (gi < 0 || static_cast<size_t>(gi) >= stats->groupSeconds.size())
            continue;
        double s = stats->groupSeconds[gi];
        if (s <= 0.0)
            continue;
        kind_seconds_[kind[gi]] += s;
        group_sum += s;
        const std::string& head = engine.graph()->node(groups[gi].nodes[0]).op;
        spans.add(kind[gi] == kFused ? "FusedElementwise" : head, request,
                  run_span, cursor, cursor + s);
        cursor += s;
    }

    ++requests_;
    wall_seconds_ += wall;
    bind_seconds_ += t1 - t0;
    plan_seconds_ += stats->planSeconds;
    if (!stats->planCacheHit) {
        ++misses_;
        miss_plan_seconds_ += stats->planSeconds;
    }
    unattributed_seconds_ += wall - stats->planSeconds - group_sum;
    groups_ += stats->executedGroups;
    peak_arena_ = std::max(peak_arena_, stats->arenaBytes);
    peak_dynamic_ = std::max(peak_dynamic_, stats->dynamicBytes);
    return wall;
}

void
GroupProfile::exportTo(MetricValues* out) const
{
    double n = requests_ ? static_cast<double>(requests_) : 1.0;
    for (int k = 0; k <= kFused; ++k) {
        std::string base = kKindMetric[k];
        (*out)[base + ".ms_per_req"] = kind_seconds_[k] / n * 1e3;
        (*out)[base + ".share"] =
            wall_seconds_ > 0 ? kind_seconds_[k] / wall_seconds_ : 0.0;
    }
    (*out)["core.bind_us"] = bind_seconds_ / n * 1e6;
    (*out)["core.plan_us"] = plan_seconds_ / n * 1e6;
    (*out)["core.plan_miss_us"] =
        misses_ ? miss_plan_seconds_ / static_cast<double>(misses_) * 1e6
                : 0.0;
    (*out)["core.executed_groups_per_req"] = groups_ / n;
    (*out)["runtime.unattributed_ms_per_req"] =
        unattributed_seconds_ / n * 1e3;
    (*out)["memory.peak_arena_mb"] = static_cast<double>(peak_arena_) / 1e6;
    (*out)["memory.peak_dynamic_mb"] =
        static_cast<double>(peak_dynamic_) / 1e6;
}

std::vector<PlanCache::Counters>
planCounters(const std::vector<const Sod2Engine*>& engines)
{
    std::vector<PlanCache::Counters> c;
    for (const Sod2Engine* e : engines)
        c.push_back(e->planCache() ? e->planCache()->counters()
                                   : PlanCache::Counters{});
    return c;
}

void
exportPlanCache(const std::vector<PlanCache::Counters>& before,
                const std::vector<PlanCache::Counters>& after,
                MetricValues* out, std::vector<std::string>* notes)
{
    double hits = 0, lookups = 0, evictions = 0;
    for (size_t i = 0; i < after.size() && i < before.size(); ++i) {
        const PlanCache::Counters& a = after[i];
        const PlanCache::Counters& b = before[i];
        hits += static_cast<double>(a.hits - b.hits);
        lookups += static_cast<double>((a.hits + a.misses + a.coalesced) -
                                       (b.hits + b.misses + b.coalesced));
        evictions += static_cast<double>(a.evictions - b.evictions);
    }
    Ratio hit_ratio{hits, lookups};
    (*out)["core.plan_cache_hits"] = hits;
    (*out)["core.plan_cache_lookups"] = lookups;
    (*out)["core.plan_cache_hit_ratio"] = hit_ratio.value();
    (*out)["core.plan_cache_evictions"] = evictions;
    notes->push_back("plan cache hit ratio " + hit_ratio.str() +
                     ", evictions " + std::to_string(int64_t(evictions)));
}

namespace {

/** One kernel call the probes time. */
struct ProbeCall
{
    std::string op;
    std::vector<Shape> ins;
    Shape out;
    int64_t stride = 1, pad = 0, group = 1, axis = -1;
    double work = 0.0;  ///< FLOPs (GEMM, Conv) or bytes (Softmax)
    int uses = 0;
};

/** The Conv / MatMul / Softmax calls of @p t whose operand shapes RDP
 *  resolves under each probe input's bindings, merged by shape. */
void
collectCalls(const ProbeTarget& t, std::map<std::string, ProbeCall>* calls)
{
    const Graph& g = *t.spec->graph;
    const RdpResult& rdp = t.engine->rdp();
    for (const std::vector<Tensor>* in : t.inputs) {
        std::map<std::string, int64_t> bindings =
            bindInputSymbols(g, t.spec->rdp, inputShapes(*in));
        for (NodeId n = 0; n < g.numNodes(); ++n) {
            const Node& node = g.node(n);
            if (node.op != "Conv" && node.op != "MatMul" &&
                node.op != "Softmax")
                continue;
            ProbeCall c;
            c.op = node.op;
            bool resolved = true;
            std::string key = node.op;
            for (ValueId v : node.inputs) {
                auto dims = rdp.shapeOf(v).evaluate(bindings);
                if (!dims) {
                    resolved = false;
                    break;
                }
                c.ins.emplace_back(*dims);
                key += c.ins.back().toString();
            }
            auto out = rdp.shapeOf(node.outputs[0]).evaluate(bindings);
            size_t operands = c.op == "Softmax" ? 1 : 2;
            if (!resolved || !out || c.ins.size() < operands)
                continue;
            c.out = Shape(*out);
            c.stride = node.attrs.getInt("stride", 1);
            c.pad = node.attrs.getInt("pad", 0);
            c.group = node.attrs.getInt("group", 1);
            c.axis = node.attrs.getInt("axis", -1);
            key += "/" + std::to_string(c.stride) + "/" +
                   std::to_string(c.pad) + "/" + std::to_string(c.group) +
                   "/" + std::to_string(c.axis);
            if (c.op == "MatMul")
                c.work = matmulFlops(c.ins[0], c.ins[1]);
            else if (c.op == "Conv")
                c.work = convFlops(c.ins[0], c.ins[1], c.out, c.group);
            else
                c.work = 2.0 * 4.0 * static_cast<double>(c.out.numElements());
            ProbeCall& slot = (*calls)[key];
            if (slot.uses == 0)
                slot = c;
            ++slot.uses;
        }
    }
}

/** Product of @p s's dims before the last two (matmul batch). */
int64_t
batchOf(const Shape& s)
{
    int64_t b = 1;
    for (int i = 0; i + 2 < s.rank(); ++i)
        b *= s.dim(i);
    return b;
}

/** Mean seconds of one call of @p c, timed over repeated calls for at
 *  least @p budget seconds (and at least two calls). Returns 0 for a
 *  call the probe cannot replay (a broadcast batch it does not tile). */
double
timeCall(const ProbeCall& c, double budget)
{
    Rng rng(7);
    std::function<void()> fn;
    std::vector<float> a, b, out_buf;
    Tensor x, w, out;
    if (c.op == "MatMul") {
        int64_t m = c.ins[0].dimAt(-2), k = c.ins[0].dimAt(-1);
        int64_t n = c.ins[1].dimAt(-1);
        int64_t ab = batchOf(c.ins[0]), bb = batchOf(c.ins[1]);
        int64_t batches = std::max(ab, bb);
        if ((ab != 1 && ab != batches) || (bb != 1 && bb != batches))
            return 0.0;
        a.resize(ab * m * k);
        b.resize(bb * k * n);
        out_buf.resize(batches * m * n);
        for (float& v : a)
            v = rng.uniformFloat(-1, 1);
        for (float& v : b)
            v = rng.uniformFloat(-1, 1);
        fn = [&, m, n, k, ab, bb, batches] {
            for (int64_t i = 0; i < batches; ++i)
                gemmF32(a.data() + (ab == 1 ? 0 : i * m * k),
                        b.data() + (bb == 1 ? 0 : i * k * n),
                        out_buf.data() + i * m * n, m, n, k, GemmVariant{});
        };
    } else if (c.op == "Conv") {
        x = Tensor::randomUniform(c.ins[0], rng);
        w = Tensor::randomUniform(c.ins[1], rng);
        out = Tensor(DType::kFloat32, c.out);
        fn = [&] {
            conv2d(x, w, nullptr, &out, c.stride, c.pad, c.group,
                   ConvVariant{});
        };
    } else {
        x = Tensor::randomUniform(c.ins[0], rng);
        out = Tensor(DType::kFloat32, c.out);
        fn = [&] { softmax(x, static_cast<int>(c.axis), &out); };
    }
    fn();  // first touch of the buffers
    int calls = 0;
    double t0 = now();
    double elapsed = 0.0;
    do {
        fn();
        ++calls;
        elapsed = now() - t0;
    } while (elapsed < budget || calls < 2);
    return elapsed / calls;
}

}  // namespace

void
probeKernels(const std::vector<ProbeTarget>& targets, double seconds,
             MetricValues* out)
{
    std::map<std::string, ProbeCall> calls;
    for (const ProbeTarget& t : targets)
        collectCalls(t, &calls);

    constexpr size_t kShapesPerOp = 6;
    const char* const ops[] = {"MatMul", "Conv", "Softmax"};
    const char* const names[] = {"kernels.gemm.gflops", "kernels.conv.gflops",
                                 "kernels.softmax.gbps"};
    for (int i = 0; i < 3; ++i) {
        std::vector<const ProbeCall*> pick;
        for (const auto& [key, c] : calls)
            if (c.op == ops[i])
                pick.push_back(&c);
        // The heaviest shapes by total work in the workload's models.
        std::sort(pick.begin(), pick.end(),
                  [](const ProbeCall* l, const ProbeCall* r) {
                      return l->work * l->uses > r->work * r->uses;
                  });
        if (pick.size() > kShapesPerOp)
            pick.resize(kShapesPerOp);
        double work = 0.0, time = 0.0;
        for (const ProbeCall* c : pick) {
            double per_call =
                timeCall(*c, seconds / 3.0 / static_cast<double>(pick.size()));
            if (per_call <= 0.0)
                continue;
            work += c->work * c->uses;
            time += per_call * c->uses;
        }
        (*out)[names[i]] = time > 0.0 ? work / time / 1e9 : 0.0;
    }
}

}  // namespace perfbench
