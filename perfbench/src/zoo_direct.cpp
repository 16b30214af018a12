/**
 * @file
 * zoo_direct: one client thread in a closed loop calling
 * Sod2Engine::run(ctx, ...) over an interleaved stream of all ten zoo
 * models, each with its own engine and RunContext. Each model gets
 * fixed hot sizes (a quarter, half and three quarters of its paper
 * §5.1 range), so after warm-up the plan cache hits (except where SDE
 * and SegmentAnything draw the length of their second input per
 * request) and the time is kernels and fusion. The seed draws the
 * input tensors and the order of the stream; the sizes are fixed so
 * that the size mix, and with it the latency distribution, is the same
 * for every seed.
 */

#include <algorithm>
#include <memory>
#include <map>
#include <numeric>
#include <set>

#include "bench.h"
#include "core/sod2_engine.h"
#include "models/model_zoo.h"
#include "profile.h"
#include "runtime/interpreter.h"
#include "support/logging.h"

using namespace sod2;

namespace perfbench {

namespace {

/** Distinct input sets per model (spread over its hot sizes); models
 *  with gated branches need several to sample their branch mix. */
constexpr size_t kInputsPerModel = 36;
/** Latency limit of one request (the slowest hot request takes about
 *  a third of it on a 4-core 2.1 GHz host). */
constexpr double kSloSeconds = 0.25;
/** Requests pre-generated; the closed loop wraps around if faster. */
constexpr size_t kStreamLength = 50000;

struct Request
{
    int model = 0;
    int input = 0;
};

/** Everything drawn from the seed, before any set-up is timed. */
struct Workload
{
    std::vector<std::string> names;
    /** [model][k] input sets and their primary size. */
    std::vector<std::vector<std::vector<Tensor>>> inputs;
    std::vector<std::vector<int64_t>> sizes;
    std::vector<Request> stream;
};

Workload
generate(uint64_t seed)
{
    Workload w;
    w.names = allModelNames();
    Rng rng(seed);
    for (size_t m = 0; m < w.names.size(); ++m) {
        Rng weights(kWeightSeed + m);
        ModelSpec spec = buildModel(w.names[m], weights);
        std::vector<int64_t> hot;
        for (int q = 1; q <= 3; ++q) {
            int64_t s = spec.legalizeSize(
                spec.minSize + (spec.maxSize - spec.minSize) * q / 4);
            if (std::find(hot.begin(), hot.end(), s) == hot.end())
                hot.push_back(s);
        }
        std::vector<std::vector<Tensor>> in;
        std::vector<int64_t> sz;
        for (size_t k = 0; k < kInputsPerModel; ++k) {
            int64_t s = hot[k % hot.size()];
            in.push_back(spec.sample(rng, s));
            sz.push_back(s);
        }
        w.inputs.push_back(std::move(in));
        w.sizes.push_back(std::move(sz));
    }

    // Rounds of a shuffled model order; each model walks its inputs
    // in shuffled cycles, so every model and input is equally often.
    std::vector<int> order(w.names.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<std::vector<int>> cycle(w.names.size());
    std::vector<size_t> pos(w.names.size(), kInputsPerModel);
    auto shuffle = [&](std::vector<int>& v) {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[rng.uniformInt(0, int64_t(i) - 1)]);
    };
    while (w.stream.size() < kStreamLength) {
        shuffle(order);
        for (int m : order) {
            if (pos[m] == kInputsPerModel) {
                cycle[m].resize(kInputsPerModel);
                std::iota(cycle[m].begin(), cycle[m].end(), 0);
                shuffle(cycle[m]);
                pos[m] = 0;
            }
            w.stream.push_back({m, cycle[m][pos[m]++]});
        }
    }
    return w;
}

/** Compiled models, engines and contexts of one set-up. */
struct Setup
{
    std::vector<ModelSpec> specs;
    std::vector<std::unique_ptr<Sod2Engine>> engines;
    std::vector<std::unique_ptr<RunContext>> contexts;
    double buildSeconds = 0.0;
    double compileSeconds = 0.0;
    double seconds = 0.0;
};

/** Graph build, compile, and one warm-up run per hot size per context. */
std::unique_ptr<Setup>
setUp(const Workload& w, SpanLog& spans)
{
    auto s = std::make_unique<Setup>();
    double t0 = now();
    for (size_t m = 0; m < w.names.size(); ++m) {
        double b0 = now();
        Rng weights(kWeightSeed + m);
        s->specs.push_back(buildModel(w.names[m], weights));
        double b1 = now();
        Sod2Options opts;
        opts.rdp = s->specs.back().rdp;
        s->engines.push_back(
            std::make_unique<Sod2Engine>(s->specs.back().graph.get(), opts));
        double b2 = now();
        s->contexts.push_back(std::make_unique<RunContext>());
        s->buildSeconds += b1 - b0;
        s->compileSeconds += b2 - b1;
        spans.add("buildModel " + w.names[m], 0, 0, b0, b1);
        spans.add("compile " + w.names[m], 0, 0, b1, b2);
    }
    for (size_t m = 0; m < w.names.size(); ++m) {
        std::vector<int64_t> warmed;
        for (size_t k = 0; k < w.inputs[m].size(); ++k) {
            if (std::find(warmed.begin(), warmed.end(), w.sizes[m][k]) !=
                warmed.end())
                continue;
            warmed.push_back(w.sizes[m][k]);
            double a = now();
            s->engines[m]->run(*s->contexts[m], w.inputs[m][k]);
            spans.add("warmup " + w.names[m], 0, 0, a, now());
        }
    }
    s->seconds = now() - t0;
    return s;
}

/** One measured closed-loop phase. */
struct Phase
{
    std::vector<Request> sent;
    std::vector<double> latency;
    std::vector<bool> threw;
    /** Loop time minus the untimed output snapshots. */
    double seconds = 0.0;
    size_t peakMemory = 0;
};

/**
 * Runs the stream from @p cursor for @p seconds. The first output of
 * every distinct input is copied into @p first (outside the timed
 * interval) for the oracle. With @p profile set, each request runs as
 * a traced request (GroupProfile::run).
 */
Phase
measure(const Workload& w, Setup& s, size_t* cursor, double seconds,
        std::map<std::pair<int, int>, std::vector<Tensor>>* first,
        GroupProfile* profile, SpanLog& spans)
{
    Phase p;
    RunStats stats;
    std::vector<Tensor> outs;
    double untimed = 0.0;
    double start = now();
    while (now() - start < seconds) {
        Request r = w.stream[(*cursor)++ % w.stream.size()];
        const Sod2Engine& engine = *s.engines[r.model];
        RunContext& ctx = *s.contexts[r.model];
        const std::vector<Tensor>& in = w.inputs[r.model][r.input];
        bool threw = false;
        double lat = 0.0;
        try {
            if (profile) {
                lat = profile->run(engine, ctx, in, p.sent.size() + 1, spans,
                                   &stats, &outs);
            } else {
                double t0 = now();
                outs = engine.run(ctx, in, &stats);
                lat = now() - t0;
            }
        } catch (const Error&) {
            threw = true;
        }
        p.sent.push_back(r);
        p.latency.push_back(lat);
        p.threw.push_back(threw);
        if (threw)
            continue;
        p.peakMemory = std::max(p.peakMemory, stats.peakMemoryBytes);
        auto key = std::make_pair(r.model, r.input);
        if (!first->count(key)) {
            double u0 = now();
            (*first)[key] = cloneAll(outs);
            untimed += now() - u0;
        }
    }
    p.seconds = now() - start - untimed;
    return p;
}

/** Checks every snapshot against the reference interpreter; returns
 *  the distinct inputs that failed. */
std::set<std::pair<int, int>>
checkOracle(const Workload& w, const Setup& s,
            const std::map<std::pair<int, int>, std::vector<Tensor>>& first)
{
    std::set<std::pair<int, int>> bad;
    for (const auto& [key, got] : first) {
        Interpreter ref(s.specs[key.first].graph.get(), {});
        if (!closeTo(got, ref.run(w.inputs[key.first][key.second])))
            bad.insert(key);
    }
    return bad;
}

std::vector<Outcome>
outcomes(const Phase& p, const std::set<std::pair<int, int>>& bad)
{
    std::vector<Outcome> o;
    for (size_t i = 0; i < p.sent.size(); ++i) {
        if (p.threw[i])
            o.push_back(Outcome::kFailed);
        else if (bad.count({p.sent[i].model, p.sent[i].input}))
            o.push_back(Outcome::kMismatch);
        else
            o.push_back(Outcome::kOk);
    }
    return o;
}

/** Per-model p50 (ms) over kOk requests, in model order. */
std::vector<double>
modelP50s(const Workload& w, const Phase& p, const std::vector<Outcome>& o)
{
    std::vector<std::vector<double>> per(w.names.size());
    for (size_t i = 0; i < p.sent.size(); ++i)
        if (o[i] == Outcome::kOk)
            per[p.sent[i].model].push_back(p.latency[i]);
    std::vector<double> p50;
    for (const auto& v : per)
        p50.push_back(percentile(v, 50) * 1e3);
    return p50;
}

}  // namespace

Report
runZooDirect(const Args& args, SpanLog& spans)
{
    Workload w = generate(args.seed);
    Report rep;
    rep.busyThreads = 1 + poolHelpers();

    std::vector<double> setups, builds, compiles;
    std::unique_ptr<Setup> s;
    for (int i = 0; i < kSetupReps; ++i) {
        s.reset();  // the previous set-up is torn down before timing
        s = setUp(w, spans);
        setups.push_back(s->seconds);
        builds.push_back(s->buildSeconds);
        compiles.push_back(s->compileSeconds);
    }

    std::map<std::pair<int, int>, std::vector<Tensor>> first;
    size_t cursor = 0;
    double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
    Phase plain = measure(w, *s, &cursor, untraced_seconds, &first, nullptr,
                          spans);

    std::vector<const Sod2Engine*> engines;
    for (const auto& e : s->engines)
        engines.push_back(e.get());
    GroupProfile profile;
    Phase traced;
    std::vector<PlanCache::Counters> before = planCounters(engines);
    if (args.trace)
        traced = measure(w, *s, &cursor, args.seconds / 2, &first, &profile,
                         spans);
    std::vector<PlanCache::Counters> after = planCounters(engines);

    std::set<std::pair<int, int>> bad = checkOracle(w, *s, first);
    rep.notes.push_back("correctness: each distinct input's first output "
                        "vs the reference Interpreter, allClose(1e-3, 1e-3); " +
                        std::to_string(first.size()) + " checked, " +
                        std::to_string(bad.size()) + " mismatched");
    rep.correct = bad.empty();

    std::vector<Outcome> o = outcomes(plain, bad);
    Slo slo = exportLatency(o, plain.latency, kSloSeconds, &rep.e2e,
                            &rep.notes);
    std::vector<double> p50 = modelP50s(w, plain, o);
    rep.e2e["setup_s"] = percentile(setups, 50);
    rep.e2e["model_p50_geomean_ms"] = geomean(p50);
    rep.e2e["throughput_rps"] = double(slo.ok) / plain.seconds;
    rep.e2e["peak_memory_mb"] = double(plain.peakMemory) / 1e6;
    rep.attempted = plain.sent.size();
    rep.failed = plain.sent.size() - slo.ok;

    if (args.trace) {
        std::vector<Outcome> ot = outcomes(traced, bad);
        Slo tslo = accountSlo(ot, traced.latency, kSloSeconds);
        rep.attempted += traced.sent.size();
        rep.failed += traced.sent.size() - tslo.ok;
        std::vector<double> tp50 = modelP50s(w, traced, ot);
        for (size_t m = 0; m < w.names.size(); ++m)
            rep.layer["models." + w.names[m] + ".p50_ms"] = tp50[m];
        profile.exportTo(&rep.layer);
        exportPlanCache(before, after, &rep.layer, &rep.notes);
        std::vector<double> tok;
        for (size_t i = 0; i < ot.size(); ++i)
            if (ot[i] == Outcome::kOk)
                tok.push_back(traced.latency[i]);
        rep.layer["trace.overhead_ratio"] =
            Ratio{percentile(tok, 50), rep.e2e["latency_p50_ms"] / 1e3}.value();
        rep.layer["loadgen.sent"] = double(traced.sent.size());
        rep.layer["core.compile_s"] = percentile(compiles, 50);
        rep.layer["models.build_s"] = percentile(builds, 50);
        size_t resident = 0;
        for (const auto& c : s->contexts)
            resident += c->arena().capacity();
        rep.layer["memory.resident_arena_mb"] = double(resident) / 1e6;

        std::vector<ProbeTarget> targets;
        for (size_t m = 0; m < w.names.size(); ++m) {
            ProbeTarget t{&s->specs[m], s->engines[m].get(), {}};
            std::vector<int64_t> seen;
            for (size_t k = 0; k < w.inputs[m].size(); ++k)
                if (std::find(seen.begin(), seen.end(), w.sizes[m][k]) ==
                    seen.end()) {
                    seen.push_back(w.sizes[m][k]);
                    t.inputs.push_back(&w.inputs[m][k]);
                }
            targets.push_back(std::move(t));
        }
        probeKernels(targets, 1.5, &rep.layer);
    }
    return rep;
}

}  // namespace perfbench
