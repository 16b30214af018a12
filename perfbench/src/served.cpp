/**
 * @file
 * The two open-loop workloads, both against one Sod2Server with two
 * workers and default options:
 *
 *  - zoo_served: Poisson arrivals at a fixed rate in front of CodeBERT,
 *    sequence lengths 32..384 in steps of 4 (89 signatures, more than
 *    the 16-entry plan cache, so the cache misses and evicts). Queue
 *    wait shows in the tail, so the serving layer and the MatMul /
 *    Softmax / LayerNorm kernels both show there. CodeBERT is not
 *    stackable: every batch takes the per-item path.
 *  - small_burst: bursts of requests on a fixed schedule to a tiny
 *    stackable CNN at a few small spatial sizes. Requests take well
 *    under a millisecond, so admission, queueing, batch stacking and
 *    slicing, bind and plan lookup and output copies dominate.
 *
 * Latency runs from each request's due time to its own completion,
 * taken by the server's completion hook, not to when the benchmark
 * reads the future.
 */

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "bench.h"
#include "core/sod2_engine.h"
#include "graph/builder.h"
#include "models/model_zoo.h"
#include "profile.h"
#include "serving/server.h"

using namespace sod2;
using serving::Request;
using serving::ServerOptions;
using serving::ServerStats;
using serving::Sod2Server;

namespace perfbench {

namespace {

constexpr int kServerWorkers = 2;
/** Replay of the traced phase's requests for the per-group breakdown
 *  (the server does not hand RunStats back): at most this many. */
constexpr size_t kReplayRequests = 200;
constexpr double kReplaySeconds = 3.0;

/** One request of a pre-generated schedule. */
struct Arrival
{
    double due = 0.0;  ///< seconds after the phase starts
    int input = 0;     ///< index into the workload's input pool
};

/** What distinguishes the two served workloads. */
struct ServedWorkload
{
    /** Builds the model (timed as part of set-up). */
    std::function<ModelSpec()> build;
    /** Distinct input sets; every request sends one of them. */
    std::vector<std::vector<Tensor>> pool;
    /** Pool indices sent once each during set-up. */
    std::vector<int> warm;
    /** Pool indices whose plans are instantiated, in this order, with
     *  Sod2Server::warmup during set-up. Under shape affinity this also
     *  pins each signature's worker, in first-seen rotation. */
    std::vector<int> pin;
    /** Arrivals of one phase of the given length. */
    std::function<std::vector<Arrival>(double seconds, Rng&)> schedule;
    double sloSeconds = 0.0;
};

/** Balanced draw of @p n pool indices: shuffled rounds of the whole
 *  pool, so every input is sent equally often whatever the seed. */
std::vector<int>
balancedPicks(size_t n, size_t pool, Rng& rng)
{
    std::vector<int> picks;
    std::vector<int> round(pool);
    while (picks.size() < n) {
        std::iota(round.begin(), round.end(), 0);
        for (size_t i = round.size(); i > 1; --i)
            std::swap(round[i - 1], round[rng.uniformInt(0, int64_t(i) - 1)]);
        for (int r : round)
            if (picks.size() < n)
                picks.push_back(r);
    }
    return picks;
}

// --- zoo_served -------------------------------------------------------

/** Arrival rate: about 25% utilisation of the two workers on a shared
 *  4-core host. At 30 req/s (about 45%) the tail moved by 58% between
 *  runs; at 15 req/s the idle workers made the p50 move by 27%. */
constexpr double kZooRate = 20.0;

ServedWorkload
zooServed(uint64_t seed)
{
    ServedWorkload w;
    std::vector<std::string> names = allModelNames();
    size_t index = std::find(names.begin(), names.end(), "CodeBERT") -
                   names.begin();
    w.build = [index] {
        Rng weights(kWeightSeed + index);
        return buildModel("CodeBERT", weights);
    };
    ModelSpec spec = w.build();
    Rng rng(seed);
    for (int64_t len = 32; len <= 384; len += 4)
        w.pool.push_back(spec.sample(rng, len));
    // Lengths in ascending order alternate between the two workers, so
    // both get the same share of long and short sequences whatever the
    // seed (left to first-seen order, one worker can draw more of the
    // long ones and the queueing would follow the seed).
    for (size_t i = 0; i < w.pool.size(); ++i)
        w.pin.push_back(static_cast<int>(i));
    for (size_t i = 0; i < w.pool.size(); i += 11)
        w.warm.push_back(static_cast<int>(i));
    w.schedule = [pool = w.pool.size()](double seconds, Rng& r) {
        // A Poisson process conditioned on its count: that many
        // arrival times, uniform over the window.
        size_t n = static_cast<size_t>(kZooRate * seconds + 0.5);
        std::vector<double> t;
        for (size_t i = 0; i < n; ++i)
            t.push_back(r.uniformFloat() * seconds);
        std::sort(t.begin(), t.end());
        std::vector<int> picks = balancedPicks(n, pool, r);
        std::vector<Arrival> a;
        for (size_t i = 0; i < n; ++i)
            a.push_back({t[i], picks[i]});
        return a;
    };
    w.sloSeconds = 0.5;
    return w;
}

// --- small_burst ------------------------------------------------------

/** Bursts of 8 every 10 ms keep the workers warm: with long idle gaps
 *  between bursts, wake-up latency of idle virtual CPUs dominated and
 *  the p50 moved by up to 19% between seeds. */
constexpr double kBurstPeriod = 0.01;
constexpr int kBurstSize = 8;
constexpr int kVariantsPerSize = 8;
/** Rows the server stacks into one run at most (ServerOptions default). */
constexpr int kMaxBatch = 8;

/** The stackable CNN of the serving batch tests: a symbolic leading
 *  batch dim the stackability proof accepts. */
ModelSpec
tinyCnn()
{
    ModelSpec m;
    m.name = "TinyCNN";
    m.graph = std::make_shared<Graph>();
    GraphBuilder b(m.graph.get());
    Rng rng(41);
    ValueId x = b.input("x");
    ValueId w1 = b.weight("w1", {8, 3, 3, 3}, rng);
    ValueId c1 = b.relu(b.conv2d(x, w1, -1, 2, 1));
    ValueId p1 = b.maxPool(c1, 2, 2);
    ValueId gap = b.globalAvgPool(p1);
    ValueId flat = b.reshape(gap, {0, -1});
    ValueId w2 = b.weight("w2", {8, 4}, rng);
    b.output(b.gelu(b.matmul(flat, w2)));
    m.rdp.inputShapes["x"] = ShapeInfo::ranked(
        {DimValue::symbol("n"), DimValue::known(3), DimValue::symbol("h"),
         DimValue::symbol("w")});
    return m;
}

ServedWorkload
smallBurst(uint64_t seed)
{
    ServedWorkload w;
    w.build = tinyCnn;
    Rng rng(seed);
    // Two sizes: with up to 8 stacked rows each, 16 signatures fill the
    // 16-entry plan cache exactly, so the run itself never misses.
    const std::vector<int64_t> sides = {16, 32};
    for (int64_t side : sides) {
        for (int v = 0; v < kVariantsPerSize; ++v)
            w.pool.push_back(
                {Tensor::randomUniform(Shape({1, 3, side, side}), rng)});
        // Warm every stacked signature a burst can form: 1..kMaxBatch
        // rows of this size.
        for (int64_t n = 1; n <= kMaxBatch; ++n) {
            w.warm.push_back(static_cast<int>(w.pool.size()));
            w.pool.push_back(
                {Tensor::randomUniform(Shape({n, 3, side, side}), rng)});
        }
    }
    w.schedule = [sides](double seconds, Rng& r) {
        // Every burst carries the same number of requests of each size
        // (in seeded order, with seeded variants), so bursts differ
        // only in order and content.
        size_t bursts = static_cast<size_t>(seconds / kBurstPeriod);
        size_t per_size = kBurstSize / sides.size();
        size_t stride = kVariantsPerSize + kMaxBatch;
        std::vector<Arrival> a;
        for (size_t b = 0; b < bursts; ++b) {
            std::vector<int> burst;
            for (size_t s = 0; s < sides.size(); ++s)
                for (size_t i = 0; i < per_size; ++i)
                    burst.push_back(static_cast<int>(
                        s * stride + r.uniformInt(0, kVariantsPerSize - 1)));
            for (size_t i = burst.size(); i > 1; --i)
                std::swap(burst[i - 1], burst[r.uniformInt(0, int64_t(i) - 1)]);
            for (int in : burst)
                a.push_back({double(b) * kBurstPeriod, in});
        }
        return a;
    };
    w.sloSeconds = 0.01;
    return w;
}

// --- shared open-loop machinery ----------------------------------------

/** Completions as the server's hook reports them (worker threads). */
class CompletionLog
{
  public:
    struct Event
    {
        Completion completion;
        double serviceSeconds = 0.0;
        std::thread::id worker;
    };

    void
    record(uint64_t signature, const RunResult& result)
    {
        Event e{{signature, now()}, result.serviceSeconds,
                std::this_thread::get_id()};
        std::lock_guard<std::mutex> lock(mu_);
        events_.push_back(e);
    }

    std::vector<Event>
    take()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return std::exchange(events_, {});
    }

  private:
    std::mutex mu_;
    std::vector<Event> events_;  // guarded by mu_
};

struct Setup
{
    ModelSpec spec;
    std::unique_ptr<Sod2Engine> engine;
    std::unique_ptr<Sod2Server> server;
    double buildSeconds = 0.0;
    double compileSeconds = 0.0;
    double seconds = 0.0;
};

std::unique_ptr<Setup>
setUp(const ServedWorkload& w, CompletionLog& log, SpanLog& spans)
{
    auto s = std::make_unique<Setup>();
    double t0 = now();
    s->spec = w.build();
    double t1 = now();
    Sod2Options opts;
    opts.rdp = s->spec.rdp;
    s->engine = std::make_unique<Sod2Engine>(s->spec.graph.get(), opts);
    double t2 = now();
    ServerOptions sopts;
    sopts.workers = kServerWorkers;
    sopts.completionObserver = [&log](uint64_t sig, const RunResult& r) {
        log.record(sig, r);
    };
    s->server = std::make_unique<Sod2Server>(s->engine.get(), sopts);
    for (int i : w.pin)
        s->server->warmup(w.pool[i]);
    double t3 = now();
    std::vector<std::future<RunResult>> warm;
    for (int i : w.warm) {
        Request req;
        req.inputs = w.pool[i];
        warm.push_back(s->server->submit(std::move(req)));
    }
    for (auto& f : warm)
        f.get();
    double t4 = now();
    s->buildSeconds = t1 - t0;
    s->compileSeconds = t2 - t1;
    s->seconds = t4 - t0;
    spans.add("buildModel", 0, 0, t0, t1);
    spans.add("compile", 0, 0, t1, t2);
    spans.add("server_start", 0, 0, t2, t3);
    spans.add("warmup", 0, 0, t3, t4);
    return s;
}

/** Sleeps until shortly before @p steady_seconds, then spins: a
 *  sleeping thread on an idle virtual CPU can wake milliseconds late,
 *  and that lateness would be charged to every request of the burst. */
void
sleepUntil(double steady_seconds)
{
    constexpr double kSpin = 0.001;
    double until = steady_seconds - kSpin;
    if (now() < until)
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(until))));
    while (now() < steady_seconds) {
    }
}

bool
isShed(ErrorCode code)
{
    return code == ErrorCode::kQueueFull || code == ErrorCode::kCircuitOpen ||
           code == ErrorCode::kShutdown || code == ErrorCode::kInvalidInput ||
           code == ErrorCode::kBindFailure;
}

/** One measured open-loop phase and its analysis. */
struct Phase
{
    std::vector<Arrival> arrivals;
    double start = 0.0;
    std::vector<double> due, submitStart, submitEnd;
    std::vector<RunResult> results;
    std::vector<CompletionLog::Event> events;
    ServerStats before, after;

    std::vector<Outcome> outcomes;
    std::vector<double> done;     ///< completion time, -1 if not executed
    std::vector<double> latency;  ///< done - due
    bool accounted = true;        ///< completions matched one-to-one
};

Phase
runPhase(const ServedWorkload& w, Setup& s, CompletionLog& log,
         const std::vector<std::vector<Tensor>>& refs,
         const std::vector<uint64_t>& signature_of_pool,
         std::vector<Arrival> arrivals)
{
    Phase p;
    p.arrivals = std::move(arrivals);
    size_t n = p.arrivals.size();
    std::vector<Request> requests(n);
    for (size_t i = 0; i < n; ++i)
        requests[i].inputs = w.pool[p.arrivals[i].input];
    std::vector<std::future<RunResult>> futures;
    futures.reserve(n);
    p.due.resize(n);
    p.submitStart.resize(n);
    p.submitEnd.resize(n);

    log.take();
    p.before = s.server->stats();
    p.start = now() + 0.005;
    for (size_t i = 0; i < n; ++i) {
        p.due[i] = p.start + p.arrivals[i].due;
        sleepUntil(p.due[i]);
        p.submitStart[i] = now();
        futures.push_back(s.server->submit(std::move(requests[i])));
        p.submitEnd[i] = now();
    }
    s.server->drain();
    p.after = s.server->stats();
    p.events = log.take();

    // Correctness and completion matching, outside the timed window.
    std::vector<uint64_t> sig(n);
    std::vector<bool> executed(n);
    for (size_t i = 0; i < n; ++i) {
        p.results.push_back(futures[i].get());
        const RunResult& r = p.results.back();
        int input = p.arrivals[i].input;
        sig[i] = signature_of_pool[input];
        if (r.ok())
            p.outcomes.push_back(sameBytes(r.outputs, refs[input])
                                     ? Outcome::kOk
                                     : Outcome::kMismatch);
        else
            p.outcomes.push_back(isShed(r.code) ? Outcome::kShed
                                                : Outcome::kFailed);
        executed[i] = p.outcomes.back() != Outcome::kShed;
    }
    std::vector<Completion> completions;
    for (const auto& e : p.events)
        completions.push_back(e.completion);
    p.accounted = matchCompletions(sig, executed, completions, &p.done);
    p.latency.assign(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        if (p.done[i] < 0)
            continue;
        if (p.done[i] < p.submitStart[i])
            p.accounted = false;
        p.latency[i] = p.done[i] - p.due[i];
    }
    return p;
}

/** Steady-clock time of the phase's last completion. */
double
lastCompletion(const Phase& p)
{
    double last = p.start;
    for (const auto& e : p.events)
        last = std::max(last, e.completion.at);
    return last;
}

std::vector<double>
okSamples(const Phase& p, const std::vector<double>& v)
{
    std::vector<double> out;
    for (size_t i = 0; i < v.size(); ++i)
        if (p.outcomes[i] == Outcome::kOk)
            out.push_back(v[i]);
    return out;
}

/** Per-layer serving metrics of the traced phase, and its spans. */
void
exportServing(const Phase& p, const Setup& s, MetricValues* out,
              SpanLog& spans)
{
    size_t n = p.arrivals.size();
    double submit = 0.0, late = 0.0;
    std::vector<double> wait(n, 0.0), service(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        submit += p.submitEnd[i] - p.submitStart[i];
        late = std::max(late, p.submitStart[i] - p.due[i]);
        service[i] = p.results[i].serviceSeconds;
        wait[i] = p.latency[i] - service[i];
        uint64_t req = i + 1;
        double end = p.done[i] >= 0 ? p.done[i] : p.submitEnd[i];
        uint64_t root = spans.add("request", req, 0, p.due[i], end);
        spans.add("submit", req, root, p.submitStart[i], p.submitEnd[i]);
        if (p.done[i] >= 0) {
            spans.add("queue", req, root, p.submitEnd[i],
                      std::max(p.submitEnd[i], end - service[i]));
            spans.add("service", req, root, end - service[i], end);
        }
    }
    std::vector<double> ok_wait = okSamples(p, wait);
    (*out)["serving.submit_us"] = n ? submit / double(n) * 1e6 : 0.0;
    (*out)["serving.queue_wait_ms.p50"] = percentile(ok_wait, 50) * 1e3;
    (*out)["serving.queue_wait_ms.tail"] = tailPercentile(ok_wait).value * 1e3;
    (*out)["serving.service_ms_p50"] =
        percentile(okSamples(p, service), 50) * 1e3;

    // A stacked batch reports one service time for all its members, in
    // a row on one worker thread: count it once.
    double busy = 0.0;
    for (size_t i = 0; i < p.events.size(); ++i) {
        const auto& e = p.events[i];
        bool same_batch = i > 0 && p.events[i - 1].worker == e.worker &&
                          p.events[i - 1].serviceSeconds == e.serviceSeconds;
        if (!same_batch)
            busy += e.serviceSeconds;
    }
    (*out)["serving.busy_ratio"] =
        Ratio{busy, kServerWorkers * (lastCompletion(p) - p.start)}.value();
    double completed = double(p.after.completed - p.before.completed);
    double batches = double(p.after.batches - p.before.batches);
    (*out)["serving.batch_size_mean"] = Ratio{completed, batches}.value();
    (*out)["serving.shed"] = double(p.after.shed - p.before.shed);
    (*out)["serving.expired"] = double(p.after.expired - p.before.expired);
    (*out)["serving.failed"] = double(p.after.failed - p.before.failed);
    (*out)["loadgen.late_ms_max"] = late * 1e3;
    (*out)["loadgen.sent"] = double(n);
    (*out)["memory.resident_arena_mb"] =
        double(s.server->residentArenaBytes()) / 1e6;
}

Report
runServed(const ServedWorkload& w, const Args& args, SpanLog& spans)
{
    Report rep;
    rep.serverWorkers = kServerWorkers;
    rep.busyThreads = kServerWorkers + poolHelpers();

    // Everything drawn from the seed exists before set-up is timed.
    Rng rng(args.seed + 0x51ed);
    double plain_seconds = args.trace ? args.seconds / 2 : args.seconds;
    std::vector<Arrival> plain_arrivals = w.schedule(plain_seconds, rng);
    std::vector<Arrival> traced_arrivals;
    if (args.trace)
        traced_arrivals = w.schedule(args.seconds / 2, rng);

    // Reference outputs: a direct run of every pool input on an engine
    // of its own, before anything is timed.
    ModelSpec ref_spec = w.build();
    Sod2Options ref_opts;
    ref_opts.rdp = ref_spec.rdp;
    Sod2Engine ref_engine(ref_spec.graph.get(), ref_opts);
    RunContext ref_ctx;
    std::vector<std::vector<Tensor>> refs;
    std::vector<uint64_t> signature_of_pool;
    size_t peak_memory = 0;
    for (const auto& in : w.pool) {
        RunStats st;
        refs.push_back(cloneAll(ref_engine.run(ref_ctx, in, &st)));
        signature_of_pool.push_back(ref_engine.signatureFor(in));
        peak_memory = std::max(peak_memory, st.peakMemoryBytes);
    }

    CompletionLog log;
    std::unique_ptr<Setup> s;
    std::vector<double> setups, builds, compiles;
    for (int i = 0; i < kSetupReps; ++i) {
        s.reset();
        s = setUp(w, log, spans);
        setups.push_back(s->seconds);
        builds.push_back(s->buildSeconds);
        compiles.push_back(s->compileSeconds);
    }

    Phase plain = runPhase(w, *s, log, refs, signature_of_pool,
                           std::move(plain_arrivals));
    std::vector<PlanCache::Counters> before = planCounters({s->engine.get()});
    Phase traced;
    if (args.trace)
        traced = runPhase(w, *s, log, refs, signature_of_pool,
                          std::move(traced_arrivals));
    std::vector<PlanCache::Counters> after = planCounters({s->engine.get()});

    rep.notes.push_back("correctness: every served output byte-identical to "
                        "a direct Sod2Engine::run of the same inputs");
    Slo slo = exportLatency(plain.outcomes, plain.latency, w.sloSeconds,
                            &rep.e2e, &rep.notes);
    rep.e2e["setup_s"] = percentile(setups, 50);
    rep.e2e["model_p50_geomean_ms"] = rep.e2e["latency_p50_ms"];
    rep.e2e["throughput_rps"] =
        double(slo.met) / (lastCompletion(plain) - plain.start);
    rep.e2e["peak_memory_mb"] = double(peak_memory) / 1e6;
    rep.attempted = plain.arrivals.size();
    rep.failed = plain.arrivals.size() - slo.ok;
    rep.correct = plain.accounted &&
                  std::count(plain.outcomes.begin(), plain.outcomes.end(),
                             Outcome::kMismatch) == 0;
    if (!plain.accounted)
        rep.notes.push_back("ERROR: completions did not match requests");

    if (args.trace) {
        Slo tslo = accountSlo(traced.outcomes, traced.latency, w.sloSeconds);
        rep.attempted += traced.arrivals.size();
        rep.failed += traced.arrivals.size() - tslo.ok;
        rep.correct = rep.correct && traced.accounted &&
                      std::count(traced.outcomes.begin(),
                                 traced.outcomes.end(),
                                 Outcome::kMismatch) == 0;
        exportServing(traced, *s, &rep.layer, spans);
        exportPlanCache(before, after, &rep.layer, &rep.notes);
        rep.layer["trace.overhead_ratio"] =
            Ratio{percentile(okSamples(traced, traced.latency), 50),
                  percentile(okSamples(plain, plain.latency), 50)}
                .value();
        rep.layer["core.compile_s"] = percentile(compiles, 50);
        rep.layer["models.build_s"] = percentile(builds, 50);

        // Per-group breakdown: replay the traced phase's requests, in
        // order, as direct traced runs on the reference engine.
        GroupProfile profile;
        RunStats st;
        double replay_start = now();
        for (const Arrival& a : traced.arrivals) {
            if (profile.requests() >= kReplayRequests ||
                now() - replay_start > kReplaySeconds)
                break;
            profile.run(ref_engine, ref_ctx, w.pool[a.input],
                        traced.arrivals.size() + profile.requests() + 1,
                        spans, &st);
        }
        profile.exportTo(&rep.layer);

        ProbeTarget t{&ref_spec, &ref_engine, {}};
        for (int i : w.warm)
            t.inputs.push_back(&w.pool[i]);
        probeKernels({t}, 1.5, &rep.layer);
    }
    return rep;
}

}  // namespace

Report
runZooServed(const Args& args, SpanLog& spans)
{
    return runServed(zooServed(args.seed), args, spans);
}

Report
runSmallBurst(const Args& args, SpanLog& spans)
{
    return runServed(smallBurst(args.seed), args, spans);
}

}  // namespace perfbench
