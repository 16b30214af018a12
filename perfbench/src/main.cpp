/**
 * @file
 * sod2_perfbench — the repository benchmark (see ../README.md).
 *
 *   sod2_perfbench --workload zoo_direct|zoo_served|small_burst
 *                  --seed N --seconds S --trace 0|1 [--trace-out FILE]
 *
 * Prints an environment record, one line per metric with its unit, and
 * as its last line one JSON object {correct, attempted, failed,
 * metrics}: the end-to-end metrics for --trace 0, the per-layer
 * metrics for --trace 1. Exits 1 on any correctness mismatch and 2 on
 * bad arguments.
 */

#include <sys/sysinfo.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "models/model_zoo.h"

extern char** environ;

using namespace perfbench;

namespace {

struct MetricDef
{
    std::string name;
    std::string unit;
};

/** The end-to-end metrics, in BENCHMARK.json order. */
const std::vector<MetricDef>&
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"latency_p50_ms", "ms"},
        {"latency_tail_ms", "ms"},
        {"model_p50_geomean_ms", "ms"},
        {"throughput_rps", "req/s"},
        {"slo_met_ratio", "ratio"},
        {"peak_memory_mb", "MB"},
        {"ok_ratio", "ratio"},
    };
    return defs;
}

/** The per-layer metrics, in BENCHMARK.json order. */
const std::vector<MetricDef>&
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d;
        for (const char* k : {"conv", "matmul", "softmax", "layernorm",
                              "transpose", "other"}) {
            d.push_back({std::string("kernels.") + k + ".ms_per_req", "ms"});
            d.push_back({std::string("kernels.") + k + ".share", "ratio"});
        }
        d.push_back({"fusion.fused_elementwise.ms_per_req", "ms"});
        d.push_back({"fusion.fused_elementwise.share", "ratio"});
        d.push_back({"kernels.gemm.gflops", "GFLOP/s"});
        d.push_back({"kernels.conv.gflops", "GFLOP/s"});
        d.push_back({"kernels.softmax.gbps", "GB/s"});
        d.push_back({"core.bind_us", "us"});
        d.push_back({"core.plan_us", "us"});
        d.push_back({"core.plan_miss_us", "us"});
        d.push_back({"core.plan_cache_hit_ratio", "ratio"});
        d.push_back({"core.plan_cache_hits", "count"});
        d.push_back({"core.plan_cache_lookups", "count"});
        d.push_back({"core.plan_cache_evictions", "count"});
        d.push_back({"core.executed_groups_per_req", "count"});
        d.push_back({"runtime.unattributed_ms_per_req", "ms"});
        d.push_back({"core.compile_s", "s"});
        d.push_back({"models.build_s", "s"});
        d.push_back({"memory.peak_arena_mb", "MB"});
        d.push_back({"memory.peak_dynamic_mb", "MB"});
        d.push_back({"memory.resident_arena_mb", "MB"});
        d.push_back({"serving.submit_us", "us"});
        d.push_back({"serving.queue_wait_ms.p50", "ms"});
        d.push_back({"serving.queue_wait_ms.tail", "ms"});
        d.push_back({"serving.service_ms_p50", "ms"});
        d.push_back({"serving.batch_size_mean", "count"});
        d.push_back({"serving.busy_ratio", "ratio"});
        d.push_back({"serving.shed", "count"});
        d.push_back({"serving.expired", "count"});
        d.push_back({"serving.failed", "count"});
        for (const std::string& m : sod2::allModelNames())
            d.push_back({"models." + m + ".p50_ms", "ms"});
        d.push_back({"loadgen.late_ms_max", "ms"});
        d.push_back({"loadgen.sent", "count"});
        d.push_back({"trace.overhead_ratio", "ratio"});
        return d;
    }();
    return defs;
}

int
usage(const char* why)
{
    std::fprintf(stderr,
                 "sod2_perfbench: %s\nusage: sod2_perfbench --workload "
                 "zoo_direct|zoo_served|small_burst --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n",
                 why);
    return 2;
}

bool
parseArgs(int argc, char** argv, Args* a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        char* end = nullptr;
        if (k == "--workload") {
            a->workload = v;
        } else if (k == "--seed") {
            a->seed = std::strtoull(v.c_str(), &end, 10);
            if (*end)
                return false;
        } else if (k == "--seconds") {
            a->seconds = std::strtod(v.c_str(), &end);
            if (*end || !(a->seconds > 0 && a->seconds <= 600))
                return false;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a->trace = v == "1";
        } else if (k == "--trace-out") {
            a->traceOut = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a->workload.empty();
}

/** SOD2_* variables other than SOD2_NUM_THREADS: each could change
 *  what is measured, so the runner clears them and this reports any. */
std::string
strayKnobs()
{
    std::string out;
    for (char** e = environ; *e; ++e)
        if (std::strncmp(*e, "SOD2_", 5) == 0 &&
            std::strncmp(*e, "SOD2_NUM_THREADS=", 17) != 0)
            out += (out.empty() ? "" : " ") + std::string(*e);
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
    return buf;
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args))
        return usage("bad arguments");
    Report (*run)(const Args&, SpanLog&) = nullptr;
    if (args.workload == "zoo_direct")
        run = runZooDirect;
    else if (args.workload == "zoo_served")
        run = runZooServed;
    else if (args.workload == "small_burst")
        run = runSmallBurst;
    else
        return usage("unknown workload");

    SpanLog spans(args.trace);
    Report rep;
    try {
        rep = run(args, spans);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "sod2_perfbench: %s\n", e.what());
        return 1;
    }

    struct sysinfo si{};
    double load1 = sysinfo(&si) == 0
                       ? double(si.loads[0]) / double(1 << SI_LOAD_SHIFT)
                       : -1.0;
    const char* knob = std::getenv("SOD2_NUM_THREADS");
    unsigned nproc = std::thread::hardware_concurrency();
    std::string stray = strayKnobs();
    std::printf(
        "ENV {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
        "\"SOD2_NUM_THREADS\":\"%s\",\"pool_width\":%d,\"pool_helpers\":%d,"
        "\"server_workers\":%d,\"busy_threads\":%d,\"nproc\":%u,"
        "\"within_nproc\":%s,\"loadavg_1m\":%.2f,\"stray_sod2_knobs\":\"%s\"}\n",
        args.workload.c_str(), static_cast<unsigned long long>(args.seed),
        args.seconds, args.trace ? 1 : 0, knob ? knob : "", poolHelpers() + 1,
        poolHelpers(), rep.serverWorkers, rep.busyThreads, nproc,
        rep.busyThreads <= int(nproc) ? "true" : "false", load1,
        stray.c_str());
    for (const std::string& n : rep.notes)
        std::printf("NOTE %s\n", n.c_str());

    if (args.trace && !args.traceOut.empty()) {
        if (spans.writeChromeJson(args.traceOut))
            std::printf("NOTE %zu spans written to %s\n",
                        spans.spans().size(), args.traceOut.c_str());
        else
            std::fprintf(stderr, "sod2_perfbench: cannot write %s\n",
                         args.traceOut.c_str());
    }

    const MetricValues& values = args.trace ? rep.layer : rep.e2e;
    const auto& defs = args.trace ? perLayerMetrics() : endToEndMetrics();
    std::string json;
    for (const MetricDef& d : defs) {
        auto it = values.find(d.name);
        // A per-layer metric the workload has no layer for reads 0.
        double v = it == values.end() ? 0.0 : it->second;
        if (!args.trace && it == values.end()) {
            std::fprintf(stderr, "sod2_perfbench: %s not measured\n",
                         d.name.c_str());
            rep.correct = false;
        }
        std::printf("METRIC %-40s %14.6f %s\n", d.name.c_str(), v,
                    d.unit.c_str());
        json += (json.empty() ? "" : ",") + std::string("\"") + d.name +
                "\":{\"value\":" + jsonNumber(v) + ",\"unit\":\"" + d.unit +
                "\"}";
    }
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                rep.correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed), json.c_str());
    return rep.correct ? 0 : 1;
}
