#include <algorithm>
#include <cstring>

#include "bench.h"
#include "support/threadpool.h"

using namespace sod2;

namespace perfbench {

int
poolHelpers()
{
    return ThreadPool::global().numThreads();
}

Slo
exportLatency(const std::vector<Outcome>& outcomes,
              const std::vector<double>& latency, double slo_seconds,
              MetricValues* out, std::vector<std::string>* notes)
{
    std::vector<double> ok;
    for (size_t i = 0; i < outcomes.size(); ++i)
        if (outcomes[i] == Outcome::kOk)
            ok.push_back(latency[i]);
    Tail tail = tailPercentile(ok);
    Slo slo = accountSlo(outcomes, latency, slo_seconds);
    (*out)["latency_p50_ms"] = percentile(ok, 50) * 1e3;
    (*out)["latency_tail_ms"] = tail.value * 1e3;
    (*out)["slo_met_ratio"] = slo.metRatio().value();
    (*out)["ok_ratio"] = slo.okRatio().value();

    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "latency tail = p%g over %zu samples (%zu beyond it)",
                  tail.percentile, tail.samples, tail.beyond);
    notes->push_back(buf);
    std::snprintf(buf, sizeof buf, "slo limit %.0f ms: met ", slo_seconds * 1e3);
    notes->push_back(buf + slo.metRatio().str());
    notes->push_back("ok " + slo.okRatio().str());
    return slo;
}

std::vector<Tensor>
cloneAll(const std::vector<Tensor>& tensors)
{
    std::vector<Tensor> copies;
    copies.reserve(tensors.size());
    for (const Tensor& t : tensors) {
        Tensor c(t.dtype(), t.shape());
        if (t.byteSize())
            std::memcpy(c.raw(), t.raw(), t.byteSize());
        copies.push_back(std::move(c));
    }
    return copies;
}

bool
sameBytes(const std::vector<Tensor>& got, const std::vector<Tensor>& want)
{
    if (got.size() != want.size())
        return false;
    for (size_t i = 0; i < got.size(); ++i) {
        if (got[i].dtype() != want[i].dtype() ||
            got[i].shape() != want[i].shape() ||
            std::memcmp(got[i].raw(), want[i].raw(), got[i].byteSize()) != 0)
            return false;
    }
    return true;
}

bool
closeTo(const std::vector<Tensor>& got, const std::vector<Tensor>& want)
{
    if (got.size() != want.size())
        return false;
    for (size_t i = 0; i < got.size(); ++i) {
        if (got[i].dtype() != want[i].dtype() ||
            got[i].shape() != want[i].shape())
            return false;
        bool ok = got[i].dtype() == DType::kFloat32
                      ? Tensor::allClose(got[i], want[i], 1e-3f, 1e-3f)
                      : sameBytes({got[i]}, {want[i]});
        if (!ok)
            return false;
    }
    return true;
}

}  // namespace perfbench
