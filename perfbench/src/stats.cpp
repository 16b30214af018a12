#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

/** 1-based nearest rank of percentile @p p in @p n samples. The small
 *  epsilon keeps p*n/100 from rounding up past an exact integer
 *  (0.99 * 1200 is 1188.0000000000002 in binary). */
size_t
nearestRank(double p, size_t n)
{
    double r = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
    return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    size_t rank = nearestRank(p, samples.size());
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

Tail
tailPercentile(const std::vector<double>& samples, size_t min_beyond)
{
    static const double kLadder[] = {50,   75,   90,    95,    98,   99,
                                     99.5, 99.8, 99.9, 99.95, 99.98, 99.99};
    Tail t;
    t.samples = samples.size();
    t.percentile = 50;
    for (double p : kLadder) {
        if (samples.empty())
            break;
        size_t beyond = samples.size() - nearestRank(p, samples.size());
        if (beyond < min_beyond && p != 50)
            break;
        t.percentile = p;
    }
    if (!samples.empty()) {
        t.beyond = samples.size() - nearestRank(t.percentile, samples.size());
        t.value = percentile(samples, t.percentile);
    }
    return t;
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        if (!(v > 0.0))
            return 0.0;
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
Ratio::value() const
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
Ratio::str() const
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.4f (%.0f/%.0f)", value(), num, den);
    return buf;
}

Slo
accountSlo(const std::vector<Outcome>& outcomes,
           const std::vector<double>& latency, double limit_seconds)
{
    Slo s;
    s.sent = outcomes.size();
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i] != Outcome::kOk)
            continue;
        ++s.ok;
        if (i < latency.size() && latency[i] <= limit_seconds)
            ++s.met;
    }
    return s;
}

bool
matchCompletions(const std::vector<uint64_t>& signature,
                 const std::vector<bool>& executed,
                 const std::vector<Completion>& completions,
                 std::vector<double>* at)
{
    std::unordered_map<uint64_t, std::vector<double>> done;
    for (const Completion& c : completions)
        done[c.signature].push_back(c.at);

    at->assign(signature.size(), -1.0);
    std::unordered_map<uint64_t, size_t> next;
    for (size_t i = 0; i < signature.size(); ++i) {
        if (!executed[i])
            continue;
        std::vector<double>& times = done[signature[i]];
        size_t& k = next[signature[i]];
        if (k >= times.size())
            return false;
        (*at)[i] = times[k++];
    }
    for (const auto& [sig, times] : done) {
        auto it = next.find(sig);
        if ((it == next.end() ? 0 : it->second) != times.size())
            return false;
    }
    return true;
}

}  // namespace perfbench
