#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/**
 * @file
 * The benchmark's own arithmetic, kept free of engine types so that
 * tests/selftest.cpp can check every rule on hand-made inputs:
 * nearest-rank percentiles, the tail rule, the geometric mean, SLO
 * accounting, due-time latency matching, and ratios that carry their
 * base.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Nearest-rank percentile @p p (0 < p <= 100) of @p samples: the value
 * of rank ceil(p/100 * n) in ascending order. 0 for no samples.
 */
double percentile(std::vector<double> samples, double p);

/** The tail a sample supports (see tailPercentile). */
struct Tail
{
    double percentile = 0.0;  ///< which percentile was taken
    double value = 0.0;       ///< its nearest-rank value
    size_t beyond = 0;        ///< samples ranked above it
    size_t samples = 0;
};

/**
 * The highest percentile of a fixed ladder (50, 75, 90, 95, 98, 99,
 * 99.5, 99.8, 99.9, 99.95, 99.98, 99.99) that still has at least
 * @p min_beyond samples ranked above it. With fewer samples than that
 * rule allows even at p50, the median is returned with its real count.
 */
Tail tailPercentile(const std::vector<double>& samples,
                    size_t min_beyond = 10);

/** Geometric mean of strictly positive @p values; 0 when empty or
 *  when any value is not positive. */
double geomean(const std::vector<double>& values);

/** A counter-derived ratio that is always printed with its base. */
struct Ratio
{
    double num = 0.0;
    double den = 0.0;

    /** num / den, or 0 when the base is 0. */
    double value() const;
    /** "0.9875 (790/800)". */
    std::string str() const;
};

/** What happened to one request that was sent. */
enum class Outcome {
    kOk,        ///< completed and passed the correctness check
    kMismatch,  ///< completed with outputs that failed the check
    kFailed,    ///< executed and returned a typed error
    kShed,      ///< refused without executing (queue full, breaker, ...)
};

/** SLO accounting over every request sent. */
struct Slo
{
    size_t sent = 0;
    size_t ok = 0;   ///< Outcome::kOk
    size_t met = 0;  ///< kOk and latency <= limit

    Ratio metRatio() const { return {double(met), double(sent)}; }
    Ratio okRatio() const { return {double(ok), double(sent)}; }
};

/**
 * Counts a request as meeting the SLO only when it is kOk and its
 * latency is at most @p limit_seconds; failed, shed and mismatched
 * requests are misses whatever their latency. @p latency is
 * index-aligned with @p outcomes.
 */
Slo accountSlo(const std::vector<Outcome>& outcomes,
               const std::vector<double>& latency, double limit_seconds);

/** One completion as observed by the server's completion hook. */
struct Completion
{
    uint64_t signature = 0;
    double at = 0.0;  ///< steady-clock seconds
};

/**
 * Gives each request its own completion time. Requests of one shape
 * signature are served by one worker in submission order (sticky shape
 * affinity, FIFO within a worker), so the k-th completion observed for
 * a signature belongs to the k-th executed request of that signature,
 * however completions of different signatures interleave.
 *
 * @param signature  per request, in submission order
 * @param executed   per request: false when it was refused at
 *                   admission and so never reaches the hook
 * @param completions in the order the hook saw them
 * @param[out] at    per request: its completion time, or -1 when it
 *                   did not execute
 * @return false when the counts per signature disagree, so no
 *         one-to-one matching exists
 */
bool matchCompletions(const std::vector<uint64_t>& signature,
                      const std::vector<bool>& executed,
                      const std::vector<Completion>& completions,
                      std::vector<double>* at);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
