#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

/**
 * @file
 * In-memory span log of a traced run. Spans are recorded by the
 * benchmark around its own calls into the engine and the server (and
 * derived from the counters those calls return); nothing inside the
 * program is instrumented. All spans of one request share its request
 * id and name their parent span. The log is written out once, as
 * Chrome trace JSON, after the run ends.
 *
 * Single-threaded: every span is added from the benchmark's main
 * thread (served completions are turned into spans after the phase).
 */

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;   ///< 0 = root
    uint64_t request = 0;  ///< 0 = not part of a request (set-up)
    std::string name;
    double startUs = 0.0;  ///< since the log's origin
    double durUs = 0.0;
};

class SpanLog
{
  public:
    /** A disabled log records nothing and add() returns 0. */
    explicit SpanLog(bool enabled);

    /** Records one span from steady-clock seconds @p start to @p end
     *  and returns its id. */
    uint64_t add(const std::string& name, uint64_t request, uint64_t parent,
                 double start, double end);

    const std::vector<Span>& spans() const { return spans_; }

    /** Writes the log as Chrome trace JSON; false on I/O failure. */
    bool writeChromeJson(const std::string& path) const;

  private:
    /** Steady-clock seconds as microseconds since construction. */
    double toUs(double steady_seconds) const;

    bool enabled_;
    double origin_;
    std::vector<Span> spans_;
};

/** Steady-clock seconds (the one clock every benchmark timestamp uses). */
double now();

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
