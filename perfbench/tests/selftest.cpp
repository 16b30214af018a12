/**
 * @file
 * Self-tests of the benchmark's own arithmetic (src/stats.h). Run with
 * `python3 perfbench/run.py --self-test`; exits non-zero on the first
 * failed check.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "stats.h"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const char* what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "selftest.cpp:%d: FAILED %s\n", line, what);
        ++failures;
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

std::vector<double>
ramp(size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

void
testPercentile()
{
    std::vector<double> v = {7, 1, 10, 3, 5, 2, 9, 4, 8, 6};
    CHECK(percentile(v, 50) == 5);
    CHECK(percentile(v, 90) == 9);
    CHECK(percentile(v, 100) == 10);
    CHECK(percentile(v, 1) == 1);
    CHECK(percentile({}, 50) == 0);
}

void
testTailRule()
{
    // 1200 samples: p99 leaves 12 beyond; p99.5 would leave only 6.
    // (0.99 * 1200 is not exactly 1188 in binary.)
    Tail t = tailPercentile(ramp(1200));
    CHECK(t.percentile == 99);
    CHECK(t.beyond == 12);
    CHECK(t.value == 1188);
    CHECK(t.samples == 1200);

    // Exactly ten beyond still qualifies...
    t = tailPercentile(ramp(1000));
    CHECK(t.percentile == 99);
    CHECK(t.beyond == 10);
    // ...nine does not.
    t = tailPercentile(ramp(999));
    CHECK(t.percentile == 98);
    CHECK(t.beyond == 19);

    t = tailPercentile(ramp(20));
    CHECK(t.percentile == 50);
    CHECK(t.beyond == 10);

    // Too few samples for the rule: the median, with its real count.
    t = tailPercentile(ramp(5));
    CHECK(t.percentile == 50);
    CHECK(t.beyond == 2);
    CHECK(t.value == 3);

    t = tailPercentile({});
    CHECK(t.samples == 0 && t.value == 0);
}

void
testGeomean()
{
    CHECK(near(geomean({1, 100}), 10));
    CHECK(near(geomean({2, 8}), 4));
    CHECK(near(geomean({5}), 5));
    CHECK(geomean({}) == 0);
    CHECK(geomean({3, 0}) == 0);
    CHECK(geomean({3, -1}) == 0);
}

void
testSloAccounting()
{
    std::vector<Outcome> o = {Outcome::kOk, Outcome::kOk, Outcome::kFailed,
                              Outcome::kShed, Outcome::kMismatch};
    // Failed, shed and mismatched requests miss however fast they were.
    std::vector<double> lat = {0.1, 0.6, 0.0, 0.0, 0.01};
    Slo s = accountSlo(o, lat, 0.5);
    CHECK(s.sent == 5);
    CHECK(s.ok == 2);
    CHECK(s.met == 1);
    CHECK(near(s.metRatio().value(), 0.2));
    CHECK(near(s.okRatio().value(), 0.4));
    // The limit is inclusive.
    CHECK(accountSlo({Outcome::kOk}, {0.5}, 0.5).met == 1);
}

void
testDueTimeMatching()
{
    // Two signatures on two workers complete out of submission order;
    // a shed request never reaches the completion hook.
    std::vector<uint64_t> sig = {1, 2, 1, 2, 3};
    std::vector<bool> executed = {true, true, true, true, false};
    std::vector<double> due = {0.00, 0.01, 0.02, 0.03, 0.04};
    std::vector<Completion> done = {{2, 0.05}, {1, 0.06}, {2, 0.07}, {1, 0.08}};
    std::vector<double> at;
    CHECK(matchCompletions(sig, executed, done, &at));
    CHECK(at.size() == 5);
    CHECK(near(at[0], 0.06) && near(at[1], 0.05));
    CHECK(near(at[2], 0.08) && near(at[3], 0.07));
    CHECK(at[4] == -1);
    // Latency runs from each request's own due time.
    CHECK(near(at[0] - due[0], 0.06) && near(at[1] - due[1], 0.04));
    CHECK(near(at[2] - due[2], 0.06) && near(at[3] - due[3], 0.04));

    // A completion with no request, or a request with no completion,
    // means there is no one-to-one matching.
    done.push_back({1, 0.09});
    CHECK(!matchCompletions(sig, executed, done, &at));
    done.pop_back();
    done.pop_back();
    CHECK(!matchCompletions(sig, executed, done, &at));
}

void
testRatios()
{
    Ratio r{790, 800};
    CHECK(near(r.value(), 0.9875));
    CHECK(r.str() == "0.9875 (790/800)");
    Ratio empty{0, 0};
    CHECK(empty.value() == 0);
    CHECK(empty.str() == "0.0000 (0/0)");
}

}  // namespace

int
main()
{
    testPercentile();
    testTailRule();
    testGeomean();
    testSloAccounting();
    testDueTimeMatching();
    testRatios();
    if (failures) {
        std::fprintf(stderr, "%d self-test check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench self-tests passed\n");
    return 0;
}
