/**
 * @file
 * Self-tests of the benchmark's own measuring and checking code: the
 * latency recorder's percentiles against brute force, the payload
 * verifier against every one-bit corruption, and span self time.
 * Exit 0 iff all pass.
 *
 *   perfbench_selftest
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hh"
#include "common/rng.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

/** Brute force: the smallest sample with at least p*n samples <= it. */
double
bruteForce(const std::vector<std::uint64_t> &v, double p)
{
    for (std::uint64_t cand : v) {
        std::size_t le = 0;
        for (std::uint64_t x : v)
            le += x <= cand;
        bool smaller_ok = false;
        for (std::uint64_t x : v)
            if (x < cand) {
                std::size_t le2 = 0;
                for (std::uint64_t y : v)
                    le2 += y <= x;
                smaller_ok = smaller_ok || le2 >= p * v.size() - 1e-9;
            }
        if (le >= p * v.size() - 1e-9 && !smaller_ok)
            return static_cast<double>(cand);
    }
    return -1;
}

void
testPercentiles()
{
    hicamp::Rng rng(7);
    for (std::size_t n : {1, 9, 19, 20, 21, 99, 100, 999, 1000, 1009, 2500}) {
        LatencyHist s;
        std::vector<std::uint64_t> raw;
        for (std::size_t i = 0; i < n; ++i) {
            // heavy ties, values on both sides of the exact range, and
            // a long tail
            const std::uint64_t v = rng.below(50) * rng.below(50) +
                                    (rng.chance(0.3) ? 5000 : 0) +
                                    (rng.chance(0.01) ? 10000000 : 0);
            raw.push_back(v);
            s.add(v);
        }
        for (double p : {0.5, 0.9, 0.99}) {
            const auto got = s.percentile(p);
            const auto rank =
                static_cast<std::size_t>(std::ceil(p * n - 1e-9));
            const bool supported = n - std::max<std::size_t>(rank, 1) >=
                                   LatencyHist::kMinBeyond;
            expect(got.has_value() == supported,
                   "support rule at n=" + std::to_string(n) +
                       " p=" + std::to_string(p));
            if (got) {
                const double want = bruteForce(raw, p);
                expect(std::fabs(*got - want) <= 0.004 * want + 1e-9,
                       "percentile within 0.4% of brute force at n=" +
                           std::to_string(n) + " p=" + std::to_string(p) +
                           ": " + std::to_string(*got) + " vs " +
                           std::to_string(want));
            }
        }
        const auto tail = s.tail();
        expect(tail.has_value() == (n >= 20),
               "tail exists iff the median is supported, n=" +
                   std::to_string(n));
    }
    // every bucket's reported value lies inside the bucket
    for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40); v = v * 3 + 1) {
        const double rep = LatencyHist::bucketValue(LatencyHist::bucketOf(v));
        expect(std::fabs(rep - static_cast<double>(v)) <=
                   0.004 * static_cast<double>(v),
               "bucket value near " + std::to_string(v));
    }
}

void
testVerifier()
{
    const std::string key = "item:42";
    const std::string body = "<html>a page body with some bytes</html>";
    const std::string good = encodePayload(key, 3, 12345, body);
    PayloadInfo info;
    expect(verifyPayload(key, good, &info), "intact payload verifies");
    expect(info.writer == 3 && info.seq == 12345,
           "writer and sequence decode");
    expect(!verifyPayload("item:43", good), "wrong key is rejected");
    expect(!verifyPayload(key, good.substr(0, good.size() - 1)),
           "truncated payload is rejected");
    for (std::size_t i = 0; i < good.size(); ++i)
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = good;
            bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
            expect(!verifyPayload(key, bad),
                   "one-byte corruption at " + std::to_string(i) +
                       " bit " + std::to_string(bit));
        }
}

void
testSelfTime()
{
    SpanLog log(true);
    {
        Scope a(log, Layer::Store, "outer", 1);
        Scope b(log, Layer::Lang, "inner", 1);
    }
    TraceSummary ts;
    log.busyNs = log.spans()[0].end - log.spans()[0].start;
    ts.add(log);
    const auto &sp = log.spans();
    expect(sp.size() == 2 && sp[1].parent == 0, "child links to parent");
    expect(ts.totalSelf() == log.busyNs,
           "self times of nested spans add up to the root duration");
    expect(std::fabs(ts.closure() - 1.0) < 1e-12, "closure of a root is 1");
}

} // namespace

int
main()
{
    testPercentiles();
    testVerifier();
    testSelfTime();
    std::printf("%s (%d failures)\n", failures ? "FAILED" : "ok", failures);
    return failures ? 1 : 0;
}
