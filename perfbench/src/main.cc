/**
 * @file
 * perfbench: one workload run.
 *
 *   perfbench --workload kv_serve|kv_heap|spmv_sim --seed N
 *             --seconds S --trace 0|1 [--tiny] [--trace-out FILE]
 *             [--check-dir DIR]
 *
 * Prints a human-readable report (every metric by name and unit,
 * sample counts, model figures, the seed), then as its last line one
 * JSON object: {"correct", "attempted", "failed", "metrics"} where
 * metrics are the end-to-end metrics (--trace 0) or the per-layer
 * metrics of the traced run (--trace 1). Normally driven through
 * perfbench/run.py, which builds this binary first.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "kv_serve|kv_heap|spmv_sim --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--trace-out FILE] "
                 "[--check-dir DIR]\n",
                 why);
    std::exit(2);
}

double
number(const char *s, const char *flag)
{
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (!end || *end || !std::isfinite(v) || v < 0)
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

void
printMetrics(const char *title, const std::map<std::string, Metric> &m)
{
    std::printf("%s\n", title);
    for (const auto &[name, v] : m)
        std::printf("  %-34s %16.6g %s\n", name.c_str(), v.value,
                    v.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto val = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            cfg.workload = val();
        else if (a == "--seed") {
            const double s = number(val(), "--seed");
            if (s != std::floor(s))
                usage("--seed must be a whole number");
            cfg.seed = static_cast<std::uint64_t>(s);
            haveSeed = true;
        } else if (a == "--seconds") {
            cfg.seconds = number(val(), "--seconds");
            haveSeconds = cfg.seconds > 0;
        } else if (a == "--trace") {
            const std::string t = val();
            if (t != "0" && t != "1")
                usage("--trace takes 0 or 1");
            cfg.trace = t == "1";
            haveTrace = true;
        } else if (a == "--tiny")
            cfg.tiny = true;
        else if (a == "--trace-out")
            cfg.traceOut = val();
        else if (a == "--check-dir")
            cfg.checkDir = val();
        else
            usage(("unknown argument " + a).c_str());
    }
    if (!haveSeed || !haveSeconds || !haveTrace || cfg.workload.empty())
        usage("--workload, --seed, --seconds and --trace are required");

    Result r;
    if (cfg.workload == "kv_serve")
        r = runKvServe(cfg);
    else if (cfg.workload == "kv_heap")
        r = runKvHeap(cfg);
    else if (cfg.workload == "spmv_sim")
        r = runSpmvSim(cfg);
    else
        usage(("unknown workload " + cfg.workload).c_str());

    if (r.attempted == 0) {
        r.fail("no operation was attempted");
        r.attempted = r.failed = 1;
    }
    const auto &out = cfg.trace ? r.perLayer : r.endToEnd;
    for (const auto &[name, v] : out)
        if (!std::isfinite(v.value))
            r.fail("metric " + name + " is not a finite number");

    std::printf("== perfbench %s  seed %llu  %.1f s  trace %d%s ==\n",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? 1 : 0, cfg.tiny ? "  (tiny)" : "");
    for (const auto &n : r.notes)
        std::printf("  %s\n", n.c_str());
    printMetrics("end-to-end:", r.endToEnd);
    if (cfg.trace)
        printMetrics("per-layer:", r.perLayer);
    std::printf("attempted %llu, failed %llu, failed_ratio %.6g\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.attempted ? static_cast<double>(r.failed) / r.attempted
                            : 0.0);
    for (const auto &e : r.errors)
        std::printf("ERROR: %s\n", e.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    bool first = true;
    for (const auto &[name, v] : out) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(),
                    std::isfinite(v.value) ? v.value : 0.0,
                    v.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    return 0;
}
