/**
 * @file
 * Shared measurement plumbing for the benchmark: bounded-error
 * percentiles, the self-verifying payload format, in-memory spans
 * with per-layer self time, process and host resource readings, and
 * the result record every workload fills in.
 *
 * Everything here times or checks the program from outside: the
 * benchmark wraps its own calls into the program's public functions
 * and reads the program's metrics registries; nothing under src/ is
 * instrumented.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/hicamp.hh"
#include "obs/metrics.hh"

namespace perfbench {

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** What a run is asked to do (parsed from the command line). */
struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// shrink inputs and phases for the self-tests (same code paths)
    bool tiny = false;
    std::string traceOut;   ///< Chrome-trace JSON path ("" = none)
    std::string checkDir;   ///< where exact-repeat model records live
};

/**
 * Latency recorder: a log-linear histogram with 128 linear buckets
 * per power of two, so a percentile is reported within 0.4% of the
 * exact order statistic (values below 128 ns are exact). Its memory
 * does not grow with the number of samples, so a faster program does
 * not raise the benchmark's own share of `peak_rss_mb`. A percentile
 * is only reported when at least kMinBeyond samples lie beyond it.
 */
class LatencyHist
{
  public:
    static constexpr std::size_t kMinBeyond = 10;

    /** Record @p times samples of @p ns each. */
    void add(std::uint64_t ns, std::uint64_t times = 1);
    void merge(const LatencyHist &o);
    std::uint64_t count() const { return count_; }
    double mean() const;

    /** Nearest-rank percentile in ns (p in (0,1)); nullopt when the
     *  sample cannot support it. */
    std::optional<double> percentile(double p) const;

    /** Highest of p99/p90/p50 the sample supports: (level, ns). */
    std::optional<std::pair<double, double>> tail() const;

    /** Bucket of @p ns, and the value reported for a bucket. */
    static std::size_t bucketOf(std::uint64_t ns);
    static double bucketValue(std::size_t b);

  private:
    std::vector<std::uint64_t> b_; ///< grown to the highest bucket used
    std::uint64_t count_ = 0;
    long double sum_ = 0;
};

/// @name Self-verifying payloads
/// Every value the benchmark stores carries the key it belongs to,
/// its writer, a per-writer sequence number and a checksum, so every
/// read is checked from outside the program.
/// @{
constexpr std::size_t kPayloadHeader = 48;

std::uint64_t fnv64(std::string_view s,
                    std::uint64_t h = 0xcbf29ce484222325ull);

std::string encodePayload(std::string_view key, std::uint32_t writer,
                          std::uint64_t seq, std::string_view body);

struct PayloadInfo {
    std::uint32_t writer = 0;
    std::uint64_t seq = 0;
};

/** True iff @p value is an intact payload written for @p key. */
bool verifyPayload(std::string_view key, std::string_view value,
                   PayloadInfo *info = nullptr);
/// @}

/// @name Spans
/// @{
enum class Layer : std::uint8_t {
    Bench, Server, Store, Lang, Seg, Mem, Cache, Spmv, kCount
};
const char *layerName(Layer l);

struct Span {
    const char *name;
    Layer layer;
    std::uint32_t parent; ///< index in the same log, kNoParent if root
    std::uint64_t req;
    std::uint64_t start;
    std::uint64_t end;
};
constexpr std::uint32_t kNoParent = 0xffffffffu;

/**
 * One timeline's spans (a thread, or one closed-loop connection).
 * Spans on a log nest strictly, which is what makes self time
 * (duration minus the time children cover) well defined. Disabled
 * logs record nothing and cost one branch.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled = false) : on_(enabled) {}

    bool enabled() const { return on_; }

    std::uint32_t
    open(Layer l, const char *name, std::uint64_t req)
    {
        if (!on_)
            return kNoParent;
        const std::uint32_t parent =
            stack_.empty() ? kNoParent : stack_.back();
        spans_.push_back({name, l, parent, req, nowNs(), 0});
        stack_.push_back(static_cast<std::uint32_t>(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(std::uint32_t idx)
    {
        if (!on_)
            return;
        spans_[idx].end = nowNs();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /// wall time the timeline was busy with the traced work
    std::uint64_t busyNs = 0;

  private:
    bool on_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
};

/** RAII span on a log. */
class Scope
{
  public:
    Scope(SpanLog &log, Layer l, const char *name, std::uint64_t req)
        : log_(log), idx_(log.open(l, name, req))
    {
    }
    ~Scope() { log_.close(idx_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &log_;
    std::uint32_t idx_;
};

/** Per-layer self time plus per-name duration samples. */
struct TraceSummary {
    std::uint64_t selfNs[static_cast<int>(Layer::kCount)] = {};
    std::uint64_t busyNs = 0;
    std::map<std::string, LatencyHist> byName;
    std::uint64_t spans = 0;

    void add(const SpanLog &log);
    std::uint64_t totalSelf() const;
    /** Share of busy time the spans' self times cover. */
    double closure() const;
    double selfPct(Layer l) const;
};

/** Write the spans of @p logs as Chrome trace_event JSON (one tid per
 *  log), capped at @p max_spans events. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<const SpanLog *> &logs,
                      std::size_t max_spans = 200000);
/// @}

/// @name Process resources
/// @{
struct CpuTimes {
    double userS = 0, sysS = 0;
    double total() const { return userS + sysS; }
};
CpuTimes cpuNow();
double peakRssMb();

/**
 * Machine-wide CPU time ticks from /proc/stat: all of them, and those
 * the hypervisor gave to other guests ("steal"). Both 0 when the file
 * is unreadable.
 */
struct HostTicks {
    std::uint64_t total = 0, steal = 0;
};
HostTicks hostTicks();

/** Steal share between two readings (0 when nothing elapsed). */
double stealShare(const HostTicks &a, const HostTicks &b);

/// A measurement window (or pass) in which the hypervisor took more
/// than this share of the machine's CPU time is not used for the
/// end-to-end figures while enough cleaner ones exist: stolen time
/// stalls the program's threads at random and says nothing about it.
constexpr double kMaxSteal = 0.03;
/// @}

/// @name Program-registry reading
/// @{
double histMean(const hicamp::obs::MetricsSnapshot &s,
                std::string_view name);
/** Median bucket lower bound of a Log2Histogram delta (0 if empty). */
double histMedian(const hicamp::obs::MetricsSnapshot &s,
                  std::string_view name);
std::uint64_t dramTotal(const hicamp::obs::MetricsSnapshot &s);
/// @}

/// @name Timed probes of the mem layer
/// @{
struct MemProbe {
    double readLineNs = 0;
    double lookupHitNs = 0;
    double lookupMissNs = 0;
};

/**
 * Time Memory::readLine on PLIDs reachable from @p roots and
 * Memory::lookup on their leaf content (dedup hits) and on fresh
 * random content (misses), after the measured phase. Takes and
 * releases its own references, so the heap audits clean afterwards.
 */
MemProbe probeMemory(hicamp::Memory &mem,
                     const std::vector<hicamp::Entry> &roots,
                     std::uint64_t seed, bool tiny);

/** Median ms to construct and destroy a Memory with @p cfg. */
double timeMemoryCtorMs(const hicamp::MemoryConfig &cfg, int reps);
/// @}

/** A named, unit-carrying number. */
struct Metric {
    double value = 0;
    std::string unit;
};

/** What one workload run produces. */
struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;
    /// extra lines for the human-readable report (sample counts,
    /// percentile levels, model figures)
    std::vector<std::string> notes;

    void fail(std::string why);
    void e2e(const std::string &n, double v, const char *unit)
    {
        endToEnd[n] = {v, unit};
    }
    void layer(const std::string &n, double v, const char *unit)
    {
        perLayer[n] = {v, unit};
    }
};

/** Median of a small vector of measurements (setup repeats). */
double median(std::vector<double> v);

Result runKvServe(const RunConfig &cfg);
Result runKvHeap(const RunConfig &cfg);
Result runSpmvSim(const RunConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
