#include "common.hh"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

namespace perfbench {

using namespace hicamp;

// --- LatencyHist -------------------------------------------------------

namespace {
constexpr unsigned kSubBits = 7; // 128 buckets per power of two
constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
} // namespace

std::size_t
LatencyHist::bucketOf(std::uint64_t ns)
{
    if (ns < kSub)
        return static_cast<std::size_t>(ns);
    const unsigned k = static_cast<unsigned>(std::bit_width(ns)) - 1;
    const std::uint64_t sub = (ns >> (k - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>(kSub + (k - kSubBits) * kSub + sub);
}

double
LatencyHist::bucketValue(std::size_t b)
{
    if (b < kSub)
        return static_cast<double>(b);
    const std::uint64_t octave = (b - kSub) / kSub;
    const std::uint64_t sub = (b - kSub) % kSub;
    const double width = std::ldexp(1.0, static_cast<int>(octave));
    const double lower = static_cast<double>(kSub + sub) * width;
    return lower + (width - 1) / 2; // middle of the bucket's integers
}

void
LatencyHist::add(std::uint64_t ns, std::uint64_t times)
{
    const std::size_t b = bucketOf(ns);
    if (b >= b_.size())
        b_.resize(b + 1, 0);
    b_[b] += times;
    count_ += times;
    sum_ += static_cast<long double>(ns) * times;
}

void
LatencyHist::merge(const LatencyHist &o)
{
    if (b_.size() < o.b_.size())
        b_.resize(o.b_.size(), 0);
    for (std::size_t i = 0; i < o.b_.size(); ++i)
        b_[i] += o.b_[i];
    count_ += o.count_;
    sum_ += o.sum_;
}

double
LatencyHist::mean() const
{
    return count_ ? static_cast<double>(sum_ / count_) : 0.0;
}

std::optional<double>
LatencyHist::percentile(double p) const
{
    const std::uint64_t n = count_;
    if (n == 0 || p <= 0 || p >= 1)
        return std::nullopt;
    // nearest rank: the smallest sample with at least p*n at or below
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(n) - 1e-9));
    rank = std::max<std::uint64_t>(rank, 1);
    if (n - rank < kMinBeyond)
        return std::nullopt;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < b_.size(); ++b) {
        seen += b_[b];
        if (seen >= rank)
            return bucketValue(b);
    }
    return std::nullopt; // unreachable: the buckets hold n samples
}

std::optional<std::pair<double, double>>
LatencyHist::tail() const
{
    for (double p : {0.99, 0.90, 0.50})
        if (auto v = percentile(p))
            return std::make_pair(p, *v);
    return std::nullopt;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --- Payloads --------------------------------------------------------

std::uint64_t
fnv64(std::string_view s, std::uint64_t h)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

// Header layout (48 ASCII hex digits): key hash (16), writer (4),
// sequence (12), checksum (16) over the first 32 digits plus the body.
std::string
encodePayload(std::string_view key, std::uint32_t writer,
              std::uint64_t seq, std::string_view body)
{
    char head[kPayloadHeader + 1];
    std::snprintf(head, sizeof head, "%016" PRIx64 "%04x%012" PRIx64,
                  fnv64(key), writer & 0xffffu,
                  static_cast<std::uint64_t>(seq & 0xffffffffffffull));
    const std::uint64_t sum =
        fnv64(body, fnv64(std::string_view(head, 32)));
    std::snprintf(head + 32, sizeof head - 32, "%016" PRIx64, sum);
    std::string out(head, kPayloadHeader);
    out.append(body);
    return out;
}

namespace {

bool
parseHex(std::string_view s, std::uint64_t &out)
{
    std::uint64_t v = 0;
    for (char c : s) {
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else
            return false;
        v = (v << 4) | static_cast<std::uint64_t>(d);
    }
    out = v;
    return true;
}

} // namespace

bool
verifyPayload(std::string_view key, std::string_view value,
              PayloadInfo *info)
{
    if (value.size() < kPayloadHeader)
        return false;
    std::uint64_t kh, wr, seq, sum;
    if (!parseHex(value.substr(0, 16), kh) ||
        !parseHex(value.substr(16, 4), wr) ||
        !parseHex(value.substr(20, 12), seq) ||
        !parseHex(value.substr(32, 16), sum))
        return false;
    if (kh != fnv64(key))
        return false;
    if (sum != fnv64(value.substr(kPayloadHeader),
                     fnv64(value.substr(0, 32))))
        return false;
    if (info) {
        info->writer = static_cast<std::uint32_t>(wr);
        info->seq = seq;
    }
    return true;
}

// --- Spans -----------------------------------------------------------

const char *
layerName(Layer l)
{
    switch (l) {
    case Layer::Bench: return "bench";
    case Layer::Server: return "server";
    case Layer::Store: return "store";
    case Layer::Lang: return "lang";
    case Layer::Seg: return "seg";
    case Layer::Mem: return "mem";
    case Layer::Cache: return "cache";
    case Layer::Spmv: return "spmv";
    case Layer::kCount: break;
    }
    return "?";
}

void
TraceSummary::add(const SpanLog &log)
{
    const auto &sp = log.spans();
    std::vector<std::uint64_t> childNs(sp.size(), 0);
    for (const auto &s : sp)
        if (s.parent != kNoParent)
            childNs[s.parent] += s.end - s.start;
    for (std::size_t i = 0; i < sp.size(); ++i) {
        const std::uint64_t d = sp[i].end - sp[i].start;
        selfNs[static_cast<int>(sp[i].layer)] +=
            d > childNs[i] ? d - childNs[i] : 0;
        byName[sp[i].name].add(d);
    }
    spans += sp.size();
    busyNs += log.busyNs;
}

std::uint64_t
TraceSummary::totalSelf() const
{
    std::uint64_t t = 0;
    for (auto v : selfNs)
        t += v;
    return t;
}

double
TraceSummary::closure() const
{
    return busyNs ? static_cast<double>(totalSelf()) /
                        static_cast<double>(busyNs)
                  : 0.0;
}

double
TraceSummary::selfPct(Layer l) const
{
    return busyNs ? 100.0 *
                        static_cast<double>(selfNs[static_cast<int>(l)]) /
                        static_cast<double>(busyNs)
                  : 0.0;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const SpanLog *> &logs,
                 std::size_t max_spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::uint64_t t0 = ~std::uint64_t{0};
    for (const auto *l : logs)
        for (const auto &s : l->spans())
            t0 = std::min(t0, s.start);
    std::fputs("{\"traceEvents\":[", f);
    std::size_t written = 0;
    for (std::size_t tid = 0; tid < logs.size(); ++tid) {
        for (const auto &s : logs[tid]->spans()) {
            if (written == max_spans)
                break;
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"cat\":\"%s\","
                         "\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                         "\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"req\":%" PRIu64 ",\"parent\":%d}}",
                         written ? "," : "", s.name, layerName(s.layer),
                         tid, (s.start - t0) / 1e3,
                         (s.end - s.start) / 1e3, s.req,
                         s.parent == kNoParent
                             ? -1
                             : static_cast<int>(s.parent));
            ++written;
        }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

// --- Process resources ----------------------------------------------

CpuTimes
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    CpuTimes t;
    t.userS = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6;
    t.sysS = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
    return t;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

HostTicks
hostTicks()
{
    HostTicks t;
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (!f)
        return t;
    // cpu  user nice system idle iowait irq softirq steal guest ...
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                    &v[7]) == 8) {
        for (auto x : v)
            t.total += x;
        t.steal = v[7];
    }
    std::fclose(f);
    return t;
}

double
stealShare(const HostTicks &a, const HostTicks &b)
{
    return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                   static_cast<double>(b.total - a.total)
                             : 0.0;
}

// --- Registry reading -------------------------------------------------

namespace {

const obs::HistogramSnapshot *
findHist(const obs::MetricsSnapshot &s, std::string_view name)
{
    for (const auto &[n, h] : s.histograms)
        if (n == name)
            return &h;
    return nullptr;
}

} // namespace

double
histMean(const obs::MetricsSnapshot &s, std::string_view name)
{
    const auto *h = findHist(s, name);
    return h && h->count ? static_cast<double>(h->sum) / h->count : 0.0;
}

double
histMedian(const obs::MetricsSnapshot &s, std::string_view name)
{
    const auto *h = findHist(s, name);
    if (!h || h->count == 0)
        return 0;
    std::uint64_t seen = 0;
    for (unsigned b = 0; b < h->buckets.size(); ++b) {
        seen += h->buckets[b];
        if (2 * seen >= h->count)
            return static_cast<double>(obs::Log2Histogram::bucketLo(b));
    }
    return 0;
}

std::uint64_t
dramTotal(const obs::MetricsSnapshot &s)
{
    std::uint64_t t = 0;
    for (const char *c : {"dram.read", "dram.write", "dram.lookup",
                          "dram.dealloc", "dram.refcount"})
        t += s.counter(c);
    return t;
}

// --- mem probes -------------------------------------------------------

namespace {

/** Collect up to @p cap PLIDs reachable from @p roots (breadth first),
 *  plus the content of the leaf lines among them. */
void
collectLines(Memory &mem, const std::vector<Entry> &roots,
             std::size_t cap, std::vector<Plid> &plids,
             std::vector<Line> &leaves)
{
    std::vector<Plid> frontier;
    for (const auto &e : roots)
        if (e.isPlid())
            frontier.push_back(e.plid());
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());
    std::size_t head = 0;
    while (head < frontier.size() && plids.size() < cap) {
        const Plid p = frontier[head++];
        plids.push_back(p);
        Line l = mem.readLine(p);
        bool leaf = true;
        for (unsigned i = 0; i < l.size(); ++i) {
            if (l.meta(i).isPlid()) {
                leaf = false;
                if (frontier.size() < 4 * cap)
                    frontier.push_back(l.word(i));
            }
        }
        if (leaf)
            leaves.push_back(l);
    }
}

/** Median over @p rounds of the ns per item that @p timed spends on
 *  @p per_round items; @p after runs untimed between rounds. */
template <typename Fn, typename After>
double
medianBatchNs(int rounds, std::size_t per_round, Fn &&timed,
              After &&after)
{
    std::vector<double> r;
    for (int i = 0; i < rounds; ++i) {
        const std::uint64_t t0 = nowNs();
        timed();
        r.push_back(static_cast<double>(nowNs() - t0) /
                    static_cast<double>(per_round));
        after();
    }
    return median(r);
}

volatile std::uint64_t probeSink;

} // namespace

MemProbe
probeMemory(Memory &mem, const std::vector<Entry> &roots,
            std::uint64_t seed, bool tiny)
{
    MemProbe out;
    std::vector<Plid> plids;
    std::vector<Line> leaves;
    collectLines(mem, roots, tiny ? 256 : 4096, plids, leaves);
    const int rounds = tiny ? 3 : 15;
    std::vector<Plid> got;
    auto release = [&] {
        for (Plid p : got)
            mem.decRef(p);
        got.clear();
    };
    if (!plids.empty()) {
        std::uint64_t sink = 0;
        out.readLineNs = medianBatchNs(
            rounds, plids.size(),
            [&] {
                for (Plid p : plids)
                    sink += mem.readLine(p).word(0);
            },
            [] {});
        probeSink = sink;
    }
    if (!leaves.empty()) {
        std::uint64_t fresh = 0;
        out.lookupHitNs = medianBatchNs(
            rounds, leaves.size(),
            [&] {
                for (const auto &l : leaves) {
                    bool was_new = false;
                    got.push_back(mem.lookup(l, &was_new));
                    fresh += was_new;
                }
            },
            release);
        // a leaf the store no longer holds would have been a miss
        if (fresh)
            out.lookupHitNs = 0;
    }
    Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
    const std::size_t misses = tiny ? 128 : 2048;
    std::vector<Line> fresh_lines;
    for (int r = 0; r < rounds; ++r)
        for (std::size_t i = 0; i < misses; ++i) {
            Line l = mem.makeLine();
            for (unsigned w = 0; w < l.size(); ++w)
                l.set(w, rng.next() | 1);
            fresh_lines.push_back(l);
        }
    std::size_t next = 0;
    out.lookupMissNs = medianBatchNs(
        rounds, misses,
        [&] {
            for (std::size_t i = 0; i < misses; ++i)
                got.push_back(mem.lookup(fresh_lines[next++]));
        },
        release);
    return out;
}

double
timeMemoryCtorMs(const MemoryConfig &cfg, int reps)
{
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
        const std::uint64_t t0 = nowNs();
        {
            Memory m(cfg);
        }
        ms.push_back((nowNs() - t0) / 1e6);
    }
    return median(ms);
}

// --- Result -------------------------------------------------------------

void
Result::fail(std::string why)
{
    correct = false;
    errors.push_back(std::move(why));
}

} // namespace perfbench
