/**
 * @file
 * The two memcached workloads (paper §5.1.2).
 *
 *  - kv_serve: the 90:9:1 get:set:delete mix over loopback to an
 *    in-process McServer (2 workers) — the only workload that runs
 *    the server layer. Closed loop: 4 connections, one request
 *    outstanding on each, driven by 1 generator thread.
 *  - kv_heap: the 50:49:1 mix called in process on McStore from 4
 *    threads sharing one key space, with a 128 KiB modeled L2 so
 *    probes reach the line store — writes beside reads, contention,
 *    commit/merge and retirement, no server code.
 *
 * Both preload the seeded 4000-item WebCorpus, verify every GET from
 * outside (self-verifying payloads, legal misses only after a
 * delete), and end with a clean Auditor::audit.
 *
 * The traced run (--trace 1) adds a second, traced phase in which
 * requests go through SplitStore — the same public calls McStore
 * makes (HString build, HMap::getWith/set/erase, HString::str),
 * each wrapped in a span — so store, lang and seg self times are
 * measured without instrumenting the program.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "analysis/auditor.hh"
#include "common.hh"
#include "server/server.hh"
#include "workloads/memcached_workload.hh"

namespace perfbench {

using namespace hicamp;
using server::McServer;
using server::McStore;
using server::McValue;
using server::ServerConfig;

namespace {

constexpr std::uint32_t kPreloadWriter = 0xfff0;

/** The knobs that differ between the two workloads. */
struct KvShape {
    double getFraction;
    double deleteFraction;
    unsigned writers;        ///< threads (kv_heap) or connections
    std::uint64_t l2Bytes;   ///< modeled L2
};

const KvShape kServeShape{0.90, 0.01, 4, 4ull << 20};
const KvShape kHeapShape{0.50, 0.01, 4, 128ull << 10};

/** Generated inputs: corpus plus one request stream per writer. */
struct KvInputs {
    std::vector<WebItem> items;
    std::vector<std::vector<McRequest>> streams;
};

KvInputs
makeInputs(std::uint64_t seed, const KvShape &shape, bool tiny,
           unsigned streams)
{
    KvInputs in;
    WebCorpus::Params p;
    p.seed = seed;
    p.numItems = tiny ? 400 : 4000;
    // stored values are header + body: 128..2048 bytes
    p.minBytes = 128 - kPayloadHeader;
    p.maxBytes = 2048 - kPayloadHeader;
    in.items = WebCorpus::generate(p);
    // Popularity rank r (Zipf draws rank = item index) gets the item
    // at a fixed size quantile, the same for every seed: which sizes
    // are hot would otherwise change per seed and dominate the
    // run-to-run spread. Sizes stay independent of popularity.
    std::vector<WebItem> bySize = std::move(in.items);
    std::stable_sort(bySize.begin(), bySize.end(),
                     [](const WebItem &a, const WebItem &b) {
                         return a.payload.size() < b.payload.size();
                     });
    std::vector<std::size_t> quantile(bySize.size());
    for (std::size_t i = 0; i < quantile.size(); ++i)
        quantile[i] = i;
    Rng fixed(0x51ce);
    for (std::size_t i = quantile.size(); i > 1; --i)
        std::swap(quantile[i - 1], quantile[fixed.below(i)]);
    in.items.clear();
    for (std::size_t q : quantile)
        in.items.push_back(std::move(bySize[q]));
    for (unsigned w = 0; w < streams; ++w) {
        McWorkloadParams wp;
        wp.seed = seed * 1000003ull + w + 1;
        wp.numRequests = tiny ? 2000 : 12000;
        wp.getFraction = shape.getFraction;
        wp.deleteFraction = shape.deleteFraction;
        wp.zipfS = 0.95;
        in.streams.push_back(generateMcRequests(in.items, wp));
    }
    return in;
}

MemoryConfig
memConfig(const KvShape &shape)
{
    MemoryConfig cfg;
    cfg.l2Bytes = shape.l2Bytes;
    return cfg;
}

/** Per-key "a delete was issued" flags: the only legal GET misses. */
class DeleteLog
{
  public:
    explicit DeleteLog(std::size_t n)
        : f_(new std::atomic<std::uint8_t>[n])
    {
        for (std::size_t i = 0; i < n; ++i)
            f_[i].store(0);
    }
    void mark(std::size_t i) { f_[i].store(1); }
    bool deleted(std::size_t i) const { return f_[i].load() != 0; }

  private:
    std::unique_ptr<std::atomic<std::uint8_t>[]> f_;
};

/** Requests and latencies of one measurement window. */
struct Window {
    std::uint64_t ops = 0;
    LatencyHist get, set;
};

/** One writer's measured outcome. */
struct Tally {
    std::uint64_t attempted = 0; ///< every request, warmup included
    std::uint64_t ops = 0, gets = 0, sets = 0, dels = 0, failed = 0;
    LatencyHist get, set, erase;
    std::vector<Window> win;
    std::uint64_t builtBytes = 0, strBytes = 0;
    std::string firstError;

    /** Count one measured request of @p op in window @p w. */
    void
    record(McRequest::Op op, std::uint64_t ns, int w)
    {
        if (win.size() <= static_cast<std::size_t>(w))
            win.resize(w + 1);
        Window &cur = win[w];
        ++ops;
        ++cur.ops;
        switch (op) {
        case McRequest::Op::Get:
            ++gets;
            get.add(ns);
            cur.get.add(ns);
            break;
        case McRequest::Op::Set:
        case McRequest::Op::Delete:
            // set_* latencies cover sets and deletes
            ++(op == McRequest::Op::Set ? sets : dels);
            set.add(ns);
            cur.set.add(ns);
            if (op == McRequest::Op::Delete)
                erase.add(ns);
            break;
        }
    }

    void
    bad(std::string why)
    {
        ++failed;
        if (firstError.empty())
            firstError = std::move(why);
    }

    void
    merge(const Tally &o)
    {
        attempted += o.attempted;
        ops += o.ops;
        gets += o.gets;
        sets += o.sets;
        dels += o.dels;
        failed += o.failed;
        get.merge(o.get);
        set.merge(o.set);
        erase.merge(o.erase);
        if (win.size() < o.win.size())
            win.resize(o.win.size());
        for (std::size_t w = 0; w < o.win.size(); ++w) {
            win[w].ops += o.win[w].ops;
            win[w].get.merge(o.win[w].get);
            win[w].set.merge(o.win[w].set);
        }
        builtBytes += o.builtBytes;
        strBytes += o.strBytes;
        if (firstError.empty())
            firstError = o.firstError;
    }
};

/** Check one GET outcome from outside the program. */
void
checkGet(Tally &t, const DeleteLog &dl, std::size_t idx,
         const std::string &key, const std::optional<McValue> &v)
{
    if (!v) {
        if (!dl.deleted(idx))
            t.bad("GET " + key + ": missing, never deleted");
        return;
    }
    PayloadInfo info;
    if (!verifyPayload(key, v->data, &info))
        t.bad("GET " + key + ": corrupt or foreign payload");
    else if (info.writer != v->flags)
        t.bad("GET " + key + ": flags disagree with payload writer");
}

/**
 * McStore's request path spelled out as the public calls it makes,
 * each in a span: the traced stand-in for McStore (whose map is
 * private). Same encoding: 4-byte little-endian flags, then data.
 */
class SplitStore
{
  public:
    explicit SplitStore(Hicamp &hc) : hc_(hc), map_(hc, 4) {}

    void
    set(SpanLog &log, std::uint64_t req, Tally &t, std::string_view key,
        std::uint32_t flags, std::string_view data)
    {
        Scope s(log, Layer::Store, "store.set", req);
        std::string raw = encode(flags, data);
        std::optional<HString> k, v;
        {
            Scope b(log, Layer::Seg, "seg.build", req);
            k.emplace(hc_, key);
            v.emplace(hc_, raw);
        }
        t.builtBytes += key.size() + raw.size();
        HMap &shard = map_.shard(map_.shardOf(*k));
        Scope h(log, Layer::Lang, "lang.hmap_set", req);
        shard.set(*k, *v);
    }

    std::optional<McValue>
    get(SpanLog &log, std::uint64_t req, Tally &t, IteratorRegister &it,
        std::string_view key)
    {
        Scope s(log, Layer::Store, "store.get", req);
        std::optional<HString> k;
        {
            Scope b(log, Layer::Seg, "seg.build", req);
            k.emplace(hc_, key);
        }
        t.builtBytes += key.size();
        HMap &shard = map_.shard(map_.shardOf(*k));
        std::optional<HString> v;
        {
            Scope h(log, Layer::Lang, "lang.hmap_get", req);
            v = shard.getWith(it, *k);
        }
        if (!v)
            return std::nullopt;
        std::string raw;
        {
            Scope m(log, Layer::Seg, "seg.str", req);
            raw = v->str();
        }
        t.strBytes += raw.size();
        return decode(raw);
    }

    bool
    erase(SpanLog &log, std::uint64_t req, Tally &t,
          std::string_view key)
    {
        Scope s(log, Layer::Store, "store.erase", req);
        std::optional<HString> k;
        {
            Scope b(log, Layer::Seg, "seg.build", req);
            k.emplace(hc_, key);
        }
        t.builtBytes += key.size();
        HMap &shard = map_.shard(map_.shardOf(*k));
        Scope h(log, Layer::Lang, "lang.hmap_erase", req);
        return shard.erase(*k);
    }

    HShardedMap &map() { return map_; }

  private:
    static std::string
    encode(std::uint32_t flags, std::string_view data)
    {
        std::string raw;
        raw.reserve(4 + data.size());
        for (int i = 0; i < 4; ++i)
            raw.push_back(static_cast<char>((flags >> (8 * i)) & 0xff));
        raw.append(data);
        return raw;
    }

    static std::optional<McValue>
    decode(const std::string &raw)
    {
        if (raw.size() < 4)
            return McValue{0xffffffffu, raw}; // fails verification
        McValue mv;
        for (int i = 0; i < 4; ++i)
            mv.flags |= static_cast<std::uint32_t>(
                            static_cast<unsigned char>(raw[i]))
                        << (8 * i);
        mv.data = raw.substr(4);
        return mv;
    }

    Hicamp &hc_;
    HShardedMap map_;
};

/** Phase gate shared by the main thread and the load threads. */
struct PhaseGate {
    /// 0 warmup, k >= 1 measuring window k, -1 stopped
    std::atomic<int> phase{0};
    /** Current measurement window, -1 outside the measured phase. */
    int window() const { return phase.load() - 1; }
    bool stopped() const { return phase.load() < 0; }
};

/** What the main thread observes around one measured phase. */
struct PhaseObs {
    double wallS = 0;
    std::vector<double> winWallS;
    std::vector<double> winSteal; ///< host steal share per window
    CpuTimes cpu0, cpu1;
    obs::MetricsSnapshot mem0, mem1;
    std::uint64_t stripe0 = 0, stripe1 = 0;
};

std::uint64_t
stripeOps(Memory &mem)
{
    return mem.store().stripeLockExclusiveOps() +
           mem.store().stripeLockSharedOps();
}

/**
 * Warm up, then measure @p seconds as @p windows consecutive windows
 * (medians over windows resist short bursts of outside load),
 * snapshotting the registry around the whole measured span. Windows
 * in which the hypervisor stole more than kMaxSteal of the machine
 * are made up for by extra windows, at most @p windows more.
 */
PhaseObs
runPhase(PhaseGate &gate, Memory &mem, double warmup_s, double seconds,
         int windows)
{
    PhaseObs o;
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
    o.mem0 = mem.metrics().snapshot();
    o.stripe0 = stripeOps(mem);
    o.cpu0 = cpuNow();
    const std::uint64_t t0 = nowNs();
    std::uint64_t w0 = t0;
    HostTicks h0 = hostTicks();
    int clean = 0;
    for (int w = 1; w <= 2 * windows && (w <= windows || clean < windows);
         ++w) {
        gate.phase.store(w);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds / windows));
        const std::uint64_t now = nowNs();
        const HostTicks h = hostTicks();
        o.winWallS.push_back((now - w0) / 1e9);
        o.winSteal.push_back(stealShare(h0, h));
        clean += o.winSteal.back() <= kMaxSteal;
        w0 = now;
        h0 = h;
    }
    gate.phase.store(-1);
    o.wallS = (nowNs() - t0) / 1e9;
    o.cpu1 = cpuNow();
    o.mem1 = mem.metrics().snapshot();
    o.stripe1 = stripeOps(mem);
    return o;
}

std::string
payloadFor(const KvInputs &in, const McRequest &r, std::uint32_t writer,
           std::uint64_t seq)
{
    return encodePayload(in.items[r.itemIndex].key, writer, seq,
                         r.newValue);
}

/** Preload every corpus item (writer kPreloadWriter, seq = index). */
template <typename SetFn>
void
preload(const KvInputs &in, SetFn &&set)
{
    for (std::size_t i = 0; i < in.items.size(); ++i)
        set(in.items[i].key,
            encodePayload(in.items[i].key, kPreloadWriter, i,
                          in.items[i].payload));
}

// ---------------------------------------------------------------------
// In-process load (kv_heap, and kv_serve's traced store phase)

/** One in-process writer thread against McStore or SplitStore. */
template <typename Op>
void
storeWorker(PhaseGate &gate, const KvInputs &in, unsigned stream,
            std::uint32_t writer, DeleteLog &dl, Tally &t, Op &&op)
{
    const auto &reqs = in.streams[stream];
    std::uint64_t seq = 0;
    for (std::size_t i = 0; !gate.stopped(); ++i) {
        const McRequest &r = reqs[i % reqs.size()];
        const std::string &key = in.items[r.itemIndex].key;
        const int win = gate.window();
        const bool rec = win >= 0;
        ++t.attempted;
        std::string payload;
        if (r.op == McRequest::Op::Set)
            payload = payloadFor(in, r, writer, ++seq);
        else if (r.op == McRequest::Op::Delete)
            dl.mark(r.itemIndex);
        const std::uint64_t t0 = nowNs();
        std::optional<McValue> got;
        try {
            got = op(r, key, payload, i, rec);
        } catch (const std::exception &e) {
            t.bad(std::string("exception: ") + e.what());
            continue;
        }
        const std::uint64_t ns = nowNs() - t0;
        if (r.op == McRequest::Op::Get)
            checkGet(t, dl, r.itemIndex, key, got);
        if (rec)
            t.record(r.op, ns, win);
    }
}

/** Run @p threads McStore writers through one measured phase. */
PhaseObs
loadMcStore(Hicamp &hc, McStore &store, const KvInputs &in,
            unsigned threads, DeleteLog &dl, double warmup_s,
            double seconds, int windows, Tally &total)
{
    PhaseGate gate;
    std::vector<Tally> tallies(threads);
    std::vector<std::thread> ts;
    for (unsigned w = 0; w < threads; ++w)
        ts.emplace_back([&, w] {
            IteratorRegister it(hc.mem, hc.vsm);
            storeWorker(gate, in, w, w, dl, tallies[w],
                        [&](const McRequest &r, const std::string &key,
                            const std::string &payload, std::size_t, bool)
                            -> std::optional<McValue> {
                            switch (r.op) {
                            case McRequest::Op::Get:
                                return store.get(it, key);
                            case McRequest::Op::Set:
                                store.set(key, w, payload);
                                break;
                            case McRequest::Op::Delete:
                                store.erase(key);
                                break;
                            }
                            return std::nullopt;
                        });
        });
    PhaseObs o = runPhase(gate, hc.mem, warmup_s, seconds, windows);
    for (auto &t : ts)
        t.join();
    for (auto &t : tallies)
        total.merge(t);
    return o;
}

/**
 * Run @p threads SplitStore writers through one phase; with @p logs
 * non-null each measured request records spans into a new log per
 * thread appended there, otherwise nothing is traced.
 */
PhaseObs
loadSplitStore(Hicamp &hc, SplitStore &store, const KvInputs &in,
               unsigned threads, std::uint32_t writer_base,
               DeleteLog &dl, double warmup_s, double seconds,
               Tally &total, std::vector<std::unique_ptr<SpanLog>> *logs)
{
    PhaseGate gate;
    std::vector<Tally> tallies(threads);
    std::vector<std::unique_ptr<SpanLog>> own;
    for (unsigned w = 0; w < threads; ++w)
        own.push_back(std::make_unique<SpanLog>(logs != nullptr));
    std::vector<SpanLog *> mine;
    for (auto &l : own)
        mine.push_back(l.get());
    // Warmup requests go to a throwaway log so only measured
    // requests carry spans.
    std::vector<std::thread> ts;
    for (unsigned w = 0; w < threads; ++w)
        ts.emplace_back([&, w] {
            IteratorRegister it(hc.mem, hc.vsm);
            SpanLog off(false);
            Tally &t = tallies[w];
            const std::uint32_t writer = writer_base + w;
            std::uint64_t busy0 = 0;
            storeWorker(
                gate, in, w % in.streams.size(), writer, dl, t,
                [&](const McRequest &r, const std::string &key,
                    const std::string &payload, std::size_t i,
                    bool rec) -> std::optional<McValue> {
                    SpanLog &log = rec ? *mine[w] : off;
                    if (rec && busy0 == 0)
                        busy0 = nowNs();
                    const std::uint64_t req =
                        (std::uint64_t{writer} << 40) | i;
                    switch (r.op) {
                    case McRequest::Op::Get:
                        return store.get(log, req, t, it, key);
                    case McRequest::Op::Set:
                        store.set(log, req, t, key, writer, payload);
                        break;
                    case McRequest::Op::Delete:
                        store.erase(log, req, t, key);
                        break;
                    }
                    return std::nullopt;
                });
            if (busy0)
                mine[w]->busyNs = nowNs() - busy0;
        });
    PhaseObs o = runPhase(gate, hc.mem, warmup_s, seconds, 1);
    for (auto &t : ts)
        t.join();
    for (auto &t : tallies)
        total.merge(t);
    if (logs)
        for (auto &l : own)
            logs->push_back(std::move(l));
    return o;
}

// ---------------------------------------------------------------------
// Loopback client (kv_serve)

int
connectTo(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(port);
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&a), sizeof a) != 0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

bool
sendAll(int fd, const std::string &s)
{
    std::size_t off = 0;
    while (off < s.size()) {
        const ssize_t n =
            ::send(fd, s.data() + off, s.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** One closed-loop client connection: at most one request in flight. */
struct Client {
    int fd = -1;
    std::uint32_t writer = 0;
    unsigned stream = 0;
    std::size_t next = 0;
    std::uint64_t seq = 0;
    std::string rbuf;
    // the in-flight request
    bool pending = false;
    const McRequest *req = nullptr;
    int window = -1; ///< measurement window at issue, -1 if none
    std::uint64_t t0 = 0;
    std::uint32_t rootSpan = kNoParent;
    std::uint64_t reqId = 0;
    std::uint64_t busy0 = 0;
    SpanLog *log = nullptr;
};

enum class Parse { Incomplete, Done, Bad };

/** Parse the response to @p c's in-flight request off its buffer. */
Parse
parseResponse(Client &c, const std::string &key,
              std::optional<McValue> &value, std::string &err)
{
    const std::string &b = c.rbuf;
    const auto eol = b.find("\r\n");
    if (eol == std::string::npos)
        return Parse::Incomplete;
    const std::string line = b.substr(0, eol);
    auto consume = [&](std::size_t n) { c.rbuf.erase(0, n); };
    switch (c.req->op) {
    case McRequest::Op::Set:
        consume(eol + 2);
        if (line == "STORED")
            return Parse::Done;
        err = "SET " + key + ": " + line;
        return Parse::Bad;
    case McRequest::Op::Delete:
        consume(eol + 2);
        if (line == "DELETED" || line == "NOT_FOUND")
            return Parse::Done;
        err = "DELETE " + key + ": " + line;
        return Parse::Bad;
    case McRequest::Op::Get:
        break;
    }
    if (line == "END") {
        consume(eol + 2);
        value.reset();
        return Parse::Done;
    }
    // VALUE <key> <flags> <bytes>
    char k[256];
    unsigned flags = 0;
    unsigned long bytes = 0;
    if (line.size() >= sizeof k ||
        std::sscanf(line.c_str(), "VALUE %255s %u %lu", k, &flags,
                    &bytes) != 3 ||
        key != k) {
        consume(eol + 2);
        err = "GET " + key + ": " + line;
        return Parse::Bad;
    }
    const std::size_t need = eol + 2 + bytes + 2 + 5;
    if (b.size() < need)
        return Parse::Incomplete;
    if (b.compare(eol + 2 + bytes, 7, "\r\nEND\r\n") != 0) {
        consume(b.size());
        err = "GET " + key + ": desync";
        return Parse::Bad;
    }
    value = McValue{flags, b.substr(eol + 2, bytes)};
    consume(need);
    return Parse::Done;
}

/** Send @p c's next request (encoding time is the bench's own). */
bool
issue(Client &c, const KvInputs &in, DeleteLog &dl, int window,
      std::uint64_t &reqno, Tally &t)
{
    const bool rec = window >= 0;
    ++t.attempted;
    const auto &reqs = in.streams[c.stream];
    c.req = &reqs[c.next++ % reqs.size()];
    const std::string &key = in.items[c.req->itemIndex].key;
    c.window = window;
    c.t0 = nowNs();
    SpanLog off(false);
    SpanLog &log = rec && c.log ? *c.log : off;
    const std::uint64_t req = (std::uint64_t{c.writer} << 40) | reqno++;
    c.reqId = req;
    c.rootSpan = log.open(Layer::Server, "server.rtt", req);
    std::string msg;
    {
        Scope e(log, Layer::Bench, "bench.encode", req);
        switch (c.req->op) {
        case McRequest::Op::Get:
            msg = "get " + key + "\r\n";
            break;
        case McRequest::Op::Set: {
            const std::string p = payloadFor(in, *c.req, c.writer, ++c.seq);
            msg = "set " + key + " " + std::to_string(c.writer) +
                  " 0 " + std::to_string(p.size()) + "\r\n" + p + "\r\n";
            break;
        }
        case McRequest::Op::Delete:
            dl.mark(c.req->itemIndex);
            msg = "delete " + key + "\r\n";
            break;
        }
    }
    c.pending = true;
    return sendAll(c.fd, msg);
}

/** One generator thread driving its share of the connections. */
void
clientThread(PhaseGate &gate, const KvInputs &in, DeleteLog &dl,
             std::vector<Client *> conns, Tally &t)
{
    std::uint64_t reqno = 0;
    std::vector<pollfd> pfds(conns.size());
    bool alive = true;
    for (auto *c : conns)
        if (!issue(*c, in, dl, gate.window(), reqno, t)) {
            t.bad("send failed");
            alive = false;
        }
    std::uint64_t last_progress = nowNs();
    char buf[65536];
    while (alive) {
        bool any = false;
        for (std::size_t i = 0; i < conns.size(); ++i) {
            pfds[i] = {conns[i]->fd, POLLIN, 0};
            any = any || conns[i]->pending;
        }
        if (!any)
            break;
        const int n = ::poll(pfds.data(), pfds.size(), 100);
        if (n < 0) {
            t.bad("poll failed");
            break;
        }
        if (n == 0) {
            if (nowNs() - last_progress > 10'000'000'000ull) {
                t.bad("timeout: no response for 10 s");
                break;
            }
            continue;
        }
        for (std::size_t i = 0; i < conns.size() && alive; ++i) {
            Client &c = *conns[i];
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const ssize_t got = ::recv(c.fd, buf, sizeof buf, 0);
            if (got <= 0) {
                t.bad("connection closed by server");
                alive = false;
                break;
            }
            c.rbuf.append(buf, static_cast<std::size_t>(got));
            last_progress = nowNs();
            for (;;) {
                if (!c.pending)
                    break;
                const std::string &key = in.items[c.req->itemIndex].key;
                std::optional<McValue> v;
                std::string err;
                const Parse p = parseResponse(c, key, v, err);
                if (p == Parse::Incomplete)
                    break;
                const std::uint64_t ns = nowNs() - c.t0;
                SpanLog off(false);
                SpanLog &log = c.window >= 0 && c.log ? *c.log : off;
                if (p == Parse::Bad) {
                    t.bad(err);
                } else if (c.req->op == McRequest::Op::Get) {
                    Scope vs(log, Layer::Bench, "bench.verify", c.reqId);
                    checkGet(t, dl, c.req->itemIndex, key, v);
                }
                log.close(c.rootSpan);
                c.pending = false;
                if (c.window >= 0) {
                    if (c.busy0 == 0)
                        c.busy0 = c.t0;
                    if (c.log)
                        c.log->busyNs = nowNs() - c.busy0;
                    t.record(c.req->op, ns, c.window);
                }
                if (p == Parse::Bad) {
                    alive = false;
                    break;
                }
                if (!gate.stopped() &&
                    !issue(c, in, dl, gate.window(), reqno, t)) {
                    t.bad("send failed");
                    alive = false;
                    break;
                }
            }
        }
    }
}

/** Drive the loopback clients through one measured phase. */
PhaseObs
loadServer(Hicamp &hc, std::vector<Client> &clients, const KvInputs &in,
           DeleteLog &dl, double warmup_s, double seconds, int windows,
           Tally &total)
{
    PhaseGate gate;
    // One generator thread: with the net thread and 2 workers that is
    // 4 busy threads on 4 cores (a second one made run-to-run thread
    // placement the largest source of spread).
    constexpr unsigned kGenThreads = 1;
    std::vector<Tally> tallies(kGenThreads);
    std::vector<std::thread> ts;
    for (unsigned g = 0; g < kGenThreads; ++g) {
        std::vector<Client *> mine;
        for (std::size_t i = g; i < clients.size(); i += kGenThreads)
            mine.push_back(&clients[i]);
        ts.emplace_back([&, g, mine] {
            clientThread(gate, in, dl, mine, tallies[g]);
        });
    }
    PhaseObs o = runPhase(gate, hc.mem, warmup_s, seconds, windows);
    for (auto &t : ts)
        t.join();
    for (auto &t : tallies)
        total.merge(t);
    return o;
}

// ---------------------------------------------------------------------
// Metric assembly

double
perOp(double v, std::uint64_t ops)
{
    return ops ? v / static_cast<double>(ops) : 0.0;
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

/** proc, mem (registry) and vsm/lang-counter metrics of one phase. */
void
layerFromPhase(Result &r, const PhaseObs &o, std::uint64_t ops,
               std::uint64_t writes)
{
    const auto d = obs::delta(o.mem0, o.mem1);
    const double cpu = o.cpu1.total() - o.cpu0.total();
    r.layer("proc.cpu_us_per_op", perOp(cpu * 1e6, ops), "us");
    r.layer("proc.cpu_util", ratio(cpu, o.wallS), "cores");

    const double lookups = d.counter("ops.lookups");
    r.layer("mem.reads_per_op", perOp(d.counter("ops.reads"), ops),
            "count");
    r.layer("mem.lookups_per_op", perOp(lookups, ops), "count");
    r.layer("mem.dedup_hit_ratio",
            ratio(d.counter("lookup.dedup_hits"), lookups), "ratio");
    const double l1h = d.counter("cache.l1.hits"),
                 l1m = d.counter("cache.l1.misses");
    const double l2h = d.counter("cache.l2.hits"),
                 l2m = d.counter("cache.l2.misses");
    r.layer("mem.l1_hit_ratio", ratio(l1h, l1h + l1m), "ratio");
    r.layer("mem.l2_hit_ratio", ratio(l2h, l2h + l2m), "ratio");
    r.layer("mem.dram_per_op", perOp(dramTotal(d), ops), "count");
    r.layer("mem.row_acts_per_op", perOp(d.counter("row_activations"), ops),
            "count");
    r.layer("mem.candidates_mean", histMean(d, "lookup.candidates"),
            "count");
    r.layer("mem.overflow_walks_per_klookup",
            1000.0 * ratio(d.counter("lookup.overflow_walks"), lookups),
            "count");
    r.layer("mem.stripe_lock_ops_per_op",
            perOp(static_cast<double>(o.stripe1 - o.stripe0), ops),
            "count");
    r.layer("mem.deallocs_per_op", perOp(d.counter("deallocs"), ops),
            "count");
    r.layer("mem.epoch_advances_per_kop",
            1000.0 * perOp(static_cast<double>(
                               o.mem1.gauge("epoch.advances") -
                               o.mem0.gauge("epoch.advances")),
                           ops),
            "count");
    r.layer("mem.limbo_depth_end",
            static_cast<double>(o.mem1.gauge("epoch.limbo_depth")),
            "count");
    r.layer("mem.grace_ns_p50", histMedian(d, "epoch.grace_ns"), "ns");

    const double commits = d.counter("vsm.commits");
    r.layer("vsm.merge_commit_ratio",
            ratio(d.counter("vsm.merge_commits"), commits), "ratio");
    r.layer("vsm.merge_failures_per_kset",
            1000.0 * perOp(d.counter("vsm.merge_failures"), writes),
            "count");
    r.layer("vsm.cas_failures_per_kset",
            1000.0 * perOp(d.counter("vsm.cas_failures"), writes), "count");
    r.layer("lang.commit_retry_ratio",
            perOp(d.counter("contention.retries"), writes), "ratio");
    r.layer("lang.retries_exhausted", d.counter("contention.exhausted"),
            "count");
}

double
medianUs(const TraceSummary &ts, const char *name)
{
    auto it = ts.byName.find(name);
    if (it == ts.byName.end() || it->second.count() == 0)
        return 0;
    auto p = it->second.percentile(0.5);
    return p ? *p / 1e3 : it->second.mean() / 1e3;
}

double
sumNs(const TraceSummary &ts, std::initializer_list<const char *> names)
{
    double s = 0;
    for (const char *n : names) {
        auto it = ts.byName.find(n);
        if (it != ts.byName.end())
            s += it->second.mean() * it->second.count();
    }
    return s;
}

/** store/lang/seg/trace metrics from a traced SplitStore phase. */
void
layerFromSplit(Result &r, const TraceSummary &ts, const Tally &split)
{
    r.layer("lang.hmap_get_us", medianUs(ts, "lang.hmap_get"), "us");
    r.layer("lang.hmap_set_us", medianUs(ts, "lang.hmap_set"), "us");
    const double store = sumNs(ts, {"store.get", "store.set", "store.erase"});
    const double hmap =
        sumNs(ts, {"lang.hmap_get", "lang.hmap_set", "lang.hmap_erase"});
    r.layer("store.codec_us", perOp((store - hmap) / 1e3, split.ops), "us");
    r.layer("seg.build_us_per_kb",
            ratio(sumNs(ts, {"seg.build"}) / 1e3, split.builtBytes / 1024.0),
            "us/KiB");
    r.layer("seg.str_us_per_kb",
            ratio(sumNs(ts, {"seg.str"}) / 1e3, split.strBytes / 1024.0),
            "us/KiB");
}

void
traceMetrics(Result &r, const TraceSummary &ts, double untraced_ops_s,
             double traced_ops_s)
{
    r.layer("trace.overhead_pct",
            untraced_ops_s > 0
                ? 100.0 * (untraced_ops_s - traced_ops_s) / untraced_ops_s
                : 0.0,
            "%");
    r.layer("trace.closure_ratio", ts.closure(), "ratio");
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l)
        r.layer(std::string("trace.self_pct.") +
                    layerName(static_cast<Layer>(l)),
                ts.selfPct(static_cast<Layer>(l)), "%");
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "trace: %llu spans, closure %.3f of busy time",
                  static_cast<unsigned long long>(ts.spans), ts.closure());
    r.notes.push_back(buf);
}

/** Timed probes of seg (iterator load, commit) on the traced maps. */
void
probeSeg(Result &r, Hicamp &hc, SplitStore &store, const KvInputs &in,
         bool tiny)
{
    IteratorRegister it(hc.mem, hc.vsm);
    std::vector<double> load_ns, commit_ns;
    const std::size_t n = std::min<std::size_t>(in.items.size(),
                                                tiny ? 64 : 1024);
    for (std::size_t i = 0; i < n; ++i) {
        HString k(hc, in.items[i].key);
        HMap &shard = store.map().shard(store.map().shardOf(k));
        std::uint64_t t0 = nowNs();
        it.load(shard.vsid(), shard.slotOf(k));
        load_ns.push_back(static_cast<double>(nowNs() - t0));
        WordMeta m;
        const Word w = it.read(&m);
        if (w == 0 || !m.isPlid())
            continue;
        // Re-commit the slot's current pair: a full commit through
        // the segment map that leaves the map's content unchanged.
        hc.mem.incRef(w);
        it.write(w, m);
        t0 = nowNs();
        const bool ok = it.tryCommit();
        commit_ns.push_back(static_cast<double>(nowNs() - t0));
        if (!ok)
            it.abort();
    }
    r.layer("seg.iter_load_us", median(load_ns) / 1e3, "us");
    r.layer("seg.commit_us", median(commit_ns) / 1e3, "us");
}

/** Timed mem probes on the values the traced maps hold. */
void
probeMem(Result &r, Hicamp &hc, SplitStore &store, const KvInputs &in,
         const MemoryConfig &cfg, std::uint64_t seed, bool tiny)
{
    std::vector<HString> vals;
    std::vector<Entry> roots;
    IteratorRegister it(hc.mem, hc.vsm);
    const std::size_t n = std::min<std::size_t>(in.items.size(),
                                                tiny ? 64 : 1024);
    for (std::size_t i = 0; i < n; ++i) {
        HString k(hc, in.items[i].key);
        auto v = store.map().shard(store.map().shardOf(k)).getWith(it, k);
        if (v) {
            roots.push_back(v->desc().root);
            vals.push_back(std::move(*v));
        }
    }
    const MemProbe p = probeMemory(hc.mem, roots, seed, tiny);
    r.layer("mem.read_line_ns", p.readLineNs, "ns");
    r.layer("mem.lookup_hit_ns", p.lookupHitNs, "ns");
    r.layer("mem.lookup_miss_ns", p.lookupMissNs, "ns");
    r.layer("mem.ctor_ms", timeMemoryCtorMs(cfg, tiny ? 2 : 5), "ms");
}

void
spmvNotRun(Result &r)
{
    r.layer("cache.conv_ms_per_mnnz", 0, "ms");
    r.layer("cache.conv_dram", 0, "count");
    r.layer("spmv.build_ns_per_nnz", 0, "ns");
    r.layer("spmv.kernel_ns_per_nnz", 0, "ns");
    r.layer("spmv.unique_lines", 0, "count");
    r.layer("model_dram_ratio", 0, "ratio");
}

void
recordTally(Result &r, const Tally &t)
{
    r.attempted += t.attempted;
    r.failed += t.failed;
    if (t.failed)
        r.fail(std::to_string(t.failed) + " failed requests, first: " +
               t.firstError);
}

void
audit(Result &r, Hicamp &hc, const char *when)
{
    const AuditReport rep = Auditor::audit(hc);
    if (!rep.clean())
        r.fail(std::string("heap audit ") + when + ": " + rep.summary());
    else
        r.notes.push_back(std::string("heap audit ") + when + ": clean (" +
                          std::to_string(rep.linesScanned) + " lines)");
}

/**
 * Latency of one request type over the windows: `<prefix>_us` is the
 * median over windows of each window's p50. The tail (each window's
 * percentile at the highest level every window supports, median over
 * windows) is reported with its level and sample count but not
 * gated: on a shared host it swung by more than the largest allowed
 * bound between runs.
 */
void
windowLatency(Result &r, const std::string &prefix,
              const std::vector<Window> &win, bool get)
{
    double level = 0.99;
    std::size_t fewest = ~std::size_t{0};
    for (const auto &w : win) {
        const LatencyHist &s = get ? w.get : w.set;
        const auto t = s.tail();
        level = t ? std::min(level, t->first) : 0.0;
        fewest = std::min(fewest, s.count());
    }
    std::vector<double> p50, tail;
    for (const auto &w : win) {
        const LatencyHist &s = get ? w.get : w.set;
        if (level > 0) {
            p50.push_back(*s.percentile(0.5));
            tail.push_back(*s.percentile(level));
        }
    }
    if (win.empty() || level == 0) {
        r.fail(prefix + ": a window has too few samples for a median");
        r.e2e(prefix + "_us", 0, "us");
        return;
    }
    r.e2e(prefix + "_us", median(p50) / 1e3, "us");
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%s latency: median over %zu windows (>= %zu samples "
                  "each): p50 %.2f us, tail = p%g %.2f us",
                  prefix.c_str(), win.size(), fewest,
                  median(p50) / 1e3, level * 100, median(tail) / 1e3);
    r.notes.push_back(buf);
}

/**
 * The windows the end-to-end figures use: those with host steal at
 * most kMaxSteal when there are at least a third as many as were
 * asked for, otherwise all of them.
 */
std::vector<std::size_t>
usableWindows(Result &r, const PhaseObs &o, const Tally &t)
{
    const std::size_t n = std::min(o.winWallS.size(), t.win.size());
    std::vector<std::size_t> clean, all;
    for (std::size_t w = 0; w < n; ++w) {
        all.push_back(w);
        if (o.winSteal[w] <= kMaxSteal)
            clean.push_back(w);
    }
    const bool enough = 3 * clean.size() >= n && clean.size() >= 2;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%zu of %zu windows had host steal <= %.0f%%; %s used",
                  clean.size(), n, kMaxSteal * 100,
                  enough ? "those are" : "too few, all are");
    r.notes.push_back(buf);
    return enough ? clean : all;
}

void
endToEnd(Result &r, const Tally &t, const PhaseObs &o,
         const std::vector<double> &setup)
{
    const std::vector<std::size_t> use = usableWindows(r, o, t);
    r.e2e("setup_s", median(setup), "s");
    std::string reps = "setup seconds:";
    for (double x : setup)
        reps += " " + std::to_string(x);
    r.notes.push_back(reps);
    if (t.win.size() < o.winWallS.size())
        r.fail("a measurement window completed no request");
    std::vector<double> rate;
    std::vector<Window> win;
    for (std::size_t w : use) {
        rate.push_back(ratio(static_cast<double>(t.win[w].ops),
                             o.winWallS[w]));
        win.push_back(t.win[w]);
    }
    r.e2e("ops_per_s", median(rate), "ops/s");
    std::string rates = "ops/s per window:";
    for (double x : rate)
        rates += " " + std::to_string(static_cast<long>(x));
    r.notes.push_back(rates);
    windowLatency(r, "get", win, true);
    windowLatency(r, "set", win, false);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "mix: %llu get, %llu set, %llu delete in %.2f s; "
                  "attempted %llu, failed_ratio %.6f",
                  static_cast<unsigned long long>(t.gets),
                  static_cast<unsigned long long>(t.sets),
                  static_cast<unsigned long long>(t.dels), o.wallS,
                  static_cast<unsigned long long>(t.attempted),
                  ratio(static_cast<double>(t.failed),
                        static_cast<double>(t.attempted)));
    r.notes.push_back(buf);
}

/** Measurement windows of an end-to-end phase (about 1 s each). */
int
windowsFor(const RunConfig &cfg)
{
    return cfg.tiny ? 2 : std::max(3, static_cast<int>(cfg.seconds));
}

double
warmupS(const RunConfig &cfg)
{
    return cfg.tiny ? 0.05 : 0.5;
}

int
setupReps(const RunConfig &cfg)
{
    return cfg.tiny ? 1 : 5;
}

/**
 * The traced store phases on @p hc: preload a SplitStore, run it
 * untraced and then traced (their rates give the tracing overhead),
 * and take the store/lang/seg metrics, the seg probes and the mem
 * probes from it. Appends the traced logs to @p logs.
 */
TraceSummary
tracedStorePhases(Result &r, Hicamp &hc, const KvInputs &in,
                  const KvShape &shape, unsigned threads,
                  const RunConfig &cfg, double seconds, Tally &split,
                  double &untraced_ops_s, double &traced_ops_s,
                  std::vector<std::unique_ptr<SpanLog>> &logs)
{
    constexpr std::uint32_t kSplitWriters = 16;
    auto store = std::make_unique<SplitStore>(hc);
    DeleteLog dl(in.items.size());
    SpanLog off(false);
    Tally pre;
    preload(in, [&](const std::string &k, const std::string &p) {
        store->set(off, 0, pre, k, kPreloadWriter, p);
    });
    Tally plain;
    PhaseObs o0 = loadSplitStore(hc, *store, in, threads, kSplitWriters, dl,
                                 warmupS(cfg), seconds, plain, nullptr);
    untraced_ops_s = ratio(static_cast<double>(plain.ops), o0.wallS);
    recordTally(r, plain);
    const std::size_t first = logs.size();
    PhaseObs o = loadSplitStore(hc, *store, in, threads,
                                kSplitWriters + threads, dl, warmupS(cfg),
                                seconds, split, &logs);
    traced_ops_s = ratio(static_cast<double>(split.ops), o.wallS);
    TraceSummary ts;
    for (std::size_t i = first; i < logs.size(); ++i)
        ts.add(*logs[i]);
    layerFromSplit(r, ts, split);
    probeSeg(r, hc, *store, in, cfg.tiny);
    probeMem(r, hc, *store, in, memConfig(shape), cfg.seed, cfg.tiny);
    return ts;
}

void
writeTrace(Result &r, const RunConfig &cfg,
           const std::vector<std::unique_ptr<SpanLog>> &logs)
{
    if (cfg.traceOut.empty())
        return;
    std::vector<const SpanLog *> v;
    for (const auto &l : logs)
        v.push_back(l.get());
    if (!writeChromeTrace(cfg.traceOut, v))
        r.fail("could not write trace to " + cfg.traceOut);
    else
        r.notes.push_back("chrome trace: " + cfg.traceOut);
}

} // namespace

// ---------------------------------------------------------------------

Result
runKvHeap(const RunConfig &cfg)
{
    Result r;
    const KvShape &shape = kHeapShape;
    const unsigned threads = shape.writers;

    // Set-up, repeated so its time is a median: inputs, heap, preload.
    std::vector<double> setup;
    std::unique_ptr<KvInputs> in;
    std::unique_ptr<Hicamp> hc;
    std::unique_ptr<McStore> store;
    for (int rep = 0; rep < setupReps(cfg); ++rep) {
        store.reset();
        hc.reset();
        in.reset();
        const std::uint64_t t0 = nowNs();
        in = std::make_unique<KvInputs>(
            makeInputs(cfg.seed, shape, cfg.tiny, threads));
        hc = std::make_unique<Hicamp>(memConfig(shape));
        store = std::make_unique<McStore>(*hc);
        preload(*in, [&](const std::string &k, const std::string &p) {
            store->set(k, kPreloadWriter, p);
        });
        setup.push_back((nowNs() - t0) / 1e9);
    }
    DeleteLog dl(in->items.size());

    // The traced run splits its time over three phases: McStore
    // untraced, then SplitStore untraced and traced.
    const double measure = cfg.trace ? cfg.seconds / 3 : cfg.seconds;
    Tally t;
    PhaseObs o = loadMcStore(*hc, *store, *in, threads, dl, warmupS(cfg),
                             measure, cfg.trace ? 1 : windowsFor(cfg), t);
    recordTally(r, t);
    endToEnd(r, t, o, setup);
    r.e2e("peak_rss_mb", peakRssMb(), "MB");

    if (cfg.trace) {
        layerFromPhase(r, o, t.ops, t.sets + t.dels);
        auto medUs = [](const LatencyHist &s) {
            auto p = s.percentile(0.5);
            return p ? *p / 1e3 : 0.0;
        };
        r.layer("store.get_us", medUs(t.get), "us");
        r.layer("store.set_us", medUs(t.set), "us");
        r.layer("store.erase_us", medUs(t.erase), "us");
        std::vector<std::unique_ptr<SpanLog>> logs;
        Tally split;
        double plain_ops_s = 0, traced_ops_s = 0;
        TraceSummary ts =
            tracedStorePhases(r, *hc, *in, shape, threads, cfg, measure,
                              split, plain_ops_s, traced_ops_s, logs);
        recordTally(r, split);
        traceMetrics(r, ts, plain_ops_s, traced_ops_s);
        writeTrace(r, cfg, logs);
        r.layer("server.overhead_us", 0, "us");
        r.layer("server.batch_cmds_mean", 0, "count");
        r.layer("server.stalls_per_kop", 0, "count");
        r.layer("server.bytes_per_op", 0, "bytes");
        spmvNotRun(r);
    }
    audit(r, *hc, "at exit");
    return r;
}

Result
runKvServe(const RunConfig &cfg)
{
    Result r;
    const KvShape &shape = kServeShape;
    const unsigned conns = shape.writers;

    std::vector<double> setup;
    std::unique_ptr<KvInputs> in;
    std::unique_ptr<Hicamp> hc;
    std::unique_ptr<McStore> store;
    std::unique_ptr<McServer> srv;
    std::vector<Client> clients;
    auto closeClients = [&] {
        for (auto &c : clients)
            if (c.fd >= 0)
                ::close(c.fd);
        clients.clear();
    };
    for (int rep = 0; rep < setupReps(cfg); ++rep) {
        closeClients();
        srv.reset();
        store.reset();
        hc.reset();
        in.reset();
        const std::uint64_t t0 = nowNs();
        in = std::make_unique<KvInputs>(
            makeInputs(cfg.seed, shape, cfg.tiny, conns));
        hc = std::make_unique<Hicamp>(memConfig(shape));
        store = std::make_unique<McStore>(*hc);
        preload(*in, [&](const std::string &k, const std::string &p) {
            store->set(k, kPreloadWriter, p);
        });
        ServerConfig sc;
        sc.workers = 2;
        srv = std::make_unique<McServer>(*store, sc);
        srv->start();
        for (unsigned c = 0; c < conns; ++c) {
            Client cl;
            cl.fd = connectTo(srv->port());
            cl.writer = c;
            cl.stream = c;
            clients.push_back(cl);
            if (cl.fd < 0) {
                r.fail("cannot connect to the loopback server");
                closeClients();
                srv.reset();
                return r;
            }
        }
        setup.push_back((nowNs() - t0) / 1e9);
    }
    DeleteLog dl(in->items.size());

    // The traced run's phases each take a third of the time: loopback
    // untraced and traced, then the in-process SplitStore untraced
    // and traced.
    const double measure = cfg.trace ? cfg.seconds / 3 : cfg.seconds;
    auto sv0 = srv->metrics().snapshot();
    Tally t;
    PhaseObs o = loadServer(*hc, clients, *in, dl, warmupS(cfg), measure,
                            cfg.trace ? 1 : windowsFor(cfg), t);
    auto sv1 = srv->metrics().snapshot();
    recordTally(r, t);
    endToEnd(r, t, o, setup);
    r.e2e("peak_rss_mb", peakRssMb(), "MB");

    std::vector<std::unique_ptr<SpanLog>> logs;
    if (cfg.trace) {
        layerFromPhase(r, o, t.ops, t.sets + t.dels);
        const auto sd = obs::delta(sv0, sv1);
        r.layer("server.batch_cmds_mean", histMean(sd, "server.batch.cmds"),
                "count");
        r.layer("server.stalls_per_kop",
                1000.0 * perOp(sd.counter("server.backpressure.stalls"),
                               t.ops),
                "count");
        r.layer("server.bytes_per_op",
                perOp(sd.counter("server.bytes.in") +
                          sd.counter("server.bytes.out"),
                      t.ops),
                "bytes");

        // traced loopback phase: client spans on every connection
        for (auto &c : clients) {
            logs.push_back(std::make_unique<SpanLog>(true));
            c.log = logs.back().get();
            c.busy0 = 0;
        }
        Tally tt;
        PhaseObs ot =
            loadServer(*hc, clients, *in, dl, warmupS(cfg), measure, 1, tt);
        recordTally(r, tt);

        // traced in-process store phase: the same mix, 2 threads like
        // the server's 2 workers, through SplitStore
        Tally split;
        double plain_ops_s = 0, split_ops_s = 0;
        TraceSummary ss =
            tracedStorePhases(r, *hc, *in, shape, 2, cfg, measure, split,
                              plain_ops_s, split_ops_s, logs);
        recordTally(r, split);
        LatencyHist storeOps;
        for (const char *n : {"store.get", "store.set", "store.erase"}) {
            auto it = ss.byName.find(n);
            if (it != ss.byName.end())
                storeOps.merge(it->second);
        }
        LatencyHist rtt = t.get;
        rtt.merge(t.set);
        const auto rtt50 = rtt.percentile(0.5);
        const auto st50 = storeOps.percentile(0.5);
        r.layer("server.overhead_us",
                rtt50 && st50 ? (*rtt50 - *st50) / 1e3 : 0.0, "us");
        r.layer("store.get_us", medianUs(ss, "store.get"), "us");
        r.layer("store.set_us", medianUs(ss, "store.set"), "us");
        r.layer("store.erase_us", medianUs(ss, "store.erase"), "us");

        TraceSummary all;
        for (const auto &l : logs)
            all.add(*l);
        traceMetrics(r, all, ratio(static_cast<double>(t.ops), o.wallS),
                     ratio(static_cast<double>(tt.ops), ot.wallS));
        spmvNotRun(r);
    }

    closeClients();
    srv->stop();
    if (cfg.trace)
        writeTrace(r, cfg, logs);
    srv.reset();
    audit(r, *hc, "after server stop");
    return r;
}

} // namespace perfbench
