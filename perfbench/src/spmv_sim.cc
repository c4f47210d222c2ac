/**
 * @file
 * spmv_sim: the paper's Fig. 7 simulation (§5.2) on a fixed, seeded
 * subset of MatrixGen matrices, single-threaded — what a researcher
 * waits for when reproducing the figure.
 *
 * Timed work per matrix: the conventional CSR model
 * (convSpmvTraffic), then per HICAMP format (QTS, NZD, each in its
 * own Memory as bench_fig7 does): construct Memory, build the
 * matrix, cold caches, run spmv() and check it against
 * SparseMatrix::multiply. The subset covers every MatrixGen category;
 * two matrices exceed the 4 MiB modeled L2 and the rest fit.
 *
 * The modeled counters are deterministic. Every pass over the subset
 * must reproduce them exactly, and so must every run with the same
 * seed (recorded under --check-dir), or the run fails.
 */

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <type_traits>

#include "apps/spmv/hicamp_matrix.hh"
#include "common.hh"
#include "workloads/matrixgen.hh"

namespace perfbench {

using namespace hicamp;

namespace {

/** One matrix of the subset: shape fixed, values from the seed. */
struct MatrixInput {
    SparseMatrix m;
    std::vector<double> x;
    std::vector<double> ref;    ///< SparseMatrix::multiply(x)
    std::vector<double> absRow; ///< sum_j |a_ij x_j|, for the tolerance
};

/**
 * The subset. Shapes are fixed so run time does not depend on the
 * seed; the seed only feeds the generators' values and structure.
 * The two "-big" matrices have CSR footprints above the 4 MiB
 * modeled L2; the rest fit.
 */
std::vector<SparseMatrix>
makeMatrices(std::uint64_t seed, bool tiny)
{
    using C = MatrixGen::Coef;
    const std::uint32_t s = tiny ? 8 : 1; // tiny: shrink dimensions
    std::uint64_t k = seed * 7919;
    std::vector<SparseMatrix> v;
    v.push_back(MatrixGen::fem2d(48 / s, C::Smooth, true, ++k, "fem2d-sym"));
    v.push_back(MatrixGen::fem2d(64 / s, C::Random, false, ++k, "fem2d"));
    v.push_back(MatrixGen::fem3d(14 / s + 4, C::Random, true, ++k, "fem3d"));
    v.push_back(MatrixGen::lp(2000 / s, 3000 / s, 4, ++k, "lp"));
    v.push_back(MatrixGen::banded(4000 / s, {0, 1, -1, 16, -16},
                                  C::FewValues, false, ++k, "banded"));
    v.push_back(MatrixGen::circuit(4000 / s, 4.0, ++k, "circuit"));
    v.push_back(MatrixGen::blockTiled(2048 / s, 32, 0.2, C::Constant, ++k,
                                      "block"));
    v.push_back(MatrixGen::randomSparse(3000 / s, 3000 / s, 15000 / s, ++k,
                                        "random"));
    // CSR footprint just above the 4 MiB modeled L2
    v.push_back(MatrixGen::banded(110000 / s, {0, 1, -1}, C::Smooth, true,
                                  ++k, "banded-big"));
    v.push_back(MatrixGen::fem2d(260 / s, C::Constant, false, ++k,
                                 "fem2d-big"));
    return v;
}

std::vector<MatrixInput>
makeInputs(std::uint64_t seed, bool tiny)
{
    std::vector<MatrixInput> out;
    Rng rng(seed ^ 0x5eed5eedull);
    for (auto &m : makeMatrices(seed, tiny)) {
        MatrixInput in;
        in.x.resize(m.cols());
        for (auto &xi : in.x)
            xi = 2.0 * rng.uniform() - 1.0;
        in.ref = m.multiply(in.x);
        in.absRow.assign(m.rows(), 0.0);
        for (const auto &t : m.elems())
            in.absRow[t.r] += std::fabs(t.v * in.x[t.c]);
        in.m = std::move(m);
        out.push_back(std::move(in));
    }
    return out;
}

/// Nominal host seconds of one pass over the full-size subset (4-core
/// KVM guest); --seconds is turned into a pass count with it.
constexpr double kPassSeconds = 6.0;

MemoryConfig
configFor(const SparseMatrix &m)
{
    MemoryConfig cfg; // 4 MiB L2, as in Fig. 7
    cfg.numBuckets =
        std::bit_ceil(std::max<std::uint64_t>(m.nnz() / 2, 1 << 13));
    return cfg;
}

/** Model counters of one pass (must repeat exactly). */
struct Model {
    std::uint64_t hicampDram = 0; ///< sum over matrices of min(QTS, NZD)
    std::uint64_t convDram = 0;
    std::uint64_t uniqueLines = 0;
    std::uint64_t memDram = 0;    ///< all DRAM traffic, build + kernel
    std::uint64_t reads = 0, lookups = 0, dedupHits = 0;
    std::uint64_t l1h = 0, l1m = 0, l2h = 0, l2m = 0;
    std::uint64_t rowActs = 0, overflowWalks = 0, deallocs = 0;
    std::uint64_t candSum = 0, candCount = 0;
    std::vector<std::uint64_t> perMatrix; ///< qts, nzd, conv per matrix

    bool operator==(const Model &) const = default;

    void
    addMem(const obs::MetricsSnapshot &d)
    {
        memDram += dramTotal(d);
        reads += d.counter("ops.reads");
        lookups += d.counter("ops.lookups");
        dedupHits += d.counter("lookup.dedup_hits");
        l1h += d.counter("cache.l1.hits");
        l1m += d.counter("cache.l1.misses");
        l2h += d.counter("cache.l2.hits");
        l2m += d.counter("cache.l2.misses");
        rowActs += d.counter("row_activations");
        overflowWalks += d.counter("lookup.overflow_walks");
        deallocs += d.counter("deallocs");
        for (const auto &[n, h] : d.histograms)
            if (n == "lookup.candidates") {
                candSum += h.sum;
                candCount += h.count;
            }
    }
};

/** Host timings of one or more passes. */
struct Host {
    std::uint64_t nnz = 0;
    double totalNs = 0, convNs = 0, buildNs = 0, kernelNs = 0;
    double cpuS = 0;
    std::uint64_t stripeOps = 0, epochAdvances = 0;
    /// per pass: host ns of each matrix, and of each spmv() call
    /// ("get") and format build ("set"), in subset order
    std::vector<std::vector<double>> matrixNs, kernelCalls, buildCalls;
    /// per pass: the host steal share while it ran
    std::vector<double> steal;

    /** Drop the passes not listed in @p keep. */
    void
    keepPasses(const std::vector<std::size_t> &keep)
    {
        auto pick = [&](std::vector<std::vector<double>> &rows) {
            std::vector<std::vector<double>> out;
            for (std::size_t p : keep)
                out.push_back(rows[p]);
            rows = std::move(out);
        };
        pick(matrixNs);
        pick(kernelCalls);
        pick(buildCalls);
    }

    /** Per item, the median over passes: robust to a burst of
     *  outside load hitting one pass. */
    static std::vector<double>
    medianOverPasses(const std::vector<std::vector<double>> &rows)
    {
        std::vector<double> out;
        for (std::size_t j = 0; !rows.empty() && j < rows[0].size(); ++j) {
            std::vector<double> v;
            for (const auto &row : rows)
                v.push_back(row[j]);
            out.push_back(median(v));
        }
        return out;
    }
};

/** The last QTS memory of a pass, kept for the mem probes. */
struct Kept {
    std::unique_ptr<Memory> mem;
    std::unique_ptr<QtsMatrix> qts;
};

bool
checkY(const MatrixInput &in, const std::vector<double> &y,
       std::string &why, const char *fmt)
{
    // Tolerance: 1e-9 of the row's absolute sum (summation order
    // differs between formats; a wrong element is far larger).
    if (y.size() < in.ref.size()) {
        why = std::string(fmt) + " y has the wrong length";
        return false;
    }
    for (std::size_t i = 0; i < in.ref.size(); ++i) {
        const double tol = 1e-9 * std::max(1.0, in.absRow[i]);
        if (!(std::fabs(y[i] - in.ref[i]) <= tol)) {
            char b[160];
            std::snprintf(b, sizeof b,
                          "%s %s: y[%zu] = %.17g, reference %.17g", fmt,
                          in.m.name().c_str(), i, y[i], in.ref[i]);
            why = b;
            return false;
        }
    }
    return true;
}

/** Simulate one format of one matrix; returns kernel DRAM traffic. */
template <typename Fmt>
std::uint64_t
simulateFormat(const MatrixInput &in, const char *name, SpanLog &log,
               std::uint64_t req, Model &model, Host &host,
               Result &r, Kept *keep)
{
    const char *buildName = name[0] == 'q' ? "spmv.build_qts"
                                           : "spmv.build_nzd";
    const char *kernelName = name[0] == 'q' ? "spmv.kernel_qts"
                                            : "spmv.kernel_nzd";
    std::unique_ptr<Memory> mem;
    {
        Scope s(log, Layer::Mem, "mem.ctor", req);
        mem = std::make_unique<Memory>(configFor(in.m));
    }
    const obs::MetricsSnapshot before = mem->metrics().snapshot();
    const std::uint64_t stripe0 = mem->store().stripeLockExclusiveOps() +
                                  mem->store().stripeLockSharedOps();
    std::unique_ptr<Fmt> f;
    std::uint64_t t0 = nowNs();
    {
        Scope s(log, Layer::Spmv, buildName, req);
        f = std::make_unique<Fmt>(*mem, in.m);
    }
    std::uint64_t ns = nowNs() - t0;
    host.buildNs += ns;
    host.buildCalls.back().push_back(static_cast<double>(ns));
    model.uniqueLines += f->uniqueLines();
    {
        Scope s(log, Layer::Mem, "mem.cold", req);
        mem->coldCaches();
    }
    const obs::MetricsSnapshot mid = mem->metrics().snapshot();
    std::vector<double> y;
    t0 = nowNs();
    {
        Scope s(log, Layer::Spmv, kernelName, req);
        y = f->spmv(in.x);
    }
    ns = nowNs() - t0;
    host.kernelNs += ns;
    host.kernelCalls.back().push_back(static_cast<double>(ns));
    const obs::MetricsSnapshot after = mem->metrics().snapshot();
    const std::uint64_t kernelDram = dramTotal(obs::delta(mid, after));
    model.addMem(obs::delta(before, after));
    host.stripeOps += mem->store().stripeLockExclusiveOps() +
                      mem->store().stripeLockSharedOps() - stripe0;
    host.epochAdvances += after.gauge("epoch.advances") -
                          before.gauge("epoch.advances");
    {
        Scope s(log, Layer::Bench, "bench.verify", req);
        std::string why;
        if (!checkY(in, y, why, name))
            r.fail(why);
    }
    if constexpr (std::is_same_v<Fmt, QtsMatrix>) {
        if (keep) {
            keep->qts.reset(); // the matrix before its memory
            keep->mem = std::move(mem);
            keep->qts = std::move(f);
            return kernelDram;
        }
    }
    {
        Scope s(log, Layer::Mem, "mem.dtor", req);
        f.reset();
        mem.reset();
    }
    return kernelDram;
}

/** One pass over the subset. */
void
simulatePass(const std::vector<MatrixInput> &inputs, SpanLog &log,
             Model &model, Host &host, Result &r, Kept *keep)
{
    const std::uint64_t pass0 = nowNs();
    const CpuTimes c0 = cpuNow();
    const HostTicks h0 = hostTicks();
    host.matrixNs.emplace_back();
    host.kernelCalls.emplace_back();
    host.buildCalls.emplace_back();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const MatrixInput &in = inputs[i];
        const std::uint64_t m0 = nowNs();
        const std::uint64_t req = i;
        Scope root(log, Layer::Bench, "bench.matrix", req);
        std::uint64_t conv;
        std::uint64_t t0 = nowNs();
        {
            Scope s(log, Layer::Cache, "cache.conv", req);
            ConvHierarchy hier = ConvHierarchy::paperDefault(16);
            conv = convSpmvTraffic(in.m, hier);
        }
        host.convNs += nowNs() - t0;
        const bool last = i + 1 == inputs.size();
        const std::uint64_t q = simulateFormat<QtsMatrix>(
            in, "qts", log, req, model, host, r, last ? keep : nullptr);
        const std::uint64_t z = simulateFormat<NzdMatrix>(
            in, "nzd", log, req, model, host, r, nullptr);
        model.hicampDram += std::min(q, z);
        model.convDram += conv;
        model.perMatrix.insert(model.perMatrix.end(), {q, z, conv});
        host.nnz += in.m.nnz();
        host.matrixNs.back().push_back(static_cast<double>(nowNs() - m0));
    }
    host.totalNs += nowNs() - pass0;
    host.cpuS += cpuNow().total() - c0.total();
    host.steal.push_back(stealShare(h0, hostTicks()));
    if (log.enabled())
        log.busyNs += nowNs() - pass0;
}

std::string
modelRecord(const Model &m, std::uint64_t nnz)
{
    std::ostringstream o;
    char b[64];
    std::snprintf(b, sizeof b, "%.17g",
                  static_cast<double>(m.hicampDram) /
                      static_cast<double>(std::max<std::uint64_t>(
                          m.convDram, 1)));
    o << "model_dram_ratio " << b << "\n";
    std::snprintf(b, sizeof b, "%.17g",
                  static_cast<double>(m.memDram) /
                      static_cast<double>(std::max<std::uint64_t>(nnz, 1)));
    o << "mem.dram_per_op " << b << "\n";
    o << "spmv.unique_lines " << m.uniqueLines << "\n";
    o << "cache.conv_dram " << m.convDram << "\n";
    o << "per_matrix";
    for (auto v : m.perMatrix)
        o << " " << v;
    o << "\n";
    return o.str();
}

/** Compare against (or create) this seed's record from earlier runs. */
void
crossRunCheck(Result &r, const RunConfig &cfg, const std::string &rec)
{
    if (cfg.checkDir.empty())
        return;
    const std::string path = cfg.checkDir + "/spmv_sim-" +
                             (cfg.tiny ? "tiny-" : "") + "seed" +
                             std::to_string(cfg.seed) + ".txt";
    std::ifstream f(path);
    if (f) {
        std::stringstream prev;
        prev << f.rdbuf();
        if (prev.str() != rec)
            r.fail("model counters differ from an earlier run with "
                   "seed " + std::to_string(cfg.seed) + " (" + path + ")");
        else
            r.notes.push_back("model counters repeat exactly: " + path);
        return;
    }
    std::ofstream out(path);
    out << rec;
    if (!out)
        r.fail("cannot record model counters at " + path);
}

void
kvNotRun(Result &r)
{
    for (const char *n :
         {"server.overhead_us", "store.get_us", "store.set_us",
          "store.erase_us", "store.codec_us", "lang.hmap_get_us",
          "lang.hmap_set_us", "seg.iter_load_us", "seg.commit_us"})
        r.layer(n, 0, "us");
    for (const char *n :
         {"server.batch_cmds_mean", "server.stalls_per_kop",
          "lang.retries_exhausted", "vsm.merge_failures_per_kset",
          "vsm.cas_failures_per_kset"})
        r.layer(n, 0, "count");
    r.layer("server.bytes_per_op", 0, "bytes");
    r.layer("lang.commit_retry_ratio", 0, "ratio");
    r.layer("vsm.merge_commit_ratio", 0, "ratio");
    r.layer("seg.build_us_per_kb", 0, "us/KiB");
    r.layer("seg.str_us_per_kb", 0, "us/KiB");
}

double
div0(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

} // namespace

Result
runSpmvSim(const RunConfig &cfg)
{
    Result r;
    std::vector<double> setup;
    std::vector<MatrixInput> inputs;
    for (int rep = 0; rep < (cfg.tiny ? 1 : 5); ++rep) {
        inputs.clear();
        const std::uint64_t t0 = nowNs();
        inputs = makeInputs(cfg.seed, cfg.tiny);
        setup.push_back((nowNs() - t0) / 1e9);
    }
    std::uint64_t l2Big = 0;
    for (const auto &in : inputs)
        l2Big += in.m.csrBytes() > (4ull << 20);
    r.notes.push_back(std::to_string(inputs.size()) + " matrices, " +
                      std::to_string(l2Big) +
                      " larger than the 4 MiB modeled L2");

    // A fixed number of whole passes for the requested time, each on
    // a fresh thread: a thread's host time per operation grows with
    // the number of Memory instances it has used (each leaves an entry
    // in a thread-local epoch table that every pin scans), so passes
    // on one thread would not be alike. Every pass must reproduce the
    // first pass's model counters exactly.
    const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    const int wantPasses =
        std::max(1, static_cast<int>(std::lround(budget / kPassSeconds)));
    // A traced run adds as many traced passes, in ABBA order so the
    // per-pass drift does not bias the tracing overhead. An untraced
    // run makes up for passes with host steal above kMaxSteal with
    // extra passes, at most wantPasses more.
    SpanLog off(false), log(true);
    Model first;
    Host host, traced;
    int passes = 0;
    Kept kept;
    auto cleanPasses = [&] {
        return static_cast<int>(std::count_if(
            host.steal.begin(), host.steal.end(),
            [](double st) { return st <= kMaxSteal; }));
    };
    for (int p = 0;
         p < (cfg.trace ? 2 : 1) * wantPasses ||
         (!cfg.trace && cleanPasses() < wantPasses && p < 2 * wantPasses);
         ++p) {
        const bool tr = cfg.trace && (p % 4 == 1 || p % 4 == 2);
        Model m;
        std::thread pass([&] {
            simulatePass(inputs, tr ? log : off, m, tr ? traced : host, r,
                         cfg.trace && !tr ? &kept : nullptr);
        });
        pass.join();
        if (p == 0)
            first = m;
        else if (!(m == first))
            r.fail("model counters changed between passes");
        passes += !tr;
    }

    // host figures from the passes with little steal, when at least
    // half of the asked-for passes were clean
    std::vector<std::size_t> clean;
    for (std::size_t p = 0; p < host.steal.size(); ++p)
        if (host.steal[p] <= kMaxSteal)
            clean.push_back(p);
    const bool enough = 2 * static_cast<int>(clean.size()) >= wantPasses;
    r.notes.push_back(std::to_string(clean.size()) + " of " +
                      std::to_string(passes) + " passes had host steal <= " +
                      std::to_string(static_cast<int>(kMaxSteal * 100)) +
                      "%; " + (enough ? "those are" : "too few, all are") +
                      " used");
    if (enough)
        host.keepPasses(clean);

    const double ratio =
        div0(static_cast<double>(first.hicampDram), first.convDram);
    const std::string rec = modelRecord(first, host.nnz / passes);
    crossRunCheck(r, cfg, rec);

    r.attempted = host.nnz;
    r.failed = r.correct ? 0 : host.nnz / passes;
    const double hostS = host.totalNs / 1e9;
    // sim_nnz_per_s: one pass's nonzeros over the per-matrix medians
    double passNs = 0;
    for (double ns : Host::medianOverPasses(host.matrixNs))
        passNs += ns;
    const double simRate =
        div0(static_cast<double>(host.nnz / passes), passNs / 1e9);
    // get/set: host time per simulated nonzero of one spmv() call, and
    // of one format build, from the per-call medians over passes.
    // (Percentiles over the 20 calls, or over nonzeros, jump between
    // matrices of very different sizes and costs from run to run.)
    double kernelNs = 0, buildNs = 0;
    for (double ns : Host::medianOverPasses(host.kernelCalls))
        kernelNs += ns;
    for (double ns : Host::medianOverPasses(host.buildCalls))
        buildNs += ns;
    const double callNnz = 2.0 * static_cast<double>(host.nnz / passes);
    r.e2e("setup_s", median(setup), "s");
    r.e2e("ops_per_s", simRate, "ops/s");
    r.e2e("get_us", kernelNs / callNnz / 1e3, "us");
    r.e2e("set_us", buildNs / callNnz / 1e3, "us");
    r.e2e("peak_rss_mb", peakRssMb(), "MB");
    char b[200];
    std::snprintf(b, sizeof b,
                  "%d passes; sim_nnz_per_s %.1f; model_dram_ratio %.6f "
                  "(HICAMP %" PRIu64 " / conventional %" PRIu64 ")",
                  passes, simRate, ratio, first.hicampDram,
                  first.convDram);
    r.notes.push_back(b);
    std::string passes_s = "pass seconds:";
    for (const auto &row : host.matrixNs) {
        double t = 0;
        for (double ns : row)
            t += ns;
        std::snprintf(b, sizeof b, " %.3f", t / 1e9);
        passes_s += b;
    }
    r.notes.push_back(passes_s);

    if (!cfg.trace)
        return r;

    // per-layer metrics
    TraceSummary ts;
    ts.add(log);

    const double nnz = static_cast<double>(host.nnz);
    const double perPass = nnz / passes;
    r.layer("proc.cpu_us_per_op", div0(host.cpuS * 1e6, nnz), "us");
    r.layer("proc.cpu_util", div0(host.cpuS, hostS), "cores");
    r.layer("mem.reads_per_op", div0(first.reads, perPass), "count");
    r.layer("mem.lookups_per_op", div0(first.lookups, perPass), "count");
    r.layer("mem.dedup_hit_ratio", div0(first.dedupHits, first.lookups),
            "ratio");
    r.layer("mem.l1_hit_ratio", div0(first.l1h, first.l1h + first.l1m),
            "ratio");
    r.layer("mem.l2_hit_ratio", div0(first.l2h, first.l2h + first.l2m),
            "ratio");
    r.layer("mem.dram_per_op", div0(first.memDram, perPass), "count");
    r.layer("mem.row_acts_per_op", div0(first.rowActs, perPass), "count");
    r.layer("mem.candidates_mean", div0(first.candSum, first.candCount),
            "count");
    r.layer("mem.overflow_walks_per_klookup",
            1000.0 * div0(first.overflowWalks, first.lookups), "count");
    r.layer("mem.stripe_lock_ops_per_op", div0(host.stripeOps, nnz),
            "count");
    r.layer("mem.deallocs_per_op", div0(first.deallocs, perPass), "count");
    r.layer("mem.epoch_advances_per_kop",
            1000.0 * div0(host.epochAdvances, nnz), "count");
    r.layer("mem.limbo_depth_end",
            kept.mem ? static_cast<double>(kept.mem->metrics().snapshot().gauge(
                           "epoch.limbo_depth"))
                     : 0.0,
            "count");
    r.layer("mem.grace_ns_p50", 0, "ns");
    r.layer("cache.conv_ms_per_mnnz", div0(host.convNs / 1e6, nnz / 1e6),
            "ms");
    r.layer("cache.conv_dram", static_cast<double>(first.convDram),
            "count");
    r.layer("spmv.build_ns_per_nnz", div0(host.buildNs, nnz), "ns");
    r.layer("spmv.kernel_ns_per_nnz", div0(host.kernelNs, nnz), "ns");
    r.layer("spmv.unique_lines", static_cast<double>(first.uniqueLines),
            "count");
    r.layer("model_dram_ratio", ratio, "ratio");

    if (kept.mem && kept.qts) {
        const MemProbe p = probeMemory(*kept.mem, {kept.qts->root()},
                                       cfg.seed, cfg.tiny);
        r.layer("mem.read_line_ns", p.readLineNs, "ns");
        r.layer("mem.lookup_hit_ns", p.lookupHitNs, "ns");
        r.layer("mem.lookup_miss_ns", p.lookupMissNs, "ns");
        r.layer("mem.ctor_ms",
                timeMemoryCtorMs(configFor(inputs.back().m),
                                 cfg.tiny ? 2 : 5),
                "ms");
    }
    kvNotRun(r);

    const double tracedS = traced.totalNs / 1e9;
    const double untracedRate = div0(nnz, hostS);
    const double tracedRate = div0(static_cast<double>(traced.nnz), tracedS);
    r.layer("trace.overhead_pct",
            div0(100.0 * (untracedRate - tracedRate), untracedRate), "%");
    r.layer("trace.closure_ratio", ts.closure(), "ratio");
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l)
        r.layer(std::string("trace.self_pct.") +
                    layerName(static_cast<Layer>(l)),
                ts.selfPct(static_cast<Layer>(l)), "%");
    if (!cfg.traceOut.empty() && !writeChromeTrace(cfg.traceOut, {&log}))
        r.fail("could not write trace to " + cfg.traceOut);
    return r;
}

} // namespace perfbench
