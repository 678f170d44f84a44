/**
 * @file
 * table4-timing: the timing cross-product behind the paper's Table 4.
 * Every registry workload x {Baseline, IvbOpt, BCC, SCC} x {DC1, DC2}
 * at scale 1, with the host reference check on, through
 * run::SweepRunner serially. The runner groups the four modes of each
 * (workload, DC) point into one compare job: one capture, three
 * replays. An operation is one such point; the seed shuffles the order
 * in which the sweep's requests are submitted.
 */

#include <cstdio>

#include "gpu/device.hh"
#include "run/run.hh"
#include "run/sweep_runner.hh"
#include "workloads.hh"
#include "workloads/registry.hh"

namespace iwcbench
{

using namespace iwc;
using compaction::Mode;

namespace
{

constexpr unsigned kModes = compaction::kNumModes;
using PointStats = std::array<gpu::LaunchStats, kModes>;

/** The sweep's requests in their seeded submission order. */
struct Sweep
{
    std::vector<Point> points; ///< canonical order: workload, then DC
    std::vector<run::RunRequest> requests;
    std::vector<std::size_t> pointOf;
    std::vector<unsigned> modeOf;
    /** True for the first request of its point in submission order:
     *  the one whose progress interval carries the compare job. */
    std::vector<bool> lead;
};

/** splitmix64: a fixed, library-independent shuffle generator. */
std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Sweep
makeSweep(std::uint64_t seed)
{
    Sweep sweep;
    struct Item
    {
        std::size_t point;
        unsigned mode;
    };
    std::vector<Item> items;
    for (const std::string &name : workloads::allNames()) {
        for (unsigned dc = 1; dc <= 2; ++dc) {
            sweep.points.push_back({name, dc});
            for (unsigned m = 0; m < kModes; ++m)
                items.push_back({sweep.points.size() - 1, m});
        }
    }
    std::uint64_t state = seed;
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[splitmix(state) % i]);

    std::vector<bool> seen(sweep.points.size(), false);
    for (const Item &item : items) {
        const Point &p = sweep.points[item.point];
        run::RunRequest request = run::RunRequest::timing(
            p.workload, pointConfig(p.dc, static_cast<Mode>(item.mode)), 1);
        request.checkOutput = true;
        sweep.requests.push_back(std::move(request));
        sweep.pointOf.push_back(item.point);
        sweep.modeOf.push_back(item.mode);
        sweep.lead.push_back(!seen[item.point]);
        seen[item.point] = true;
    }
    return sweep;
}

struct Round
{
    double seconds = 0;
    std::vector<double> latencyMs; ///< per point
    std::vector<PointStats> stats; ///< per point
    std::vector<bool> ok;          ///< per point: every check passed
    double simCycles = 0;
    double records = 0;
};

Round
sweepRound(const Sweep &sweep)
{
    const std::size_t n = sweep.requests.size();
    std::vector<std::int64_t> done(n, 0);
    run::SweepOptions options;
    options.jobs = 1;
    options.progress = [&done](std::size_t d, std::size_t) {
        done[d - 1] = nowNs();
    };
    run::SweepRunner runner(options);
    const std::int64_t t0 = nowNs();
    const std::vector<run::RunResult> results = runner.run(sweep.requests);
    const std::int64_t t1 = nowNs();

    Round r;
    r.seconds = static_cast<double>(t1 - t0) / 1e9;
    r.latencyMs.assign(sweep.points.size(), 0);
    r.stats.assign(sweep.points.size(), {});
    r.ok.assign(sweep.points.size(), true);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t p = sweep.pointOf[i];
        if (sweep.lead[i])
            r.latencyMs[p] =
                static_cast<double>(done[i] - (i ? done[i - 1] : t0)) / 1e6;
        r.stats[p][sweep.modeOf[i]] = results[i].stats;
        if (!results[i].checked || !results[i].checkOk)
            r.ok[p] = false;
        r.simCycles += static_cast<double>(results[i].stats.totalCycles);
        r.records += static_cast<double>(results[i].stats.eu.instructions);
    }
    return r;
}

std::uint64_t
pointDigest(const PointStats &stats)
{
    Digest d;
    for (const gpu::LaunchStats &s : stats)
        digestLaunch(d, s);
    return d.value();
}

/**
 * The benchmark's own checks of one workload's results, from an
 * independent capture of its execution masks: the closed-form per-mode
 * EU cycles must equal every LaunchStats of the workload (all modes,
 * both DC configs) and the trace-methodology analysis, and be ordered
 * Baseline >= IvbOpt >= BCC >= SCC.
 */
void
verifyWorkload(const std::string &name,
               const std::vector<const PointStats *> &points, Outcome &out)
{
    const gpu::GpuConfig config = pointConfig(1, Mode::Baseline);
    gpu::Device dev(config);
    const workloads::Workload w = workloads::make(name, dev, 1);
    eu::IssueTrace trace;
    dev.launchCapture(w.kernel, w.globalSize, w.localSize, w.args, trace);
    const Oracle oracle = oracleOf(w.kernel, trace, config.eu.sendCycles,
                                   config.eu.ctrlCycles);
    if (!oracle.ordered())
        out.fail(name + ": closed-form cycles not Baseline>=IvbOpt>=BCC>=SCC");
    for (const PointStats *stats : points) {
        for (unsigned m = 0; m < kModes; ++m) {
            if ((*stats)[m].eu.euCyclesByMode != oracle.cycles)
                out.fail(name + ": euCyclesByMode differs from closed form");
            if ((*stats)[m].eu.instructions != oracle.records)
                out.fail(name + ": instruction count differs from issues");
        }
    }
    if (run::analyzeWorkload(name, 1).euCycles != oracle.cycles)
        out.fail(name + ": trace analysis differs from closed form");
}

/**
 * The traced route over every point of one round. The compare route of
 * each point runs twice, with spans off and on, for the overhead.
 */
void
tracedRound(const Sweep &sweep, const std::vector<std::size_t> &order,
            Spans &spans, TracedPhase &phase, Outcome &out,
            std::vector<gpu::LaunchStats> &stats, std::uint64_t &analyzed)
{
    for (const std::size_t p : order) {
        const Point &point = sweep.points[p];
        const PointResult r = phase.pair(spans, [&](Spans &s) {
            Scoped top(s, "table4.point", p);
            return comparePoint(s, point, p);
        });
        Scoped iso(spans, "table4.isolated", p);
        const gpu::LaunchStats plain = launchDriver(spans, point, p);
        const std::uint64_t instrs =
            functionalDriver(spans, point.workload, p);
        memDriver(spans, r, point.dc, p);
        const auto records = issueRecords(r.kernel, r.trace);
        std::uint64_t mismatches = 0;
        compactionDriver(spans, records, p, mismatches);
        const trace::TraceAnalysis analysis =
            analyzeRecords(spans, records, p);
        analyzed += analysis.records;

        Scoped check(spans, "bench.check", p);
        ++out.attempted;
        const gpu::GpuConfig config = pointConfig(point.dc, Mode::Baseline);
        const Oracle oracle = oracleOf(r.kernel, r.trace,
                                       config.eu.sendCycles,
                                       config.eu.ctrlCycles);
        Digest a, b;
        digestLaunch(a, plain);
        digestLaunch(b, r.stats[0]);
        bool ok = r.checkOk && mismatches == 0 && oracle.ordered() &&
            analysis.euCycles == oracle.cycles && a.value() == b.value() &&
            instrs == r.stats[0].eu.instructions;
        for (const gpu::LaunchStats &s : r.stats)
            ok = ok && s.eu.euCyclesByMode == oracle.cycles;
        if (!ok) {
            ++out.failed;
            out.fail(point.workload + " DC" + std::to_string(point.dc) +
                     ": traced point failed its checks");
        }
        for (const gpu::LaunchStats &s : r.stats)
            stats.push_back(s);
    }
}

} // namespace

void
runTable4(const Options &opts, Outcome &out)
{
    const Sweep sweep = makeSweep(opts.seed);
    if (finishSetup(opts, out))
        return;

    const std::int64_t start = nowNs();
    const double measure_s = opts.trace ? opts.seconds / 3 : opts.seconds;
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(measure_s * 1e9);

    RoundRates rates;
    std::vector<double> latency;
    std::vector<double> round_seconds;
    Round first;
    std::vector<std::uint64_t> digests;
    do {
        Round r = sweepRound(sweep);
        rates.add(r.seconds, r.simCycles, r.records,
                  static_cast<double>(sweep.points.size()));
        round_seconds.push_back(r.seconds);
        latency.insert(latency.end(), r.latencyMs.begin(),
                       r.latencyMs.end());
        const bool is_first = digests.empty();
        for (std::size_t p = 0; p < sweep.points.size(); ++p) {
            const std::uint64_t d = pointDigest(r.stats[p]);
            if (is_first)
                digests.push_back(d);
            ++out.attempted;
            if (!r.ok[p] || d != digests[p]) {
                ++out.failed;
                out.fail(sweep.points[p].workload + " DC" +
                         std::to_string(sweep.points[p].dc) +
                         ": reference check failed or result changed");
            }
        }
        if (is_first)
            first = std::move(r);
    } while (nowNs() < deadline);
    const double peak_rss = selfPeakRssMb();

    Digest all;
    for (const PointStats &s : first.stats)
        for (const gpu::LaunchStats &l : s)
            digestLaunch(all, l);
    std::printf("digest table4-timing %s (%zu points x %u modes)\n",
                hex(all.value()).c_str(), sweep.points.size(), kModes);
    std::printf("rounds %zu, host seconds per round median %.3f\n",
                round_seconds.size(), median(round_seconds));

    for (std::size_t p = 0; p < sweep.points.size(); p += 2)
        verifyWorkload(sweep.points[p].workload,
                       {&first.stats[p], &first.stats[p + 1]}, out);

    if (!opts.trace) {
        rates.addTo(out);
        addLatencyMetrics(out, latency);
        out.add("peak_rss_mb", peak_rss, "MB");
        return;
    }

    // Traced phase: the same points through the layered compare route
    // plus the isolated drivers, in the seeded point order.
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < sweep.requests.size(); ++i)
        if (sweep.lead[i])
            order.push_back(sweep.pointOf[i]);
    Spans spans(true);
    TracedPhase phase;
    std::vector<gpu::LaunchStats> stats;
    std::uint64_t analyzed = 0;
    unsigned rounds = 0;
    phase.from = nowNs();
    const std::int64_t traced_deadline =
        start + static_cast<std::int64_t>(opts.seconds * 1e9);
    do {
        std::vector<gpu::LaunchStats> round_stats;
        std::uint64_t round_analyzed = 0;
        tracedRound(sweep, order, spans, phase, out, round_stats,
                    round_analyzed);
        if (rounds++ == 0) {
            stats = std::move(round_stats);
            analyzed = round_analyzed;
        }
    } while (nowNs() < traced_deadline);
    phase.to = nowNs();

    LayerReport report;
    reportPointLayers(report, spans, stats);
    reportTraceLayers(report, spans);
    report["trace.records"] = static_cast<double>(analyzed);
    finishTraced(opts, out, spans, report, phase,
                 kCensusSynthetic | kCensusService);
}

} // namespace iwcbench
