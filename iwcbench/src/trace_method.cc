/**
 * @file
 * trace-methodology: the paper's trace-based method. One round is
 *  - a FunctionalTrace analysis (run::executeRun) of every registry
 *    workload at scale 1, and
 *  - for each of the 27 paper trace profiles, with seeds drawn from the
 *    run's seed: synthesis written to a .iwct container (one operation),
 *    then the container analyzed back by the serial stream analyzer and
 *    by the sharded analyzer over Options::lanes() threads (one
 *    operation each).
 * No timing simulation runs here, so a timing-engine change should move
 * nothing on this workload.
 */

#include <cstdio>

#include "gpu/device.hh"
#include "run/run.hh"
#include "tracestream/analyze.hh"
#include "tracestream/reader.hh"
#include "tracestream/writer.hh"
#include "workloads.hh"
#include "workloads/registry.hh"

namespace iwcbench
{

using namespace iwc;

namespace
{

/** Results of one round, in operation order. */
struct Round
{
    double seconds = 0;
    std::vector<double> latencyMs;
    std::vector<trace::TraceAnalysis> functional;
    std::vector<std::uint64_t> written; ///< records per container
    std::vector<trace::TraceAnalysis> serial;
    std::vector<trace::TraceAnalysis> sharded;
    double simCycles = 0;
    double records = 0;
};

std::string
containerPath(const Options &opts, std::size_t i)
{
    return opts.workDir + "/tm-" + std::to_string(i) + ".iwct";
}

Round
methodRound(const Options &opts, const std::vector<std::string> &names,
            const std::vector<trace::SyntheticProfile> &profiles)
{
    Round r;
    std::int64_t last = nowNs();
    const std::int64_t t0 = last;
    auto lap = [&] {
        const std::int64_t now = nowNs();
        r.latencyMs.push_back(static_cast<double>(now - last) / 1e6);
        last = now;
    };
    auto analyzed = [&](const trace::TraceAnalysis &a) {
        r.records += static_cast<double>(a.records);
        r.simCycles += static_cast<double>(a.euCycles[0]);
    };
    for (const std::string &name : names) {
        r.functional.push_back(
            run::executeRun(run::RunRequest::functionalTrace(name, 1))
                .analysis);
        lap();
        analyzed(r.functional.back());
    }
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const std::string path = containerPath(opts, i);
        {
            tracestream::ChunkedTraceWriter writer(path);
            trace::synthesizeTo(profiles[i],
                                [&writer](const trace::TraceRecord &rec) {
                                    writer.append(rec);
                                });
            writer.finish();
            r.written.push_back(writer.recordsWritten());
        }
        lap();
        r.records += static_cast<double>(r.written.back());

        tracestream::StreamAnalyzeOptions options;
        options.jobs = 1;
        r.serial.push_back(tracestream::analyzeTraceStream(path, options));
        lap();
        analyzed(r.serial.back());

        options.jobs = opts.lanes();
        r.sharded.push_back(tracestream::analyzeTraceStream(path, options));
        lap();
        analyzed(r.sharded.back());
    }
    r.seconds = static_cast<double>(last - t0) / 1e9;
    return r;
}

/** Digest of every operation's result, in operation order. */
std::vector<std::uint64_t>
opDigests(const Round &r)
{
    std::vector<std::uint64_t> out;
    auto of = [](const trace::TraceAnalysis &a) {
        Digest d;
        digestAnalysis(d, a);
        return d.value();
    };
    for (const auto &a : r.functional)
        out.push_back(of(a));
    for (std::size_t i = 0; i < r.written.size(); ++i) {
        out.push_back(r.written[i]);
        out.push_back(of(r.serial[i]));
        out.push_back(of(r.sharded[i]));
    }
    return out;
}

void
checkAgainst(const std::string &what, const Oracle &oracle,
             const trace::TraceAnalysis &a, Outcome &out)
{
    if (!oracle.ordered())
        out.fail(what + ": closed-form cycles not Baseline>=IvbOpt>=BCC>=SCC");
    if (a.euCycles != oracle.cycles || a.records != oracle.records)
        out.fail(what + ": analysis differs from the closed forms");
}

/**
 * The benchmark's own checks, from inputs it regenerates itself: every
 * registry workload's functional execution passes its host reference
 * check and its analysis equals the closed forms over the execution
 * masks the benchmark observed; every container reads back exactly the
 * records the benchmark generated, and both analyses of it equal the
 * closed forms over those records. Returns how many workloads failed
 * their reference check: the functional run is deterministic, so each
 * of them failed in every round.
 */
std::size_t
verify(const Options &opts, const std::vector<std::string> &names,
       const std::vector<trace::SyntheticProfile> &profiles,
       const Round &first, Outcome &out)
{
    std::size_t check_failures = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        gpu::Device dev;
        const workloads::Workload w = workloads::make(names[i], dev, 1);
        Oracle oracle;
        dev.launchFunctional(w.kernel, w.globalSize, w.localSize, w.args,
                             [&oracle](const isa::Instruction &in,
                                       LaneMask exec) {
                                 oracle.add(in, exec);
                             });
        if (w.check && !w.check(dev)) {
            ++check_failures;
            out.fail(names[i] + ": host reference check failed");
        }
        checkAgainst(names[i], oracle, first.functional[i], out);
    }
    auto fold = [](Digest &d, const trace::TraceRecord &rec) {
        d.add(rec.simdWidth);
        d.add(rec.elemBytes);
        d.add(static_cast<std::uint64_t>(rec.kind));
        d.add(rec.execMask);
    };
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        Oracle oracle;
        Digest generated;
        trace::synthesizeTo(profiles[i], [&](const trace::TraceRecord &rec) {
            oracle.add(costClassOf(rec.kind), rec.simdWidth, rec.elemBytes,
                       rec.execMask);
            fold(generated, rec);
        });
        Digest read;
        std::uint64_t count = 0;
        tracestream::TraceCursor cursor(containerPath(opts, i));
        trace::TraceRecord rec;
        while (cursor.next(rec)) {
            fold(read, rec);
            ++count;
        }
        const std::string &name = profiles[i].name;
        if (count != oracle.records || read.value() != generated.value())
            out.fail(name + ": container does not read back what was written");
        checkAgainst(name + " (serial)", oracle, first.serial[i], out);
        checkAgainst(name + " (sharded)", oracle, first.sharded[i], out);
    }
    return check_failures;
}

/** One functional analysis of the traced route, split by layer. */
struct FunctionalOp
{
    std::vector<trace::TraceRecord> records;
    bool checkOk = true;
};

FunctionalOp
functionalOp(Spans &spans, const std::string &name, std::size_t id)
{
    FunctionalOp op;
    Scoped top(spans, "tm.functional", id);
    gpu::Device dev;
    workloads::Workload w;
    {
        Scoped s(spans, "workloads.build", id);
        w = workloads::make(name, dev, 1);
    }
    {
        Scoped s(spans, "func.launch", id);
        s.units = static_cast<double>(dev.launchFunctional(
            w.kernel, w.globalSize, w.localSize, w.args,
            [&op](const isa::Instruction &in, LaneMask exec) {
                op.records.push_back(recordOf(in, exec));
            }));
    }
    analyzeRecords(spans, op.records, id);
    Scoped s(spans, "workloads.check", id);
    op.checkOk = !w.check || w.check(dev);
    return op;
}

/**
 * The traced route of one round: same operations, split by layer. Each
 * operation runs twice, with spans off and on, for the overhead.
 */
void
tracedRound(const Options &opts, const std::vector<std::string> &names,
            const std::vector<trace::SyntheticProfile> &profiles,
            Spans &spans, TracedPhase &phase, std::uint64_t &records,
            std::uint64_t &written, std::uint64_t &bytes, Outcome &out)
{
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const FunctionalOp op = phase.pair(
            spans, [&](Spans &s) { return functionalOp(s, names[i], i); });
        records += op.records.size();
        Scoped iso(spans, "tm.isolated", i);
        compactionDriver(spans, op.records, i, mismatches);
        ++out.attempted;
        if (!op.checkOk) {
            ++out.failed;
            out.fail(names[i] + ": host reference check failed");
        }
    }
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const std::uint64_t id = names.size() + i;
        const SyntheticResult r = phase.pair(spans, [&](Spans &s) {
            Scoped top(s, "tm.synthetic", id);
            return syntheticRoute(s, profiles[i], containerPath(opts, i),
                                  opts.lanes(), id);
        });
        written += r.records;
        bytes += r.bytes;
        records += r.serial.records;
        out.attempted += 3;
        if (r.serial.records != r.records || r.sharded.records != r.records) {
            ++out.failed;
            out.fail(profiles[i].name + ": record count mismatch");
        }
    }
    if (mismatches != 0)
        out.fail("planCycles differs from the closed forms");
}

} // namespace

void
runTraceMethod(const Options &opts, Outcome &out)
{
    const std::vector<std::string> names = workloads::allNames();
    const std::vector<trace::SyntheticProfile> profiles =
        seededProfiles(opts.seed);
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
        Round r = methodRound(opts, names, profiles);
        rates.add(r.seconds, r.simCycles, r.records,
                  static_cast<double>(r.latencyMs.size()));
        round_seconds.push_back(r.seconds);
        latency.insert(latency.end(), r.latencyMs.begin(),
                       r.latencyMs.end());
        const std::vector<std::uint64_t> d = opDigests(r);
        if (digests.empty())
            digests = d;
        out.attempted += d.size();
        for (std::size_t i = 0; i < d.size(); ++i) {
            if (d[i] != digests[i]) {
                ++out.failed;
                out.fail("operation " + std::to_string(i) +
                         ": result changed between rounds");
            }
        }
        if (first.functional.empty())
            first = std::move(r);
    } while (nowNs() < deadline);
    const double peak_rss = selfPeakRssMb();

    Digest all;
    for (const std::uint64_t d : digests)
        all.add(d);
    std::printf("digest trace-methodology %s (%zu operations)\n",
                hex(all.value()).c_str(), digests.size());
    std::printf("rounds %zu, host seconds per round median %.3f\n",
                round_seconds.size(), median(round_seconds));
    // The timed rounds run FunctionalTrace requests, which carry no
    // reference check; verify runs it once per workload.
    out.failed += verify(opts, names, profiles, first, out) *
        round_seconds.size();

    if (!opts.trace) {
        for (std::size_t i = 0; i < profiles.size(); ++i)
            std::remove(containerPath(opts, i).c_str());
        rates.addTo(out);
        addLatencyMetrics(out, latency);
        out.add("peak_rss_mb", peak_rss, "MB");
        return;
    }

    Spans spans(true);
    TracedPhase phase;
    std::uint64_t records = 0, written = 0, bytes = 0;
    unsigned rounds = 0;
    phase.from = nowNs();
    const std::int64_t traced_deadline =
        start + static_cast<std::int64_t>(opts.seconds * 1e9);
    do {
        std::uint64_t r_records = 0, r_written = 0, r_bytes = 0;
        tracedRound(opts, names, profiles, spans, phase, r_records,
                    r_written, r_bytes, out);
        if (rounds++ == 0) {
            records = r_records;
            written = r_written;
            bytes = r_bytes;
        }
    } while (nowNs() < traced_deadline);
    phase.to = nowNs();
    for (std::size_t i = 0; i < profiles.size(); ++i)
        std::remove(containerPath(opts, i).c_str());

    LayerReport report;
    reportPointLayers(report, spans, {});
    reportTraceLayers(report, spans);
    report["trace.records"] = static_cast<double>(records);
    reportStreamLayers(report, spans, written, bytes);
    finishTraced(opts, out, spans, report, phase,
                 kCensusPoint | kCensusService);
}

} // namespace iwcbench
