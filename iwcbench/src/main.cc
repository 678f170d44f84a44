/**
 * @file
 * Entry point of the IWC benchmark binary. The launcher (run.py) builds
 * it and calls
 *
 *   iwcbench workload=<table4-timing|trace-methodology|service> seed=N
 *            seconds=S trace=0|1 t0_ns=T work_dir=DIR daemon=PATH
 *            [probe=1]
 *
 * The last line of standard output is one JSON object: correct,
 * attempted, failed and metrics. With trace=0 the metrics are the
 * end-to-end ones; with trace=1, the per-layer ones.
 */

#include <algorithm>
#include <cstdio>
#include <exception>

#include <sched.h>

#include "common/config.hh"
#include "layers.hh"
#include "workloads.hh"

namespace iwcbench
{

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric in BENCHMARK.json order, with its unit. */
constexpr MetricDef kPerLayer[] = {
    {"gpu.replay_ns_per_cycle", "ns/cycle"},
    {"gpu.capture_ns_per_cycle", "ns/cycle"},
    {"gpu.launch_ns_per_cycle", "ns/cycle"},
    {"func.ns_per_instr", "ns/instr"},
    {"mem.ns_per_line", "ns/line"},
    {"compaction.ns_per_plan", "ns/plan"},
    {"workloads.build_ms", "ms"},
    {"workloads.check_ms", "ms"},
    {"trace.analyze_ns_per_record", "ns/record"},
    {"trace.synth_ns_per_record", "ns/record"},
    {"tracestream.write_ns_per_record", "ns/record"},
    {"tracestream.read_ns_per_record", "ns/record"},
    {"tracestream.sharded_read_ns_per_record", "ns/record"},
    {"tracestream.bytes_per_record", "bytes/record"},
    {"svc.hit_rtt_us", "us"},
    {"svc.miss_rtt_ms", "ms"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.executed", "count"},
    {"svc.coalesced", "count"},
    {"svc.daemon_crashes", "count"},
    {"gpu.sim_cycles", "cycles"},
    {"eu.instructions", "instr"},
    {"mem.lines", "lines"},
    {"mem.l3_accesses", "count"},
    {"mem.dram_lines", "lines"},
    {"trace.records", "records"},
};

void
printResult(const Outcome &out)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Outcome::Metric &m = out.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

bool
finishSetup(const Options &opts, Outcome &out)
{
    if (!opts.trace)
        out.add("setup_s", static_cast<double>(nowNs() - opts.t0Ns) / 1e9,
                "s");
    return opts.probe;
}

void
RoundRates::add(double seconds, double sim_cycles, double records,
                double ops)
{
    seconds_ += seconds;
    simCycles_ += sim_cycles;
    records_ += records;
    ops_ += ops;
}

void
RoundRates::addTo(Outcome &out) const
{
    out.add("sim_cycles_per_s", simCycles_ / seconds_, "cycles/s");
    out.add("trace_records_per_s", records_ / seconds_, "records/s");
    out.add("req_per_s", ops_ / seconds_, "1/s");
}

void
censusPoint(const Options &, Spans &spans, LayerReport &report)
{
    const Point point{kCensusWorkload, 1};
    const PointResult r = comparePoint(spans, point, 0);
    launchDriver(spans, point, 0);
    functionalDriver(spans, point.workload, 0);
    memDriver(spans, r, point.dc, 0);
    const auto records = issueRecords(r.kernel, r.trace);
    std::uint64_t mismatches = 0;
    compactionDriver(spans, records, 0, mismatches);
    analyzeRecords(spans, records, 0);
    reportPointLayers(report, spans, {r.stats.begin(), r.stats.end()});
    reportTraceLayers(report, spans);
}

void
censusSynthetic(const Options &opts, Spans &spans, LayerReport &report)
{
    const std::string path = opts.workDir + "/census.iwct";
    const SyntheticResult r = syntheticRoute(
        spans, seededProfiles(opts.seed).front(), path, opts.lanes(), 0);
    std::remove(path.c_str());
    reportStreamLayers(report, spans, r.records, r.bytes);
    reportTraceLayers(report, spans);
}

void
finishTraced(const Options &opts, Outcome &out, const Spans &route,
             LayerReport report, const TracedPhase &phase,
             unsigned census)
{
    const std::int64_t traced_wall =
        phase.to - phase.from - phase.untracedNs;
    std::printf("traced wall %.3f s, span coverage %.2f%%, tracing "
                "overhead %+.2f%% (same route, %.3f s with spans against "
                "%.3f s without)\n",
                static_cast<double>(traced_wall) / 1e9,
                100 * static_cast<double>(
                          route.covered(phase.from, phase.to)) /
                    static_cast<double>(traced_wall),
                100 * (static_cast<double>(phase.tracedNs) /
                           static_cast<double>(phase.untracedNs) -
                       1),
                static_cast<double>(phase.tracedNs) / 1e9,
                static_cast<double>(phase.untracedNs) / 1e9);
    route.printLayerTable();

    // Layers off this workload's route: measured by the census, whose
    // figures describe the census input, not the workload.
    Spans spans(true);
    LayerReport extra;
    if (census & kCensusPoint)
        censusPoint(opts, spans, extra);
    if (census & kCensusSynthetic)
        censusSynthetic(opts, spans, extra);
    if (census & kCensusService)
        censusService(opts, spans, extra);
    for (const auto &[name, value] : extra)
        if (report.emplace(name, value).second)
            std::printf("census: %s\n", name.c_str());
    spans.printLayerTable();

    const std::string base = opts.workDir + "/spans-" + opts.workload +
        "-" + std::to_string(opts.seed);
    route.writeJsonLines(base + ".jsonl");
    spans.writeJsonLines(base + "-census.jsonl");
    std::printf("spans written to %s.jsonl and %s-census.jsonl\n",
                base.c_str(), base.c_str());

    for (const MetricDef &def : kPerLayer) {
        const auto it = report.find(def.name);
        if (it == report.end()) {
            out.fail(std::string("no measurement for ") + def.name);
            continue;
        }
        out.add(def.name, it->second, def.unit);
    }
}

} // namespace iwcbench

int
main(int argc, char **argv)
{
    using namespace iwcbench;
    const iwc::OptionMap args(argc, argv);
    Options opts;
    opts.workload = args.getString("workload", "");
    opts.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    opts.seconds = args.getDouble("seconds", 10);
    opts.trace = args.getBool("trace", false);
    opts.probe = args.getBool("probe", false);
    opts.t0Ns = args.getInt("t0_ns", nowNs());
    opts.workDir = args.getString("work_dir", ".");
    opts.daemon = args.getString("daemon", "");
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    if (sched_getaffinity(0, sizeof cpus, &cpus) == 0)
        opts.cpus = static_cast<unsigned>(std::clamp(CPU_COUNT(&cpus), 1, 4));

    Outcome out;
    try {
        if (opts.workload == "table4-timing")
            runTable4(opts, out);
        else if (opts.workload == "trace-methodology")
            runTraceMethod(opts, out);
        else if (opts.workload == "service")
            runService(opts, out);
        else {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         opts.workload.c_str());
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
        return 1;
    }
    printResult(out);
    return 0;
}
