#include "layers.hh"

#include <filesystem>

#include "gpu/device.hh"
#include "mem/mem_system.hh"
#include "trace/analyzer.hh"
#include "tracestream/analyze.hh"
#include "tracestream/reader.hh"
#include "tracestream/writer.hh"
#include "workloads/registry.hh"

namespace iwcbench
{

using namespace iwc;
using compaction::Mode;

gpu::GpuConfig
pointConfig(unsigned dc, Mode mode)
{
    gpu::GpuConfig config = gpu::ivbConfig(mode);
    config.mem.dcLinesPerCycle = dc;
    return config;
}

PointResult
comparePoint(Spans &spans, const Point &point, std::uint64_t id)
{
    PointResult r;
    gpu::Device dev(pointConfig(point.dc, Mode::Baseline));
    workloads::Workload w;
    {
        Scoped s(spans, "workloads.build", id);
        w = workloads::make(point.workload, dev, 1);
    }
    {
        Scoped s(spans, "gpu.capture", id);
        r.stats[0] = dev.launchCapture(w.kernel, w.globalSize, w.localSize,
                                       w.args, r.trace);
        s.units = static_cast<double>(r.stats[0].totalCycles);
    }
    {
        Scoped s(spans, "workloads.check", id);
        r.checkOk = w.check ? w.check(dev) : true;
    }
    for (unsigned m = 1; m < compaction::kNumModes; ++m) {
        Scoped s(spans, "gpu.replay", id);
        dev.config().eu.mode = static_cast<Mode>(m);
        r.stats[m] = dev.launchReplay(w.kernel, w.globalSize, w.localSize,
                                      w.args, r.trace);
        s.units = static_cast<double>(r.stats[m].totalCycles);
    }
    r.kernel = std::move(w.kernel);
    return r;
}

gpu::LaunchStats
launchDriver(Spans &spans, const Point &point, std::uint64_t id)
{
    gpu::Device dev(pointConfig(point.dc, Mode::Baseline));
    workloads::Workload w;
    {
        Scoped s(spans, "workloads.build", id);
        w = workloads::make(point.workload, dev, 1);
    }
    Scoped s(spans, "gpu.launch", id);
    const gpu::LaunchStats stats =
        dev.launch(w.kernel, w.globalSize, w.localSize, w.args);
    s.units = static_cast<double>(stats.totalCycles);
    return stats;
}

std::uint64_t
functionalDriver(Spans &spans, const std::string &workload,
                 std::uint64_t id)
{
    gpu::Device dev;
    workloads::Workload w;
    {
        Scoped s(spans, "workloads.build", id);
        w = workloads::make(workload, dev, 1);
    }
    Scoped s(spans, "func.launch", id);
    const std::uint64_t instrs =
        dev.launchFunctional(w.kernel, w.globalSize, w.localSize, w.args);
    s.units = static_cast<double>(instrs);
    return instrs;
}

std::uint64_t
memDriver(Spans &spans, const PointResult &r, unsigned dc,
          std::uint64_t id)
{
    mem::MemConfig config = pointConfig(dc, Mode::Baseline).mem;
    mem::MemSystem memsys(config);
    const auto &code = r.kernel.instructions();
    std::vector<Addr> lines;
    std::uint64_t fed = 0;
    Cycle now = 0;
    Scoped s(spans, "mem.access", id);
    // One message per cycle, stream after stream: a host-cost driver of
    // the cache/data-cluster/DRAM models, not a timing experiment.
    for (const auto &stream : r.trace.streams) {
        for (const eu::IssueRecord &rec : stream) {
            if (rec.lineCount == 0)
                continue;
            const isa::SendOp op = code[rec.ip].send.op;
            const bool is_write = op == isa::SendOp::ScatterStore ||
                op == isa::SendOp::BlockStore;
            const auto first = r.trace.lines.begin() + rec.lineOff;
            lines.assign(first, first + rec.lineCount);
            fed += memsys.accessGlobal(lines, is_write, now++).lines;
        }
    }
    s.units = static_cast<double>(fed);
    return fed;
}

std::uint64_t
compactionDriver(Spans &spans,
                 const std::vector<trace::TraceRecord> &records,
                 std::uint64_t id, std::uint64_t &mismatches)
{
    std::uint64_t plans = 0;
    for (unsigned m = 0; m < compaction::kNumModes; ++m) {
        Scoped s(spans, "compaction.plan", id);
        const std::uint64_t before = plans;
        for (const trace::TraceRecord &rec : records) {
            if (costClassOf(rec.kind) != CostClass::Alu)
                continue;
            const compaction::ExecShape shape{rec.simdWidth, rec.elemBytes,
                                              rec.execMask};
            const compaction::CyclePlan plan =
                compaction::planCycles(static_cast<Mode>(m), shape);
            if (plan.cycles() !=
                closedFormAlu(rec.simdWidth, rec.elemBytes, rec.execMask)[m])
                ++mismatches;
            ++plans;
        }
        s.units = static_cast<double>(plans - before);
    }
    return plans;
}

Oracle
oracleOf(const isa::Kernel &kernel, const eu::IssueTrace &trace,
         unsigned send_cycles, unsigned ctrl_cycles)
{
    Oracle oracle;
    oracle.sendCycles = send_cycles;
    oracle.ctrlCycles = ctrl_cycles;
    const auto &code = kernel.instructions();
    for (const auto &stream : trace.streams)
        for (const eu::IssueRecord &rec : stream)
            oracle.add(code[rec.ip], rec.execMask);
    return oracle;
}

trace::TraceRecord
recordOf(const isa::Instruction &in, LaneMask exec)
{
    trace::TraceRecord r;
    r.simdWidth = in.simdWidth;
    r.elemBytes = static_cast<std::uint8_t>(isa::execElemBytes(in));
    switch (costClassOf(in)) {
      case CostClass::Send: r.kind = trace::InstrKind::Send; break;
      case CostClass::Ctrl: r.kind = trace::InstrKind::Ctrl; break;
      case CostClass::Alu:
        r.kind = isa::isExtendedMath(in.op) ? trace::InstrKind::Em
                                            : trace::InstrKind::Alu;
        break;
    }
    r.execMask = exec & in.widthMask();
    return r;
}

std::vector<trace::TraceRecord>
issueRecords(const isa::Kernel &kernel, const eu::IssueTrace &trace)
{
    const auto &code = kernel.instructions();
    std::vector<trace::TraceRecord> records;
    for (const auto &stream : trace.streams)
        for (const eu::IssueRecord &rec : stream)
            records.push_back(recordOf(code[rec.ip], rec.execMask));
    return records;
}

trace::TraceAnalysis
analyzeRecords(Spans &spans, const std::vector<trace::TraceRecord> &records,
               std::uint64_t id)
{
    trace::TraceAnalyzer analyzer;
    Scoped s(spans, "trace.analyze", id);
    for (const trace::TraceRecord &r : records)
        analyzer.add(r);
    s.units = static_cast<double>(records.size());
    return analyzer.result();
}

std::vector<trace::SyntheticProfile>
seededProfiles(std::uint64_t seed)
{
    std::vector<trace::SyntheticProfile> profiles =
        trace::paperTraceProfiles();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        Digest d;
        d.add(seed);
        d.add(i);
        profiles[i].seed = d.value();
    }
    return profiles;
}

SyntheticResult
syntheticRoute(Spans &spans, const trace::SyntheticProfile &profile,
               const std::string &path, unsigned jobs, std::uint64_t id)
{
    SyntheticResult r;
    std::vector<trace::TraceRecord> records;
    {
        Scoped s(spans, "trace.synth", id);
        records.reserve(profile.instructions);
        trace::synthesizeTo(profile, [&](const trace::TraceRecord &rec) {
            records.push_back(rec);
        });
        s.units = static_cast<double>(records.size());
    }
    {
        Scoped s(spans, "tracestream.write", id);
        tracestream::ChunkedTraceWriter writer(path);
        for (const trace::TraceRecord &rec : records)
            writer.append(rec);
        writer.finish();
        s.units = static_cast<double>(records.size());
    }
    r.records = records.size();
    r.bytes = std::filesystem::file_size(path);
    {
        trace::TraceAnalyzer analyzer;
        tracestream::TraceCursor cursor(path);
        for (;;) {
            const std::vector<trace::TraceRecord> *chunk = nullptr;
            {
                Scoped s(spans, "tracestream.read", id);
                chunk = cursor.nextChunk();
                s.units = chunk ? static_cast<double>(chunk->size()) : 0;
            }
            if (chunk == nullptr)
                break;
            Scoped s(spans, "trace.analyze", id);
            for (const trace::TraceRecord &rec : *chunk)
                analyzer.add(rec);
            s.units = static_cast<double>(chunk->size());
        }
        r.serial = analyzer.result();
    }
    {
        Scoped s(spans, "tracestream.sharded_read", id);
        tracestream::StreamAnalyzeOptions options;
        options.jobs = jobs;
        r.sharded = tracestream::analyzeTraceStream(path, options);
        s.units = static_cast<double>(r.sharded.records);
    }
    return r;
}

double
nsPerUnit(const Spans &spans, const std::string &name)
{
    const Spans::Total t = spans.total(name);
    return t.units > 0 ? t.ns / t.units : 0;
}

namespace
{

/** Adds @p key as the per-unit cost of span @p name, if it was seen. */
void
putPerUnit(LayerReport &report, const Spans &spans, const char *key,
           const char *name)
{
    if (spans.total(name).units > 0)
        report[key] = nsPerUnit(spans, name);
}

/** Adds @p key as the mean duration (ms) of span @p name, if seen. */
void
putMeanMs(LayerReport &report, const Spans &spans, const char *key,
          const char *name)
{
    const Spans::Total t = spans.total(name);
    if (t.count > 0)
        report[key] = t.ns / 1e6 / static_cast<double>(t.count);
}

} // namespace

void
reportPointLayers(LayerReport &report, const Spans &spans,
                  const std::vector<gpu::LaunchStats> &stats)
{
    putPerUnit(report, spans, "gpu.replay_ns_per_cycle", "gpu.replay");
    putPerUnit(report, spans, "gpu.capture_ns_per_cycle", "gpu.capture");
    putPerUnit(report, spans, "gpu.launch_ns_per_cycle", "gpu.launch");
    putPerUnit(report, spans, "func.ns_per_instr", "func.launch");
    putPerUnit(report, spans, "mem.ns_per_line", "mem.access");
    putPerUnit(report, spans, "compaction.ns_per_plan", "compaction.plan");
    putMeanMs(report, spans, "workloads.build_ms", "workloads.build");
    putMeanMs(report, spans, "workloads.check_ms", "workloads.check");
    if (stats.empty())
        return;
    std::uint64_t cycles = 0, instrs = 0, lines = 0, l3 = 0, dram = 0;
    for (const gpu::LaunchStats &s : stats) {
        cycles += s.totalCycles;
        instrs += s.eu.instructions;
        lines += s.eu.memLines;
        l3 += s.l3Hits + s.l3Misses;
        dram += s.dramLines;
    }
    report["gpu.sim_cycles"] = static_cast<double>(cycles);
    report["eu.instructions"] = static_cast<double>(instrs);
    report["mem.lines"] = static_cast<double>(lines);
    report["mem.l3_accesses"] = static_cast<double>(l3);
    report["mem.dram_lines"] = static_cast<double>(dram);
}

void
reportTraceLayers(LayerReport &report, const Spans &spans)
{
    putPerUnit(report, spans, "trace.analyze_ns_per_record", "trace.analyze");
    const double records = spans.total("trace.analyze").units;
    if (records > 0)
        report["trace.records"] = records;
}

void
reportStreamLayers(LayerReport &report, const Spans &spans,
                   std::uint64_t records, std::uint64_t bytes)
{
    putPerUnit(report, spans, "trace.synth_ns_per_record", "trace.synth");
    putPerUnit(report, spans, "tracestream.write_ns_per_record", "tracestream.write");
    putPerUnit(report, spans, "tracestream.read_ns_per_record", "tracestream.read");
    putPerUnit(report, spans, "tracestream.sharded_read_ns_per_record", "tracestream.sharded_read");
    if (records > 0)
        report["tracestream.bytes_per_record"] =
            static_cast<double>(bytes) / static_cast<double>(records);
}

} // namespace iwcbench
