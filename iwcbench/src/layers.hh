/**
 * @file
 * The layer drivers: each one times calls into the public functions of
 * one module of the simulator, with a span around every call, so the
 * traced run can break a workload's host time down by layer. They are
 * shared by the workloads' traced routes and by the layer census that
 * fills in the layers a workload's own route does not reach.
 */

#ifndef IWCBENCH_LAYERS_HH
#define IWCBENCH_LAYERS_HH

#include <map>
#include <string>
#include <vector>

#include "common.hh"
#include "eu/issue_trace.hh"
#include "gpu/gpu_config.hh"
#include "isa/kernel.hh"
#include "trace/synthetic.hh"

namespace iwcbench
{

/** One (workload, data-cluster config) point of the Table 4 sweep. */
struct Point
{
    std::string workload;
    unsigned dc = 1; ///< data-cluster lines per cycle: DC1 or DC2
};

/** The Table 3 machine under @p mode with data cluster @p dc. */
iwc::gpu::GpuConfig pointConfig(unsigned dc, iwc::compaction::Mode mode);

/** What the layered compare route produced for one point. */
struct PointResult
{
    std::array<iwc::gpu::LaunchStats, iwc::compaction::kNumModes> stats;
    bool checkOk = false;
    iwc::isa::Kernel kernel;
    iwc::eu::IssueTrace trace;
};

/**
 * The route executeRun takes for a TimingCompare request, spelled out
 * as public calls with a span around each: workloads::make, a Baseline
 * Device::launchCapture, the host reference check, and three
 * Device::launchReplay calls (IvbOpt, BCC, SCC).
 */
PointResult comparePoint(Spans &spans, const Point &point,
                         std::uint64_t id);

/** Fresh build, then one plain Device::launch of the lead mode. */
iwc::gpu::LaunchStats launchDriver(Spans &spans, const Point &point,
                                   std::uint64_t id);

/** Fresh build, then Device::launchFunctional without an observer;
 *  returns the dynamic instruction count. */
std::uint64_t functionalDriver(Spans &spans, const std::string &workload,
                               std::uint64_t id);

/** Feeds the captured global line stream of @p r, message by message,
 *  to a fresh mem::MemSystem of data cluster @p dc; returns lines. */
std::uint64_t memDriver(Spans &spans, const PointResult &r, unsigned dc,
                        std::uint64_t id);

/**
 * Calls compaction::planCycles for every mode on every ALU record of
 * @p records; returns the number of plans. Each plan's cycle count is
 * checked against the closed form (mismatches are counted in
 * @p mismatches).
 */
std::uint64_t compactionDriver(
    Spans &spans, const std::vector<iwc::trace::TraceRecord> &records,
    std::uint64_t id, std::uint64_t &mismatches);

/** Closed-form per-mode EU cycles of every issue in @p trace. */
Oracle oracleOf(const iwc::isa::Kernel &kernel,
                const iwc::eu::IssueTrace &trace, unsigned send_cycles,
                unsigned ctrl_cycles);

/** The mask-trace record of one issue, built by the benchmark. */
iwc::trace::TraceRecord recordOf(const iwc::isa::Instruction &in,
                                 iwc::LaneMask exec);

/** The mask-trace records of every issue in @p trace, stream by stream. */
std::vector<iwc::trace::TraceRecord> issueRecords(
    const iwc::isa::Kernel &kernel, const iwc::eu::IssueTrace &trace);

/** TraceAnalyzer::add over @p records (one span). */
iwc::trace::TraceAnalysis analyzeRecords(
    Spans &spans, const std::vector<iwc::trace::TraceRecord> &records,
    std::uint64_t id);

/** The paper trace profiles with their seeds drawn from @p seed. */
std::vector<iwc::trace::SyntheticProfile> seededProfiles(std::uint64_t seed);

/** One synthetic profile written to a container and analyzed back. */
struct SyntheticResult
{
    std::uint64_t records = 0;
    std::uint64_t bytes = 0; ///< container file size
    iwc::trace::TraceAnalysis serial;
    iwc::trace::TraceAnalysis sharded;
};

/**
 * The traced synthetic route: synthesizeTo into memory, the records
 * appended to a ChunkedTraceWriter, the container read back through a
 * TraceCursor with TraceAnalyzer::add per chunk, and analyzed again by
 * the sharded analyzer over @p jobs threads.
 */
SyntheticResult syntheticRoute(Spans &spans,
                               const iwc::trace::SyntheticProfile &profile,
                               const std::string &path, unsigned jobs,
                               std::uint64_t id);

/** Per-layer metrics gathered so far: name -> value (units: main.cc). */
using LayerReport = std::map<std::string, double>;

/** Adds the gpu/eu/mem/compaction/workloads/func rows from @p spans and
 *  the simulated work counts of @p stats. */
void reportPointLayers(LayerReport &report, const Spans &spans,
                       const std::vector<iwc::gpu::LaunchStats> &stats);

/** Adds the trace.* rows from @p spans (records = analyzed records). */
void reportTraceLayers(LayerReport &report, const Spans &spans);

/** Adds the trace.synth and tracestream.* rows from @p spans. */
void reportStreamLayers(LayerReport &report, const Spans &spans,
                        std::uint64_t records, std::uint64_t bytes);

/** Per-unit cost (ns per unit) of every span named @p name. */
double nsPerUnit(const Spans &spans, const std::string &name);

} // namespace iwcbench

#endif // IWCBENCH_LAYERS_HH
