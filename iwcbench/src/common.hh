/**
 * @file
 * Shared plumbing of the IWC benchmark: run options, the result a
 * workload hands back, order statistics, the span recorder of the
 * traced run, and the benchmark's own closed-form oracle for per-mode
 * EU cycles.
 *
 * Naming: "simulated" numbers are GPU cycles and instruction counts of
 * the modelled machine; "host" numbers are seconds of simulator time on
 * the machine running the benchmark.
 */

#ifndef IWCBENCH_COMMON_HH
#define IWCBENCH_COMMON_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "compaction/cycle_plan.hh"
#include "eu/eu_core.hh"
#include "gpu/simulator.hh"
#include "isa/isa.hh"
#include "trace/analyzer.hh"

namespace iwcbench
{

/** Host monotonic clock in nanoseconds (CLOCK_MONOTONIC on Linux). */
std::int64_t nowNs();

/** Command-line options (key=value, see main.cc). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Only set up, report set-up time, and exit. */
    bool probe = false;
    /** Monotonic time at which the launcher spawned this process. */
    std::int64_t t0Ns = 0;
    /** Scratch directory for trace containers, sockets and spans. */
    std::string workDir;
    /** Path of the iwc_simd daemon binary (service workload). */
    std::string daemon;
    /** Host CPUs, capped at 4. */
    unsigned cpus = 1;

    /**
     * Parallel lanes of a workload (service connections and daemon
     * workers, analyzer shards): half the CPUs, so a workload never
     * occupies every CPU of a shared host and its round time does not
     * hinge on the slowest of all of them.
     */
    unsigned lanes() const { return cpus > 1 ? cpus / 2 : 1; }
};

/** Everything one run reports (printed as the final JSON line). */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    struct Metric
    {
        std::string name;
        double value = 0;
        std::string unit;
    };
    std::vector<Metric> metrics;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Marks the run incorrect and prints why (stderr). */
    void fail(const std::string &why);
};

// --- Order statistics ----------------------------------------------------

/** Quantile @p q of @p values by linear interpolation (sorts a copy). */
double quantile(std::vector<double> values, double q);
double median(const std::vector<double> &values);
double mean(const std::vector<double> &values);

/**
 * Appends the latency metrics of @p samples_ms (median, p99) and prints
 * the sample count and how many samples lie beyond the p99.
 */
void addLatencyMetrics(Outcome &out, const std::vector<double> &samples_ms);

/** Peak resident set of this process so far, in MB (VmHWM). */
double selfPeakRssMb();

/** 64-bit FNV-1a accumulator for result digests. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Folds every simulated-machine field of @p s (no engine counters). */
void digestLaunch(Digest &d, const iwc::gpu::LaunchStats &s);
/** Folds every field of a trace analysis. */
void digestAnalysis(Digest &d, const iwc::trace::TraceAnalysis &a);

// --- Spans of the traced run ----------------------------------------------

/**
 * Span recorder. Spans are kept in memory and written out by
 * writeJsonLines when the run ends. Each span names the public call it
 * wraps, its parent (the span open on the same thread when it began),
 * the point or request it belongs to, and the work units it covered
 * (simulated cycles, records, lines...) so per-unit costs can be formed.
 * A disabled recorder costs one branch per span.
 */
class Spans
{
  public:
    struct Span
    {
        const char *name = "";
        std::int64_t start = 0;
        std::int64_t end = 0;
        std::uint32_t parent = 0; ///< index + 1 of the parent; 0 = root
        std::uint64_t point = 0;
        double units = 0;
    };

    explicit Spans(bool enabled) : enabled_(enabled) {}

    /** Opens a span; returns its handle (0 when disabled). */
    std::uint32_t open(const char *name, std::uint64_t point);
    /** Closes @p handle, recording the work units it covered. */
    void close(std::uint32_t handle, double units = 0);
    /** Records a finished root span (one of many overlapping on a
     *  thread, as pipelined requests are). */
    void record(const char *name, std::int64_t start, std::int64_t end,
                std::uint64_t point);

    /** Sum of durations (ns) and units of every span named @p name. */
    struct Total
    {
        double ns = 0;
        double units = 0;
        std::uint64_t count = 0;
    };
    Total total(const std::string &name) const;

    /** Durations (ns) of every span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Nanoseconds of [from, to) covered by the union of all spans. */
    std::int64_t covered(std::int64_t from, std::int64_t to) const;

    /** Prints per-name count, total and self time (stdout). */
    void printLayerTable() const;

    void writeJsonLines(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, closes on destruction. */
class Scoped
{
  public:
    Scoped(Spans &spans, const char *name, std::uint64_t point)
        : spans_(spans), handle_(spans.open(name, point))
    {
    }
    ~Scoped() { spans_.close(handle_, units); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    double units = 0;

  private:
    Spans &spans_;
    std::uint32_t handle_;
};

// --- Closed-form oracle -----------------------------------------------------

using ModeCycles = std::array<std::uint64_t, iwc::compaction::kNumModes>;

/** How an instruction is costed on the EU (mirrors the ISA classes). */
enum class CostClass
{
    Alu,
    Send,
    Ctrl,
};

CostClass costClassOf(const iwc::isa::Instruction &in);
CostClass costClassOf(iwc::trace::InstrKind kind);

/**
 * Per-mode EU cycles of one ALU issue of width @p simd_width, element
 * size @p elem_bytes and execution mask @p exec, from the closed forms:
 * Baseline = channel groups; IvbOpt = half of them when a SIMD16 half
 * is dead; BCC = popcount of the group-OR-folded mask; SCC =
 * ceil(popcount / group width).
 */
ModeCycles closedFormAlu(unsigned simd_width, unsigned elem_bytes,
                         iwc::LaneMask exec);

/** Accumulates closed-form per-mode cycles over an instruction stream. */
struct Oracle
{
    unsigned sendCycles = 2;
    unsigned ctrlCycles = 1;
    ModeCycles cycles{};
    std::uint64_t records = 0;

    void add(CostClass cls, unsigned simd_width, unsigned elem_bytes,
             iwc::LaneMask exec);
    void add(const iwc::isa::Instruction &in, iwc::LaneMask exec);

    /** True when Baseline >= IvbOpt >= BCC >= SCC. */
    bool ordered() const;
};

std::string hex(std::uint64_t v);

} // namespace iwcbench

#endif // IWCBENCH_COMMON_HH
