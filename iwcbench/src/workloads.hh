/**
 * @file
 * The benchmark's three workloads and the pieces of a traced run they
 * share. Each run* function sets up, reports its set-up time, measures
 * for Options::seconds in whole rounds, verifies the outputs, and fills
 * an Outcome (see main.cc for the metric names).
 */

#ifndef IWCBENCH_WORKLOADS_HH
#define IWCBENCH_WORKLOADS_HH

#include "common.hh"
#include "layers.hh"

namespace iwcbench
{

void runTable4(const Options &opts, Outcome &out);
void runTraceMethod(const Options &opts, Outcome &out);
void runService(const Options &opts, Outcome &out);

/**
 * Records the set-up time (launcher spawn to now) as setup_s, except
 * in a traced run. In probe mode, returns true: the caller stops there.
 */
bool finishSetup(const Options &opts, Outcome &out);

/**
 * The work-rate metrics: total work over total host seconds of the timed
 * rounds. A ratio of sums, not a median of per-round rates: host speed
 * on a shared machine switches between states lasting seconds, and a
 * median over rounds flips with whichever state holds most rounds,
 * while the ratio moves only with the share of time in each.
 */
class RoundRates
{
  public:
    void add(double seconds, double sim_cycles, double records, double ops);
    void addTo(Outcome &out) const;

  private:
    double seconds_ = 0;
    double simCycles_ = 0;
    double records_ = 0;
    double ops_ = 0;
};

/** Registry workload of the layer census: small, divergent, and with
 *  global-memory traffic. */
constexpr const char *kCensusWorkload = "bsearch";

/** Layer groups a census can measure for a workload's traced run. */
enum CensusGroup : unsigned
{
    kCensusPoint = 1,     ///< gpu, eu, mem, compaction, func, workloads
    kCensusSynthetic = 2, ///< trace.synth, tracestream
    kCensusService = 4,   ///< svc
};

/** Census over one fixed registry point (bsearch, DC1). */
void censusPoint(const Options &opts, Spans &spans, LayerReport &report);
/** Census over the first seeded paper trace profile. */
void censusSynthetic(const Options &opts, Spans &spans, LayerReport &report);
/** Census of one daemon: a single point, one miss then hits. */
void censusService(const Options &opts, Spans &spans, LayerReport &report);

/**
 * The traced phase of a run. Its tracing overhead is measured on one
 * route: each operation runs once with spans off and once with them on,
 * back to back in alternating order, and the overhead is the ratio of
 * the two sums of host time.
 */
struct TracedPhase
{
    std::int64_t from = 0;
    std::int64_t to = 0;
    std::int64_t tracedNs = 0;
    std::int64_t untracedNs = 0;
    std::uint64_t pairs = 0;

    /** Runs @p op(Spans &) with spans off and on, the first of the two
     *  alternating from pair to pair; returns the traced run's result. */
    template <typename Op>
    auto
    pair(Spans &spans, Op &&op)
    {
        Spans off(false);
        auto timed = [&op](Spans &s, std::int64_t &ns) {
            const std::int64_t t0 = nowNs();
            auto result = op(s);
            ns += nowNs() - t0;
            return result;
        };
        if (pairs++ % 2 == 0) {
            timed(off, untracedNs);
            return timed(spans, tracedNs);
        }
        auto result = timed(spans, tracedNs);
        timed(off, untracedNs);
        return result;
    }
};

/**
 * Ends a traced run: prints the span coverage of the phase's traced
 * wall time (the untraced halves of its pairs left out) and the tracing
 * overhead, runs the census for @p census groups so every per-layer
 * metric has a value (the workload's own route wins where both measured
 * a layer), writes the spans, and adds every per-layer metric to @p out.
 */
void finishTraced(const Options &opts, Outcome &out, const Spans &route,
                  LayerReport report, const TracedPhase &phase,
                  unsigned census);

} // namespace iwcbench

#endif // IWCBENCH_WORKLOADS_HH
