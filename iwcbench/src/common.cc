#include "common.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

namespace iwcbench
{

using namespace iwc;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
Outcome::fail(const std::string &why)
{
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

double
mean(const std::vector<double> &values)
{
    double sum = 0;
    for (const double v : values)
        sum += v;
    return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

void
addLatencyMetrics(Outcome &out, const std::vector<double> &samples_ms)
{
    const double p99 = quantile(samples_ms, 0.99);
    const auto beyond = std::count_if(
        samples_ms.begin(), samples_ms.end(),
        [p99](double v) { return v > p99; });
    std::printf("latency samples: %zu, beyond p99: %ld\n",
                samples_ms.size(), static_cast<long>(beyond));
    out.add("latency_p50_ms", median(samples_ms), "ms");
    out.add("latency_p99_ms", p99, "ms");
}

double
selfPeakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0;
}

void
digestLaunch(Digest &d, const gpu::LaunchStats &s)
{
    d.add(s.totalCycles);
    const eu::EuStats &e = s.eu;
    for (std::uint64_t v :
         {e.instructions, e.aluInstructions, e.sendInstructions,
          e.ctrlInstructions, e.sumActiveLanes, e.sumSimdWidth,
          e.memMessages, e.memLines, e.slmMessages, e.sccSwizzledLanes,
          e.issueSlotsUsed, e.threadsRetired})
        d.add(v);
    for (std::uint64_t v : e.euCyclesByMode)
        d.add(v);
    for (std::uint64_t v : e.utilBins)
        d.add(v);
    for (std::uint64_t v :
         {s.fpuBusyCycles, s.emBusyCycles, s.l3Hits, s.l3Misses,
          s.llcHits, s.llcMisses, s.dramLines, s.dcLines, s.slmAccesses,
          std::uint64_t{s.workgroups}, s.threads})
        d.add(v);
}

void
digestAnalysis(Digest &d, const trace::TraceAnalysis &a)
{
    for (std::uint64_t v : {a.records, a.sumActiveLanes, a.sumSimdWidth,
                            a.aluRecords, a.sccSwizzledLanes})
        d.add(v);
    for (std::uint64_t v : a.euCycles)
        d.add(v);
    for (std::uint64_t v : a.utilBins)
        d.add(v);
}

// --- Spans --------------------------------------------------------------------

namespace
{
thread_local std::uint32_t t_open = 0; ///< innermost open span + 1
}

std::uint32_t
Spans::open(const char *name, std::uint64_t point)
{
    if (!enabled_)
        return 0;
    Span s;
    s.name = name;
    s.parent = t_open;
    s.point = point;
    s.start = nowNs();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(s);
    t_open = static_cast<std::uint32_t>(spans_.size());
    return t_open;
}

void
Spans::close(std::uint32_t handle, double units)
{
    if (handle == 0)
        return;
    const std::int64_t end = nowNs();
    const std::lock_guard<std::mutex> lock(mutex_);
    Span &s = spans_[handle - 1];
    s.end = end;
    s.units = units;
    t_open = s.parent;
}

void
Spans::record(const char *name, std::int64_t start, std::int64_t end,
              std::uint64_t point)
{
    if (!enabled_)
        return;
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.point = point;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(s);
}

Spans::Total
Spans::total(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    Total t;
    for (const Span &s : spans_) {
        if (name != s.name)
            continue;
        t.ns += static_cast<double>(s.end - s.start);
        t.units += s.units;
        ++t.count;
    }
    return t;
}

std::vector<double>
Spans::durations(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back(static_cast<double>(s.end - s.start));
    return out;
}

std::int64_t
Spans::covered(std::int64_t from, std::int64_t to) const
{
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (const Span &s : spans_) {
            const std::int64_t a = std::max(s.start, from);
            const std::int64_t b = std::min(s.end, to);
            if (a < b)
                iv.emplace_back(a, b);
        }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t sum = 0;
    std::int64_t reach = from;
    for (const auto &[a, b] : iv) {
        if (b <= reach)
            continue;
        sum += b - std::max(a, reach);
        reach = b;
    }
    return sum;
}

void
Spans::printLayerTable() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    // Self time: a span's duration minus the time its direct children
    // cover. Children of one parent never overlap except across client
    // threads, which only open root spans.
    std::vector<double> child_ns(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent != 0)
            child_ns[s.parent - 1] += static_cast<double>(s.end - s.start);
    struct Row
    {
        std::uint64_t count = 0;
        double ns = 0;
        double selfNs = 0;
    };
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Row &r = rows[spans_[i].name];
        const double d =
            static_cast<double>(spans_[i].end - spans_[i].start);
        ++r.count;
        r.ns += d;
        r.selfNs += std::max(0.0, d - child_ns[i]);
    }
    std::printf("%-28s %9s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto &[name, r] : rows)
        std::printf("%-28s %9llu %12.3f %12.3f\n", name.c_str(),
                    static_cast<unsigned long long>(r.count), r.ns / 1e6,
                    r.selfNs / 1e6);
}

void
Spans::writeJsonLines(const std::string &path) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
        return;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"parent\":%u,\"name\":\"%s\","
                     "\"point\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"units\":%.0f}\n",
                     i + 1, s.parent, s.name,
                     static_cast<unsigned long long>(s.point),
                     static_cast<long long>(s.start),
                     static_cast<long long>(s.end), s.units);
    }
    std::fclose(f);
}

// --- Oracle -----------------------------------------------------------------------

CostClass
costClassOf(const isa::Instruction &in)
{
    if (in.op == isa::Opcode::Send)
        return CostClass::Send;
    if (isa::isControlFlow(in.op))
        return CostClass::Ctrl;
    return CostClass::Alu;
}

CostClass
costClassOf(trace::InstrKind kind)
{
    switch (kind) {
      case trace::InstrKind::Send: return CostClass::Send;
      case trace::InstrKind::Ctrl: return CostClass::Ctrl;
      case trace::InstrKind::Alu:
      case trace::InstrKind::Em: break;
    }
    return CostClass::Alu;
}

ModeCycles
closedFormAlu(unsigned simd_width, unsigned elem_bytes, LaneMask exec)
{
    const unsigned gw = std::min(16u / elem_bytes, simd_width);
    const unsigned groups = (simd_width + gw - 1) / gw;
    const std::uint64_t mask =
        exec & ((std::uint64_t{1} << simd_width) - 1);
    unsigned live_groups = 0;
    for (unsigned g = 0; g < groups; ++g)
        if (((mask >> (g * gw)) & ((std::uint64_t{1} << gw) - 1)) != 0)
            ++live_groups;
    const bool dead_half = simd_width == 16 &&
        ((mask & 0x00ff) == 0 || (mask & 0xff00) == 0);
    const unsigned pop = static_cast<unsigned>(std::popcount(mask));
    return {groups, dead_half ? groups / 2 : groups, live_groups,
            (pop + gw - 1) / gw};
}

void
Oracle::add(CostClass cls, unsigned simd_width, unsigned elem_bytes,
            LaneMask exec)
{
    ++records;
    if (cls == CostClass::Alu) {
        const ModeCycles c = closedFormAlu(simd_width, elem_bytes, exec);
        for (unsigned m = 0; m < cycles.size(); ++m)
            cycles[m] += c[m];
        return;
    }
    const unsigned fixed = cls == CostClass::Send ? sendCycles : ctrlCycles;
    for (std::uint64_t &c : cycles)
        c += fixed;
}

void
Oracle::add(const isa::Instruction &in, LaneMask exec)
{
    add(costClassOf(in), in.simdWidth, isa::execElemBytes(in), exec);
}

bool
Oracle::ordered() const
{
    return cycles[0] >= cycles[1] && cycles[1] >= cycles[2] &&
        cycles[2] >= cycles[3];
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace iwcbench
