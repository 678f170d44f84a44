/**
 * @file
 * service: the iwc_simd daemon serving a closed loop of pipelined
 * client connections. Each round starts a
 * fresh daemon (cold result cache) and sends the same multiset of
 * requests: every one of a fixed set of distinct points (Timing,
 * TimingCompare and FunctionalTrace requests over registry workloads)
 * repeated kRepeats times, in an order and client assignment drawn from
 * the run's seed. The first request of each point misses and simulates;
 * duplicates that arrive while it is in flight coalesce onto it; the
 * rest hit the cache.
 */

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "run/run.hh"
#include "svc/client.hh"
#include "svc/wire.hh"
#include "workloads.hh"

namespace iwcbench
{

using namespace iwc;

namespace
{

/**
 * The request stream follows the repository's own load test of the
 * daemon (tools/iwc_loadtest and its loadtest-smoke ctest): its default
 * workloads, each as a Timing request per mode and a FunctionalTrace
 * request, plus one TimingCompare request per workload; each point
 * repeated as often as loadtest-smoke repeats its points (200 requests
 * over 10 points); pipeline depth as in loadtest-smoke (8), with
 * Options::lanes() connections in place of its 8 clients, as many as
 * the daemon's workers.
 */
const char *const kServiceWorkloads[] = {
    "micro_ifelse", "micro_nested", "va", "dp",
};
constexpr unsigned kRepeats = 20;
constexpr unsigned kPipeline = 8;

std::vector<run::RunRequest>
servicePoints()
{
    std::vector<run::RunRequest> points;
    for (const char *name : kServiceWorkloads) {
        for (unsigned m = 0; m < compaction::kNumModes; ++m) {
            run::RunRequest timing = run::RunRequest::timing(
                name, gpu::ivbConfig(static_cast<compaction::Mode>(m)), 1);
            timing.checkOutput = true;
            points.push_back(timing);
        }
        run::RunRequest compare = run::RunRequest::timingCompare(
            name, gpu::ivbConfig(compaction::Mode::Baseline), 1);
        compare.checkOutput = true;
        points.push_back(compare);
        points.push_back(run::RunRequest::functionalTrace(name, 1));
    }
    return points;
}

/** Simulated cycles and records a decoded reply carries. */
std::pair<double, double>
replyWork(const run::RunResult &r)
{
    double cycles = 0, records = 0;
    switch (r.kind) {
      case run::JobKind::Timing:
        cycles = static_cast<double>(r.stats.totalCycles);
        records = static_cast<double>(r.stats.eu.instructions);
        break;
      case run::JobKind::TimingCompare:
        for (const auto &m : r.compare) {
            cycles += static_cast<double>(m.stats.totalCycles);
            records += static_cast<double>(m.stats.eu.instructions);
        }
        break;
      default:
        cycles = static_cast<double>(r.analysis.euCycles[0]);
        records = static_cast<double>(r.analysis.records);
        break;
    }
    return {cycles, records};
}

/** Daemons a run started, and how many of them did not exit cleanly. */
struct DaemonLog
{
    unsigned started = 0;
    unsigned unclean = 0;
};

/**
 * One iwc_simd process at its default settings but for its workers:
 * Options::lanes() of them, not one per CPU, since a closed loop that
 * fills every CPU of a shared host moves with whichever CPU is slowest.
 * Stopped (and reaped) by stop() or the dtor.
 */
class Daemon
{
  public:
    Daemon(const Options &opts, DaemonLog &log)
        : log_(log),
          socket_(opts.workDir + "/svc-" + std::to_string(::getpid()) +
                  "-" + std::to_string(log.started++) + ".sock")
    {
        const std::string log_path = opts.workDir + "/daemon.log";
        std::vector<std::string> args = {
            opts.daemon, "socket=" + socket_,
            "workers=" + std::to_string(opts.lanes())};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            // The daemon's own output goes to a log beside the sockets,
            // keeping this process's stdout for the result line.
            const int fd = ::open(log_path.c_str(),
                                  O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
            }
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        // Readiness: connect and ping, polling every half millisecond.
        const std::int64_t deadline = nowNs() + 15'000'000'000;
        svc::Client probe;
        while (!probe.connect(socket_, 0)) {
            if (nowNs() > deadline)
                throw std::runtime_error("daemon did not start: " + socket_);
            ::usleep(500);
        }
        if (!probe.ping())
            throw std::runtime_error("daemon did not answer a ping");
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return socket_; }

    /**
     * Graceful shutdown; returns the daemon's peak RSS in MB. An unclean
     * exit after the shutdown was acknowledged is counted in the run's
     * DaemonLog, not as a failed operation: it happens now and then,
     * after every reply has been delivered, so it cannot be a steady
     * share of the operations.
     */
    double
    stop()
    {
        svc::Client control;
        if (!control.connect(socket_, 1000) || !control.shutdownDaemon())
            throw std::runtime_error("daemon refused shutdown");
        int status = 0;
        rusage usage{};
        if (::wait4(pid_, &status, 0, &usage) != pid_)
            throw std::runtime_error("wait4 failed");
        pid_ = -1;
        if (WIFSIGNALED(status) || WEXITSTATUS(status) != 0) {
            ++log_.unclean;
            if (WIFSIGNALED(status))
                std::fprintf(stderr, "warning: daemon died by signal %d "
                             "after shutdown\n", WTERMSIG(status));
            else
                std::fprintf(stderr, "warning: daemon exited %d after "
                             "shutdown\n", WEXITSTATUS(status));
        }
        return static_cast<double>(usage.ru_maxrss) / 1024.0;
    }

  private:
    DaemonLog &log_;
    std::string socket_;
    pid_t pid_ = -1;
};

/** Canonical reply bytes per point, set by the first Ok reply. */
struct Canon
{
    std::mutex mutex;
    std::vector<std::string> raw;
    std::vector<std::pair<double, double>> work;

    /** True when @p reply is Ok and equals its point's bytes. */
    bool
    check(std::size_t p, const svc::ClientReply &reply)
    {
        if (reply.status != svc::Status::Ok)
            return false;
        const std::lock_guard<std::mutex> lock(mutex);
        if (raw[p].empty()) {
            raw[p] = reply.raw;
            work[p] = replyWork(reply.result);
        }
        return reply.raw == raw[p];
    }
};

struct Round
{
    double seconds = 0;
    double daemonRssMb = 0;
    std::vector<double> latencyMs;
    double simCycles = 0;
    double records = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    svc::StatsSnapshot stats;
};

/**
 * One round against a fresh daemon. @p order lists point indices in
 * submission order; request j goes to client j % clients, which keeps
 * up to kPipeline requests in flight. With @p probe, a serial pass over
 * every point follows (all cache hits, one request in flight): the
 * cache's own service time, which pipelined latency hides in queueing.
 */
Round
serviceRound(const Options &opts, DaemonLog &log,
             const std::vector<run::RunRequest> &points,
             const std::vector<std::size_t> &order, Canon &canon,
             Spans &spans, bool probe)
{
    Round r;
    std::unique_ptr<Daemon> daemon;
    {
        Scoped s(spans, "svc.daemon_start", log.started);
        daemon = std::make_unique<Daemon>(opts, log);
    }
    const unsigned clients = opts.lanes();
    std::vector<std::unique_ptr<svc::Client>> conns;
    for (unsigned c = 0; c < clients; ++c) {
        conns.push_back(std::make_unique<svc::Client>());
        if (!conns.back()->connect(daemon->socket(), 1000))
            throw std::runtime_error("client connect failed");
    }

    // Per point: 0 = not sent yet, 1 = first copy in flight, 2 = done.
    std::vector<std::atomic<int>> state(points.size());
    std::vector<std::vector<double>> lat(clients);
    std::vector<double> cycles(clients, 0), records(clients, 0);
    std::vector<std::uint64_t> failed(clients, 0);

    auto client = [&](unsigned c) {
        svc::Client &conn = *conns[c];
        std::vector<std::size_t> mine;
        for (std::size_t j = c; j < order.size(); j += clients)
            mine.push_back(j);
        std::vector<std::int64_t> sent_at(mine.size());
        std::vector<const char *> kind(mine.size());
        std::vector<char> lead(mine.size());
        std::size_t sent = 0, received = 0;
        svc::ClientReply reply;
        while (received < mine.size()) {
            while (sent < mine.size() && sent - received < kPipeline) {
                const std::size_t p = order[mine[sent]];
                int expected = 0;
                lead[sent] = state[p].compare_exchange_strong(expected, 1);
                kind[sent] = lead[sent] ? "svc.miss"
                    : expected == 1     ? "svc.coalesced"
                                        : "svc.hit";
                sent_at[sent] = nowNs();
                if (!conn.sendSubmit(points[p], sent))
                    break;
                ++sent;
            }
            if (sent == received || !conn.recvReply(reply)) {
                failed[c] += mine.size() - received; // connection lost
                return;
            }
            ++received;
            const std::int64_t now = nowNs();
            const std::uint64_t k = reply.reqId;
            if (k >= sent) {
                ++failed[c];
                continue;
            }
            const std::size_t p = order[mine[k]];
            lat[c].push_back(static_cast<double>(now - sent_at[k]) / 1e6);
            spans.record(kind[k], sent_at[k], now, mine[k]);
            if (lead[k])
                state[p].store(2);
            if (canon.check(p, reply)) {
                cycles[c] += canon.work[p].first;
                records[c] += canon.work[p].second;
            } else {
                ++failed[c];
            }
        }
    };

    const std::int64_t t0 = nowNs();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back(client, c);
    for (std::thread &t : threads)
        t.join();
    r.seconds = static_cast<double>(nowNs() - t0) / 1e9;

    r.attempted = order.size();
    for (unsigned c = 0; c < clients; ++c) {
        r.latencyMs.insert(r.latencyMs.end(), lat[c].begin(), lat[c].end());
        r.simCycles += cycles[c];
        r.records += records[c];
        r.failed += failed[c];
    }
    if (probe) {
        svc::ClientReply reply;
        for (std::size_t p = 0; p < points.size(); ++p) {
            Scoped s(spans, "svc.probe_hit", p);
            ++r.attempted;
            if (!conns[0]->call(points[p], reply) || !canon.check(p, reply))
                ++r.failed;
        }
    }
    conns.clear();
    Scoped s(spans, "svc.daemon_stop", log.started);
    svc::Client control;
    if (!control.connect(daemon->socket(), 1000) || !control.stats(r.stats))
        throw std::runtime_error("stats request failed");
    r.daemonRssMb = daemon->stop();
    return r;
}

/** The request order of round @p round: a seeded shuffle. */
std::vector<std::size_t>
roundOrder(std::size_t points, std::uint64_t seed, unsigned round)
{
    std::vector<std::size_t> order;
    for (std::size_t p = 0; p < points; ++p)
        for (unsigned k = 0; k < kRepeats; ++k)
            order.push_back(p);
    Digest d;
    d.add(seed);
    d.add(round);
    std::uint64_t state = d.value();
    for (std::size_t i = order.size(); i > 1; --i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        std::swap(order[i - 1], order[state % i]);
    }
    return order;
}

} // namespace

void
runService(const Options &opts, Outcome &out)
{
    const std::vector<run::RunRequest> points = servicePoints();
    Canon canon;
    canon.raw.resize(points.size());
    canon.work.resize(points.size());
    DaemonLog log;
    Spans off(false);
    {
        // Set-up ends when the first daemon answers a ping.
        Daemon first(opts, log);
        if (finishSetup(opts, out)) {
            first.stop();
            return;
        }
        first.stop();
    }

    const std::int64_t start = nowNs();
    const double measure_s = opts.trace ? opts.seconds / 3 : opts.seconds;
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(measure_s * 1e9);
    RoundRates rates;
    std::vector<double> latency, round_seconds, rss;
    svc::StatsSnapshot totals;
    unsigned rounds = 0;
    do {
        const auto order = roundOrder(points.size(), opts.seed, rounds++);
        const Round r =
            serviceRound(opts, log, points, order, canon, off, false);
        rates.add(r.seconds, r.simCycles, r.records,
                  static_cast<double>(r.attempted));
        round_seconds.push_back(r.seconds);
        rss.push_back(r.daemonRssMb);
        latency.insert(latency.end(), r.latencyMs.begin(),
                       r.latencyMs.end());
        out.attempted += r.attempted;
        out.failed += r.failed;
        totals.submitted += r.stats.submitted;
        totals.executed += r.stats.executed;
        totals.cacheHits += r.stats.cacheHits;
        totals.coalesced += r.stats.coalesced;
    } while (nowNs() < deadline);
    if (out.failed != 0)
        out.fail(std::to_string(out.failed) +
                 " replies were not Ok or differed between repeats");

    Digest all;
    for (const std::string &raw : canon.raw) {
        run::RunResult decoded;
        if (!svc::decodeRunResult(raw, decoded)) {
            out.fail("a canonical reply does not decode");
            continue;
        }
        if (decoded.kind == run::JobKind::FunctionalTrace) {
            digestAnalysis(all, decoded.analysis);
        } else {
            digestLaunch(all, decoded.stats);
            for (const auto &m : decoded.compare)
                digestLaunch(all, m.stats);
        }
        if ((decoded.kind != run::JobKind::FunctionalTrace) &&
            !(decoded.checked && decoded.checkOk))
            out.fail(decoded.label + ": host reference check failed");
    }
    std::printf("digest service %s (%zu points)\n", hex(all.value()).c_str(),
                points.size());
    std::printf("rounds %u, host seconds per round median %.4f, "
                "executed %llu, coalesced %llu, cache hits %llu of %llu\n",
                rounds, median(round_seconds),
                static_cast<unsigned long long>(totals.executed),
                static_cast<unsigned long long>(totals.coalesced),
                static_cast<unsigned long long>(totals.cacheHits),
                static_cast<unsigned long long>(totals.submitted));

    // A seeded sample of points, re-run in process: the daemon's bytes
    // must equal the library's own encoding of the same request.
    for (unsigned k = 0; k < 3; ++k) {
        const std::size_t p = (opts.seed * 7 + k * 11) % points.size();
        if (svc::encodeRunResult(run::executeRun(points[p])) != canon.raw[p])
            out.fail("point " + std::to_string(p) +
                     ": daemon reply differs from an in-process run");
    }

    if (!opts.trace) {
        std::printf("daemons %u, unclean exits after shutdown %u\n",
                    log.started, log.unclean);
        rates.addTo(out);
        addLatencyMetrics(out, latency);
        out.add("peak_rss_mb", median(rss), "MB");
        return;
    }

    // Traced phase: rounds with a serial probe pass, in pairs with spans
    // off and on.
    Spans spans(true);
    TracedPhase phase;
    svc::StatsSnapshot traced;
    std::uint64_t executed = 0, coalesced = 0;
    phase.from = nowNs();
    const std::int64_t traced_deadline =
        start + static_cast<std::int64_t>(opts.seconds * 1e9);
    auto round = [&](Spans &s) {
        const auto order = roundOrder(points.size(), opts.seed, rounds++);
        Round r = serviceRound(opts, log, points, order, canon, s, true);
        out.attempted += r.attempted;
        out.failed += r.failed;
        return r;
    };
    do {
        const Round r = phase.pair(spans, round);
        if (traced.submitted == 0) {
            executed = r.stats.executed;
            coalesced = r.stats.coalesced;
        }
        traced.submitted += r.stats.submitted;
        traced.cacheHits += r.stats.cacheHits;
    } while (nowNs() < traced_deadline);
    phase.to = nowNs();
    std::printf("daemons %u, unclean exits after shutdown %u\n",
                log.started, log.unclean);

    LayerReport report;
    report["svc.hit_rtt_us"] = median(spans.durations("svc.probe_hit")) / 1e3;
    report["svc.miss_rtt_ms"] = median(spans.durations("svc.miss")) / 1e6;
    report["svc.cache_hit_ratio"] = static_cast<double>(traced.cacheHits) /
        static_cast<double>(traced.submitted);
    report["svc.executed"] = static_cast<double>(executed);
    report["svc.coalesced"] = static_cast<double>(coalesced);
    report["svc.daemon_crashes"] = log.unclean;
    finishTraced(opts, out, spans, report, phase,
                 kCensusPoint | kCensusSynthetic);
}

void
censusService(const Options &opts, Spans &spans, LayerReport &report)
{
    run::RunRequest request = run::RunRequest::timing(
        kCensusWorkload, pointConfig(1, compaction::Mode::Baseline), 1);
    DaemonLog log;
    Daemon daemon(opts, log);
    svc::Client client;
    if (!client.connect(daemon.socket(), 1000))
        throw std::runtime_error("census client connect failed");
    svc::ClientReply reply;
    for (unsigned i = 0; i <= kRepeats; ++i) {
        Scoped s(spans, i == 0 ? "svc.miss" : "svc.probe_hit", i);
        if (!client.call(request, reply) || reply.status != svc::Status::Ok)
            throw std::runtime_error("census request failed");
    }
    svc::StatsSnapshot stats;
    if (!client.stats(stats))
        throw std::runtime_error("census stats request failed");
    client.close();
    daemon.stop();
    report["svc.hit_rtt_us"] = median(spans.durations("svc.probe_hit")) / 1e3;
    report["svc.miss_rtt_ms"] = median(spans.durations("svc.miss")) / 1e6;
    report["svc.cache_hit_ratio"] =
        static_cast<double>(stats.cacheHits) / stats.submitted;
    report["svc.executed"] = static_cast<double>(stats.executed);
    report["svc.coalesced"] = static_cast<double>(stats.coalesced);
    report["svc.daemon_crashes"] = log.unclean;
}

} // namespace iwcbench
