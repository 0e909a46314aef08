/**
 * @file
 * nvsim's benchmark of record. One run measures one workload:
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --golden-dir tests/golden --out-dir DIR
 *
 * --trace 0 repeats the workload for S seconds and reports its host
 * end-to-end metrics (medians over repetitions). --trace 1 runs one
 * untraced and one traced repetition, the layer replays and the exec
 * probes, and reports the per-layer metrics. The last line of stdout
 * is a JSON object: correct, attempted, failed, metrics.
 *
 * Every repetition runs in a child process, so a point that calls
 * fatal() (which exits) is counted as a failed operation instead of
 * ending the run; the next point continues in a fresh child.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/logging.hh"
#include "exec/sweep.hh"
#include "outcome.hh"
#include "replay.hh"
#include "workloads.hh"

using namespace perfbench;
using nvsim::strprintf;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string goldenDir;
    std::string outDir;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 --golden-dir DIR "
                 "--out-dir DIR\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool seen_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string v = argv[++i];
        try {
            if (flag == "--workload") {
                o.workload = v;
                seen_workload = true;
            } else if (flag == "--seed") {
                o.seed = std::stoull(v);
            } else if (flag == "--seconds") {
                o.seconds = std::stod(v);
            } else if (flag == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                o.trace = v == "1";
            } else if (flag == "--golden-dir") {
                o.goldenDir = v;
            } else if (flag == "--out-dir") {
                o.outDir = v;
            } else {
                usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (!seen_workload || o.goldenDir.empty() || o.outDir.empty())
        usage("--workload, --golden-dir and --out-dir are required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

// ---- child processes -----------------------------------------------------

struct ChildResult
{
    std::string out;
    std::string status;  //!< empty on a clean exit
};

/** Run @p body in a child process and collect what it writes. */
ChildResult
inChild(const std::function<void(std::FILE *)> &body)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error(std::string("pipe: ") + strerror(errno));
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error(std::string("fork: ") + strerror(errno));
    if (pid == 0) {
        close(fds[0]);
        std::FILE *out = fdopen(fds[1], "w");
        if (!out)
            _exit(3);
        body(out);
        std::fflush(out);
        _exit(0);
    }
    close(fds[1]);
    ChildResult r;
    char buf[65536];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof buf)) != 0) {
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        r.out.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) != 0)
        r.status = "exited with code " + std::to_string(WEXITSTATUS(status));
    else if (WIFSIGNALED(status))
        r.status = "killed by signal " + std::to_string(WTERMSIG(status));
    return r;
}

Messages
parseOrFail(const ChildResult &c, std::string &status)
{
    try {
        return parseMessages(c.out);
    } catch (const std::exception &e) {
        status = std::string("unreadable child output: ") + e.what();
        return {};
    }
}

// ---- repetitions ---------------------------------------------------------

struct Repetition
{
    std::vector<PointOutcome> points;
    double wallS = 0;
    std::map<std::string, double> spans;  //!< traced repetition only

    double
    setupS() const
    {
        double s = 0;
        for (const PointOutcome &p : points)
            s += p.setupS;
        return s;
    }

    double
    linesPerS() const
    {
        double measured = 0;
        double lines = 0;
        for (const PointOutcome &p : points) {
            measured += p.measuredS;
            lines += static_cast<double>(p.lines);
        }
        return measured > 0 ? lines / measured : 0;
    }

    std::size_t
    failed() const
    {
        return static_cast<std::size_t>(
            std::count_if(points.begin(), points.end(),
                          [](const PointOutcome &p) { return !p.ok; }));
    }
};

/**
 * One repetition: every point, in order, from the first set-up call
 * to verified outputs. A child that dies fails the point it was on;
 * the rest continue in a new child.
 */
Repetition
runRepetition(const Workload &w, const RunContext &ctx, bool traced)
{
    const std::size_t n = w.points();
    Repetition rep;
    rep.points.reserve(n);
    double t0 = hostNow();
    while (rep.points.size() < n) {
        const std::size_t first = rep.points.size();
        ChildResult c = inChild([&](std::FILE *out) {
            Spans spans;
            RunContext cc = ctx;
            cc.spans = traced ? &spans : nullptr;
            for (std::size_t i = first; i < n; ++i) {
                writeOutcome(out, w.runPoint(i, cc));
                std::fflush(out);
            }
            for (const auto &[name, s] : spans.totals())
                writeMetric(out, name, s);
        });
        Messages m = parseOrFail(c, c.status);
        if (m.points.empty() && c.status.empty())
            c.status = "ended without reporting";
        for (PointOutcome &p : m.points) {
            if (rep.points.size() < n)
                rep.points.push_back(std::move(p));
        }
        for (const auto &[name, s] : m.metrics)
            rep.spans[name] += s;
        if (!c.status.empty() && rep.points.size() < n) {
            PointOutcome dead;
            dead.label = "point " + std::to_string(rep.points.size());
            dead.fail("point process " + c.status);
            rep.points.push_back(std::move(dead));
        }
    }
    w.checkRepetition(rep.points, ctx);
    rep.wallS = hostNow() - t0;
    return rep;
}

/** Fail every point of @p rep whose outputs differ from @p first's. */
void
checkRepeats(const Repetition &first, Repetition &rep, const char *what)
{
    for (std::size_t i = 0; i < rep.points.size(); ++i) {
        if (rep.points[i].digest() != first.points[i].digest())
            rep.points[i].fail(std::string("outputs differ from ") + what);
    }
}

// ---- statistics and output -----------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    exactNumber(metrics[i].value).c_str(),
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

void
reportFailures(const Repetition &rep, const char *what)
{
    for (const PointOutcome &p : rep.points) {
        if (!p.ok)
            std::printf("FAILED %s %s: %s\n", what, p.label.c_str(),
                        p.error.c_str());
    }
}

double
peakChildRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

int
timedRun(const Workload &w, const RunContext &ctx, const Options &o)
{
    std::vector<Repetition> reps;
    double start = hostNow();
    while (reps.empty() || hostNow() - start < o.seconds) {
        reps.push_back(runRepetition(w, ctx, /*traced=*/false));
        if (reps.size() > 1)
            checkRepeats(reps.front(), reps.back(), "repetition 1");
    }

    std::vector<double> wall, setup, lps;
    std::size_t attempted = 0, failed = 0;
    for (const Repetition &r : reps) {
        wall.push_back(r.wallS);
        setup.push_back(r.setupS());
        lps.push_back(r.linesPerS());
        attempted += r.points.size();
        failed += r.failed();
        reportFailures(r, w.name());
    }
    std::vector<Metric> metrics = {
        {"wall_s", "s", median(wall)},
        {"setup_s", "s", median(setup)},
        {"lines_per_s", "1/s", median(lps)},
        {"peak_rss_mb", "MB", peakChildRssMb()},
    };
    std::printf("workload %s, seed %llu: %zu repetitions of %zu points\n",
                w.name(), static_cast<unsigned long long>(o.seed),
                reps.size(), w.points());
    auto range = [](const std::vector<double> &v) {
        std::string s = "samples";
        for (double x : v)
            s += strprintf(" %.4g", x);
        return s;
    };
    std::printf("  wall_s       %.6g s     (median; %s)\n", median(wall),
                range(wall).c_str());
    std::printf("  setup_s      %.6g s     (median; %s)\n", median(setup),
                range(setup).c_str());
    std::printf("  lines_per_s  %.6g 1/s   (median; %s)\n", median(lps),
                range(lps).c_str());
    std::printf("  peak_rss_mb  %.6g MB\n", metrics[3].value);
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}

// ---- traced run ----------------------------------------------------------

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0;
}

/** The replays and borrowed paper references, run in a child. */
void
replayChild(std::FILE *out, const Workload &w, const RunContext &ctx,
            const Repetition &base)
{
    ReplayTotals total;
    double pattern_s = 0;
    std::uint64_t offsets = 0;
    double epoch_s = 0;
    std::uint64_t mismatch = 0;
    double amp_sum = 0;
    unsigned amp_n = 0;
    for (std::size_t i = 0; i < w.points(); ++i) {
        std::unique_ptr<ReplayCase> rc = w.replayCase(i, ctx.seed);
        if (!rc)
            continue;
        for (const auto &[region, k] : rc->kernels) {
            PatternReplay p = replayPattern(region, k);
            pattern_s += p.seconds;
            offsets += p.offsets;
        }
        epoch_s += driveStream(*rc->sys, rc->stream);
        const PointOutcome &real = base.points[i];
        if (real.counters.empty() ||
            rc->sys->counters().asArray() != real.counters[0].asArray())
            ++mismatch;
        rc->sys.reset();

        LayerReplay layers(rc->config);
        layers.run(rc->stream);
        ReplayTotals t = layers.totals();
        if (t.nvramWriteAmp > 0) {
            amp_sum += t.nvramWriteAmp;
            ++amp_n;
        }
        total += t;
    }
    const nvsim::PerfCounters &c = total.counters;
    writeMetric(out, "kernels.pattern_ns",
                offsets ? pattern_s * 1e9 / offsets : 0);
    writeMetric(out, "sys.epoch_s", epoch_s);
    writeMetric(out, "replay.stream_mismatch", mismatch);
    writeMetric(out, "sys.llc_ns", total.llc.nsPerOp());
    writeMetric(out, "sys.llc_hit_rate",
                ratio(total.llcHits, total.llcHits + total.llcMisses));
    writeMetric(out, "sys.translate_ns", total.translate.nsPerOp());
    writeMetric(out, "imc.policy_ns", total.policy.nsPerOp());
    writeMetric(out, "imc.ddo_ns", total.ddo.nsPerOp());
    writeMetric(out, "imc.sched_ns", total.sched.nsPerOp());
    writeMetric(out, "mem.nvram_ns", total.nvram.nsPerOp());
    writeMetric(out, "imc.tag_hit.replay", c.tagHit);
    writeMetric(out, "imc.tag_miss_clean.replay", c.tagMissClean);
    writeMetric(out, "imc.tag_miss_dirty.replay", c.tagMissDirty);
    writeMetric(out, "imc.ddo_hit.replay", total.ddoMatches);
    writeMetric(out, "imc.queue_wait_ns.replay", c.queueWaitNs);
    writeMetric(out, "imc.bank_conflicts.replay", c.bankConflicts);
    writeMetric(out, "imc.row_buffer_hits.replay", c.rowBufferHits);
    writeMetric(out, "imc.write_drains.replay", c.writeDrains);
    writeMetric(out, "mem.nvram_read.replay", c.nvramRead);
    writeMetric(out, "mem.nvram_write.replay", c.nvramWrite);
    writeMetric(out, "mem.nvram_write_amp.replay",
                amp_n ? amp_sum / amp_n : 0);

    for (const PaperRef &ref : paperReferences(w.name())) {
        PointOutcome p = makeWorkload(ref.workload)->runPoint(ref.point, ctx);
        if (p.ok)
            writeMetric(out, ref.ref, p.value(ref.value));
    }
}

/** exec.* probes: more threads than the timed runs, at most nproc. */
void
execChild(std::FILE *out, const Workload &w, const RunContext &ctx,
          const Repetition &base, unsigned nproc)
{
    double wall[2] = {0, 0};
    const unsigned jobs[2] = {1, nproc};
    std::size_t failed = 0;
    for (int j = 0; j < 2; ++j) {
        nvsim::exec::SweepRunner runner(jobs[j]);
        double t0 = hostNow();
        std::vector<PointOutcome> pts = runner.map<PointOutcome>(
            w.points(), [&](std::size_t i) { return w.runPoint(i, ctx); });
        wall[j] = hostNow() - t0;
        for (std::size_t i = 0; i < pts.size(); ++i)
            failed += !pts[i].ok || pts[i].digest() != base.points[i].digest();
    }
    writeMetric(out, "exec.sweep_speedup", ratio(wall[0], wall[1]));
    writeMetric(out, "exec.sweep_failed", static_cast<double>(failed));

    if (std::string(w.name()) == "kernels_2lm") {
        ShardSample one = shardSample(1, ctx.seed);
        ShardSample wide = shardSample(nproc, ctx.seed);
        writeMetric(out, "exec.shard_speedup", ratio(one.wallS, wide.wallS));
        writeMetric(out, "exec.shard_cpu_ratio", ratio(wide.cpuS, one.cpuS));
        writeMetric(out, "exec.shard_failed",
                    one.counters.asArray() != wide.counters.asArray());
    }
}

int
tracedRun(const Workload &w, const RunContext &ctx, const Options &o)
{
    const unsigned nproc = nvsim::exec::hardwareJobs();
    // Untraced repetitions on both sides of the traced one, so drift
    // in host speed does not read as tracing overhead.
    Repetition base = runRepetition(w, ctx, /*traced=*/false);
    Repetition traced = runRepetition(w, ctx, /*traced=*/true);
    Repetition after = runRepetition(w, ctx, /*traced=*/false);
    checkRepeats(base, traced, "the untraced repetition");
    checkRepeats(base, after, "the first untraced repetition");

    std::map<std::string, double> m;
    for (const LayerMetric &lm : layerMetrics())
        m[lm.name] = 0;
    for (const auto &[name, v] : paperErrors({}))
        m[name] = v;

    // Spans of the traced repetition.
    auto span = [&](const char *name) {
        auto it = traced.spans.find(name);
        return it == traced.spans.end() ? 0.0 : it->second;
    };
    m["kernels.prime_s"] = span("kernels.prime");
    m["kernels.run_s"] = span("kernels.run");
    m["obs.telemetry_s"] = span("obs.telemetry");
    m["dnn.build_s"] = span("dnn.build");
    m["dnn.plan_s"] = span("dnn.plan");
    m["dnn.iter_s"] = span("dnn.iter");
    m["obs.trace_overhead"] =
        ratio(traced.wallS, (base.wallS + after.wallS) / 2);

    // Work counts of the real run.
    nvsim::PerfCounters c;
    double llc_hits = 0, llc_misses = 0, amp_sum = 0;
    unsigned amp_n = 0;
    for (const PointOutcome &p : base.points) {
        for (const nvsim::PerfCounters &b : p.counters)
            c += b;
        llc_hits += p.value("llc.hits");
        llc_misses += p.value("llc.misses");
        if (p.value("nvram.write_amp") > 0) {
            amp_sum += p.value("nvram.write_amp");
            ++amp_n;
        }
    }
    m["sys.llc_hit_rate.real"] = ratio(llc_hits, llc_hits + llc_misses);
    m["imc.tag_hit"] = c.tagHit;
    m["imc.tag_miss_clean"] = c.tagMissClean;
    m["imc.tag_miss_dirty"] = c.tagMissDirty;
    m["imc.ddo_hit"] = c.ddoHit;
    m["imc.amplification"] = c.amplification();
    m["imc.queue_wait_ns"] = c.queueWaitNs;
    m["imc.bank_conflicts"] = c.bankConflicts;
    m["imc.row_buffer_hits"] = c.rowBufferHits;
    m["imc.write_drains"] = c.writeDrains;
    m["mem.nvram_read"] = c.nvramRead;
    m["mem.nvram_write"] = c.nvramWrite;
    m["mem.dram_read"] = c.dramRead;
    m["mem.dram_write"] = c.dramWrite;
    m["mem.nvram_write_amp"] = amp_n ? amp_sum / amp_n : 0;

    // Model outputs, exact and ungated; ref.* feed paperErrors().
    std::map<std::string, double> refs;
    for (const auto &[name, v] : w.model(base.points))
        (name.rfind("ref.", 0) == 0 ? refs : m)[name] = v;

    // Replays and probes, each in its own child.
    std::size_t failed = base.failed() + traced.failed() + after.failed();
    std::size_t attempted =
        base.points.size() + traced.points.size() + after.points.size();
    std::map<std::string, double> probe;
    auto runProbe = [&](const std::function<void(std::FILE *)> &body) {
        ChildResult r = inChild(body);
        Messages msg = parseOrFail(r, r.status);
        if (!r.status.empty()) {
            std::printf("FAILED %s probe: %s\n", w.name(), r.status.c_str());
            ++failed;
        }
        ++attempted;
        for (const auto &[name, v] : msg.metrics)
            probe[name] = v;
    };
    runProbe([&](std::FILE *f) { replayChild(f, w, ctx, base); });
    runProbe([&](std::FILE *f) { execChild(f, w, ctx, base, nproc); });
    for (const auto &[name, v] : probe) {
        if (name.rfind("ref.", 0) == 0)
            refs[name] = v;
        else if (m.count(name))
            m[name] = v;
    }
    for (const auto &[name, v] : paperErrors(refs))
        m[name] = v;
    failed += static_cast<std::size_t>(probe["exec.sweep_failed"] +
                                       probe["exec.shard_failed"]);
    attempted += 2 * w.points();

    reportFailures(base, w.name());
    reportFailures(traced, w.name());
    reportFailures(after, w.name());
    std::printf("workload %s, seed %llu: traced run (nproc %u)\n", w.name(),
                static_cast<unsigned long long>(o.seed), nproc);
    std::vector<Metric> metrics;
    for (const LayerMetric &lm : layerMetrics()) {
        metrics.push_back({lm.name, lm.unit, m[lm.name]});
        std::printf("  %-38s %14.6g %s\n", lm.name, m[lm.name], lm.unit);
    }
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    std::unique_ptr<Workload> w = makeWorkload(o.workload);
    if (!w)
        usage(("unknown workload " + o.workload).c_str());

    Golden fig2, fig4;
    try {
        fig2 = Golden::load(o.goldenDir + "/fig2_nvram_bw.csv");
        fig4 = Golden::load(o.goldenDir + "/fig4_2lm_microbench.csv");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    RunContext ctx;
    ctx.seed = o.seed;
    ctx.fig2 = &fig2;
    ctx.fig4 = &fig4;
    ctx.outDir = o.outDir;
    try {
        return o.trace ? tracedRun(*w, ctx, o) : timedRun(*w, ctx, o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
