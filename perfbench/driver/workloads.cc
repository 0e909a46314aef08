#include "workloads.hh"

#include <cmath>
#include <exception>
#include <iterator>

#include "core/logging.hh"
#include "dnn/autotm.hh"
#include "dnn/executor.hh"
#include "dnn/networks.hh"
#include "kernels/kernels.hh"
#include "obs/telemetry/telemetry.hh"

namespace perfbench
{

using namespace nvsim;

namespace
{

/** The figure benches' capacity scale (192 GiB DRAM -> 48 MiB). */
constexpr std::uint64_t kKernelScale = 4096;

std::string
gbsText(double bytes_per_s)
{
    return strprintf("%f", bytes_per_s / 1e9);
}

std::string
countText(std::uint64_t v)
{
    return strprintf("%llu", static_cast<unsigned long long>(v));
}

void
checkRow(PointOutcome &out, const Golden *golden, const std::string &row)
{
    if (!golden) {
        out.fail("golden file not loaded");
        return;
    }
    std::string why = checkGoldenRow(*golden, row);
    if (!why.empty())
        out.fail(why);
}

/** Real-run layer numbers set beside the replays' counts. */
void
addLayerValues(PointOutcome &out, const MemorySystem &sys)
{
    out.values.emplace_back("llc.hits",
                            static_cast<double>(sys.llc().hitCount()));
    out.values.emplace_back("llc.misses",
                            static_cast<double>(sys.llc().missCount()));
    out.values.emplace_back("nvram.write_amp",
                            sys.nvramWriteAmplification());
}

std::unique_ptr<MemorySystem>
makeTimed(const SystemConfig &cfg, Spans *spans)
{
    Scope s(spans, "sys.make");
    return makeSystem(cfg);
}

// ---- kernels_1lm: Figure 2, app direct ----------------------------------

struct Fig2Variant
{
    const char *name;
    AccessPattern pattern;
    Bytes granularity;
};

const Fig2Variant kFig2Variants[] = {
    {"sequential", AccessPattern::Sequential, 64},
    {"random_64B", AccessPattern::Random, 64},
    {"random_128B", AccessPattern::Random, 128},
    {"random_256B", AccessPattern::Random, 256},
    {"random_512B", AccessPattern::Random, 512},
};
const unsigned kFig2Threads[] = {1, 2, 4, 8, 16, 24};
constexpr std::size_t kFig2Variants_n = std::size(kFig2Variants);
constexpr std::size_t kFig2PerFigure =
    std::size(kFig2Threads) * kFig2Variants_n;
constexpr Bytes kFig2Array = 24 * kMiB;

struct Fig2Point
{
    const char *figure;
    KernelOp op;
    const Fig2Variant *variant;
    unsigned threads;
};

Fig2Point
fig2Point(std::size_t i)
{
    bool writes = i / kFig2PerFigure == 1;
    return {writes ? "2b" : "2a",
            writes ? KernelOp::WriteOnly : KernelOp::ReadOnly,
            &kFig2Variants[i % kFig2Variants_n],
            kFig2Threads[i % kFig2PerFigure / kFig2Variants_n]};
}

/** Index of the Figure 2 point (figure, threads, variant). */
constexpr std::size_t
fig2Index(int figure, std::size_t thread_idx, std::size_t variant)
{
    return figure * kFig2PerFigure + thread_idx * kFig2Variants_n +
           variant;
}

// 1LM sequential read saturated at 8 threads, NT write peak at 4.
constexpr std::size_t kFig2ReadPeak = fig2Index(0, 3, 0);
constexpr std::size_t kFig2WritePeak = fig2Index(1, 2, 0);

SystemConfig
fig2Config()
{
    SystemConfig cfg;
    cfg.mode = MemoryMode::OneLm;
    cfg.scale = kKernelScale;
    return cfg;
}

KernelConfig
fig2Kernel(const Fig2Point &p, std::uint64_t seed)
{
    KernelConfig k;
    k.op = p.op;
    k.pattern = p.variant->pattern;
    k.granularity = p.variant->granularity;
    k.threads = p.threads;
    k.nontemporal = true;
    k.seed = seed;
    return k;
}

class KernelsOneLm : public Workload
{
  public:
    const char *name() const override { return "kernels_1lm"; }
    std::size_t points() const override { return 2 * kFig2PerFigure; }

    std::map<std::string, double>
    model(const std::vector<PointOutcome> &pts) const override
    {
        auto eff = [&](std::size_t i) {
            return pts[i].value("effective_gbs");
        };
        return {
            {"model.effective_gbs.2a_seq_8T", eff(kFig2ReadPeak)},
            {"model.effective_gbs.2a_rand64_24T", eff(fig2Index(0, 5, 1))},
            {"model.effective_gbs.2b_seq_4T", eff(kFig2WritePeak)},
            {"model.effective_gbs.2b_rand64_24T", eff(fig2Index(1, 5, 1))},
            {"ref.1lm_read_peak", eff(kFig2ReadPeak)},
            {"ref.1lm_write_peak", eff(kFig2WritePeak)},
        };
    }

    std::unique_ptr<ReplayCase>
    replayCase(std::size_t i, std::uint64_t seed) const override
    {
        Fig2Point p = fig2Point(i);
        auto rc = std::make_unique<ReplayCase>();
        rc->config = fig2Config();
        rc->sys = makeSystem(rc->config);
        Region arr = rc->sys->allocateIn(MemPool::Nvram, kFig2Array, "array");
        KernelConfig k = fig2Kernel(p, seed);
        appendKernel(rc->stream, arr, k);
        rc->kernels.emplace_back(arr, k);
        return rc;
    }

  protected:
    void
    run(std::size_t i, const RunContext &ctx,
        PointOutcome &out) const override
    {
        Fig2Point p = fig2Point(i);
        out.label = strprintf("%s/%s/%uT", p.figure, p.variant->name,
                              p.threads);
        double t0 = hostNow();
        auto sys = makeTimed(fig2Config(), ctx.spans);
        Region arr;
        {
            Scope s(ctx.spans, "sys.allocate");
            arr = sys->allocateIn(MemPool::Nvram, kFig2Array, "array");
        }
        double t1 = hostNow();
        KernelResult r;
        {
            Scope s(ctx.spans, "kernels.run");
            r = runKernel(*sys, arr, fig2Kernel(p, ctx.seed));
        }
        out.setupS = t1 - t0;
        out.measuredS = hostNow() - t1;
        out.lines = r.counters.demand();
        out.counters.push_back(r.counters);
        out.values.emplace_back("effective_gbs", r.effectiveBandwidth / 1e9);
        out.values.emplace_back("amplification", r.counters.amplification());
        addLayerValues(out, *sys);
        out.rows.push_back(csvLine({p.figure, p.variant->name,
                                    strprintf("%u", p.threads),
                                    gbsText(r.effectiveBandwidth)}));
        if (p.variant->pattern == AccessPattern::Sequential ||
            ctx.seed == kDefaultSeed)
            checkRow(out, ctx.fig2, out.rows.back());
    }
};

// ---- kernels_2lm: Figure 4, memory mode at ~100% miss -------------------

struct Fig4Scenario
{
    const char *name;
    const char *key;
    KernelOp op;
    bool nontemporal;
    bool primeDirty;
    unsigned threads;
};

const Fig4Scenario kFig4Scenarios[] = {
    {"4a read-only, clean misses, 24T", "4a", KernelOp::ReadOnly, true,
     false, 24},
    {"4b write-only NT, dirty misses, 24T", "4b", KernelOp::WriteOnly,
     true, true, 24},
    {"4c rmw standard, dirty miss + DDO, 4T", "4c",
     KernelOp::ReadModifyWrite, false, true, 4},
};

AccessPattern
fig4Pattern(std::size_t i)
{
    return i % 2 == 0 ? AccessPattern::Sequential : AccessPattern::Random;
}

std::string
fig4Key(std::size_t i)
{
    return std::string(kFig4Scenarios[i / 2].key) +
           (i % 2 == 0 ? "_seq" : "_rand");
}

SystemConfig
fig4Config()
{
    SystemConfig cfg;
    cfg.mode = MemoryMode::TwoLm;
    cfg.scale = kKernelScale;
    return cfg;
}

Bytes
fig4Array(const SystemConfig &cfg)
{
    return cfg.dramTotal() * 22 / 10;
}

KernelConfig
fig4Kernel(const Fig4Scenario &s, AccessPattern pattern,
           std::uint64_t seed)
{
    KernelConfig k;
    k.op = s.op;
    k.pattern = pattern;
    k.threads = s.threads;
    k.nontemporal = s.nontemporal;
    k.seed = seed;
    return k;
}

/** A Figure 4 system: array allocated, warmed up, counters reset. */
struct Fig4System
{
    std::unique_ptr<MemorySystem> sys;
    Region arr;
};

Fig4System
primedFig4(const SystemConfig &cfg, bool dirty, Spans *spans)
{
    Fig4System f;
    f.sys = makeTimed(cfg, spans);
    {
        Scope sc(spans, "sys.allocate");
        f.arr = f.sys->allocate(fig4Array(cfg), "array");
    }
    {
        Scope sc(spans, "kernels.prime");
        if (dirty)
            primeDirty(*f.sys, f.arr, 8);
        else
            primeClean(*f.sys, f.arr, 8);
    }
    Scope sc(spans, "sys.reset");
    f.sys->resetCounters();
    return f;
}

/** primedFig4()'s calls and then kernel @p k, as a stream. */
std::unique_ptr<ReplayCase>
fig4ReplayCase(const SystemConfig &cfg, bool dirty, const KernelConfig &k)
{
    auto rc = std::make_unique<ReplayCase>();
    rc->config = cfg;
    rc->sys = makeSystem(cfg);
    Region arr = rc->sys->allocate(fig4Array(cfg), "array");
    appendPrime(rc->stream, arr, dirty);
    rc->stream.push_back(Event{Event::Kind::Reset});
    appendKernel(rc->stream, arr, k);
    rc->kernels.emplace_back(arr, k);
    return rc;
}

/** The 4a random point: ROADMAP's sharding probe point. */
constexpr std::size_t kFig4ShardPoint = 1;

class KernelsTwoLm : public Workload
{
  public:
    const char *name() const override { return "kernels_2lm"; }
    std::size_t points() const override
    {
        return 2 * std::size(kFig4Scenarios);
    }

    std::map<std::string, double>
    model(const std::vector<PointOutcome> &pts) const override
    {
        std::map<std::string, double> m;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            m["model.effective_gbs." + fig4Key(i)] =
                pts[i].value("effective_gbs");
        }
        m["ref.2lm_read"] = pts[0].value("effective_gbs");
        m["ref.2lm_write"] = pts[2].value("effective_gbs");
        m["ref.2lm_write_amp"] = pts[2].value("amplification");
        return m;
    }

    std::unique_ptr<ReplayCase>
    replayCase(std::size_t i, std::uint64_t seed) const override
    {
        const Fig4Scenario &s = kFig4Scenarios[i / 2];
        return fig4ReplayCase(fig4Config(), s.primeDirty,
                              fig4Kernel(s, fig4Pattern(i), seed));
    }

  protected:
    void
    run(std::size_t i, const RunContext &ctx,
        PointOutcome &out) const override
    {
        const Fig4Scenario &s = kFig4Scenarios[i / 2];
        AccessPattern pattern = fig4Pattern(i);
        out.label = strprintf("%s/%s", s.key, accessPatternName(pattern));
        double t0 = hostNow();
        auto [sys, arr] = primedFig4(fig4Config(), s.primeDirty, ctx.spans);
        double t1 = hostNow();
        KernelResult r;
        {
            Scope sc(ctx.spans, "kernels.run");
            r = runKernel(*sys, arr, fig4Kernel(s, pattern, ctx.seed));
        }
        out.setupS = t1 - t0;
        out.measuredS = hostNow() - t1;
        out.lines = r.counters.demand();
        out.counters.push_back(r.counters);
        out.values.emplace_back("effective_gbs", r.effectiveBandwidth / 1e9);
        out.values.emplace_back("amplification", r.counters.amplification());
        addLayerValues(out, *sys);
        for (auto [metric, v] :
             {std::pair<const char *, double>{"effective",
                                              r.effectiveBandwidth},
              {"dram_read", r.dramReadBandwidth()},
              {"dram_write", r.dramWriteBandwidth()},
              {"nvram_read", r.nvramReadBandwidth()},
              {"nvram_write", r.nvramWriteBandwidth()}}) {
            out.rows.push_back(csvLine({s.name, accessPatternName(pattern),
                                        metric, gbsText(v)}));
            if (pattern == AccessPattern::Sequential ||
                ctx.seed == kDefaultSeed)
                checkRow(out, ctx.fig4, out.rows.back());
        }
    }
};

// ---- queued_load: the FR-FCFS controller's load-latency curve -----------

struct LoadPoint
{
    const char *scheduler;
    double offeredGbs;  //!< 0 = the analytic reference (queue off)
    const char *key;
};

const LoadPoint kLoadPoints[] = {
    {"analytic", 0, "queue_analytic"}, {"frfcfs", 1, "queue_1"},
    {"frfcfs", 2, "queue_2"},          {"frfcfs", 4, "queue_4"},
    {"frfcfs", 8, "queue_8"},          {"frfcfs", 16, "queue_16"},
};

SystemConfig
queuedConfig(const LoadPoint &p)
{
    SystemConfig cfg = fig4Config();
    cfg.controller.scheduler = p.scheduler;
    cfg.controller.offeredGBs = p.offeredGbs;
    return cfg;
}

/** Figure 4a's random read kernel, which crosses the service knee. */
KernelConfig
queuedKernel(std::uint64_t seed)
{
    return fig4Kernel(kFig4Scenarios[0], AccessPattern::Random, seed);
}

/** Counters with the queue-only fields cleared. */
PerfCounters
withoutQueueFields(PerfCounters c)
{
    c.queueWaitNs = c.bankConflicts = c.rowBufferHits = c.writeDrains = 0;
    return c;
}

class QueuedLoad : public Workload
{
  public:
    const char *name() const override { return "queued_load"; }
    std::size_t points() const override { return std::size(kLoadPoints); }

    void
    checkRepetition(std::vector<PointOutcome> &pts,
                    const RunContext &) const override
    {
        // The queue changes when requests complete, not what they do:
        // every queued point moves the analytic point's data.
        if (pts[0].counters.empty())
            return;
        auto want = withoutQueueFields(pts[0].counters[0]).asArray();
        for (std::size_t i = 1; i < pts.size(); ++i) {
            if (pts[i].counters.empty() ||
                withoutQueueFields(pts[i].counters[0]).asArray() != want)
                pts[i].fail("device counters differ from the analytic "
                            "point's");
        }
    }

    std::map<std::string, double>
    model(const std::vector<PointOutcome> &pts) const override
    {
        std::map<std::string, double> m;
        double over = 0;
        double inversions = 0;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const LoadPoint &p = kLoadPoints[i];
            double eff = pts[i].value("effective_gbs");
            m[std::string("model.effective_gbs.") + p.key] = eff;
            if (p.offeredGbs <= 0)
                continue;
            m[std::string("model.p50_ns.") + p.key] =
                pts[i].value("p50_ns");
            m[std::string("model.p99_ns.") + p.key] =
                pts[i].value("p99_ns");
            over += eff > p.offeredGbs;
            if (i >= 2 && pts[i].value("p99_ns") < pts[i - 1].value("p99_ns"))
                inversions += 1;
        }
        m["imc.queue.effective_over_offered"] = over;
        m["imc.queue.p99_inversions"] = inversions;
        return m;
    }

    std::unique_ptr<ReplayCase>
    replayCase(std::size_t i, std::uint64_t seed) const override
    {
        return fig4ReplayCase(queuedConfig(kLoadPoints[i]), /*dirty=*/false,
                              queuedKernel(seed));
    }

  protected:
    void
    run(std::size_t i, const RunContext &ctx,
        PointOutcome &out) const override
    {
        const LoadPoint &p = kLoadPoints[i];
        out.label = p.key;
        double t0 = hostNow();
        auto [sys, arr] =
            primedFig4(queuedConfig(p), /*dirty=*/false, ctx.spans);
        obs::TelemetryOptions topts;
        topts.jsonPath = strprintf("%s/queued_load-%zu.telemetry.json",
                                   ctx.outDir.c_str(), i);
        obs::TelemetrySession telemetry(topts);
        obs::TelemetryRun *tel = nullptr;
        {
            Scope sc(ctx.spans, "obs.telemetry");
            tel = telemetry.beginRun(out.label);
            sys->attachTelemetry(tel);
        }
        double t1 = hostNow();
        KernelResult r;
        {
            Scope sc(ctx.spans, "kernels.run");
            r = runKernel(*sys, arr, queuedKernel(ctx.seed));
        }
        out.setupS = t1 - t0;
        out.measuredS = hostNow() - t1;
        {
            Scope sc(ctx.spans, "obs.telemetry");
            sys->detachTelemetry();
            telemetry.writeFiles(/*from_destructor=*/false);
        }
        const PerfCounters &c = r.counters;
        double p50 = static_cast<double>(tel->quantileNs(0.50));
        double p99 = static_cast<double>(tel->quantileNs(0.99));
        double p999 = static_cast<double>(tel->quantileNs(0.999));
        out.lines = c.demand();
        out.counters.push_back(c);
        out.values.emplace_back("effective_gbs", r.effectiveBandwidth / 1e9);
        out.values.emplace_back("p50_ns", p50);
        out.values.emplace_back("p99_ns", p99);
        addLayerValues(out, *sys);
        out.rows.push_back(csvLine(
            {p.scheduler, strprintf("%g", p.offeredGbs),
             gbsText(r.effectiveBandwidth), strprintf("%.0f", p50),
             strprintf("%.0f", p99), strprintf("%.0f", p999),
             countText(c.queueWaitNs), countText(c.bankConflicts),
             countText(c.rowBufferHits), countText(c.writeDrains)}));
        if (p.offeredGbs <= 0 && ctx.seed == kDefaultSeed) {
            // Queue off, the point is Figure 4a's random read.
            checkRow(out, ctx.fig4,
                     csvLine({kFig4Scenarios[0].name, "random", "effective",
                              gbsText(r.effectiveBandwidth)}));
        }
        if (!(p50 > 0 && p50 <= p99))
            out.fail("latency quantiles out of order");
    }
};

// ---- cnn_train: Table II's DenseNet 264, 2LM vs AutoTM ------------------

constexpr const char *kCnnNet = "densenet264";
constexpr const char *kCnnLabel = "DenseNet 264";
constexpr std::uint64_t kCnnBatch = 2304;
constexpr std::uint64_t kCnnScale = 1u << 14;

SystemConfig
cnnConfig(bool autotm, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.mode = autotm ? MemoryMode::OneLm : MemoryMode::TwoLm;
    cfg.scale = kCnnScale;
    cfg.scatterPages = true;  // OS demand paging (2 MiB THP)
    cfg.pageSeed = seed;
    return cfg;
}

dnn::ExecutorConfig
cnnExecutor()
{
    dnn::ExecutorConfig e;
    e.threads = 24;
    return e;
}

double
gbOf(std::uint64_t lines)
{
    return static_cast<double>(lines) * kLineSize / 1e9;
}

class CnnTrain : public Workload
{
  public:
    const char *name() const override { return "cnn_train"; }
    std::size_t points() const override { return 2; }

    void
    checkRepetition(std::vector<PointOutcome> &pts,
                    const RunContext &ctx) const override
    {
        if (ctx.seed != kDefaultSeed || !pts[0].ok || !pts[1].ok)
            return;
        // Table II's direction: AutoTM moves less NVRAM data and
        // finishes sooner than the hardware-managed cache.
        if (!(pts[1].value("nvram_gb") < pts[0].value("nvram_gb") &&
              pts[1].value("seconds") < pts[0].value("seconds")))
            pts[1].fail("AutoTM does not beat 2LM (Table II direction)");
    }

    std::map<std::string, double>
    model(const std::vector<PointOutcome> &pts) const override
    {
        double speedup = pts[1].value("seconds") > 0
                             ? pts[0].value("seconds") /
                                   pts[1].value("seconds")
                             : 0;
        double share = pts[0].value("nvram_gb") > 0
                           ? pts[1].value("nvram_gb") /
                                 pts[0].value("nvram_gb")
                           : 0;
        return {{"model.autotm_speedup", speedup},
                {"model.autotm_nvram_share", share},
                {"ref.autotm_speedup", speedup}};
    }

    std::unique_ptr<ReplayCase>
    replayCase(std::size_t i, std::uint64_t seed) const override
    {
        if (i != 0)
            return nullptr;  // AutoTM's placement is not mirrored
        auto rc = std::make_unique<ReplayCase>();
        rc->config = cnnConfig(false, seed);
        rc->sys = makeSystem(rc->config);
        dnn::ComputeGraph g = dnn::buildNetwork(kCnnNet, kCnnBatch);
        dnn::Executor ex(*rc->sys, g, cnnExecutor());
        appendIteration(rc->stream, ex, g, cnnExecutor(), kCnnScale);
        rc->stream.push_back(Event{Event::Kind::Reset});
        appendIteration(rc->stream, ex, g, cnnExecutor(), kCnnScale);
        return rc;
    }

  protected:
    void
    run(std::size_t i, const RunContext &ctx,
        PointOutcome &out) const override
    {
        const bool autotm = i == 1;
        out.label = strprintf("%s/%s", kCnnNet, autotm ? "autotm" : "2lm");
        double t0 = hostNow();
        std::unique_ptr<dnn::ComputeGraph> graph;
        {
            Scope sc(ctx.spans, "dnn.build");
            graph = std::make_unique<dnn::ComputeGraph>(
                dnn::buildNetwork(kCnnNet, kCnnBatch));
        }
        const dnn::ComputeGraph &g = *graph;
        auto sys = makeTimed(cnnConfig(autotm, ctx.seed), ctx.spans);
        dnn::IterationResult r;
        double t1 = 0;
        auto measure = [&](auto &ex) {
            {
                Scope sc(ctx.spans, "dnn.iter");
                ex.runIteration();  // warm-up
            }
            {
                Scope sc(ctx.spans, "sys.reset");
                sys->resetCounters();
            }
            t1 = hostNow();
            Scope sc(ctx.spans, "dnn.iter");
            r = ex.runIteration();
        };
        if (autotm) {
            dnn::AutoTmConfig acfg;
            acfg.exec = cnnExecutor();
            std::unique_ptr<dnn::AutoTmExecutor> ex;
            {
                Scope sc(ctx.spans, "dnn.plan");
                ex = std::make_unique<dnn::AutoTmExecutor>(*sys, g, acfg);
            }
            measure(*ex);
        } else {
            std::unique_ptr<dnn::Executor> ex;
            {
                Scope sc(ctx.spans, "dnn.plan");
                ex = std::make_unique<dnn::Executor>(*sys, g, cnnExecutor());
            }
            measure(*ex);
        }
        out.setupS = t1 - t0;
        out.measuredS = hostNow() - t1;
        const PerfCounters &c = r.counters;
        out.lines = c.demand();
        out.counters.push_back(c);
        out.values.emplace_back("seconds", r.seconds);
        out.values.emplace_back("nvram_gb",
                                gbOf(c.nvramRead) + gbOf(c.nvramWrite));
        addLayerValues(out, *sys);
        out.rows.push_back(csvLine(
            {kCnnLabel, autotm ? "AutoTM" : "2LM",
             strprintf("%f", gbOf(c.dramRead)),
             strprintf("%f", gbOf(c.dramWrite)),
             strprintf("%f", gbOf(c.nvramRead)),
             strprintf("%f", gbOf(c.nvramWrite)),
             strprintf("%f", r.seconds)}));
        if (!(r.seconds > 0 && c.demand() > 0))
            out.fail("empty iteration");
    }
};

} // namespace

PointOutcome
Workload::runPoint(std::size_t i, const RunContext &ctx) const
{
    PointOutcome out;
    try {
        run(i, ctx, out);
    } catch (const std::exception &e) {
        out.fail(std::string("exception: ") + e.what());
    } catch (...) {
        out.fail("unknown exception");
    }
    return out;
}

void
Workload::checkRepetition(std::vector<PointOutcome> &,
                          const RunContext &) const
{
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "kernels_2lm")
        return std::make_unique<KernelsTwoLm>();
    if (name == "kernels_1lm")
        return std::make_unique<KernelsOneLm>();
    if (name == "queued_load")
        return std::make_unique<QueuedLoad>();
    if (name == "cnn_train")
        return std::make_unique<CnnTrain>();
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    return {"kernels_2lm", "kernels_1lm", "queued_load", "cnn_train"};
}

ShardSample
shardSample(unsigned width, std::uint64_t seed)
{
    const Fig4Scenario &s = kFig4Scenarios[kFig4ShardPoint / 2];
    auto [sys, arr] = primedFig4(fig4Config(), s.primeDirty, nullptr);
    sys->setShardThreads(width);
    ShardSample out;
    double t0 = hostNow();
    double c0 = processCpuSeconds();
    KernelResult r = runKernel(
        *sys, arr, fig4Kernel(s, fig4Pattern(kFig4ShardPoint), seed));
    out.wallS = hostNow() - t0;
    out.cpuS = processCpuSeconds() - c0;
    out.counters = r.counters;
    return out;
}

std::map<std::string, double>
paperErrors(const std::map<std::string, double> &m)
{
    auto get = [&](const char *k, double &v) {
        auto it = m.find(k);
        if (it == m.end() || !(it->second > 0))
            return false;
        v = it->second;
        return true;
    };
    auto off = [](double v, double paper) {
        return std::fabs(v - paper) / paper;
    };
    std::map<std::string, double> err = {
        {"model.paper_err.read_ratio", -1},
        {"model.paper_err.write_ratio", -1},
        {"model.paper_err.max_amp", -1},
        {"model.paper_err.autotm_speedup", -1},
    };
    double a = 0, b = 0;
    if (get("ref.2lm_read", a) && get("ref.1lm_read_peak", b)) {
        // The paper gives a band, 60-76% of 1LM: 0 inside it.
        double r = a / b;
        err["model.paper_err.read_ratio"] =
            r < 0.60 ? (0.60 - r) / 0.60 : r > 0.76 ? (r - 0.76) / 0.76 : 0;
    }
    if (get("ref.2lm_write", a) && get("ref.1lm_write_peak", b))
        err["model.paper_err.write_ratio"] = off(a / b, 0.72);
    if (get("ref.2lm_write_amp", a))
        err["model.paper_err.max_amp"] = off(a, 5.0);
    if (get("ref.autotm_speedup", a))
        err["model.paper_err.autotm_speedup"] = off(a, 3.1);
    return err;
}

const std::vector<LayerMetric> &
layerMetrics()
{
    static const std::vector<LayerMetric> metrics = {
        {"kernels.pattern_ns", "ns", "lower"},
        {"kernels.prime_s", "s", "lower"},
        {"kernels.run_s", "s", "lower"},
        {"sys.llc_ns", "ns", "lower"},
        {"sys.llc_hit_rate", "ratio", "higher"},
        {"sys.llc_hit_rate.real", "ratio", "higher"},
        {"sys.epoch_s", "s", "lower"},
        {"sys.translate_ns", "ns", "lower"},
        {"imc.policy_ns", "ns", "lower"},
        {"imc.ddo_ns", "ns", "lower"},
        {"imc.sched_ns", "ns", "lower"},
        {"imc.tag_hit", "count", "higher"},
        {"imc.tag_miss_clean", "count", "lower"},
        {"imc.tag_miss_dirty", "count", "lower"},
        {"imc.ddo_hit", "count", "higher"},
        {"imc.amplification", "ratio", "lower"},
        {"imc.queue_wait_ns", "ns", "lower"},
        {"imc.bank_conflicts", "count", "lower"},
        {"imc.row_buffer_hits", "count", "higher"},
        {"imc.write_drains", "count", "lower"},
        {"imc.tag_hit.replay", "count", "higher"},
        {"imc.tag_miss_clean.replay", "count", "lower"},
        {"imc.tag_miss_dirty.replay", "count", "lower"},
        {"imc.ddo_hit.replay", "count", "higher"},
        {"imc.queue_wait_ns.replay", "ns", "lower"},
        {"imc.bank_conflicts.replay", "count", "lower"},
        {"imc.row_buffer_hits.replay", "count", "higher"},
        {"imc.write_drains.replay", "count", "lower"},
        {"imc.queue.effective_over_offered", "count", "lower"},
        {"imc.queue.p99_inversions", "count", "lower"},
        {"mem.nvram_ns", "ns", "lower"},
        {"mem.nvram_read", "count", "lower"},
        {"mem.nvram_write", "count", "lower"},
        {"mem.dram_read", "count", "lower"},
        {"mem.dram_write", "count", "lower"},
        {"mem.nvram_write_amp", "ratio", "lower"},
        {"mem.nvram_read.replay", "count", "lower"},
        {"mem.nvram_write.replay", "count", "lower"},
        {"mem.nvram_write_amp.replay", "ratio", "lower"},
        {"exec.sweep_speedup", "x", "higher"},
        {"exec.shard_speedup", "x", "higher"},
        {"exec.shard_cpu_ratio", "x", "lower"},
        {"obs.telemetry_s", "s", "lower"},
        {"obs.trace_overhead", "x", "lower"},
        {"dnn.build_s", "s", "lower"},
        {"dnn.plan_s", "s", "lower"},
        {"dnn.iter_s", "s", "lower"},
        {"replay.stream_mismatch", "count", "lower"},
        {"model.effective_gbs.4a_seq", "GB/s", "higher"},
        {"model.effective_gbs.4a_rand", "GB/s", "higher"},
        {"model.effective_gbs.4b_seq", "GB/s", "higher"},
        {"model.effective_gbs.4b_rand", "GB/s", "higher"},
        {"model.effective_gbs.4c_seq", "GB/s", "higher"},
        {"model.effective_gbs.4c_rand", "GB/s", "higher"},
        {"model.effective_gbs.2a_seq_8T", "GB/s", "higher"},
        {"model.effective_gbs.2a_rand64_24T", "GB/s", "higher"},
        {"model.effective_gbs.2b_seq_4T", "GB/s", "higher"},
        {"model.effective_gbs.2b_rand64_24T", "GB/s", "higher"},
        {"model.effective_gbs.queue_analytic", "GB/s", "higher"},
        {"model.effective_gbs.queue_1", "GB/s", "higher"},
        {"model.effective_gbs.queue_2", "GB/s", "higher"},
        {"model.effective_gbs.queue_4", "GB/s", "higher"},
        {"model.effective_gbs.queue_8", "GB/s", "higher"},
        {"model.effective_gbs.queue_16", "GB/s", "higher"},
        {"model.p50_ns.queue_1", "ns", "lower"},
        {"model.p50_ns.queue_2", "ns", "lower"},
        {"model.p50_ns.queue_4", "ns", "lower"},
        {"model.p50_ns.queue_8", "ns", "lower"},
        {"model.p50_ns.queue_16", "ns", "lower"},
        {"model.p99_ns.queue_1", "ns", "lower"},
        {"model.p99_ns.queue_2", "ns", "lower"},
        {"model.p99_ns.queue_4", "ns", "lower"},
        {"model.p99_ns.queue_8", "ns", "lower"},
        {"model.p99_ns.queue_16", "ns", "lower"},
        {"model.autotm_speedup", "x", "higher"},
        {"model.autotm_nvram_share", "ratio", "lower"},
        {"model.paper_err.read_ratio", "ratio", "lower"},
        {"model.paper_err.write_ratio", "ratio", "lower"},
        {"model.paper_err.max_amp", "ratio", "lower"},
        {"model.paper_err.autotm_speedup", "ratio", "higher"},
    };
    return metrics;
}

std::vector<PaperRef>
paperReferences(const std::string &workload)
{
    if (workload == "kernels_2lm")
        return {{"kernels_1lm", kFig2ReadPeak, "effective_gbs",
                 "ref.1lm_read_peak"},
                {"kernels_1lm", kFig2WritePeak, "effective_gbs",
                 "ref.1lm_write_peak"}};
    if (workload == "kernels_1lm")
        return {{"kernels_2lm", 0, "effective_gbs", "ref.2lm_read"},
                {"kernels_2lm", 2, "effective_gbs", "ref.2lm_write"},
                {"kernels_2lm", 2, "amplification", "ref.2lm_write_amp"}};
    return {};
}

} // namespace perfbench
