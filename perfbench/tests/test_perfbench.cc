/**
 * @file
 * Tests of the benchmark's own code: output checks, seed handling, the
 * child-process record format and the layer replays' fidelity.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "golden.hh"
#include "kernels/kernels.hh"
#include "outcome.hh"
#include "replay.hh"
#include "stream.hh"
#include "workloads.hh"

using namespace perfbench;
using namespace nvsim;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

const Golden &
fig2Golden()
{
    static const Golden g =
        Golden::load(std::string(PERFBENCH_GOLDEN_DIR) + "/fig2_nvram_bw.csv");
    return g;
}

RunContext
context(std::uint64_t seed, const Golden *fig2)
{
    RunContext ctx;
    ctx.seed = seed;
    ctx.fig2 = fig2;
    ctx.outDir = ::testing::TempDir();
    return ctx;
}

// kernels_1lm points: 0 = 2a sequential 1T, 26 = 2a random_64B 24T.
constexpr std::size_t kSeqPoint = 0;
constexpr std::size_t kRandomPoint = 26;

} // namespace

TEST(Golden, CsvLineQuotesLikeCsvWriter)
{
    EXPECT_EQ(csvLine({"a", "b,c", "say \"hi\""}),
              "a,\"b,c\",\"say \"\"hi\"\"\"");
}

TEST(Golden, PerturbedRowFailsTheOutputCheck)
{
    auto w = makeWorkload("kernels_1lm");
    PointOutcome good = w->runPoint(kSeqPoint, context(kDefaultSeed,
                                                       &fig2Golden()));
    ASSERT_TRUE(good.ok) << good.error;
    ASSERT_EQ(good.rows.size(), 1u);

    // The same golden file with this point's value nudged by 1e-6.
    std::string text = readFile(std::string(PERFBENCH_GOLDEN_DIR) +
                                "/fig2_nvram_bw.csv");
    const std::string &row = good.rows[0];
    std::size_t at = text.find(row);
    ASSERT_NE(at, std::string::npos);
    std::string bad = row;
    bad.back() = bad.back() == '9' ? '8' : static_cast<char>(bad.back() + 1);
    text.replace(at, row.size(), bad);
    Golden perturbed = Golden::fromText(text);

    PointOutcome p = w->runPoint(kSeqPoint, context(kDefaultSeed,
                                                    &perturbed));
    EXPECT_FALSE(p.ok);
    EXPECT_NE(p.error.find("differs from golden"), std::string::npos)
        << p.error;
}

TEST(Seed, MovesRandomPointsButNotSequentialOnes)
{
    auto w = makeWorkload("kernels_1lm");
    const std::uint64_t other = 7;
    PointOutcome seq1 = w->runPoint(kSeqPoint, context(kDefaultSeed,
                                                       &fig2Golden()));
    PointOutcome seq7 = w->runPoint(kSeqPoint, context(other, &fig2Golden()));
    PointOutcome rnd1 = w->runPoint(kRandomPoint, context(kDefaultSeed,
                                                          &fig2Golden()));
    PointOutcome rnd7 = w->runPoint(kRandomPoint, context(other,
                                                          &fig2Golden()));
    for (const PointOutcome *p : {&seq1, &seq7, &rnd1, &rnd7})
        EXPECT_TRUE(p->ok) << p->label << ": " << p->error;
    EXPECT_EQ(seq1.digest(), seq7.digest());
    EXPECT_NE(rnd1.digest(), rnd7.digest());
    EXPECT_NE(rnd1.value("effective_gbs"), rnd7.value("effective_gbs"));
    // Same seed, same outputs.
    EXPECT_EQ(rnd7.digest(),
              w->runPoint(kRandomPoint, context(other, &fig2Golden()))
                  .digest());
}

TEST(Outcome, RecordsSurviveTheChildFormat)
{
    PointOutcome p;
    p.label = "4a/random";
    p.setupS = 0.125;
    p.measuredS = 1.0 / 3.0;
    p.lines = 12345;
    p.rows = {"\"4a, x\",random,effective,9.906572"};
    PerfCounters c;
    c.tagHit = 7;
    c.queueWaitNs = 1ull << 40;
    p.counters = {c};
    p.values = {{"effective_gbs", 9.906572}};
    p.fail("tab\tand newline\n");

    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    writeOutcome(f, p);
    writeMetric(f, "sys.epoch_s", 0.1);
    std::fclose(f);
    Messages m = parseMessages(std::string(buf, len));
    std::free(buf);

    ASSERT_EQ(m.points.size(), 1u);
    EXPECT_EQ(m.points[0].digest(), p.digest());
    EXPECT_EQ(m.points[0].measuredS, p.measuredS);
    EXPECT_FALSE(m.points[0].ok);
    ASSERT_EQ(m.metrics.size(), 1u);
    EXPECT_EQ(m.metrics[0].second, 0.1);
}

TEST(PaperErrors, BandIsZeroInsideAndRelativeOutside)
{
    auto e = paperErrors({{"ref.2lm_read", 0.7}, {"ref.1lm_read_peak", 1.0},
                          {"ref.autotm_speedup", 1.55}});
    EXPECT_EQ(e["model.paper_err.read_ratio"], 0);
    EXPECT_DOUBLE_EQ(e["model.paper_err.autotm_speedup"], 0.5);
    EXPECT_EQ(e["model.paper_err.write_ratio"], -1);
}

TEST(Metrics, BenchmarkJsonListsEveryPerLayerMetric)
{
    std::string json = readFile(PERFBENCH_BENCHMARK_JSON);
    ASSERT_FALSE(json.empty());
    for (const LayerMetric &m : layerMetrics()) {
        std::string entry = std::string("{\"name\": \"") + m.name +
                            "\", \"unit\": \"" + m.unit +
                            "\", \"better\": \"" + m.better + "\"}";
        EXPECT_NE(json.find(entry), std::string::npos) << entry;
    }
    std::size_t entries = 0;
    for (std::size_t at = json.find("\"better\""); at != std::string::npos;
         at = json.find("\"better\"", at + 1))
        ++entries;
    // Four end-to-end metrics besides the per-layer ones.
    EXPECT_EQ(entries, layerMetrics().size() + 4);
}

// ---- layer replays on tiny systems ----------------------------------------

namespace
{

struct TinyCase
{
    const char *name;
    MemoryMode mode;
    const char *scheduler;
    KernelOp op;
    AccessPattern pattern;
    bool nontemporal;
};

void
PrintTo(const TinyCase &t, std::ostream *os)
{
    *os << t.name;
}

class TinyReplay : public ::testing::TestWithParam<TinyCase>
{
};

SystemConfig
tinyConfig(const TinyCase &t)
{
    SystemConfig cfg;
    cfg.mode = t.mode;
    cfg.scale = 1u << 16;
    cfg.epochBytes = 64 * kKiB;
    cfg.controller.scheduler = t.scheduler;
    cfg.controller.offeredGBs = t.scheduler == std::string("analytic") ? 0 : 4;
    return cfg;
}

} // namespace

TEST_P(TinyReplay, CountsEqualTheRealRun)
{
    const TinyCase &t = GetParam();
    SystemConfig cfg = tinyConfig(t);
    KernelConfig k;
    k.op = t.op;
    k.pattern = t.pattern;
    k.threads = 4;
    k.nontemporal = t.nontemporal;
    k.seed = 3;

    // The real run.
    auto sys = makeSystem(cfg);
    Bytes size = t.mode == MemoryMode::TwoLm ? cfg.dramTotal() * 22 / 10
                                             : 2 * kMiB;
    Region arr = t.mode == MemoryMode::TwoLm
                     ? sys->allocate(size, "array")
                     : sys->allocateIn(MemPool::Nvram, size, "array");
    if (t.mode == MemoryMode::TwoLm)
        primeDirty(*sys, arr, 8);
    sys->resetCounters();
    PerfCounters real = runKernel(*sys, arr, k).counters;

    // The same calls as a stream.
    Stream s;
    if (t.mode == MemoryMode::TwoLm)
        appendPrime(s, arr, /*dirty=*/true);
    s.push_back(Event{Event::Kind::Reset});
    appendKernel(s, arr, k);

    auto driven = makeSystem(cfg);
    (void)(t.mode == MemoryMode::TwoLm
               ? driven->allocate(size, "array")
               : driven->allocateIn(MemPool::Nvram, size, "array"));
    driveStream(*driven, s);
    EXPECT_EQ(driven->counters().asArray(), real.asArray());

    LayerReplay layers(cfg);
    layers.run(s);
    ReplayTotals r = layers.totals();
    EXPECT_EQ(r.llcHits, sys->llc().hitCount());
    EXPECT_EQ(r.llcMisses, sys->llc().missCount());
    EXPECT_EQ(r.counters.asArray(), real.asArray());
    EXPECT_EQ(r.ddoMatches, real.ddoHit);
    EXPECT_EQ(r.nvramWriteAmp, sys->nvramWriteAmplification());
    EXPECT_GT(r.llc.ops, 0u);
    if (t.mode == MemoryMode::TwoLm) {
        EXPECT_GT(r.policy.ops, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TinyReplay,
    ::testing::Values(
        TinyCase{"rmw_2lm", MemoryMode::TwoLm, "analytic",
                 KernelOp::ReadModifyWrite, AccessPattern::Random, false},
        TinyCase{"nt_write_2lm", MemoryMode::TwoLm, "analytic",
                 KernelOp::WriteOnly, AccessPattern::Sequential, true},
        TinyCase{"read_queued", MemoryMode::TwoLm, "frfcfs",
                 KernelOp::ReadOnly, AccessPattern::Random, true},
        TinyCase{"write_1lm", MemoryMode::OneLm, "analytic",
                 KernelOp::WriteOnly, AccessPattern::Sequential, true},
        TinyCase{"read_1lm", MemoryMode::OneLm, "analytic",
                 KernelOp::ReadOnly, AccessPattern::Random, true}),
    [](const ::testing::TestParamInfo<TinyCase> &i) {
        return std::string(i.param.name);
    });
