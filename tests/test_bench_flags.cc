/**
 * @file
 * Tests for the shared bench flag table (bench/bench_common.hh): every
 * flag parses into BenchOptions and is listed in the usage, and the
 * provenance manifest records exactly the flags that can change a
 * result.
 */

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace nvsim;
using namespace nvsim::bench;

namespace
{

/** One sample argument per flag and the option it must set. */
struct Case
{
    const char *arg;
    std::function<bool(const BenchOptions &)> landed;
};

const std::vector<Case> &
cases()
{
    using O = const BenchOptions &;
    static const std::vector<Case> kCases = {
        {"--config=c.json", [](O o) { return o.configPath == "c.json"; }},
        {"--jobs=3", [](O o) { return o.jobs == 3; }},
        {"--per-line", [](O o) { return o.perLine; }},
        {"--stats-json=s.json",
         [](O o) { return o.obs.statsJsonPath == "s.json"; }},
        {"--stats-prom=s.prom",
         [](O o) { return o.obs.statsPromPath == "s.prom"; }},
        {"--perfetto=t.json",
         [](O o) { return o.obs.perfettoPath == "t.json"; }},
        {"--set-heatmap=h.csv",
         [](O o) { return o.obs.heatmapPath == "h.csv"; }},
        {"--top-sets=5", [](O o) { return o.obs.topSets == 5; }},
        {"--causal-trace=c.json",
         [](O o) { return o.obs.causalJsonPath == "c.json"; }},
        {"--folded-stacks=f.txt",
         [](O o) { return o.obs.foldedPath == "f.txt"; }},
        {"--causal-sample=7",
         [](O o) { return o.obs.causalSamplePeriod == 7; }},
        {"--causal-seed=9",
         [](O o) {
             return o.obs.causalSeed == 9 &&
                    o.obs.telemetry.manifest.causalSeed == 9;
         }},
        {"--telemetry=t.csv",
         [](O o) { return o.obs.telemetry.csvPath == "t.csv"; }},
        {"--telemetry-json=t.json",
         [](O o) { return o.obs.telemetry.jsonPath == "t.json"; }},
        {"--telemetry-window=2ms",
         [](O o) { return o.obs.telemetry.windowSeconds == 2e-3; }},
        {"--telemetry-ring=11",
         [](O o) { return o.obs.telemetry.ringWindows == 11; }},
        {"--slo=p99_ns<1",
         [](O o) { return o.obs.telemetry.sloSpec == "p99_ns<1"; }},
        {"--anomaly-report=a.json",
         [](O o) { return o.obs.telemetry.anomalyJsonPath == "a.json"; }},
        {"--anomaly-z=4.5",
         [](O o) { return o.obs.telemetry.anomalyZ == 4.5; }},
    };
    return kCases;
}

/** The case whose argument selects @p f; null when none does. */
const Case *
caseFor(const BenchFlag &f)
{
    for (const Case &c : cases()) {
        std::string arg = c.arg;
        if (f.metavar ? arg.rfind(f.name, 0) == 0 : arg == f.name)
            return &c;
    }
    return nullptr;
}

BenchOptions
parseOne(const char *arg)
{
    std::string name = "bench_test", flag = arg;
    char *argv[] = {name.data(), flag.data(), nullptr};
    BenchOptions opts = parseBenchOptions(2, argv);
    MemorySystem::setBatchedAccessDefault(true);  // undo --per-line
    return opts;
}

} // namespace

TEST(BenchFlags, EveryTableFlagParsesIntoOptions)
{
    ASSERT_EQ(std::size(kBenchFlags), 19u);
    ASSERT_EQ(cases().size(), std::size(kBenchFlags));
    const std::string usage = benchUsage();
    for (const BenchFlag &f : kBenchFlags) {
        const Case *c = caseFor(f);
        ASSERT_NE(c, nullptr) << f.name;
        EXPECT_TRUE(c->landed(parseOne(c->arg))) << c->arg;
        EXPECT_NE(usage.find(std::string("\n  ") + f.name),
                  std::string::npos)
            << f.name;
    }
}

TEST(BenchFlags, ManifestSkipsExactlyTheNeutralFlags)
{
    std::set<std::string> skipped;
    for (const Case &c : cases()) {
        const std::vector<std::string> &recorded =
            parseOne(c.arg).obs.telemetry.manifest.flags;
        if (recorded.empty()) {
            std::string arg = c.arg;
            skipped.insert(arg.substr(0, arg.find('=') + 1));
        } else {
            EXPECT_EQ(recorded, std::vector<std::string>{c.arg});
        }
    }
    const std::set<std::string> neutral = {
        "--jobs=",          "--stats-json=",  "--stats-prom=",
        "--perfetto=",      "--set-heatmap=", "--causal-trace=",
        "--folded-stacks=", "--telemetry=",   "--telemetry-json=",
        "--anomaly-report=", "--top-sets=",
    };
    EXPECT_EQ(skipped, neutral);
}

TEST(BenchFlagsDeath, UnknownFlagPrintsUsage)
{
    EXPECT_EXIT(parseOne("--jobs"), ::testing::ExitedWithCode(1),
                "unknown argument '--jobs'\nflags:\n  --config=FILE");
}
