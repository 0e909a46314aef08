/**
 * @file
 * Randomized consistency checks over the whole MemorySystem: long
 * pseudo-random operation streams must preserve global invariants in
 * every mode and configuration — the cross-cutting safety net under
 * all the directed tests.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <tuple>
#include <type_traits>

#include "core/rng.hh"
#include "sys/memsys.hh"

using namespace nvsim;

namespace
{

/**
 * gtest names each MemSysFuzz case by a byte dump of its parameter.
 * The spare bytes are explicit, zeroed fields rather than padding, so
 * a case has the same name in every build and every run.
 */
struct FuzzParams
{
    MemoryMode mode;
    bool scatter;
    std::uint8_t spare0[2];
    unsigned ways;
    DdoMode ddo;
    std::uint8_t spare1[3];
};
static_assert(std::has_unique_object_representations_v<FuzzParams>,
              "FuzzParams must have no padding");

FuzzParams
fuzzParams(MemoryMode mode, bool scatter, unsigned ways, DdoMode ddo)
{
    FuzzParams fp{};
    fp.mode = mode;
    fp.scatter = scatter;
    fp.ways = ways;
    fp.ddo = ddo;
    return fp;
}

class MemSysFuzz : public ::testing::TestWithParam<FuzzParams>
{
};

} // namespace

TEST_P(MemSysFuzz, InvariantsHoldUnderRandomTraffic)
{
    const FuzzParams &fp = GetParam();
    SystemConfig cfg;
    cfg.mode = fp.mode;
    cfg.scale = 1u << 14;
    cfg.scatterPages = fp.scatter;
    cfg.cacheWays = fp.ways;
    cfg.ddoMode = fp.ddo;
    cfg.epochBytes = 32 * kKiB;
    MemorySystem sys(cfg);

    Region arr = sys.allocate(cfg.dramTotal() * 3 / 2, "fuzz");
    sys.setActiveThreads(6);

    Rng rng(0xF00D + fp.ways);
    std::uint64_t issued_lines = 0;
    double last_now = 0;

    for (int step = 0; step < 60000; ++step) {
        unsigned thread = static_cast<unsigned>(rng.below(6));
        Addr addr = arr.base + rng.below(arr.size / kLineSize) *
                                   kLineSize;
        Bytes size = (1 + rng.below(4)) * kLineSize;
        if (addr + size > arr.base + arr.size)
            size = kLineSize;
        CpuOp op = static_cast<CpuOp>(rng.below(3));
        sys.submit({thread, op, addr, size});
        issued_lines += size / kLineSize;

        if (rng.below(1000) == 0) {
            sys.advanceEpoch();
            // Time must be monotone.
            ASSERT_GE(sys.now(), last_now);
            last_now = sys.now();
        }
    }
    sys.quiesce();

    PerfCounters c = sys.counters();

    // Demand conservation: every line either hit the LLC or became an
    // LLC read/write; NT stores and dirty evictions add LLC writes but
    // never lose requests.
    ASSERT_LE(c.demand(), 2 * issued_lines);

    if (fp.mode == MemoryMode::TwoLm) {
        // Tag statistics partition the demand stream.
        EXPECT_EQ(c.tagHit + c.tagMissClean + c.tagMissDirty + c.ddoHit,
                  c.demand());
        // Table I bounds: amplification within [1, 5].
        EXPECT_GE(c.amplification(), 1.0);
        EXPECT_LE(c.amplification(), 5.0);
        // Every NVRAM read is a miss fill; misses can't exceed demand.
        EXPECT_LE(c.nvramRead, c.demand());
    } else {
        // App direct: exactly one device access per request.
        EXPECT_DOUBLE_EQ(c.amplification(), 1.0);
        EXPECT_EQ(c.tagHit + c.tagMissClean + c.tagMissDirty, 0u);
    }

    // The epoch machinery leaves nothing buffered after quiesce.
    for (unsigned i = 0; i < sys.numChannels(); ++i) {
        EXPECT_EQ(sys.channel(i).nvram().epoch().demandReads, 0u);
        EXPECT_EQ(sys.channel(i).dram().epoch().casReads, 0u);
    }
    EXPECT_GT(sys.now(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MemSysFuzz,
    ::testing::Values(
        fuzzParams(MemoryMode::TwoLm, false, 1, DdoMode::RecentTracker),
        fuzzParams(MemoryMode::TwoLm, true, 1, DdoMode::RecentTracker),
        fuzzParams(MemoryMode::TwoLm, false, 4, DdoMode::None),
        fuzzParams(MemoryMode::TwoLm, true, 2, DdoMode::Oracle),
        fuzzParams(MemoryMode::OneLm, false, 1, DdoMode::None),
        fuzzParams(MemoryMode::OneLm, true, 1, DdoMode::None)));

namespace
{

/** Random but valid fault plan derived from a fuzz seed. */
FaultConfig
randomFaultConfig(Rng &rng)
{
    FaultConfig f;
    f.seed = rng.next();
    auto rate = [&rng](double max) {
        return static_cast<double>(rng.below(1000)) / 1000.0 * max;
    };
    f.nvramReadCorrectable = rate(0.05);
    f.nvramReadUncorrectable = rate(0.01);
    f.nvramWriteCorrectable = rate(0.05);
    f.nvramWriteUncorrectable = rate(0.01);
    f.dramCorrectable = rate(0.05);
    f.tagEccUncorrectable = rate(0.01);
    f.maxRetries = 1 + static_cast<unsigned>(rng.below(4));
    f.retryLatency = rate(1e-5);
    if (rng.below(2)) {
        f.throttle.engageBandwidth = 0.5e9 + rate(4e9);
        f.throttle.releaseBandwidth =
            f.throttle.engageBandwidth * 0.5;
        f.throttle.engageEpochs = 1 + static_cast<unsigned>(rng.below(3));
        f.throttle.releaseEpochs =
            1 + static_cast<unsigned>(rng.below(3));
        f.throttle.factor = 0.25 + rate(0.5);
    }
    return f;
}

} // namespace

class MemSysFaultFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MemSysFaultFuzz, FaultsNeverBreakInvariants)
{
    Rng rng(GetParam());
    SystemConfig cfg;
    cfg.mode = rng.below(2) ? MemoryMode::TwoLm : MemoryMode::OneLm;
    cfg.scale = 1u << 14;
    cfg.scatterPages = rng.below(2) != 0;
    cfg.cacheWays = 1 + static_cast<unsigned>(rng.below(4));
    cfg.epochBytes = 32 * kKiB;
    cfg.fault = randomFaultConfig(rng);
    MemorySystem sys(cfg);

    Region arr = sys.allocate(cfg.dramTotal() * 3 / 2, "fuzz");
    sys.setActiveThreads(6);

    double last_now = 0;
    for (int step = 0; step < 40000; ++step) {
        unsigned thread = static_cast<unsigned>(rng.below(6));
        Addr addr =
            arr.base + rng.below(arr.size / kLineSize) * kLineSize;
        Bytes size = (1 + rng.below(4)) * kLineSize;
        if (addr + size > arr.base + arr.size)
            size = kLineSize;
        sys.submit({thread, static_cast<CpuOp>(rng.below(3)), addr,
                   size});

        if (rng.below(2000) == 0) {
            sys.advanceEpoch();
            ASSERT_GE(sys.now(), last_now);
            last_now = sys.now();
        }
        // Occasionally lose a channel mid-run (keep at least two).
        if (rng.below(20000) == 0 && sys.onlineChannels().size() > 2) {
            sys.offlineChannel(sys.onlineChannels()[static_cast<size_t>(
                rng.below(sys.onlineChannels().size()))]);
        }
    }
    sys.quiesce();

    const PerfCounters c = sys.counters();
    const FaultLog &log = sys.faultLog();

    // Counter/log agreement: per-channel counters aggregate to at
    // least what the machine-level log recorded (the log also counts
    // events on channels later taken offline, whose counters survive,
    // so the totals must match exactly).
    EXPECT_EQ(c.tagEccInvalidates, log.tagEccInvalidates());
    EXPECT_GE(c.correctableErrors, log.correctable());
    // Every correctable error costs at least one retry round.
    EXPECT_GE(c.retries, c.correctableErrors);

    // Poison conservation: created only by uncorrectable events,
    // cleared or still present, never negative anywhere.
    EXPECT_LE(log.poisonCreated(),
              log.uncorrectable() + log.tagEccInvalidates() +
                  log.count(FaultEventKind::DramUncorrectable));
    EXPECT_EQ(log.poisonCreated() + log.poisonPropagated(),
              log.poisonCleared() + sys.poisonedLines());
    // A machine check needs a poisoned or just-poisoned line.
    EXPECT_LE(log.machineChecks(),
              log.poisonCreated() + log.poisonPropagated() +
                  log.uncorrectable() +
                  log.count(FaultEventKind::DramUncorrectable));

    // Media traffic can only grow under faults; demand conservation
    // still holds.
    EXPECT_GE(c.amplification(), 1.0);
    EXPECT_GT(sys.now(), 0.0);

    // Nothing left buffered after quiesce on surviving channels.
    for (unsigned i : sys.onlineChannels()) {
        EXPECT_EQ(sys.channel(i).nvram().epoch().demandReads, 0u);
        EXPECT_EQ(sys.channel(i).dram().epoch().casReads, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemSysFaultFuzz,
                         ::testing::Values(0xFA111u, 0xFA112u, 0xFA113u,
                                           0xFA114u, 0xFA115u,
                                           0xFA116u));

TEST(MemSysFaultFuzz, FaultReplayDeterminism)
{
    auto run = [] {
        SystemConfig cfg;
        cfg.mode = MemoryMode::TwoLm;
        cfg.scale = 1u << 14;
        cfg.fault.seed = 1234;
        cfg.fault.nvramReadCorrectable = 0.01;
        cfg.fault.nvramReadUncorrectable = 0.002;
        cfg.fault.tagEccUncorrectable = 0.002;
        MemorySystem sys(cfg);
        Region arr = sys.allocate(cfg.dramTotal() * 2, "fuzz");
        sys.setActiveThreads(4);
        Rng rng(77);
        for (int i = 0; i < 20000; ++i) {
            sys.submit({static_cast<unsigned>(rng.below(4)),
                       static_cast<CpuOp>(rng.below(3)),
                       arr.base +
                           rng.below(arr.size / kLineSize) * kLineSize,
                       kLineSize});
        }
        sys.quiesce();
        return std::make_tuple(
            sys.counters().deviceAccesses(),
            sys.counters().correctableErrors,
            sys.counters().uncorrectableErrors,
            sys.faultLog().machineChecks(), sys.poisonedLines(),
            sys.now());
    };
    EXPECT_EQ(run(), run());
}

// --- Maintenance fuzz ----------------------------------------------------

namespace
{

/** Random but valid maintenance plan derived from a fuzz seed. */
MaintenanceConfig
randomMaintenanceConfig(Rng &rng, bool correctableOnly)
{
    MaintenanceConfig m;
    m.seed = rng.next();
    auto rate = [&rng](double max) {
        return static_cast<double>(rng.below(1000)) / 1000.0 * max;
    };
    if (rng.below(4) != 0) {
        m.refresh.trefi = 3.9e-6 + rate(8e-6);
        m.refresh.trfc = 200e-9 + rate(150e-9);
    }
    if (rng.below(4) != 0) {
        m.scrub.interval = 2 + static_cast<double>(rng.below(64));
        m.scrub.correctable = 0.01 + rate(0.2);
        m.scrub.uncorrectable = correctableOnly ? 0.0 : rate(0.02);
        m.scrub.retireThreshold = 1 + static_cast<unsigned>(rng.below(4));
        m.scrub.retireCapacity = 1 + rng.below(64);
    }
    if (rng.below(4) != 0) {
        m.rowhammer.threshold = 64 + rng.below(4096);
        m.rowhammer.trackerEntries =
            4 + static_cast<std::uint32_t>(rng.below(64));
        m.rowhammer.window = 1e-4 + rate(64e-3);
    }
    return m;
}

/** All maintenance counters, for monotonicity snapshots. */
std::array<std::uint64_t, 6>
maintenanceSnapshot(const PerfCounters &c)
{
    return {c.refreshSlots,      c.scrubReads, c.scrubCorrected,
            c.linesRetired,      c.targetedRefreshes,
            c.maintenanceStallNs};
}

} // namespace

class MemSysMaintenanceFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MemSysMaintenanceFuzz, MaintenanceNeverBreaksInvariants)
{
    Rng rng(GetParam());
    SystemConfig cfg;
    cfg.mode = rng.below(2) ? MemoryMode::TwoLm : MemoryMode::OneLm;
    cfg.scale = 1u << 14;
    cfg.scatterPages = rng.below(2) != 0;
    cfg.cacheWays = 1 + static_cast<unsigned>(rng.below(4));
    cfg.epochBytes = 32 * kKiB;
    // Correctable-only scrub: a CE is logged and scrubbed in place, so
    // no poison and no machine check may ever appear — even while the
    // repeat-CE ladder retires frames.
    cfg.maintenance = randomMaintenanceConfig(rng, true);
    cfg.validate();
    MemorySystem sys(cfg);

    Region arr = sys.allocate(cfg.dramTotal() * 3 / 2, "fuzz");
    sys.setActiveThreads(6);

    double last_now = 0;
    auto last_snap = maintenanceSnapshot(sys.counters());
    for (int step = 0; step < 40000; ++step) {
        unsigned thread = static_cast<unsigned>(rng.below(6));
        Addr addr =
            arr.base + rng.below(arr.size / kLineSize) * kLineSize;
        Bytes size = (1 + rng.below(4)) * kLineSize;
        if (addr + size > arr.base + arr.size)
            size = kLineSize;
        sys.submit({thread, static_cast<CpuOp>(rng.below(3)), addr,
                   size});

        if (rng.below(2000) == 0) {
            sys.advanceEpoch();
            ASSERT_GE(sys.now(), last_now);
            last_now = sys.now();
            // Maintenance counters only ever grow.
            auto snap = maintenanceSnapshot(sys.counters());
            for (std::size_t i = 0; i < snap.size(); ++i)
                ASSERT_GE(snap[i], last_snap[i]) << "counter " << i;
            last_snap = snap;
        }
    }
    sys.quiesce();

    const PerfCounters c = sys.counters();
    const FaultLog &log = sys.faultLog();

    // Correctable-only: nothing may poison a line or machine-check.
    EXPECT_EQ(log.poisonCreated(), 0u);
    EXPECT_EQ(log.machineChecks(), 0u);
    EXPECT_EQ(sys.poisonedLines(), 0u);
    EXPECT_EQ(c.uncorrectableErrors, 0u);

    // Scrub accounting: every corrected (and every retired) frame came
    // from a patrol read; the retirement log mirrors the counter.
    EXPECT_LE(c.scrubCorrected, c.scrubReads);
    EXPECT_LE(c.linesRetired, c.scrubCorrected);
    EXPECT_EQ(c.linesRetired, log.count(FaultEventKind::LineRetired));
    EXPECT_EQ(c.targetedRefreshes,
              log.count(FaultEventKind::TargetedRefresh));

    // The per-channel scrub engines agree with the global counter.
    std::uint64_t retired = 0;
    for (unsigned i = 0; i < sys.numChannels(); ++i)
        retired += sys.channel(i).maintenance().retiredFrames();
    EXPECT_EQ(retired, c.linesRetired);

    if (cfg.mode == MemoryMode::TwoLm) {
        // Demand is still fully classified. NOTE: no upper bound on
        // amplification here — patrol reads are real DRAM traffic on
        // top of demand, so Table I's <= 5 ceiling no longer applies.
        EXPECT_EQ(c.tagHit + c.tagMissClean + c.tagMissDirty + c.ddoHit,
                  c.demand());
        EXPECT_GE(c.amplification(), 1.0);
    }
    if (cfg.maintenance.scrub.enabled()) {
        EXPECT_GT(c.scrubReads, 0u);
    }
    if (cfg.maintenance.refresh.enabled()) {
        EXPECT_GT(c.refreshSlots, 0u);
        EXPECT_GT(c.maintenanceStallNs, 0u);
    }

    // Nothing left buffered after quiesce.
    for (unsigned i = 0; i < sys.numChannels(); ++i) {
        EXPECT_EQ(sys.channel(i).nvram().epoch().demandReads, 0u);
        EXPECT_EQ(sys.channel(i).dram().epoch().casReads, 0u);
    }
    EXPECT_GT(sys.now(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemSysMaintenanceFuzz,
                         ::testing::Values(0x3A1111u, 0x3A1112u,
                                           0x3A1113u, 0x3A1114u,
                                           0x3A1115u, 0x3A1116u));

TEST(MemSysMaintenanceFuzz, UncorrectableScrubEscalatesButConserves)
{
    // UE-capable scrub drives the full escalation path (poison,
    // invalidate+refetch, retirement); the fault layer's conservation
    // laws must still hold.
    SystemConfig cfg;
    cfg.mode = MemoryMode::TwoLm;
    cfg.scale = 1u << 14;
    cfg.maintenance.seed = 9;
    cfg.maintenance.scrub.interval = 4;
    cfg.maintenance.scrub.correctable = 0.05;
    cfg.maintenance.scrub.uncorrectable = 0.02;
    cfg.maintenance.scrub.retireCapacity = 32;
    cfg.validate();
    MemorySystem sys(cfg);
    Region arr = sys.allocate(cfg.dramTotal() * 2, "fuzz");
    sys.setActiveThreads(4);
    Rng rng(99);
    for (int i = 0; i < 30000; ++i) {
        sys.submit({static_cast<unsigned>(rng.below(4)),
                   static_cast<CpuOp>(rng.below(3)),
                   arr.base + rng.below(arr.size / kLineSize) * kLineSize,
                   kLineSize});
    }
    sys.quiesce();

    const FaultLog &log = sys.faultLog();
    EXPECT_GT(sys.counters().scrubReads, 0u);
    EXPECT_GT(log.count(FaultEventKind::LineRetired), 0u);
    EXPECT_EQ(log.poisonCreated() + log.poisonPropagated(),
              log.poisonCleared() + sys.poisonedLines());
    EXPECT_LE(log.machineChecks(),
              log.poisonCreated() + log.poisonPropagated() +
                  log.uncorrectable() +
                  log.count(FaultEventKind::DramUncorrectable));
}

TEST(MemSysMaintenanceFuzz, MaintenanceReplayDeterminism)
{
    // Full maintenance stack on: two identical runs produce
    // bit-identical counters, retirement totals and time.
    auto run = [] {
        SystemConfig cfg;
        cfg.mode = MemoryMode::TwoLm;
        cfg.scale = 1u << 14;
        cfg.scatterPages = true;
        cfg.maintenance.seed = 4242;
        cfg.maintenance.refresh.trefi = 7.8e-6;
        cfg.maintenance.scrub.interval = 8;
        cfg.maintenance.scrub.correctable = 0.1;
        cfg.maintenance.scrub.uncorrectable = 0.005;
        cfg.maintenance.rowhammer.threshold = 512;
        MemorySystem sys(cfg);
        Region arr = sys.allocate(cfg.dramTotal() * 2, "fuzz");
        sys.setActiveThreads(4);
        Rng rng(77);
        for (int i = 0; i < 20000; ++i) {
            sys.submit({static_cast<unsigned>(rng.below(4)),
                       static_cast<CpuOp>(rng.below(3)),
                       arr.base +
                           rng.below(arr.size / kLineSize) * kLineSize,
                       kLineSize});
        }
        sys.quiesce();
        const PerfCounters c = sys.counters();
        return std::make_tuple(c.deviceAccesses(), c.scrubReads,
                               c.scrubCorrected, c.linesRetired,
                               c.targetedRefreshes, c.refreshSlots,
                               c.maintenanceStallNs,
                               sys.faultLog().machineChecks(),
                               sys.poisonedLines(), sys.now());
    };
    EXPECT_EQ(run(), run());
}

TEST(MemSysFuzz, ReplayDeterminism)
{
    // The same random stream on two identical machines produces
    // bit-identical counters and time.
    auto run = [] {
        SystemConfig cfg;
        cfg.mode = MemoryMode::TwoLm;
        cfg.scale = 1u << 14;
        cfg.scatterPages = true;
        MemorySystem sys(cfg);
        Region arr = sys.allocate(cfg.dramTotal() * 2, "fuzz");
        sys.setActiveThreads(4);
        Rng rng(77);
        for (int i = 0; i < 20000; ++i) {
            sys.submit({static_cast<unsigned>(rng.below(4)),
                       static_cast<CpuOp>(rng.below(3)),
                       arr.base +
                           rng.below(arr.size / kLineSize) * kLineSize,
                       kLineSize});
        }
        sys.quiesce();
        return std::make_tuple(sys.counters().deviceAccesses(),
                               sys.counters().tagMissDirty, sys.now());
    };
    EXPECT_EQ(run(), run());
}
