/**
 * @file
 * Equivalence tests for the batched access engine: for every mode, op,
 * pattern and granularity, MemorySystem::submit() must leave the
 * machine in a state bit-identical to the reference per-line loop —
 * every uncore counter, LLC statistic, device buffer effect (via write
 * amplification) and the accumulated simulated time (an exact
 * floating-point comparison, since the batched path is required to add
 * per-line latencies in the reference order). Under the queued
 * controller both engines must log the same arrival-ordered demand, so
 * the epoch drain — queue counters, clock and latency percentiles —
 * comes out identical too.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rng.hh"
#include "kernels/kernels.hh"
#include "obs/telemetry/telemetry.hh"

using namespace nvsim;

namespace
{

SystemConfig
config(MemoryMode mode)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.scale = 4096;
    cfg.epochBytes = 128 * kKiB;
    return cfg;
}

/** Assert two systems are observably identical, field by field. */
void
expectIdentical(MemorySystem &batched, MemorySystem &per_line)
{
    PerfCounters cb = batched.counters();
    PerfCounters cp = per_line.counters();
    std::vector<std::uint64_t> vb, vp;
    std::vector<const char *> names;
    cb.forEachField([&](const char *name, const char *,
                        std::uint64_t v) {
        names.push_back(name);
        vb.push_back(v);
    });
    cp.forEachField(
        [&](const char *, const char *, std::uint64_t v) {
            vp.push_back(v);
        });
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(vb[i], vp[i]) << "counter " << names[i];

    EXPECT_EQ(batched.llc().hitCount(), per_line.llc().hitCount());
    EXPECT_EQ(batched.llc().missCount(), per_line.llc().missCount());
    EXPECT_EQ(batched.llc().dirtyEvictionCount(),
              per_line.llc().dirtyEvictionCount());
    EXPECT_EQ(batched.llc().ntInvalidateCount(),
              per_line.llc().ntInvalidateCount());

    // Exact: the engines must accumulate latency work in the same
    // floating-point order, not merely to a tolerance.
    EXPECT_EQ(batched.now(), per_line.now());
    EXPECT_EQ(batched.nvramWriteAmplification(),
              per_line.nvramWriteAmplification());
}

struct KernelCase
{
    KernelOp op;
    bool nontemporal;
    const char *name;
};

const KernelCase kKernelCases[] = {
    {KernelOp::ReadOnly, false, "read_only"},
    {KernelOp::WriteOnly, true, "write_nt"},
    {KernelOp::WriteOnly, false, "write_std"},
    {KernelOp::ReadModifyWrite, false, "rmw_std"},
    {KernelOp::ReadModifyWrite, true, "rmw_nt"},
};

/** @p mode under a queued @p scheduler, offered past the knee. */
SystemConfig
queuedConfig(MemoryMode mode, const std::string &scheduler)
{
    SystemConfig cfg = config(mode);
    cfg.controller.scheduler = scheduler;
    cfg.controller.offeredGBs = 40;
    // Rows smaller than the 4 KiB interleave chunk, so a coalesced 1LM
    // device run spans several rows and each line's address matters.
    cfg.controller.rowBytes = kKiB;
    if (scheduler == "read_priority") {
        // Non-power-of-two geometry: the division path of the row key.
        cfg.controller.banks = 6;
        cfg.controller.rowBytes = 768;
        // Small watermarks: write-drain bursts start and stop often.
        cfg.controller.readQueueEntries = 6;
        cfg.controller.writeQueueEntries = 8;
        cfg.controller.drainHighWatermark = 4;
        cfg.controller.drainLowWatermark = 1;
    }
    return cfg;
}

void
runGrid(const SystemConfig &cfg)
{
    for (const KernelCase &kc : kKernelCases) {
        for (AccessPattern pattern :
             {AccessPattern::Sequential, AccessPattern::Random}) {
            for (Bytes gran : {Bytes{64}, Bytes{256}}) {
                KernelConfig k;
                k.op = kc.op;
                k.nontemporal = kc.nontemporal;
                k.pattern = pattern;
                k.granularity = gran;
                k.threads = 6;

                SCOPED_TRACE(std::string(kc.name) + " " +
                             accessPatternName(pattern) + " gran " +
                             std::to_string(gran));

                MemorySystem batched(cfg);
                MemorySystem per_line(cfg);
                ASSERT_TRUE(batched.batchedAccess());
                per_line.setBatchedAccess(false);
                for (MemorySystem *sys : {&batched, &per_line}) {
                    Region r = sys->allocateIn(MemPool::Nvram, 4 * kMiB,
                                               "arr");
                    runKernel(*sys, r, k);
                }
                expectIdentical(batched, per_line);
            }
        }
    }
}

/**
 * Load, Store and NtStore spans over @p r: long ones crossing epoch
 * boundaries and interleave chunks, then many short, unaligned ones
 * from interleaved threads, then a full store pass (dirty LLC victims).
 */
void
queuedSpans(MemorySystem &sys, const Region &r)
{
    sys.setActiveThreads(4);
    sys.submit({0, CpuOp::Load, r.base + 3, 300 * kKiB});
    sys.submit({1, CpuOp::Store, r.base + 64 * kKiB + 100, 200 * kKiB});
    sys.submit({2, CpuOp::NtStore, r.base + 512 * kKiB + 7, 150 * kKiB});
    Rng rng(11);
    const CpuOp ops[] = {CpuOp::Load, CpuOp::Store, CpuOp::NtStore};
    for (unsigned i = 0; i < 3000; ++i) {
        sys.submit({i % 4, ops[rng.below(3)],
                    r.base + rng.below(r.size - 8 * kKiB),
                    1 + rng.below(6 * kKiB)});
    }
    sys.submit({3, CpuOp::Store, r.base, r.size});
    sys.submit({0, CpuOp::Load, r.base + 17, r.size - 17});
    sys.quiesce();
}

/**
 * Run queuedSpans() on both engines over a region of @p pool, with
 * telemetry attached, and assert every observable matches.
 */
void
expectQueuedEnginesAgree(const SystemConfig &cfg, MemPool pool)
{
    MemorySystem batched(cfg);
    MemorySystem per_line(cfg);
    per_line.setBatchedAccess(false);
    obs::TelemetryRun tel_b("batched", obs::TelemetryOptions{});
    obs::TelemetryRun tel_p("per_line", obs::TelemetryOptions{});
    batched.attachTelemetry(&tel_b);
    per_line.attachTelemetry(&tel_p);
    for (MemorySystem *sys : {&batched, &per_line})
        queuedSpans(*sys, sys->allocateIn(pool, 4 * kMiB, "arr"));
    batched.detachTelemetry();
    per_line.detachTelemetry();
    tel_b.finish();
    tel_p.finish();

    expectIdentical(batched, per_line);
    for (double q : {0.5, 0.99})
        EXPECT_EQ(tel_b.quantileNs(q), tel_p.quantileNs(q)) << "q " << q;
    EXPECT_EQ(tel_b.totals(), tel_p.totals());

    // The queues did work: the comparison is not between idle drains.
    PerfCounters c = batched.counters();
    EXPECT_GT(c.queueWaitNs, 0u);
    EXPECT_GT(c.rowBufferHits, 0u);
    EXPECT_GT(c.bankConflicts, 0u);
    if (cfg.controller.scheduler == "read_priority") {
        EXPECT_GT(c.writeDrains, 0u);
    }
    EXPECT_GT(batched.llc().dirtyEvictionCount(), 0u);
}

} // namespace

TEST(AccessRangeEquivalence, OneLmKernelGrid)
{
    runGrid(config(MemoryMode::OneLm));
}

TEST(AccessRangeEquivalence, TwoLmKernelGrid)
{
    runGrid(config(MemoryMode::TwoLm));
}

TEST(AccessRangeEquivalence, OneLmDramPool)
{
    KernelConfig k;
    k.op = KernelOp::ReadModifyWrite;
    k.threads = 4;
    MemorySystem batched(config(MemoryMode::OneLm));
    MemorySystem per_line(config(MemoryMode::OneLm));
    per_line.setBatchedAccess(false);
    for (MemorySystem *sys : {&batched, &per_line}) {
        Region r = sys->allocateIn(MemPool::Dram, 4 * kMiB, "arr");
        runKernel(*sys, r, k);
    }
    expectIdentical(batched, per_line);
}

TEST(AccessRangeEquivalence, OneLmRangeSpanningPoolBoundary)
{
    // A NUMA-spill allocation crosses from the DRAM pool into NVRAM;
    // the batched engine must split its segments at the boundary.
    KernelConfig k;
    k.op = KernelOp::WriteOnly;
    k.nontemporal = true;
    k.threads = 4;
    MemorySystem batched(config(MemoryMode::OneLm));
    MemorySystem per_line(config(MemoryMode::OneLm));
    per_line.setBatchedAccess(false);
    for (MemorySystem *sys : {&batched, &per_line}) {
        Bytes dram_free = sys->poolFree(MemPool::Dram);
        Region r = sys->allocate(dram_free + 4 * kMiB, "spill");
        ASSERT_EQ(r.pool, MemPool::Dram);
        runKernel(*sys, r, k);
    }
    expectIdentical(batched, per_line);
}

TEST(AccessRangeEquivalence, UnalignedAndOddSizes)
{
    for (MemoryMode mode : {MemoryMode::OneLm, MemoryMode::TwoLm}) {
        SCOPED_TRACE(memoryModeName(mode));
        MemorySystem batched(config(mode));
        MemorySystem per_line(config(mode));
        per_line.setBatchedAccess(false);
        for (MemorySystem *sys : {&batched, &per_line}) {
            Region r = sys->allocateIn(MemPool::Nvram, 8 * kMiB, "arr");
            // Unaligned bases, odd sizes, zero size (one line), ranges
            // spanning many interleave chunks, and a mid-run epoch
            // boundary (the region is larger than epochBytes).
            sys->submit({0, CpuOp::Load, r.base + 3, 1});
            sys->submit({1, CpuOp::Store, r.base + 130, 517});
            sys->submit({2, CpuOp::NtStore, r.base + 5 * kLineSize + 7,
                        200});
            sys->submit({0, CpuOp::Load, r.base + 4096 - 32, 64});
            sys->submit({3, CpuOp::Load, r.base + 1000, 0});
            sys->submit({1, CpuOp::Load, r.base, 6 * kMiB});
            sys->submit({2, CpuOp::NtStore, r.base + 123, 3 * kMiB});
            sys->quiesce();
        }
        expectIdentical(batched, per_line);
    }
}

TEST(AccessRangeEquivalence, EngineToggleMidRun)
{
    // Switching engines between phases must not disturb state: run a
    // phase batched, a phase per-line, and compare against all-batched.
    MemorySystem toggled(config(MemoryMode::TwoLm));
    MemorySystem batched(config(MemoryMode::TwoLm));
    KernelConfig k;
    k.op = KernelOp::ReadOnly;
    k.threads = 4;
    for (MemorySystem *sys : {&toggled, &batched}) {
        Region r = sys->allocateIn(MemPool::Nvram, 4 * kMiB, "arr");
        runKernel(*sys, r, k);
        if (sys == &toggled)
            sys->setBatchedAccess(false);
        runKernel(*sys, r, k);
    }
    expectIdentical(batched, toggled);
}

TEST(AccessRangeEquivalence, NonPowerOfTwoChannelGrid)
{
    // The cached interleave mapping has a fast shift/mask path for
    // power-of-two granules and a general division path; both engines
    // route through the same map. A 5-channel socket with a non-pow2
    // granule after offlining exercises the general path end to end:
    // batched and per-line engines must still agree exactly.
    for (MemoryMode mode : {MemoryMode::OneLm, MemoryMode::TwoLm}) {
        SCOPED_TRACE(memoryModeName(mode));
        SystemConfig cfg = config(mode);
        cfg.channelsPerSocket = 5;
        MemorySystem batched(cfg);
        MemorySystem per_line(cfg);
        per_line.setBatchedAccess(false);
        KernelConfig k;
        k.op = KernelOp::ReadModifyWrite;
        k.threads = 3;
        for (MemorySystem *sys : {&batched, &per_line}) {
            Region r = sys->allocateIn(MemPool::Nvram, 6 * kMiB, "arr");
            runKernel(*sys, r, k);
            // Offline a channel mid-run: the map is rebuilt with 4
            // online channels but chunk positions keyed off the
            // original granule, then traffic resumes on both engines.
            sys->offlineChannel(2);
            sys->submit({0, CpuOp::Load, r.base + 777, 2 * kMiB});
            sys->submit({1, CpuOp::NtStore, r.base + 64, 1 * kMiB});
            sys->quiesce();
        }
        expectIdentical(batched, per_line);
    }
}

TEST(AccessRangeEquivalence, QueuedFrfcfsOneLm)
{
    // Coalesced 1LM device runs on NVRAM and the DRAM pool: one logged
    // transaction per line, exactly as the per-line loop logs them.
    for (MemPool pool : {MemPool::Nvram, MemPool::Dram}) {
        SCOPED_TRACE(pool == MemPool::Dram ? "dram pool" : "nvram pool");
        expectQueuedEnginesAgree(
            queuedConfig(MemoryMode::OneLm, "frfcfs"), pool);
    }
}

TEST(AccessRangeEquivalence, QueuedFrfcfsTwoLm)
{
    expectQueuedEnginesAgree(queuedConfig(MemoryMode::TwoLm, "frfcfs"),
                             MemPool::Nvram);
}

TEST(AccessRangeEquivalence, QueuedReadPriorityDrains)
{
    for (MemoryMode mode : {MemoryMode::OneLm, MemoryMode::TwoLm}) {
        SCOPED_TRACE(memoryModeName(mode));
        expectQueuedEnginesAgree(queuedConfig(mode, "read_priority"),
                                 MemPool::Nvram);
    }
}

TEST(AccessRangeEquivalence, QueuedKernelGrid)
{
    for (MemoryMode mode : {MemoryMode::OneLm, MemoryMode::TwoLm}) {
        SCOPED_TRACE(memoryModeName(mode));
        runGrid(queuedConfig(mode, "frfcfs"));
    }
}
