/**
 * @file
 * Tests for the queued channel controller: the scheduler registry,
 * FCFS arrival-order preservation, FR-FCFS starvation capping,
 * write-drain watermark hysteresis, backpressure-as-queue-wait, and
 * the MemorySystem-level contracts — queue-off byte identity with the
 * analytic model, submit() and touchLine() logging the same arrival
 * order, and the p99 > p50 tail that queueing exists to produce.
 */

#include <gtest/gtest.h>

#include <vector>

#include "imc/scheduler.hh"
#include "obs/telemetry/telemetry.hh"
#include "sys/memsys.hh"

using namespace nvsim;

namespace
{

ControllerConfig
qcfg(const std::string &sched)
{
    ControllerConfig c;
    c.scheduler = sched;
    c.readQueueEntries = 8;
    c.writeQueueEntries = 8;
    c.banks = 4;
    c.rowBytes = 4 * kLineSize;
    c.drainHighWatermark = 6;
    c.drainLowWatermark = 2;
    c.starvationCap = 2;
    c.bankConflictPenalty = 30e-9;
    return c;
}

/** A queue with completions captured in issue order. */
struct Harness
{
    ChannelTxQueue q;
    std::vector<Transaction> done;
    std::vector<CompletionInfo> info;

    explicit Harness(const ControllerConfig &cfg,
                     const RefreshConfig &refresh = RefreshConfig{})
        : q(cfg, /*busBandwidth=*/1e12, refresh)
    {
        q.setCompletionHandler(
            [this](const Transaction &tx, const CompletionInfo &ci) {
                done.push_back(tx);
                info.push_back(ci);
            });
    }
};

Transaction
readTx(Addr addr, double arrival, double service = 100e-9)
{
    Transaction tx;
    tx.addr = addr;
    tx.arrival = arrival;
    tx.service = service;
    tx.kind = TransactionKind::Read;
    return tx;
}

Transaction
writeTx(Addr addr, double arrival, double service = 100e-9)
{
    Transaction tx = readTx(addr, arrival, service);
    tx.kind = TransactionKind::Write;
    return tx;
}

SystemConfig
queuedConfig(const std::string &sched)
{
    SystemConfig cfg;
    cfg.mode = MemoryMode::TwoLm;
    cfg.scale = 4096;
    cfg.epochBytes = 64 * kKiB;
    cfg.controller = qcfg(sched);
    cfg.controller.readQueueEntries = 32;
    cfg.controller.writeQueueEntries = 64;
    cfg.controller.drainHighWatermark = 48;
    cfg.controller.drainLowWatermark = 16;
    return cfg;
}

/** One pass of loads plus a stripe of stores over @p r. */
void
drive(MemorySystem &sys, const Region &r)
{
    for (Addr a = r.base; a < r.base + r.size; a += kLineSize)
        sys.submit({0, CpuOp::Load, a, kLineSize});
    for (Addr a = r.base; a < r.base + r.size; a += 4 * kLineSize)
        sys.submit({1, CpuOp::Store, a, kLineSize});
    for (Addr a = r.base; a < r.base + r.size / 4; a += kLineSize)
        sys.submit({2, CpuOp::NtStore, a, kLineSize});
}

} // namespace

TEST(SchedulerRegistry, BuiltinsAreRegistered)
{
    auto &reg = ChannelSchedulerRegistry::instance();
    for (const char *name :
         {"analytic", "fcfs", "read_priority", "frfcfs"}) {
        EXPECT_TRUE(reg.known(name)) << name;
        EXPECT_FALSE(reg.description(name).empty()) << name;
    }
    EXPECT_FALSE(reg.known("rrobin"));
}

TEST(SchedulerRegistry, AnalyticIsTheDegenerateScheduler)
{
    // The queue-off mode is not a special case around the registry;
    // it IS a registry entry, whose factory builds no queue engine.
    ControllerConfig c;  // defaults: scheduler = "analytic"
    EXPECT_FALSE(c.queued());
    EXPECT_EQ(ChannelSchedulerRegistry::instance().create(c), nullptr);
    c.validate();  // must not fatal, whatever the geometry knobs say
}

TEST(SchedulerRegistry, QueuedSchedulersConstruct)
{
    for (const char *name : {"fcfs", "read_priority", "frfcfs"}) {
        ControllerConfig c = qcfg(name);
        c.validate();
        auto s = ChannelSchedulerRegistry::instance().create(c);
        ASSERT_NE(s, nullptr) << name;
        EXPECT_STREQ(s->kindName(), name);
    }
}

TEST(Fcfs, PreservesArrivalOrderAcrossBanks)
{
    Harness h(qcfg("fcfs"));
    // Round-robin over all four banks, arrivals strictly ordered.
    for (int i = 0; i < 8; ++i) {
        h.q.enqueue(readTx(static_cast<Addr>(i) * 4 * kLineSize,
                           static_cast<double>(i) * 1e-9));
    }
    h.q.drainAll();
    ASSERT_EQ(h.done.size(), 8u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(h.done[i].addr,
                  static_cast<Addr>(i) * 4 * kLineSize);
        if (i > 0)
            EXPECT_GE(h.info[i].issueTime, h.info[i - 1].issueTime);
    }
}

TEST(Fcfs, OldestIssuesFirstAcrossReadAndWriteQueues)
{
    Harness h(qcfg("fcfs"));
    h.q.enqueue(writeTx(0, 0));
    h.q.enqueue(readTx(kLineSize, 1e-9));
    h.q.drainAll();
    ASSERT_EQ(h.done.size(), 2u);
    EXPECT_EQ(h.done[0].kind, TransactionKind::Write);
    EXPECT_EQ(h.done[1].kind, TransactionKind::Read);
}

TEST(ReadPriority, WritesWaitWhileReadsArePending)
{
    Harness h(qcfg("read_priority"));
    h.q.enqueue(writeTx(0, 0));
    h.q.enqueue(readTx(kLineSize, 1e-9));
    h.q.enqueue(readTx(2 * kLineSize, 2e-9));
    h.q.drainAll();
    ASSERT_EQ(h.done.size(), 3u);
    EXPECT_EQ(h.done[0].kind, TransactionKind::Read);
    EXPECT_EQ(h.done[1].kind, TransactionKind::Read);
    EXPECT_EQ(h.done[2].kind, TransactionKind::Write);
}

TEST(ReadPriority, DrainHysteresisBetweenWatermarks)
{
    // high = 6, low = 2. Six writes arm the burst; it must run the WPQ
    // down to the low watermark before reads go again, and the reads
    // that waited behind it are marked drainStalled.
    ControllerConfig cfg = qcfg("read_priority");
    Harness h(cfg);
    for (int i = 0; i < 6; ++i)
        h.q.enqueue(writeTx(static_cast<Addr>(i) * kLineSize,
                            static_cast<double>(i) * 1e-9));
    EXPECT_TRUE(h.q.draining());
    for (int i = 0; i < 3; ++i)
        h.q.enqueue(readTx(kMiB + static_cast<Addr>(i) * kLineSize,
                           6e-9 + static_cast<double>(i) * 1e-9));
    h.q.drainAll();
    ASSERT_EQ(h.done.size(), 9u);
    // Burst: 6 -> 2 writes (4 issues), then the reads, then the rest.
    std::vector<TransactionKind> kinds;
    for (const Transaction &tx : h.done)
        kinds.push_back(tx.kind);
    std::vector<TransactionKind> expect{
        TransactionKind::Write, TransactionKind::Write,
        TransactionKind::Write, TransactionKind::Write,
        TransactionKind::Read,  TransactionKind::Read,
        TransactionKind::Read,  TransactionKind::Write,
        TransactionKind::Write};
    EXPECT_EQ(kinds, expect);
    for (int i = 4; i < 7; ++i)
        EXPECT_TRUE(h.info[i].drainStalled) << i;
    TxQueueStats s = h.q.takeStats();
    EXPECT_EQ(s.writeDrains, 1u);
    EXPECT_EQ(s.completedReads, 3u);
    EXPECT_EQ(s.completedWrites, 6u);
}

TEST(Frfcfs, RowHitsBypassUpToTheStarvationCap)
{
    // One bank so every request contends for the same row buffer.
    ControllerConfig cfg = qcfg("frfcfs");
    cfg.banks = 1;
    Harness h(cfg);
    const Addr row_stride = cfg.rowBytes;  // one bank: row = addr/rowBytes
    // r0 opens row 0; r1 wants row 1; r2..r5 are row-0 hits that keep
    // bypassing r1 — but only starvationCap (2) times.
    h.q.enqueue(readTx(0, 0));
    h.q.enqueue(readTx(row_stride, 1e-9));
    for (int i = 2; i <= 5; ++i)
        h.q.enqueue(readTx(static_cast<Addr>(i) * kLineSize,
                           static_cast<double>(i) * 1e-9));
    h.q.drainAll();
    ASSERT_EQ(h.done.size(), 6u);
    EXPECT_EQ(h.done[0].addr, 0u);
    EXPECT_EQ(h.done[1].addr, 2u * kLineSize);
    EXPECT_EQ(h.done[2].addr, 3u * kLineSize);
    // Bypassed twice; the cap forces it ahead of the remaining hits.
    EXPECT_EQ(h.done[3].addr, row_stride);
    TxQueueStats s = h.q.takeStats();
    // r1 is the only conflict (it closes row 0); r4/r5 sit in row 1,
    // so once r1 opens it they issue as hits behind it.
    EXPECT_EQ(s.bankConflicts, 1u);
    EXPECT_EQ(s.rowBufferHits, 4u);
}

TEST(TxQueue, BackpressureSurfacesAsQueueWait)
{
    ControllerConfig cfg = qcfg("fcfs");
    cfg.readQueueEntries = 2;
    Harness h(cfg);
    for (int i = 0; i < 4; ++i)
        h.q.enqueue(readTx(static_cast<Addr>(i) * 4 * kLineSize, 0));
    h.q.drainAll();
    ASSERT_EQ(h.done.size(), 4u);
    // Same arrival, serialized issue: everyone after the first waited.
    EXPECT_DOUBLE_EQ(h.info[0].latency.queueWait, 0);
    EXPECT_GT(h.info[3].latency.queueWait, 0);
    TxQueueStats s = h.q.takeStats();
    EXPECT_GT(s.readQueueWait, 0);
    EXPECT_EQ(s.maxReadDepth, 2u);
}

TEST(TxQueue, CompletionLatencyDecomposes)
{
    Harness h(qcfg("fcfs"));
    h.q.enqueue(readTx(0, 0, 80e-9));
    h.q.enqueue(readTx(kLineSize, 0, 80e-9));  // row hit, same bank
    h.q.drainAll();
    ASSERT_EQ(h.done.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const CompletionInfo &ci = h.info[i];
        EXPECT_NEAR(ci.latency.total(),
                    ci.latency.service + ci.latency.queueWait +
                        ci.latency.bankPenalty,
                    1e-15);
        EXPECT_NEAR(ci.completeTime,
                    ci.issueTime + ci.latency.bankPenalty +
                        ci.latency.service,
                    1e-15);
    }
    EXPECT_TRUE(h.info[1].rowBufferHit);
    EXPECT_DOUBLE_EQ(h.info[1].latency.bankPenalty, 0);
}

TEST(TxQueue, PerBankRefreshBlocksBanks)
{
    RefreshConfig refresh;
    refresh.trefi = 100e-9;  // refresh storm: one REF per 25 ns
    ControllerConfig cfg = qcfg("fcfs");
    Harness with(cfg, refresh);
    Harness without(cfg);
    for (int i = 0; i < 16; ++i) {
        Transaction tx = readTx(static_cast<Addr>(i) * 4 * kLineSize,
                                static_cast<double>(i) * 25e-9);
        with.q.enqueue(tx);
        without.q.enqueue(tx);
    }
    with.q.drainAll();
    without.q.drainAll();
    EXPECT_GT(with.info.back().completeTime,
              without.info.back().completeTime);
}

TEST(QueuedMemsys, QueueOffIsByteIdenticalToDefault)
{
    // The "analytic" registry entry with exotic geometry knobs must be
    // indistinguishable from a config that never mentions the
    // controller block: no queues are built, so nothing can drift.
    SystemConfig plain = queuedConfig("frfcfs");
    plain.controller = ControllerConfig{};
    SystemConfig off = queuedConfig("frfcfs");
    off.controller.scheduler = "analytic";

    MemorySystem a(plain), b(off);
    Region ra = a.allocate(2 * kMiB, "x");
    Region rb = b.allocate(2 * kMiB, "x");
    a.setActiveThreads(4);
    b.setActiveThreads(4);
    drive(a, ra);
    drive(b, rb);
    a.quiesce();
    b.quiesce();
    EXPECT_EQ(a.now(), b.now());  // exact, not NEAR: byte identity
    EXPECT_EQ(a.counters().named(), b.counters().named());
    EXPECT_EQ(a.counters().queueWaitNs, 0u);
}

TEST(QueuedMemsys, QueueWaitStretchesTheRunUnderLoad)
{
    // Saturate: arrivals spaced at 200 GB/s against channels that
    // cannot keep up. Queue wait joins the latency work, so the queued
    // run must take at least as long as the analytic one, and the
    // queue counters must light up.
    SystemConfig off = queuedConfig("frfcfs");
    off.controller.scheduler = "analytic";
    SystemConfig on = queuedConfig("frfcfs");
    on.controller.offeredGBs = 200;

    MemorySystem a(off), b(on);
    Region ra = a.allocate(2 * kMiB, "x");
    Region rb = b.allocate(2 * kMiB, "x");
    a.setActiveThreads(4);
    b.setActiveThreads(4);
    drive(a, ra);
    drive(b, rb);
    a.quiesce();
    b.quiesce();
    EXPECT_GE(b.now(), a.now());
    PerfCounters c = b.counters();
    EXPECT_GT(c.queueWaitNs, 0u);
    EXPECT_GT(c.rowBufferHits, 0u);
}

TEST(QueuedMemsys, SaturatedTailExceedsTheMedian)
{
    // The acceptance shape: under offered load beyond the channel's
    // service rate, queue depth grows along the epoch, so late reads
    // wait far longer than early ones — p99 must pull away from p50.
    SystemConfig cfg = queuedConfig("frfcfs");
    cfg.controller.offeredGBs = 400;
    MemorySystem sys(cfg);
    obs::TelemetryOptions topts;
    topts.csvPath = "unused.csv";
    topts.windowSeconds = 1e-4;
    obs::TelemetryRun tel("queued", topts);
    sys.attachTelemetry(&tel);
    Region r = sys.allocate(2 * kMiB, "x");
    sys.setActiveThreads(4);
    for (Addr a = r.base; a < r.base + r.size; a += kLineSize)
        sys.submit({0, CpuOp::Load, a, kLineSize});
    sys.quiesce();
    sys.detachTelemetry();
    tel.finish();
    EXPECT_GT(tel.quantileNs(0.99), tel.quantileNs(0.50));
}

TEST(QueuedMemsys, TouchLineMatchesSubmit)
{
    // Both demand entry points log the same arrival order for the
    // queued drain: a two-line submit() equals two touchLine() calls.
    MemorySystem a(queuedConfig("fcfs"));
    MemorySystem b(queuedConfig("fcfs"));
    Region ra = a.allocate(kMiB, "x");
    Region rb = b.allocate(kMiB, "x");
    for (Addr off = 0; off < kMiB; off += 8 * kLineSize) {
        a.submit({0, CpuOp::Load, ra.base + off, 2 * kLineSize});
        b.touchLine(0, CpuOp::Load, rb.base + off);
        b.touchLine(0, CpuOp::Load, rb.base + off + kLineSize);
    }
    a.quiesce();
    b.quiesce();
    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.counters().named(), b.counters().named());
}
