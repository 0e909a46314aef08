/**
 * @file
 * Tests for the queued channel controller: the scheduler registry,
 * FCFS arrival-order preservation, FR-FCFS starvation capping,
 * write-drain watermark hysteresis, backpressure-as-queue-wait, and
 * the MemorySystem-level contracts — queue-off byte identity with the
 * analytic model, submit() and touchLine() logging the same arrival
 * order, and the p99 > p50 tail that queueing exists to produce — and
 * a randomized comparison of the ring-buffer queue engine against a
 * brute-force deque reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hh"
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
                     const RefreshConfig &refresh = RefreshConfig{},
                     double bus_bandwidth = 1e12)
        : q(cfg, bus_bandwidth, refresh)
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

/**
 * Brute-force reference of the queue engine: two std::deques of staged
 * transactions, per-bank (openRow, rowValid) registers and each
 * scheduler's pick written out as a plain scan. Independent of the
 * engine's ring storage, row keys and shift/mask arithmetic, so any
 * divergence between the two is a bug in one of them.
 */
class RefQueue
{
  public:
    RefQueue(const ControllerConfig &cfg, double bus_bw,
             const RefreshConfig &refresh)
        : cfg_(cfg), busBw_(bus_bw), refresh_(refresh), banks_(cfg.banks)
    {
        resetEpoch();
    }

    std::vector<std::pair<Transaction, CompletionInfo>> done;

    void
    enqueue(const Transaction &tx)
    {
        const bool read = tx.kind == TransactionKind::Read;
        while ((read ? reads_.size() >= cfg_.readQueueEntries
                     : writes_.size() >= cfg_.writeQueueEntries))
            serviceOne();
        Staged q;
        q.tx = tx;
        q.seq = seq_++;
        q.bank = static_cast<std::uint32_t>((tx.addr / cfg_.rowBytes) %
                                            cfg_.banks);
        q.row = tx.addr / (cfg_.rowBytes * cfg_.banks);
        q.drainStalled = draining_;
        std::deque<Staged> &dest = read ? reads_ : writes_;
        q.depth = static_cast<std::uint32_t>(dest.size());
        dest.push_back(q);
        stats_.maxReadDepth = std::max(
            stats_.maxReadDepth, static_cast<std::uint32_t>(reads_.size()));
        stats_.maxWriteDepth =
            std::max(stats_.maxWriteDepth,
                     static_cast<std::uint32_t>(writes_.size()));
        if (!draining_ && writes_.size() >= cfg_.drainHighWatermark) {
            draining_ = true;
            ++stats_.writeDrains;
            for (Staged &r : reads_)
                r.drainStalled = true;
        }
    }

    void
    tick(double until)
    {
        while ((!reads_.empty() || !writes_.empty()) && clock_ <= until)
            serviceOne();
    }

    void
    drainAll()
    {
        while (!reads_.empty() || !writes_.empty())
            serviceOne();
    }

    void
    resetEpoch()
    {
        for (Bank &b : banks_)
            b = Bank{};
        clock_ = 0;
        busFreeAt_ = 0;
        refreshBank_ = 0;
        refreshAt_ = refresh_.enabled() ? refresh_.trefi / cfg_.banks : 0;
        seq_ = 0;
        draining_ = false;
    }

    TxQueueStats
    takeStats()
    {
        TxQueueStats out = stats_;
        stats_ = TxQueueStats{};
        return out;
    }

    double clock() const { return clock_; }
    bool draining() const { return draining_; }
    std::size_t readDepth() const { return reads_.size(); }
    std::size_t writeDepth() const { return writes_.size(); }

  private:
    struct Staged
    {
        Transaction tx;
        std::uint64_t seq = 0;
        std::uint32_t bank = 0;
        std::uint64_t row = 0;
        std::uint32_t bypassed = 0;
        std::uint32_t depth = 0;
        bool drainStalled = false;
    };

    struct Bank
    {
        double freeAt = 0;
        std::uint64_t openRow = 0;
        bool rowValid = false;
    };

    /** (from writes?, index) per the configured scheduler. */
    std::pair<bool, std::size_t>
    pick() const
    {
        if (cfg_.scheduler == "fcfs") {
            if (reads_.empty())
                return {true, 0};
            if (writes_.empty())
                return {false, 0};
            return {writes_.front().seq < reads_.front().seq, 0};
        }
        const bool from_writes =
            !writes_.empty() && (draining_ || reads_.empty());
        if (cfg_.scheduler == "read_priority")
            return {from_writes, 0};
        const std::deque<Staged> &q = from_writes ? writes_ : reads_;
        if (q.front().bypassed >= cfg_.starvationCap)
            return {from_writes, 0};
        for (std::size_t i = 0; i < q.size(); ++i) {
            const Bank &b = banks_[q[i].bank];
            if (b.rowValid && b.openRow == q[i].row)
                return {from_writes, i};
        }
        return {from_writes, 0};
    }

    void
    applyRefresh(double t)
    {
        if (!refresh_.enabled())
            return;
        const double step = refresh_.trefi / cfg_.banks;
        while (refreshAt_ <= t) {
            Bank &b = banks_[refreshBank_];
            b.freeAt = std::max(b.freeAt, refreshAt_) + refresh_.trfc;
            b.rowValid = false;
            refreshBank_ = (refreshBank_ + 1) % cfg_.banks;
            refreshAt_ += step;
        }
    }

    void
    serviceOne()
    {
        const auto [from_writes, index] = pick();
        std::deque<Staged> &q = from_writes ? writes_ : reads_;
        Staged chosen = q[index];
        for (std::size_t i = 0; i < index; ++i)
            ++q[i].bypassed;
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(index));

        applyRefresh(std::max(clock_, chosen.tx.arrival));
        Bank &bank = banks_[chosen.bank];
        const double start =
            std::max(std::max(clock_, chosen.tx.arrival),
                     std::max(busFreeAt_, bank.freeAt));
        const bool row_hit = bank.rowValid && bank.openRow == chosen.row;
        const double penalty = row_hit ? 0.0 : cfg_.bankConflictPenalty;
        const bool conflict = bank.rowValid && !row_hit;
        const double complete = start + penalty + chosen.tx.service;
        bank.freeAt = complete;
        bank.openRow = chosen.row;
        bank.rowValid = true;
        busFreeAt_ = start + static_cast<double>(kLineSize) / busBw_;
        clock_ = start;

        if (chosen.tx.kind == TransactionKind::Read) {
            ++stats_.completedReads;
            stats_.readQueueWait += start - chosen.tx.arrival;
        } else {
            ++stats_.completedWrites;
            if (draining_ && writes_.size() <= cfg_.drainLowWatermark)
                draining_ = false;
        }
        if (row_hit)
            ++stats_.rowBufferHits;
        if (conflict)
            ++stats_.bankConflicts;

        CompletionInfo info;
        info.enqueueTime = chosen.tx.arrival;
        info.issueTime = start;
        info.completeTime = complete;
        info.latency.service = chosen.tx.service;
        info.latency.queueWait = start - chosen.tx.arrival;
        info.latency.bankPenalty = penalty;
        info.rowBufferHit = row_hit;
        info.bankConflict = conflict;
        info.drainStalled = chosen.drainStalled;
        info.queueDepth = chosen.depth;
        done.emplace_back(chosen.tx, info);
    }

    ControllerConfig cfg_;
    double busBw_;
    RefreshConfig refresh_;
    std::deque<Staged> reads_;
    std::deque<Staged> writes_;
    std::vector<Bank> banks_;
    double clock_ = 0;
    double busFreeAt_ = 0;
    double refreshAt_ = 0;
    std::uint32_t refreshBank_ = 0;
    std::uint64_t seq_ = 0;
    bool draining_ = false;
    TxQueueStats stats_;
};

void
expectSameStats(const TxQueueStats &a, const TxQueueStats &b)
{
    EXPECT_EQ(a.readQueueWait, b.readQueueWait);
    EXPECT_EQ(a.bankConflicts, b.bankConflicts);
    EXPECT_EQ(a.rowBufferHits, b.rowBufferHits);
    EXPECT_EQ(a.writeDrains, b.writeDrains);
    EXPECT_EQ(a.completedReads, b.completedReads);
    EXPECT_EQ(a.completedWrites, b.completedWrites);
    EXPECT_EQ(a.maxReadDepth, b.maxReadDepth);
    EXPECT_EQ(a.maxWriteDepth, b.maxWriteDepth);
}

void
expectSameCompletion(const Transaction &a, const CompletionInfo &ai,
                     const Transaction &b, const CompletionInfo &bi)
{
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.service, b.service);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.thread, b.thread);
    EXPECT_EQ(a.chargeDemand, b.chargeDemand);
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(ai.enqueueTime, bi.enqueueTime);
    EXPECT_EQ(ai.issueTime, bi.issueTime);
    EXPECT_EQ(ai.completeTime, bi.completeTime);
    EXPECT_EQ(ai.latency.service, bi.latency.service);
    EXPECT_EQ(ai.latency.queueWait, bi.latency.queueWait);
    EXPECT_EQ(ai.latency.bankPenalty, bi.latency.bankPenalty);
    EXPECT_EQ(ai.rowBufferHit, bi.rowBufferHit);
    EXPECT_EQ(ai.bankConflict, bi.bankConflict);
    EXPECT_EQ(ai.drainStalled, bi.drainStalled);
    EXPECT_EQ(ai.queueDepth, bi.queueDepth);
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

TEST(ControllerConfigDeathTest, RejectsQueueDeeperThanCap)
{
    // Queue storage is allocated at the configured depth, so depth is
    // bounded; the cap itself is accepted.
    ControllerConfig c = qcfg("frfcfs");
    c.readQueueEntries = ControllerConfig::kMaxQueueEntries;
    c.writeQueueEntries = ControllerConfig::kMaxQueueEntries;
    c.validate();
    ControllerConfig deep_reads = c;
    ++deep_reads.readQueueEntries;
    EXPECT_EXIT(deep_reads.validate(), ::testing::ExitedWithCode(1),
                "at most");
    ControllerConfig deep_writes = c;
    ++deep_writes.writeQueueEntries;
    EXPECT_EXIT(deep_writes.validate(), ::testing::ExitedWithCode(1),
                "at most");
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
        if (i > 0) {
            EXPECT_GE(h.info[i].issueTime, h.info[i - 1].issueTime);
        }
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

TEST(TxQueue, TxQueueVsReference)
{
    // Random geometry (non-power-of-two banks, rows and depths
    // included), refresh on and off, and a random interleaving of
    // enqueue / tick / drainAll / resetEpoch / takeStats: every
    // completion, every stats harvest and the visible queue state must
    // equal the deque reference's exactly.
    const char *const kSchedulers[] = {"fcfs", "read_priority", "frfcfs"};
    const unsigned kBanks[] = {1, 2, 3, 4, 5, 7, 8, 16};
    const Bytes kRowBytes[] = {64, 128, 192, 256, 320, 1000, 4096};
    Rng rng(20260);
    for (int trial = 0; trial < 120; ++trial) {
        ControllerConfig cfg;
        cfg.scheduler = kSchedulers[trial % 3];
        cfg.banks = kBanks[rng.below(std::size(kBanks))];
        cfg.rowBytes = kRowBytes[rng.below(std::size(kRowBytes))];
        cfg.readQueueEntries = 1 + static_cast<unsigned>(rng.below(12));
        cfg.writeQueueEntries = 2 + static_cast<unsigned>(rng.below(12));
        cfg.drainHighWatermark = 1 + static_cast<unsigned>(
                                         rng.below(cfg.writeQueueEntries));
        cfg.drainLowWatermark =
            static_cast<unsigned>(rng.below(cfg.drainHighWatermark));
        cfg.starvationCap = 1 + static_cast<unsigned>(rng.below(4));
        cfg.bankConflictPenalty = 1e-9 * static_cast<double>(rng.below(60));
        cfg.validate();
        RefreshConfig refresh;
        if (trial % 2) {
            refresh.trefi = 100e-9 + 1e-6 * rng.uniform();
            refresh.trfc = 5e-9 + 50e-9 * rng.uniform();
        }
        const double bus_bw = 5e9 + 40e9 * rng.uniform();
        SCOPED_TRACE("trial " + std::to_string(trial) + " " +
                     cfg.scheduler + " banks " +
                     std::to_string(cfg.banks) + " row " +
                     std::to_string(cfg.rowBytes) + " depths " +
                     std::to_string(cfg.readQueueEntries) + "/" +
                     std::to_string(cfg.writeQueueEntries) +
                     (refresh.enabled() ? " refresh" : ""));

        Harness h(cfg, refresh, bus_bw);
        ChannelTxQueue &q = h.q;
        RefQueue ref(cfg, bus_bw, refresh);

        // A handful of hot rows, so open-row hits and conflicts both
        // happen at every geometry.
        const std::uint64_t hot_rows = 1 + rng.below(3 * cfg.banks + 2);
        const std::uint64_t lines_per_row = cfg.rowBytes / kLineSize;
        double arrival = 0;
        std::int32_t next_tag = 0;
        for (int step = 0; step < 400; ++step) {
            const std::uint64_t op = rng.below(100);
            if (op < 70) {
                Transaction tx;
                tx.addr = rng.below(hot_rows) * cfg.rowBytes +
                          rng.below(lines_per_row) * kLineSize;
                arrival += 40e-9 * rng.uniform();
                tx.arrival = arrival;
                tx.service = 20e-9 + 200e-9 * rng.uniform();
                tx.kind = rng.below(3) ? TransactionKind::Read
                                       : TransactionKind::Write;
                tx.thread = static_cast<std::uint16_t>(rng.below(8));
                tx.chargeDemand = rng.below(4) != 0;
                tx.tag = next_tag++;
                q.enqueue(tx);
                ref.enqueue(tx);
            } else if (op < 88) {
                const double until = arrival * rng.uniform() * 1.5;
                q.tick(until);
                ref.tick(until);
            } else if (op < 96) {
                q.drainAll();
                ref.drainAll();
                if (rng.below(2)) {
                    q.resetEpoch();
                    ref.resetEpoch();
                    arrival = 0;
                }
            } else {
                expectSameStats(q.takeStats(), ref.takeStats());
            }
            ASSERT_EQ(q.readDepth(), ref.readDepth()) << "step " << step;
            ASSERT_EQ(q.writeDepth(), ref.writeDepth()) << "step " << step;
            ASSERT_EQ(q.draining(), ref.draining()) << "step " << step;
            ASSERT_EQ(q.clock(), ref.clock()) << "step " << step;
            ASSERT_EQ(h.done.size(), ref.done.size()) << "step " << step;
        }
        q.drainAll();
        ref.drainAll();
        expectSameStats(q.takeStats(), ref.takeStats());

        ASSERT_EQ(h.done.size(), ref.done.size());
        ASSERT_EQ(h.done.size(), static_cast<std::size_t>(next_tag));
        std::vector<int> seen(static_cast<std::size_t>(next_tag), 0);
        for (std::size_t i = 0; i < h.done.size(); ++i) {
            SCOPED_TRACE("completion " + std::to_string(i));
            expectSameCompletion(h.done[i], h.info[i], ref.done[i].first,
                                 ref.done[i].second);
            ++seen[static_cast<std::size_t>(h.done[i].tag)];
        }
        for (std::size_t t = 0; t < seen.size(); ++t)
            EXPECT_EQ(seen[t], 1) << "tag " << t;
        if (HasFailure())
            return;
    }
}
