/**
 * @file
 * Tests for the channel controller: request routing in 1LM and 2LM,
 * counter accounting, device traffic application and epoch timing.
 */

#include <gtest/gtest.h>

#include "imc/channel.hh"
#include "obs/stats.hh"

using namespace nvsim;

namespace
{

ChannelParams
tinyParams(DdoMode ddo = DdoMode::None)
{
    ChannelParams p;
    p.dram.capacity = 64 * kLineSize;
    p.nvram.capacity = 1 * kMiB;
    p.ddo.mode = ddo;
    return p;
}

MemRequest
readReq(Addr a, std::uint16_t t = 0)
{
    return MemRequest{MemRequestKind::LlcRead, a, t};
}

MemRequest
writeReq(Addr a, std::uint16_t t = 0)
{
    return MemRequest{MemRequestKind::LlcWrite, a, t};
}

} // namespace

TEST(Channel2lm, ReadMissTouchesBothDevices)
{
    ChannelController ch(tinyParams(), MemoryMode::TwoLm);
    AccessResult r = ch.handle(readReq(0), MemPool::Nvram);
    EXPECT_EQ(r.outcome, CacheOutcome::MissClean);
    EXPECT_EQ(ch.dram().epoch().casReads, 1u);
    EXPECT_EQ(ch.dram().epoch().casWrites, 1u);
    EXPECT_EQ(ch.nvram().epoch().demandReads, 1u);
    EXPECT_EQ(ch.counters().tagMissClean, 1u);
    EXPECT_EQ(ch.counters().llcReads, 1u);
    // Miss latency: DRAM tag check plus NVRAM fetch.
    EXPECT_NEAR(r.latency,
                ch.params().dram.latency + ch.params().nvram.readLatency,
                1e-12);
}

TEST(Channel2lm, ReadHitLatencyIsDramOnly)
{
    ChannelController ch(tinyParams(), MemoryMode::TwoLm);
    ch.handle(readReq(0), MemPool::Nvram);
    AccessResult r = ch.handle(readReq(0), MemPool::Nvram);
    EXPECT_EQ(r.outcome, CacheOutcome::Hit);
    EXPECT_NEAR(r.latency, ch.params().dram.latency, 1e-12);
    EXPECT_EQ(ch.counters().tagHit, 1u);
}

TEST(Channel2lm, DirtyWritebackReachesNvram)
{
    ChannelController ch(tinyParams(), MemoryMode::TwoLm);
    ch.handle(writeReq(0), MemPool::Nvram);  // dirty occupant
    Addr alias = ch.cache()->numSets() * kLineSize;
    ch.handle(readReq(alias), MemPool::Nvram);
    EXPECT_EQ(ch.nvram().epoch().demandWrites, 1u);
    EXPECT_EQ(ch.counters().tagMissDirty, 1u);
    EXPECT_EQ(ch.counters().nvramWrite, 1u);
}

TEST(Channel2lm, CountersMatchTableIAmplification)
{
    ChannelController ch(tinyParams(), MemoryMode::TwoLm);
    // One clean write miss: amplification 4.
    ch.handle(writeReq(0), MemPool::Nvram);
    EXPECT_EQ(ch.counters().demand(), 1u);
    EXPECT_EQ(ch.counters().deviceAccesses(), 4u);
    EXPECT_DOUBLE_EQ(ch.counters().amplification(), 4.0);
}

TEST(Channel2lm, MissCountFeedsEpoch)
{
    ChannelController ch(tinyParams(), MemoryMode::TwoLm);
    ch.handle(readReq(0), MemPool::Nvram);        // miss
    ch.handle(readReq(0), MemPool::Nvram);        // hit
    ch.handle(readReq(kLineSize), MemPool::Nvram);  // miss
    ChannelEpoch e = ch.drainEpoch();
    EXPECT_EQ(e.misses, 2u);
}

TEST(Channel1lm, RoutesByPool)
{
    ChannelController ch(tinyParams(), MemoryMode::OneLm);
    ch.handle(readReq(0), MemPool::Dram);
    ch.handle(readReq(64), MemPool::Nvram);
    ch.handle(writeReq(128), MemPool::Dram);
    ch.handle(writeReq(192), MemPool::Nvram);
    EXPECT_EQ(ch.counters().dramRead, 1u);
    EXPECT_EQ(ch.counters().nvramRead, 1u);
    EXPECT_EQ(ch.counters().dramWrite, 1u);
    EXPECT_EQ(ch.counters().nvramWrite, 1u);
    // No tag events in app-direct mode.
    EXPECT_EQ(ch.counters().tagHit + ch.counters().tagMissClean +
                  ch.counters().tagMissDirty,
              0u);
}

TEST(Channel1lm, NoAmplification)
{
    ChannelController ch(tinyParams(), MemoryMode::OneLm);
    for (Addr a = 0; a < 64 * kLineSize; a += kLineSize)
        ch.handle(readReq(a), MemPool::Nvram);
    EXPECT_DOUBLE_EQ(ch.counters().amplification(), 1.0);
}

TEST(Channel1lm, HoldsNoCachePolicy)
{
    // App direct has no DRAM cache: nothing to build, bound by the
    // miss handler, register as stats or invalidate on reset.
    ChannelController ch(tinyParams(), MemoryMode::OneLm);
    EXPECT_EQ(ch.cache(), nullptr);
    ch.handle(readReq(0), MemPool::Nvram);
    ch.handle(writeReq(kLineSize), MemPool::Dram);
    EXPECT_GT(ch.epochTime(ch.drainEpoch()), 0.0);
    obs::Registry reg;
    ch.regStats(reg.root());
    for (const auto &g : reg.root().children())
        EXPECT_NE(g->name(), "cache");
    ch.reset();
    EXPECT_EQ(ch.counters().demand(), 0u);
}

TEST(ChannelEpochTime, BusBoundDramTraffic)
{
    ChannelParams p = tinyParams();
    ChannelController ch(p, MemoryMode::OneLm);
    // 1024 DRAM reads = 64 KiB over the shared bus.
    for (int i = 0; i < 1024; ++i)
        ch.handle(readReq(static_cast<Addr>(i) * kLineSize), MemPool::Dram);
    ChannelEpoch e = ch.drainEpoch();
    double expect =
        1024.0 * kLineSize / std::min(p.busBandwidth, p.dram.bandwidth);
    EXPECT_NEAR(ch.epochTime(e), expect, expect * 1e-9);
}

TEST(ChannelEpochTime, NvramMediaBoundRandomReads)
{
    ChannelParams p = tinyParams();
    ChannelController ch(p, MemoryMode::OneLm);
    // Random (stride > buffer reach) reads: 4x media amplification, so
    // media time dominates the bus time.
    for (int i = 0; i < 1024; ++i) {
        ch.handle(readReq(static_cast<Addr>(i) * 8 * kMediaBlockSize),
                  MemPool::Nvram);
    }
    ChannelEpoch e = ch.drainEpoch();
    double media_bytes = 1024.0 * kMediaBlockSize;
    EXPECT_NEAR(ch.epochTime(e), media_bytes / p.nvram.readBandwidth,
                1e-9);
}

TEST(ChannelEpochTime, MissHandlerBoundsTwoLmMissStreams)
{
    ChannelParams p = tinyParams();
    p.busBandwidth = 1e15;  // remove other limits
    p.dram.bandwidth = 1e15;
    p.nvram.readBandwidth = 1e15;
    p.nvram.writeBandwidth = 1e15;
    ChannelController ch(p, MemoryMode::TwoLm);
    for (int i = 0; i < 512; ++i)
        ch.handle(readReq(static_cast<Addr>(i) * kLineSize),
                  MemPool::Nvram);
    ChannelEpoch e = ch.drainEpoch();
    // 512 lines > 64 cache lines: every access after the first pass is
    // a miss; in fact all 512 are compulsory misses here.
    EXPECT_EQ(e.misses, 512u);
    double expect = 512.0 *
                    ch.cache()->missServiceTime(deviceLatencies(p)) /
                    p.missHandlerEntries;
    EXPECT_NEAR(ch.epochTime(e), expect, expect * 1e-9);
}

TEST(Channel, ResetClearsStateAndCounters)
{
    ChannelController ch(tinyParams(), MemoryMode::TwoLm);
    ch.handle(writeReq(0), MemPool::Nvram);
    ch.reset();
    EXPECT_EQ(ch.counters().demand(), 0u);
    EXPECT_FALSE(ch.cache()->resident(0));
    // A re-read is a compulsory miss again.
    AccessResult r = ch.handle(readReq(0), MemPool::Nvram);
    EXPECT_EQ(r.outcome, CacheOutcome::MissClean);
}

TEST(Channel, ModeNames)
{
    EXPECT_STREQ(memoryModeName(MemoryMode::OneLm), "1LM");
    EXPECT_STREQ(memoryModeName(MemoryMode::TwoLm), "2LM");
}
