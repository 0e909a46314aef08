/**
 * @file
 * Tests for the Optane DIMM model: media-block amplification, the
 * read-combine buffer, the write-pending queue merge behavior and the
 * write-stream contention curve.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <set>
#include <tuple>

#include "core/rng.hh"
#include "mem/nvram.hh"

using namespace nvsim;

namespace
{

NvramParams
smallParams()
{
    NvramParams p;
    p.readBufferEntries = 4;
    p.wpqEntries = 4;
    return p;
}

} // namespace

TEST(NvramDevice, SequentialReadsCoalescePerMediaBlock)
{
    NvramDevice dev(smallParams());
    // 16 sequential 64 B reads span 4 media blocks.
    for (Addr a = 0; a < 16 * kLineSize; a += kLineSize)
        dev.read(a, 0);
    auto e = dev.drainEpoch();
    EXPECT_EQ(e.demandReads, 16u);
    EXPECT_EQ(e.mediaReadBlocks, 4u);
    // Demand bytes equal media bytes: amplification 1.
    EXPECT_EQ(e.demandBytes(), e.mediaReadBytes());
}

TEST(NvramDevice, RandomSmallReadsAmplifyFourTimes)
{
    NvramDevice dev(smallParams());
    // Strided reads, one line per distinct media block, far apart so
    // the 4-entry buffer cannot help.
    for (int i = 0; i < 64; ++i)
        dev.read(static_cast<Addr>(i) * 8 * kMediaBlockSize, 0);
    auto e = dev.drainEpoch();
    EXPECT_EQ(e.demandReads, 64u);
    EXPECT_EQ(e.mediaReadBlocks, 64u);
    EXPECT_EQ(e.mediaReadBytes(), 4 * e.demandBytes());
}

TEST(NvramDevice, RepeatedReadHitsBuffer)
{
    NvramDevice dev(smallParams());
    dev.read(0, 0);
    dev.read(64, 0);   // same media block
    dev.read(128, 0);  // same media block
    auto e = dev.drainEpoch();
    EXPECT_EQ(e.mediaReadBlocks, 1u);
}

TEST(NvramDevice, SequentialWritesMergeIntoMediaBlocks)
{
    NvramDevice dev(smallParams());
    // One full pass of 64 sequential lines = 16 media blocks, each
    // fully merged: write amplification 1.
    for (Addr a = 0; a < 64 * kLineSize; a += kLineSize)
        dev.write(a, 0);
    dev.flushWpq();
    auto e = dev.drainEpoch();
    EXPECT_EQ(e.demandWrites, 64u);
    EXPECT_EQ(e.mediaWriteBlocks, 16u);
    EXPECT_EQ(e.mediaWriteBytes(), e.demandBytes());
}

TEST(NvramDevice, RandomSmallWritesAmplifyFourTimes)
{
    NvramDevice dev(smallParams());
    for (int i = 0; i < 64; ++i)
        dev.write(static_cast<Addr>(i) * 8 * kMediaBlockSize, 0);
    dev.flushWpq();
    auto e = dev.drainEpoch();
    EXPECT_EQ(e.demandWrites, 64u);
    // Each write lands in its own block which is flushed partially
    // filled: 4x write amplification.
    EXPECT_EQ(e.mediaWriteBlocks, 64u);
    EXPECT_EQ(e.mediaWriteBytes(), 4 * e.demandBytes());
}

TEST(NvramDevice, ManyInterleavedStreamsDefeatMerging)
{
    // 8 interleaved sequential writers vs a 4-entry WPQ: streams evict
    // each other's partial blocks, so media writes exceed demand/4.
    NvramDevice dev(smallParams());
    constexpr int kStreams = 8;
    constexpr int kLines = 64;
    Addr bases[kStreams];
    for (int s = 0; s < kStreams; ++s)
        bases[s] = static_cast<Addr>(s) * kMiB;
    for (int i = 0; i < kLines; ++i) {
        for (int s = 0; s < kStreams; ++s) {
            dev.write(bases[s] + static_cast<Addr>(i) * kLineSize,
                      static_cast<std::uint16_t>(s));
        }
    }
    dev.flushWpq();
    auto e = dev.drainEpoch();
    std::uint64_t fully_merged = e.demandWrites / 4;
    EXPECT_GT(e.mediaWriteBlocks, fully_merged);
    EXPECT_EQ(e.writerStreams, 8u);
}

TEST(NvramDevice, SingleStreamIsImmuneToSmallWpq)
{
    NvramDevice dev(smallParams());
    for (Addr a = 0; a < 256 * kLineSize; a += kLineSize)
        dev.write(a, 0);
    dev.flushWpq();
    auto e = dev.drainEpoch();
    EXPECT_EQ(e.mediaWriteBytes(), e.demandBytes());
}

TEST(NvramDevice, WriteEfficiencyCurve)
{
    NvramDevice dev(NvramParams{});
    EXPECT_DOUBLE_EQ(dev.writeEfficiency(1), 1.0);
    EXPECT_DOUBLE_EQ(dev.writeEfficiency(4), 1.0);
    EXPECT_LT(dev.writeEfficiency(8), 1.0);
    EXPECT_LT(dev.writeEfficiency(24), dev.writeEfficiency(8));
    // 24 threads: 1 / (1 + 0.01 * 20).
    EXPECT_NEAR(dev.writeEfficiency(24), 1.0 / 1.2, 1e-12);
}

TEST(NvramDevice, TotalsAccumulateAcrossEpochs)
{
    NvramDevice dev(smallParams());
    dev.read(0, 0);
    dev.drainEpoch();
    dev.read(4096, 0);
    dev.drainEpoch();
    EXPECT_EQ(dev.total().demandReads, 2u);
    EXPECT_EQ(dev.total().mediaReadBlocks, 2u);
    EXPECT_EQ(dev.epoch().demandReads, 0u);
}

TEST(NvramDevice, AmplificationAccessors)
{
    NvramDevice dev(smallParams());
    for (int i = 0; i < 16; ++i)
        dev.write(static_cast<Addr>(i) * 8 * kMediaBlockSize, 0);
    dev.flushWpq();
    dev.drainEpoch();
    EXPECT_DOUBLE_EQ(dev.writeAmplification(), 4.0);
    EXPECT_DOUBLE_EQ(dev.readAmplification(), 0.0);
}

// --- Reference-model property test ---------------------------------------

namespace
{

/**
 * Brute-force NVRAM buffer model: explicit LRU lists (front = least
 * recently used), a std::map WPQ fill table and a per-epoch writer
 * set, with the bulk runs spelled out as per-line loops. It is the
 * device's documented semantics with no layout tricks.
 */
class RefNvram
{
  public:
    RefNvram(unsigned read_entries, unsigned wpq_entries)
        : readCap_(read_entries), wpqCap_(wpq_entries)
    {
    }

    void
    read(Addr addr)
    {
        ++epoch.demandReads;
        Addr evicted;
        if (!touch(readLru_, readCap_, mediaBlockBase(addr), evicted))
            ++epoch.mediaReadBlocks;
    }

    void
    write(Addr addr, std::uint16_t thread)
    {
        writers_.insert(thread);
        epoch.writerStreams = writers_.size();
        ++epoch.demandWrites;
        const Addr block = mediaBlockBase(addr);
        const unsigned slot =
            static_cast<unsigned>((addr - block) / kLineSize);
        Addr evicted = 0;
        const bool hit = touch(wpqLru_, wpqCap_, block, evicted);
        if (evicted != kNone) {
            fill_.erase(evicted);
            ++epoch.mediaWriteBlocks;
        }
        if (!hit)
            fill_[block] = 0;
        fill_[block] |= 1u << slot;
        if (fill_[block] == 0xF) {
            fill_.erase(block);
            wpqLru_.remove(block);
            ++epoch.mediaWriteBlocks;
        }
    }

    void
    readRun(Addr addr, std::uint64_t lines)
    {
        for (std::uint64_t i = 0; i < lines; ++i)
            read(addr + i * kLineSize);
    }

    void
    writeRun(Addr addr, std::uint64_t lines, std::uint16_t thread)
    {
        for (std::uint64_t i = 0; i < lines; ++i)
            write(addr + i * kLineSize, thread);
    }

    void
    flushWpq()
    {
        epoch.mediaWriteBlocks += wpqLru_.size();
        wpqLru_.clear();
        fill_.clear();
    }

    NvramEpoch
    drainEpoch()
    {
        NvramEpoch e = epoch;
        epoch = NvramEpoch{};
        writers_.clear();
        return e;
    }

    NvramEpoch epoch;

  private:
    static constexpr Addr kNone = ~Addr{0};

    /** LRU touch; @p evicted is the dropped block or kNone. */
    static bool
    touch(std::list<Addr> &lru, unsigned cap, Addr block, Addr &evicted)
    {
        evicted = kNone;
        auto it = std::find(lru.begin(), lru.end(), block);
        if (it != lru.end()) {
            lru.erase(it);
            lru.push_back(block);
            return true;
        }
        lru.push_back(block);
        if (lru.size() > cap) {
            evicted = lru.front();
            lru.pop_front();
        }
        return false;
    }

    unsigned readCap_;
    unsigned wpqCap_;
    std::list<Addr> readLru_;
    std::list<Addr> wpqLru_;
    std::map<Addr, unsigned> fill_;
    std::set<std::uint16_t> writers_;
};

std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
           std::uint64_t>
fields(const NvramEpoch &e)
{
    return {e.demandReads, e.demandWrites, e.mediaReadBlocks,
            e.mediaWriteBlocks, e.writerStreams};
}

} // namespace

/** (read-buffer entries, WPQ entries, seed) */
class NvramVsReference
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned, int>>
{
};

TEST_P(NvramVsReference, RandomCallSequenceAgrees)
{
    auto [read_entries, wpq_entries, seed] = GetParam();
    NvramParams p;
    p.readBufferEntries = read_entries;
    p.wpqEntries = wpq_entries;
    NvramDevice dev(p);
    RefNvram ref(read_entries, wpq_entries);

    // A few more media blocks than buffer entries, so hits, evictions,
    // partial fills and mid-run completions all occur.
    constexpr std::uint64_t kLines = 8 * 4;
    Rng rng(static_cast<std::uint64_t>(seed));
    for (int step = 0; step < 20000; ++step) {
        const Addr addr = rng.below(kLines) * kLineSize;
        const auto thread = static_cast<std::uint16_t>(rng.below(4));
        const std::uint64_t lines = 1 + rng.below(9);
        switch (rng.below(20)) {
          case 0:
            dev.flushWpq();
            ref.flushWpq();
            break;
          case 1:
            ASSERT_EQ(fields(dev.drainEpoch()), fields(ref.drainEpoch()))
                << "step " << step;
            break;
          case 2: case 3: case 4:
            dev.readRun(addr, lines);
            ref.readRun(addr, lines);
            break;
          case 5: case 6: case 7: case 8:
            dev.writeRun(addr, lines, thread);
            ref.writeRun(addr, lines, thread);
            break;
          case 9: case 10: case 11: case 12: case 13:
            dev.read(addr, thread);
            ref.read(addr);
            break;
          default:
            dev.write(addr, thread);
            ref.write(addr, thread);
            break;
        }
        ASSERT_EQ(fields(dev.epoch()), fields(ref.epoch)) << "step " << step;
    }
    dev.flushWpq();
    ref.flushWpq();
    EXPECT_EQ(fields(dev.drainEpoch()), fields(ref.drainEpoch()));
}

INSTANTIATE_TEST_SUITE_P(
    Buffers, NvramVsReference,
    ::testing::Combine(::testing::Values(2u, 3u, 4u),
                       ::testing::Values(2u, 3u, 4u),
                       ::testing::Values(1, 2)));
