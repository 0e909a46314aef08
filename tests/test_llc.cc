/** @file Tests for the last-level cache model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "core/rng.hh"
#include "sys/llc.hh"

using namespace nvsim;

namespace
{

LlcParams
tinyLlc(unsigned ways = 2, Bytes capacity = 16 * kLineSize)
{
    return LlcParams{capacity, ways};
}

} // namespace

TEST(Llc, MissThenHit)
{
    Llc llc(tinyLlc());
    LlcResult r1 = llc.access(0, false);
    EXPECT_TRUE(r1.missed);
    EXPECT_FALSE(r1.hit);
    LlcResult r2 = llc.access(0, false);
    EXPECT_TRUE(r2.hit);
    EXPECT_TRUE(llc.resident(0));
}

TEST(Llc, StoreMarksDirtyAndEvictionReportsIt)
{
    Llc llc(tinyLlc(1, 4 * kLineSize));  // 4 sets, direct mapped
    llc.access(0, true);                  // dirty line 0
    // Alias of line 0 in a 4-set direct-mapped cache.
    Addr alias = 4 * kLineSize;
    LlcResult r = llc.access(alias, false);
    EXPECT_TRUE(r.missed);
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(r.victim, 0u);
}

TEST(Llc, CleanEvictionIsSilent)
{
    Llc llc(tinyLlc(1, 4 * kLineSize));
    llc.access(0, false);
    LlcResult r = llc.access(4 * kLineSize, false);
    EXPECT_TRUE(r.missed);
    EXPECT_FALSE(r.evictedDirty);
}

TEST(Llc, LruReplacementWithinSet)
{
    Llc llc(tinyLlc(2, 8 * kLineSize));  // 4 sets x 2 ways
    Addr a = 0;
    Addr b = 4 * kLineSize;   // same set, different tag
    Addr c = 8 * kLineSize;   // same set again
    llc.access(a, false);
    llc.access(b, false);
    llc.access(a, false);  // refresh a
    llc.access(c, false);  // evicts b
    EXPECT_TRUE(llc.resident(a));
    EXPECT_FALSE(llc.resident(b));
    EXPECT_TRUE(llc.resident(c));
}

TEST(Llc, NontemporalInvalidateDropsWithoutWriteback)
{
    Llc llc(tinyLlc());
    llc.access(0, true);  // dirty
    llc.invalidateLine(0);
    EXPECT_FALSE(llc.resident(0));
    // Refill misses but reports no dirty eviction (the line vanished).
    LlcResult r = llc.access(0, false);
    EXPECT_TRUE(r.missed);
    EXPECT_FALSE(r.evictedDirty);
}

TEST(Llc, FlushWritesBackExactlyDirtyLines)
{
    Llc llc(tinyLlc(2, 16 * kLineSize));
    llc.access(0, true);
    llc.access(kLineSize, false);
    llc.access(2 * kLineSize, true);
    std::vector<Addr> written;
    llc.flush([&](Addr a) { written.push_back(a); });
    EXPECT_EQ(written.size(), 2u);
    EXPECT_FALSE(llc.resident(0));
    EXPECT_FALSE(llc.resident(kLineSize));
}

TEST(Llc, InvalidateAll)
{
    Llc llc(tinyLlc());
    llc.access(0, true);
    llc.access(64, false);
    llc.invalidateAll();
    EXPECT_FALSE(llc.resident(0));
    EXPECT_FALSE(llc.resident(64));
}

TEST(Llc, CapacityIsRespected)
{
    Llc llc(tinyLlc(2, 16 * kLineSize));
    EXPECT_EQ(llc.capacity(), 16 * kLineSize);
    // Fill with 32 distinct lines: only 16 can survive.
    unsigned resident = 0;
    for (Addr a = 0; a < 32 * kLineSize; a += kLineSize)
        llc.access(a, false);
    for (Addr a = 0; a < 32 * kLineSize; a += kLineSize)
        resident += llc.resident(a) ? 1 : 0;
    EXPECT_EQ(resident, 16u);
}

// --- Reference-model property test ---------------------------------------

namespace
{

/**
 * Brute-force LRU reference: per set, a list of resident lines with
 * a global use stamp; a miss in a full set evicts the smallest stamp.
 */
class RefLlc
{
  public:
    RefLlc(std::uint64_t sets, unsigned ways) : sets_(sets), ways_(ways) {}

    LlcResult
    access(Addr addr, bool is_store)
    {
        LlcResult r;
        auto &lines = store_[lineIndex(addr) % sets_];
        const Addr line = lineBase(addr);
        for (auto &l : lines) {
            if (l.addr == line) {
                r.hit = true;
                l.dirty = l.dirty || is_store;
                l.stamp = ++clock_;
                return r;
            }
        }
        r.missed = true;
        if (lines.size() == ways_) {
            auto victim = std::min_element(
                lines.begin(), lines.end(),
                [](const Line &a, const Line &b) {
                    return a.stamp < b.stamp;
                });
            if (victim->dirty) {
                r.evictedDirty = true;
                r.victim = victim->addr;
            }
            lines.erase(victim);
        }
        lines.push_back({line, is_store, ++clock_});
        return r;
    }

    void
    invalidateLine(Addr addr)
    {
        auto &lines = store_[lineIndex(addr) % sets_];
        const Addr line = lineBase(addr);
        lines.erase(std::remove_if(lines.begin(), lines.end(),
                                   [&](const Line &l) {
                                       return l.addr == line;
                                   }),
                    lines.end());
    }

    /** Dirty lines, sorted; then drop everything. */
    std::vector<Addr>
    flush()
    {
        std::vector<Addr> dirty;
        for (const auto &[set, lines] : store_) {
            for (const Line &l : lines) {
                if (l.dirty)
                    dirty.push_back(l.addr);
            }
        }
        store_.clear();
        std::sort(dirty.begin(), dirty.end());
        return dirty;
    }

    bool
    resident(Addr addr) const
    {
        auto it = store_.find(lineIndex(addr) % sets_);
        if (it == store_.end())
            return false;
        for (const Line &l : it->second) {
            if (l.addr == lineBase(addr))
                return true;
        }
        return false;
    }

  private:
    struct Line
    {
        Addr addr;
        bool dirty;
        std::uint64_t stamp;
    };

    std::uint64_t sets_;
    unsigned ways_;
    std::uint64_t clock_ = 0;
    std::map<std::uint64_t, std::vector<Line>> store_;
};

} // namespace

/** (ways, sets, address space in multiples of the capacity) */
class LlcVsReference
    : public ::testing::TestWithParam<
          std::tuple<unsigned, unsigned, unsigned>>
{
};

TEST_P(LlcVsReference, RandomStreamAgrees)
{
    auto [ways, sets, spread] = GetParam();
    const std::uint64_t space = std::uint64_t{spread} * sets * ways;
    Llc llc(tinyLlc(ways, static_cast<Bytes>(sets) * ways * kLineSize));
    ASSERT_EQ(llc.numSets(), sets);
    RefLlc ref(sets, ways);

    Rng rng(ways * 1000 + sets * 10 + spread);
    std::uint64_t hits = 0;
    std::uint64_t dirty_victims = 0;
    for (int step = 0; step < 30000; ++step) {
        const Addr addr = rng.below(space) * kLineSize;
        const std::uint64_t op = rng.below(64);
        if (op == 0) {
            std::vector<Addr> flushed;
            llc.flush([&](Addr a) { flushed.push_back(a); });
            std::sort(flushed.begin(), flushed.end());
            ASSERT_EQ(flushed, ref.flush()) << "step " << step;
            continue;
        }
        if (op < 6) {
            llc.invalidateLine(addr);
            ref.invalidateLine(addr);
            ASSERT_FALSE(llc.resident(addr)) << "step " << step;
            continue;
        }
        const bool is_store = op < 24;
        const LlcResult got = llc.access(addr, is_store);
        const LlcResult want = ref.access(addr, is_store);
        ASSERT_EQ(got.hit, want.hit) << "step " << step;
        ASSERT_EQ(got.missed, want.missed) << "step " << step;
        ASSERT_EQ(got.evictedDirty, want.evictedDirty) << "step " << step;
        if (want.evictedDirty) {
            ASSERT_EQ(got.victim, want.victim) << "step " << step;
        }
        ASSERT_TRUE(llc.resident(addr)) << "step " << step;
        hits += got.hit;
        dirty_victims += got.evictedDirty;
    }
    // The stream exercised both outcomes, not just one path.
    EXPECT_GT(hits, 0u);
    EXPECT_GT(dirty_victims, 0u);
    for (Addr a = 0; a < static_cast<Addr>(space) * kLineSize;
         a += kLineSize)
        EXPECT_EQ(llc.resident(a), ref.resident(a));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LlcVsReference,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 11u),
                       ::testing::Values(1u, 4u, 5u),
                       ::testing::Values(2u, 4u)));
