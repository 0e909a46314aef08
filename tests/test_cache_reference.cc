/**
 * @file
 * Golden-model cross-check: the DramCache (with all its action
 * accounting and DDO plumbing) is driven with long pseudo-random
 * request streams and compared, access by access, against a trivially
 * simple reference implementation of a direct-mapped / set-associative
 * cache. Catches state-machine divergence no directed test would.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "core/rng.hh"
#include "imc/dram_cache.hh"

using namespace nvsim;

namespace
{

/** Dumb reference cache: map from set to a vector of (tag, dirty). */
class RefCache
{
  public:
    RefCache(std::uint64_t sets, unsigned ways)
        : sets_(sets), ways_(ways)
    {
    }

    struct Line
    {
        std::uint64_t tag;
        bool dirty;
        std::uint64_t lru;
    };

    /** Returns (hit, victim_dirty). */
    std::pair<bool, bool>
    access(Addr addr, bool is_write)
    {
        std::uint64_t set = lineIndex(addr) % sets_;
        std::uint64_t tag = lineIndex(addr) / sets_;
        auto &lines = store_[set];
        for (auto &l : lines) {
            if (l.tag == tag) {
                if (is_write)
                    l.dirty = true;
                l.lru = ++clock_;
                return {true, false};
            }
        }
        bool victim_dirty = false;
        if (lines.size() >= ways_) {
            std::size_t victim = 0;
            for (std::size_t i = 1; i < lines.size(); ++i) {
                if (lines[i].lru < lines[victim].lru)
                    victim = i;
            }
            victim_dirty = lines[victim].dirty;
            lines.erase(lines.begin() + static_cast<long>(victim));
        }
        lines.push_back({tag, is_write, ++clock_});
        return {false, victim_dirty};
    }

    bool
    resident(Addr addr) const
    {
        std::uint64_t set = lineIndex(addr) % sets_;
        std::uint64_t tag = lineIndex(addr) / sets_;
        auto it = store_.find(set);
        if (it == store_.end())
            return false;
        for (const auto &l : it->second) {
            if (l.tag == tag)
                return true;
        }
        return false;
    }

  private:
    std::uint64_t sets_;
    unsigned ways_;
    std::uint64_t clock_ = 0;
    std::map<std::uint64_t, std::vector<Line>> store_;
};

} // namespace

class CacheVsReference
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheVsReference, RandomStreamAgrees)
{
    auto [ways, addr_space_lines] = GetParam();
    DramCacheParams p;
    p.capacity = 256 * kLineSize;
    p.ways = ways;
    p.ddo.mode = DdoMode::None;  // DDO changes actions, not state
    DramCache cache(p);
    RefCache ref(cache.numSets(), ways);

    Rng rng(40 + ways);
    for (int i = 0; i < 50000; ++i) {
        Addr addr = rng.below(addr_space_lines) * kLineSize;
        bool is_write = rng.below(3) == 0;

        auto [ref_hit, ref_victim_dirty] = ref.access(addr, is_write);
        CacheResult r = is_write ? cache.write(addr) : cache.read(addr);

        bool model_hit = r.outcome == CacheOutcome::Hit;
        ASSERT_EQ(model_hit, ref_hit) << "step " << i;
        if (!model_hit) {
            bool model_victim_dirty =
                r.outcome == CacheOutcome::MissDirty;
            ASSERT_EQ(model_victim_dirty, ref_victim_dirty)
                << "step " << i;
        }
        // Post-state: the accessed line is resident in both.
        ASSERT_TRUE(cache.resident(addr));
        ASSERT_TRUE(ref.resident(addr));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheVsReference,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(128u, 512u, 4096u)));

TEST(CacheVsReference, DdoPreservesStateAgreement)
{
    // With the tracker enabled, outcomes may differ (DdoHit instead of
    // Hit) but residency and dirtiness must match the reference.
    DramCacheParams p;
    p.capacity = 128 * kLineSize;
    p.ddo.mode = DdoMode::RecentTracker;
    p.ddo.trackerEntries = 64;
    DramCache cache(p);
    RefCache ref(cache.numSets(), 1);

    Rng rng(7);
    for (int i = 0; i < 50000; ++i) {
        Addr addr = rng.below(400) * kLineSize;
        bool is_write = rng.below(2) == 0;
        auto [ref_hit, ref_dirty] = ref.access(addr, is_write);
        (void)ref_hit;
        (void)ref_dirty;
        CacheResult r = is_write ? cache.write(addr) : cache.read(addr);
        (void)r;
        ASSERT_EQ(cache.resident(addr), ref.resident(addr))
            << "step " << i;
        if (is_write) {
            ASSERT_TRUE(cache.residentDirty(addr)) << "step " << i;
        }
    }
}
