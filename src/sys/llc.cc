#include "sys/llc.hh"

#include <algorithm>

#include "core/logging.hh"

namespace nvsim
{

Llc::Llc(const LlcParams &params)
    : ways_(params.ways ? params.ways : 1),
      numSets_(params.capacity / kLineSize / ways_)
{
    if (numSets_ == 0)
        numSets_ = 1;
    tag_.assign(numSets_ * ways_, kEmptyTag);
    rank_.assign(numSets_ * ways_, 0);
    dirty_.assign(numSets_ * ways_, 0);
}

LlcResult
Llc::access(Addr addr, bool is_store)
{
    std::uint64_t set, tag;
    splitAddr(addr, set, tag);
    const std::uint64_t base = set * ways_;
    const std::uint64_t *tags = &tag_[base];
    const std::uint64_t *rank = &rank_[base];

    // One pass, no data-dependent branches: the hit way (tags are
    // unique within a set and never kEmptyTag, so at most one way
    // matches and the sum of match * way is its index), and the
    // victim, the first way of minimum rank (see rank_).
    unsigned found = 0;
    unsigned hit_way = 0;
    unsigned victim = 0;
    std::uint64_t best = ~std::uint64_t{0};
    for (unsigned w = 0; w < ways_; ++w) {
        const unsigned match = tags[w] == tag;
        found |= match;
        hit_way += match * w;
        const bool older = rank[w] < best;
        victim = older ? w : victim;
        best = older ? rank[w] : best;
    }

    LlcResult result;
    std::uint64_t way;
    if (found) {
        result.hit = true;
        ++hits_;
        way = base + hit_way;
    } else {
        result.missed = true;
        ++misses_;
        way = base + victim;
        if (tag_[way] != kEmptyTag && dirty_[way]) {
            result.evictedDirty = true;
            ++dirtyEvictions_;
            result.victim = addrOf(set, tag_[way]);
        }
        tag_[way] = tag;
        dirty_[way] = 0;
    }
    if (is_store)
        dirty_[way] = 1;
    rank_[way] = std::uint64_t{++lruClock_} + 1;
    return result;
}

void
Llc::invalidateLine(Addr addr)
{
    std::uint64_t set, tag;
    splitAddr(addr, set, tag);
    const std::uint64_t base = set * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        if (tag_[base + w] == tag) {
            tag_[base + w] = kEmptyTag;
            rank_[base + w] = 0;
            dirty_[base + w] = 0;
            ++ntInvalidates_;
            return;
        }
    }
}

bool
Llc::resident(Addr addr) const
{
    std::uint64_t set = setOf(addr);
    std::uint64_t tag = tagOf(addr);
    const std::uint64_t *tags = &tag_[set * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (tags[w] == tag)
            return true;
    }
    return false;
}

void
Llc::invalidateAll()
{
    std::fill(tag_.begin(), tag_.end(), kEmptyTag);
    std::fill(rank_.begin(), rank_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
}

} // namespace nvsim
