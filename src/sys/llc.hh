/**
 * @file
 * Last-level cache model.
 *
 * A set-associative writeback LLC with LRU replacement. Loads and
 * standard stores (which perform a read-for-ownership) allocate lines;
 * dirty evictions become LLC writes to the IMC. Nontemporal stores
 * bypass the LLC entirely — the paper leans on them to expose raw IMC
 * behavior — but must invalidate any cached copy to stay coherent.
 */

#ifndef NVSIM_SYS_LLC_HH
#define NVSIM_SYS_LLC_HH

#include <cstdint>
#include <vector>

#include "core/types.hh"

namespace nvsim
{

/** LLC configuration. */
struct LlcParams
{
    Bytes capacity = 33 * kMiB;
    unsigned ways = 11;
};

/** What one LLC access produced. */
struct LlcResult
{
    bool hit = false;
    bool missed = false;          //!< an LLC read must go downstream
    bool evictedDirty = false;    //!< a dirty victim must be written back
    Addr victim = 0;              //!< line address of the dirty victim
};

/** Set-associative writeback LLC. */
class Llc
{
  public:
    explicit Llc(const LlcParams &params);

    /**
     * Load or standard store to the line at @p addr. Stores allocate
     * via RFO, exactly like loads, and mark the line dirty.
     */
    LlcResult access(Addr addr, bool is_store);

    /**
     * Nontemporal store: no allocation; invalidates a cached copy
     * (without writeback — the store supersedes the data).
     */
    void invalidateLine(Addr addr);

    /** Is the line resident? */
    bool resident(Addr addr) const;

    /** Drop everything without writebacks. */
    void invalidateAll();

    /**
     * Evict every dirty line, invoking @p writeback(line_addr) on each,
     * then invalidate all. Used to quiesce between benchmark phases.
     */
    template <typename F>
    void
    flush(F &&writeback)
    {
        for (std::uint64_t set = 0; set < numSets_; ++set) {
            for (unsigned w = 0; w < ways_; ++w) {
                const std::uint64_t i = set * ways_ + w;
                if (tag_[i] != kEmptyTag && dirty_[i])
                    writeback(addrOf(set, tag_[i]));
            }
        }
        invalidateAll();
    }

    std::uint64_t numSets() const { return numSets_; }
    Bytes capacity() const { return numSets_ * ways_ * kLineSize; }

    /** @name Always-on access statistics (read by the obs layer) */
    ///@{
    std::uint64_t hitCount() const { return hits_; }
    std::uint64_t missCount() const { return misses_; }
    std::uint64_t dirtyEvictionCount() const { return dirtyEvictions_; }
    std::uint64_t ntInvalidateCount() const { return ntInvalidates_; }
    void
    resetStats()
    {
        hits_ = misses_ = dirtyEvictions_ = ntInvalidates_ = 0;
    }
    ///@}

  private:
    /**
     * Tag of an empty way. Real tags are lineIndex / numSets_, far
     * below 2^64, so the all-ones word is never a live tag and the
     * probe needs no separate valid flag.
     */
    static constexpr std::uint64_t kEmptyTag = ~std::uint64_t{0};

    /**
     * One division decomposes the line index into (set, tag): the
     * compiler derives the remainder from the quotient, where separate
     * setOf()/tagOf() calls would each pay a 64-bit divide on this
     * hottest of paths.
     */
    void
    splitAddr(Addr addr, std::uint64_t &set, std::uint64_t &tag) const
    {
        std::uint64_t idx = lineIndex(addr);
        tag = idx / numSets_;
        set = idx - tag * numSets_;
    }
    std::uint64_t setOf(Addr addr) const { return lineIndex(addr) % numSets_; }
    std::uint64_t tagOf(Addr addr) const { return lineIndex(addr) / numSets_; }
    Addr
    addrOf(std::uint64_t set, std::uint64_t tag) const
    {
        return (tag * numSets_ + set) * kLineSize;
    }

    unsigned ways_;
    std::uint64_t numSets_;
    // Way state as parallel arrays, numSets_ * ways_ entries each: the
    // one-pass probe in access() streams the set's tags and ranks
    // without striding over padded structs.
    std::vector<std::uint64_t> tag_;
    /**
     * Replacement rank: the way's u32 LRU stamp + 1, or 0 when empty,
     * so the minimum rank is the first empty way, else the least
     * recently used one — the victim rule — with no validity test in
     * the probe. Widened to u64 so stamp 0xffffffff still ranks above
     * an empty way.
     */
    std::vector<std::uint64_t> rank_;
    std::vector<std::uint8_t> dirty_;
    std::uint32_t lruClock_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t dirtyEvictions_ = 0;
    std::uint64_t ntInvalidates_ = 0;  //!< nontemporal-store coherence kills
};

} // namespace nvsim

#endif // NVSIM_SYS_LLC_HH
