/**
 * @file
 * Log2-bucketed histogram for the observability layer.
 *
 * Bucket layout: the first `linear` buckets hold exact values
 * 0..linear-1; beyond that each bucket spans one power of two, so the
 * histogram covers many decades in O(tens) of buckets — the classic
 * latency-histogram layout. The last bucket is an open-ended overflow.
 * `linear` must be a power of two; the default (2) gives the plain
 * log2 layout 0, 1, [2,4), [4,8), ... Raising it (e.g. 16 for
 * device-access counts) keeps small integer values exact.
 */

#ifndef NVSIM_OBS_HISTOGRAM_HH
#define NVSIM_OBS_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace nvsim::obs
{

/** Log2-bucketed histogram over non-negative integer samples. */
class Log2Histogram
{
  public:
    explicit Log2Histogram(unsigned num_buckets = 32, unsigned linear = 2);

    /** Record @p count occurrences of @p value. */
    void sample(std::uint64_t value, std::uint64_t count = 1);

    /** Bucket index @p value falls into. */
    unsigned bucketFor(std::uint64_t value) const;

    /** Inclusive lower bound of bucket @p i. */
    std::uint64_t bucketLow(unsigned i) const;

    /**
     * Exclusive upper bound of bucket @p i; UINT64_MAX for the
     * overflow bucket.
     */
    std::uint64_t bucketHigh(unsigned i) const;

    /** Element-wise merge; the layouts must match (panics otherwise). */
    void merge(const Log2Histogram &o);

    void reset();

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    /** Smallest / largest sampled value (0 when empty). */
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const;

    unsigned numBuckets() const
    {
        return static_cast<unsigned>(buckets_.size());
    }
    std::uint64_t bucketCount(unsigned i) const { return buckets_[i]; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /** Compact one-line summary for console output. */
    std::string summary() const;

  private:
    unsigned linear_;
    unsigned linearLog2_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace nvsim::obs

#endif // NVSIM_OBS_HISTOGRAM_HH
