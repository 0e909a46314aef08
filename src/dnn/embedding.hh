/**
 * @file
 * DLRM-style embedding workload.
 *
 * The paper's introduction motivates NVRAM capacity with recommendation
 * models (DLRM) whose embedding tables reach hundreds of gigabytes, and
 * cites Eisenman et al.'s Bandana, which stores such tables on NVM.
 * This workload reproduces that access pattern as an extension
 * experiment: per sample, a handful of pooled sparse lookups gather
 * 256 B rows (one Optane media block each) from huge tables under a
 * Zipf popularity distribution, followed by dense MLP compute.
 *
 * Three deployments mirror the paper's overall argument:
 *  - 2LM: tables behind the hardware DRAM cache (inserts on every
 *    missed gather pollute the cache; trained updates dirty it);
 *  - 1LM app direct: tables read in place from NVRAM;
 *  - software-cached: the popular head of each table is pinned in
 *    DRAM, the cold tail stays in NVRAM (Bandana's approach).
 */

#ifndef NVSIM_DNN_EMBEDDING_HH
#define NVSIM_DNN_EMBEDDING_HH

#include <vector>

#include "imc/counters.hh"
#include "sys/memsys.hh"

namespace nvsim::dnn
{

/** How the embedding tables are placed. */
enum class EmbeddingPlacement : std::uint8_t {
    TwoLm,          //!< memory mode, hardware managed
    AppDirect,      //!< 1LM, tables in NVRAM, accessed in place
    SoftwareCached, //!< 1LM, hot rows pinned in DRAM, cold in NVRAM
};

const char *embeddingPlacementName(EmbeddingPlacement placement);

/** Workload parameters. */
struct EmbeddingConfig
{
    unsigned numTables = 8;
    std::uint64_t rowsPerTable = 1u << 16;
    unsigned rowBytes = 256;       //!< one Optane media block
    unsigned lookupsPerSample = 4; //!< pooled lookups per table
    unsigned batch = 256;          //!< samples per batch
    unsigned threads = 24;
    /**
     * Popularity skew: row = rows * u^skew. Larger values concentrate
     * traffic on the head of each table (approximate Zipf).
     */
    double skew = 3.0;
    /** Fraction of rows (hottest first) pinned in DRAM when software
     *  cached. */
    double hotFraction = 0.1;
    /** Training: scatter a gradient update back to each gathered row. */
    bool updateRows = false;
    /** Dense-MLP FLOPs per sample (scaled by the system scale). */
    double mlpFlopsPerSample = 4e6;
    std::uint64_t seed = 1;

    Bytes
    tableBytes() const
    {
        return static_cast<Bytes>(rowsPerTable) * rowBytes;
    }
};

/** Result of one batch run. */
struct EmbeddingResult
{
    double seconds = 0;
    std::uint64_t lookups = 0;
    PerfCounters counters;
    double hotHitFraction = 0;  //!< lookups served from the DRAM head

    double
    lookupsPerSecond() const
    {
        return seconds > 0 ? static_cast<double>(lookups) / seconds : 0;
    }
};

/** One embedding deployment bound to a machine. */
class EmbeddingWorkload
{
  public:
    /**
     * Allocates the tables according to @p placement. The machine's
     * mode must agree (TwoLm vs OneLm).
     */
    EmbeddingWorkload(MemorySystem &sys, const EmbeddingConfig &config,
                      EmbeddingPlacement placement);

    /** Run one batch of pooled lookups (+ optional updates) + MLP. */
    EmbeddingResult runBatch();

    EmbeddingPlacement placement() const { return placement_; }
    const EmbeddingConfig &config() const { return config_; }

  private:
    /** Base address of @p row in @p table, honoring the placement. */
    Addr rowAddr(unsigned table, std::uint64_t row) const;

    MemorySystem &sys_;
    EmbeddingConfig config_;
    EmbeddingPlacement placement_;
    std::uint64_t hotRows_ = 0;
    std::vector<Region> tables_;     //!< cold/full tables
    std::vector<Region> hotHeads_;   //!< DRAM-pinned heads
    std::uint64_t rngState_;
};

} // namespace nvsim::dnn

#endif // NVSIM_DNN_EMBEDDING_HH
