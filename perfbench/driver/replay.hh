/**
 * @file
 * Standalone replays of the layers submit() hides, fed with a
 * workload's own stream (stream.hh), each layer timed on its own.
 *
 * LayerReplay rebuilds the reference per-line engine of MemorySystem
 * from the layers' public classes: Llc, MemorySystem::translate, the
 * channel interleave, the cache policy from CachePolicyRegistry, a
 * standalone DDO tracker, NvramDevice and ChannelTxQueue. It models a
 * fault-free, maintenance-free, unobserved system, which is what every
 * workload runs. The stages run one epoch at a time: the LLC stage
 * turns the epoch's lines into controller requests, and each later
 * stage consumes the previous stage's output for that epoch, so the
 * host time of one layer never includes another's.
 *
 * Besides host time, every stage counts its work in the measured phase
 * (after the stream's last resetCounters()), in PerfCounters fields, so
 * the counts can be set beside the real run's.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "imc/cache_policy.hh"
#include "imc/counters.hh"
#include "imc/ddo.hh"
#include "imc/scheduler.hh"
#include "mem/nvram.hh"
#include "stream.hh"
#include "sys/llc.hh"
#include "sys/memsys.hh"

namespace perfbench
{

/** Host seconds and operation counts of one replayed layer. */
struct LayerCost
{
    double seconds = 0;
    std::uint64_t ops = 0;

    double nsPerOp() const { return ops ? seconds * 1e9 / ops : 0; }
    LayerCost &
    operator+=(const LayerCost &o)
    {
        seconds += o.seconds;
        ops += o.ops;
        return *this;
    }
};

/** What a LayerReplay measured. */
struct ReplayTotals
{
    LayerCost llc;        //!< Llc::access / invalidateLine / flush, per line
    LayerCost translate;  //!< MemorySystem::translate, per request
    LayerCost policy;     //!< CachePolicy::read / write, per request
    LayerCost ddo;        //!< DdoPolicy check / insert / evict, per call
    LayerCost nvram;      //!< NvramDevice calls, per 64 B line
    LayerCost sched;      //!< ChannelTxQueue enqueue + drain, per transaction

    /** Measured-phase LLC accesses that hit / missed. */
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    /** Measured-phase counts, in the real run's counter fields. */
    nvsim::PerfCounters counters;
    /** Measured-phase DDO checks the standalone tracker matched. */
    std::uint64_t ddoMatches = 0;
    /** Media write amplification over the replayed devices' lifetime. */
    double nvramWriteAmp = 0;

    ReplayTotals &operator+=(const ReplayTotals &o);
};

/** The replayed layers of one simulated system. */
class LayerReplay
{
  public:
    explicit LayerReplay(const nvsim::SystemConfig &config);
    ~LayerReplay();

    LayerReplay(const LayerReplay &) = delete;
    LayerReplay &operator=(const LayerReplay &) = delete;

    /** Replay @p stream from the system's current state. */
    void run(const Stream &stream);

    /** Totals so far; nvramWriteAmp is computed on each call. */
    ReplayTotals totals() const;

  private:
    struct Line;
    struct Request;
    struct DdoOp;
    struct NvramOp;
    struct Channel;

    void pushLine(std::uint16_t thread, nvsim::CpuOp op, nvsim::Addr line);
    void runLayers(bool flush);
    void closeEpoch();
    void resetCounts();

    void llcStage(bool flush);
    void translateStage();
    void policyStage();
    void deriveDownstream();
    void ddoStage();
    void nvramStage();
    void schedStage();
    void drainQueues();

    nvsim::SystemConfig config_;
    nvsim::ChannelParams params_;
    nvsim::DeviceLatencies lat_;
    bool twoLm_;
    bool queued_;
    nvsim::Bytes dramPool_ = 0;
    nvsim::Llc llc_;
    std::unique_ptr<nvsim::MemorySystem> translator_;
    std::vector<Channel> channels_;

    unsigned activeThreads_ = 1;
    nvsim::Bytes epochDemand_ = 0;
    bool epochHasRequests_ = false;

    std::vector<Line> lines_;
    std::vector<Request> requests_;
    std::vector<nvsim::CacheResult> results_;
    std::vector<DdoOp> ddoOps_;
    std::vector<NvramOp> nvramOps_;
    std::vector<nvsim::Transaction> txs_;
    std::vector<std::uint32_t> txChannel_;

    ReplayTotals totals_;
};

/**
 * Drive @p stream through @p sys's public API. Every call that closes
 * a timing epoch is timed on its own: a submit is split so that the
 * line reaching the epoch size goes alone, and advanceEpoch(),
 * quiesce(), resetCounters() and thread-count changes are timed whole.
 * Returns the host seconds of those calls.
 */
double driveStream(nvsim::MemorySystem &sys, const Stream &stream);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
