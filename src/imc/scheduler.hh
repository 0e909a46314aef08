/**
 * @file
 * Queued channel controller: per-channel read queue, write-pending
 * queue (WPQ) and bank-level parallelism state, with the scheduling
 * decision behind a string-keyed ChannelScheduler registry.
 *
 * The analytic model (the paper's Table I) prices every access at a
 * fixed sum of device latencies, so it cannot say what happens to p99
 * when a channel saturates. Here latency *emerges* from occupancy:
 * the MemorySystem enqueues Transactions whose `service` field is the
 * analytic device cost computed by the cache-policy seam, and the
 * queue engine composes queue wait, bus serialization, row-buffer
 * conflicts, WPQ drain bursts and per-bank refresh windows on top.
 * The queue-off limit is therefore exactly the analytic model — which
 * is also a registry entry ("analytic", the degenerate pass-through
 * scheduler that builds no queue at all), so queue-off runs stay
 * byte-identical to the checked-in goldens.
 *
 * Interface shape follows dramsim3/ramulator2: willAccept() is the
 * backpressure probe, enqueue() hands over a transaction, tick()
 * advances the clock, and a completion callback reports the
 * CompletionInfo timing story. Schedulers: fcfs, read_priority (with
 * write-drain high/low watermarks), frfcfs (row-hit first with a
 * starvation cap).
 */

#ifndef NVSIM_IMC_SCHEDULER_HH
#define NVSIM_IMC_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.hh"
#include "core/types.hh"
#include "imc/transaction.hh"
#include "mem/maintenance/maintenance.hh"

namespace nvsim
{

/**
 * The `controller` JSON config block: queued-mode selection and the
 * queue/bank/drain geometry. The default scheduler "analytic" is the
 * degenerate pass-through — no queues are built and every access path
 * behaves exactly as before, byte-for-byte.
 */
struct ControllerConfig
{
    /** Registry key; see ChannelSchedulerRegistry::names(). */
    std::string scheduler = "analytic";
    /** Largest read or write queue depth validate() accepts; each
     *  queue's storage is allocated up front at its configured depth. */
    static constexpr unsigned kMaxQueueEntries = 4096;

    /** Read-queue entries per channel. */
    unsigned readQueueEntries = 32;
    /** Write-pending-queue entries per channel. */
    unsigned writeQueueEntries = 64;
    /** Banks per channel (bank-level parallelism width). */
    unsigned banks = 16;
    /** Bytes per DRAM row (row-buffer hit granularity). */
    Bytes rowBytes = 8 * kKiB;
    /** WPQ occupancy that starts a write-drain burst. */
    unsigned drainHighWatermark = 48;
    /** WPQ occupancy at which a drain burst stops. */
    unsigned drainLowWatermark = 16;
    /** frfcfs: row hits may bypass an older request at most this many
     *  times before the older request must issue. */
    unsigned starvationCap = 8;
    /** Extra seconds a row-buffer conflict costs (precharge+activate). */
    double bankConflictPenalty = 30e-9;
    /**
     * Offered load in GB/s used to space transaction arrivals inside
     * an epoch. 0 derives it from the run's active thread count times
     * the per-thread issue bandwidth — i.e. the demand the analytic
     * model already assumes.
     */
    double offeredGBs = 0;

    /** Is a real queue engine in the path? */
    bool queued() const { return scheduler != "analytic"; }

    /** Reject unknown schedulers and nonsensical geometry. */
    void validate() const;
};

/** Open-row state of one bank, visible to schedulers. */
struct BankState
{
    /** openKey of a bank with no open row (reset, or refreshed). */
    static constexpr std::uint64_t kClosed = ~std::uint64_t{0};

    double freeAt = 0;  //!< busy until (epoch seconds)
    /** Row key (addr / rowBytes) of the open row, or kClosed. */
    std::uint64_t openKey = kClosed;
};

/**
 * One controller queue: a ring of staged transactions in arrival
 * order (index 0 is the oldest), sized once from the configured queue
 * depth and never resized. Each entry's row key -- addr / rowBytes,
 * which names bank and row at once -- and its bank sit in arrays
 * parallel to the payloads, so a scheduler's open-row scan reads two
 * flat arrays and never touches a payload. Erasing entry i shifts only
 * the i entries ahead of it; erasing the oldest is a head bump.
 */
class TxRing
{
  public:
    /** A staged transaction's payload. */
    struct Entry
    {
        Transaction tx;
        std::uint64_t seq = 0;  //!< arrival sequence, across both queues
        /** Times a younger request issued ahead of this one (frfcfs). */
        std::uint32_t bypassed = 0;
        /** Same-queue occupancy when this transaction arrived. */
        std::uint32_t depthAtEnqueue = 0;
        /** Spent time queued behind an active WPQ drain burst. */
        bool drainStalled = false;
    };

    /** A queue of @p capacity entries (at most kMaxQueueEntries, per
     *  ControllerConfig::validate()); the caller never pushes more. */
    explicit TxRing(unsigned capacity);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const Entry &operator[](std::size_t i) const
    {
        return entries_[slot(i)];
    }
    Entry &operator[](std::size_t i) { return entries_[slot(i)]; }

    /** Row key of entry @p i. */
    std::uint64_t key(std::size_t i) const { return keys_[slot(i)]; }
    /** Bank of entry @p i. */
    std::uint32_t bank(std::size_t i) const { return banks_[slot(i)]; }

    /** Append a new youngest entry with @p key / @p bank; the ring
     *  must not be full. */
    Entry &push(std::uint64_t key, std::uint32_t bank);

    /** Remove entry @p i; the entries ahead of it move up one slot. */
    void erase(std::size_t i);

  private:
    std::size_t slot(std::size_t i) const { return (head_ + i) & mask_; }

    std::vector<Entry> entries_;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint32_t> banks_;
    std::size_t mask_ = 0;  //!< slot count - 1 (a power of two)
    std::size_t head_ = 0;  //!< slot of entry 0
    std::size_t size_ = 0;
};

/** A scheduler's decision: which queue, which position. */
struct SchedulerPick
{
    bool fromWrites = false;
    std::size_t index = 0;
};

/**
 * The scheduling policy seam: given both queues, the drain-burst flag
 * and the bank state, choose the next transaction to issue. Called
 * only when at least one queue is non-empty; implementations must be
 * deterministic pure functions of their arguments.
 */
class ChannelScheduler
{
  public:
    virtual ~ChannelScheduler() = default;

    /** Registry key this scheduler was constructed under. */
    virtual const char *kindName() const = 0;

    virtual SchedulerPick pick(const TxRing &reads, const TxRing &writes,
                               bool draining,
                               const std::vector<BankState> &banks,
                               const ControllerConfig &cfg) = 0;
};

/**
 * The built-in schedulers, by name, in the same constant-table form as
 * CachePolicyRegistry. "analytic" has a factory that returns nullptr:
 * the controller interprets that as "build no queue engine", which is
 * the degenerate scheduler whose output is the analytic model itself.
 */
class ChannelSchedulerRegistry
    : public NameRegistry<std::unique_ptr<ChannelScheduler> (*)(
          const ControllerConfig &)>
{
  public:
    /** The process-wide table. */
    static const ChannelSchedulerRegistry &instance();

    /**
     * Construct @p config.scheduler. Unknown kinds are fatal, listing
     * the registered names. Returns nullptr for the degenerate
     * "analytic" entry.
     */
    std::unique_ptr<ChannelScheduler> create(
        const ControllerConfig &config) const;

    using NameRegistry::NameRegistry;
};

/** Queue-engine statistics, harvested into PerfCounters per epoch. */
struct TxQueueStats
{
    double readQueueWait = 0;  //!< summed read enqueue-to-issue seconds
    std::uint64_t bankConflicts = 0;
    std::uint64_t rowBufferHits = 0;
    std::uint64_t writeDrains = 0;  //!< drain bursts entered
    std::uint64_t completedReads = 0;
    std::uint64_t completedWrites = 0;
    std::uint32_t maxReadDepth = 0;
    std::uint32_t maxWriteDepth = 0;
};

/**
 * One channel's queue engine. Single-threaded, like the controller
 * that owns it: the MemorySystem drives it from the deterministic
 * epoch-end drain, so queued-mode output is byte-identical at any
 * --jobs by construction.
 *
 * Time model: the engine keeps an epoch-relative clock. enqueue()
 * advances it to the transaction's arrival and, when the target queue
 * is full, services queued work first — backpressure surfaces as
 * queue wait, exactly the WillAcceptTransaction contract. Each issue
 * start is max(clock, bus free, bank free, arrival); a row mismatch
 * adds the conflict penalty; refresh blocks one bank per tREFI/banks
 * in a staggered round-robin (per-bank refresh windows, not the
 * analytic epoch-mean stall).
 */
class ChannelTxQueue
{
  public:
    ChannelTxQueue(const ControllerConfig &config, double busBandwidth,
                   const RefreshConfig &refresh);

    /** Backpressure probe: room in @p kind's queue right now? */
    bool willAccept(TransactionKind kind) const;

    /**
     * Hand over a transaction. Advances the clock to tx.arrival; when
     * the target queue is full, services queued transactions until a
     * slot frees (their completions fire from inside this call).
     */
    void enqueue(const Transaction &tx);

    /** Service queued transactions whose issue time is <= @p until. */
    void tick(double until);

    /** Service everything queued (epoch barrier / quiesce). */
    void drainAll();

    /** Completion callback; fires once per transaction, issue order. */
    void setCompletionHandler(CompletionHandler handler);

    /**
     * Reset the epoch-relative time state (clock, bus, banks, refresh
     * cadence) after a full drain; queued-but-unserved work would be
     * orphaned, so callers drainAll() first. Stats are preserved.
     */
    void resetEpoch();

    /** Harvest and zero the accumulated statistics. */
    TxQueueStats takeStats();

    std::size_t readDepth() const { return reads_.size(); }
    std::size_t writeDepth() const { return writes_.size(); }
    bool draining() const { return draining_; }
    double clock() const { return clock_; }

  private:
    /** Issue the scheduler's next pick; fires its completion. */
    void serviceOne();

    /** Apply staggered per-bank refresh events up to time @p t. */
    void applyRefresh(double t);

    ControllerConfig cfg_;
    double busBandwidth_;
    RefreshConfig refresh_;
    std::unique_ptr<ChannelScheduler> sched_;
    CompletionHandler onComplete_;

    TxRing reads_;
    TxRing writes_;
    std::vector<BankState> banks_;
    double clock_ = 0;        //!< last issue start (epoch seconds)
    double busFreeAt_ = 0;
    double refreshAt_ = 0;    //!< next staggered refresh event time
    std::uint32_t refreshBank_ = 0;
    std::uint64_t seq_ = 0;
    bool draining_ = false;

    TxQueueStats stats_;
};

} // namespace nvsim

#endif // NVSIM_IMC_SCHEDULER_HH
