#include "imc/scheduler.hh"

#include <algorithm>
#include <string>

#include "core/logging.hh"

namespace nvsim
{

const char *
transactionKindName(TransactionKind kind)
{
    switch (kind) {
      case TransactionKind::Read:
        return "read";
      case TransactionKind::Write:
        return "write";
    }
    return "?";
}

void
ControllerConfig::validate() const
{
    ChannelSchedulerRegistry::instance().at(scheduler);  // fatal when unknown
    if (!queued())
        return;
    if (readQueueEntries == 0 || writeQueueEntries == 0)
        fatal("controller queue entries must be nonzero");
    if (readQueueEntries > kMaxQueueEntries ||
        writeQueueEntries > kMaxQueueEntries)
        fatal("controller queue entries must be at most %u (got read=%u "
              "write=%u)",
              kMaxQueueEntries, readQueueEntries, writeQueueEntries);
    if (banks == 0)
        fatal("controller banks must be nonzero");
    if (rowBytes < kLineSize)
        fatal("controller rowBytes must be at least one line (%llu B)",
              static_cast<unsigned long long>(kLineSize));
    if (drainLowWatermark >= drainHighWatermark)
        fatal("controller drain watermarks must satisfy low < high "
              "(got low=%u high=%u)",
              drainLowWatermark, drainHighWatermark);
    if (drainHighWatermark > writeQueueEntries)
        fatal("controller drainHighWatermark (%u) exceeds WPQ entries "
              "(%u)",
              drainHighWatermark, writeQueueEntries);
    if (starvationCap == 0)
        fatal("controller starvationCap must be nonzero");
    if (bankConflictPenalty < 0)
        fatal("controller bankConflictPenalty must be nonnegative");
    if (offeredGBs < 0)
        fatal("controller offeredGBs must be nonnegative");
}

namespace
{

/**
 * Strict arrival order across both queues: the oldest transaction in
 * the channel issues next, reads and writes alike. The baseline that
 * makes the cost of not draining writes opportunistically visible.
 */
class FcfsScheduler : public ChannelScheduler
{
  public:
    const char *kindName() const override { return "fcfs"; }

    SchedulerPick
    pick(const TxRing &reads, const TxRing &writes, bool,
         const std::vector<BankState> &, const ControllerConfig &) override
    {
        if (reads.empty())
            return {true, 0};
        if (writes.empty())
            return {false, 0};
        return reads[0].seq < writes[0].seq
                   ? SchedulerPick{false, 0}
                   : SchedulerPick{true, 0};
    }
};

/**
 * Reads first; the WPQ only issues while a drain burst is active
 * (high/low watermark hysteresis, maintained by the queue engine) or
 * when no read is waiting. The Cascade Lake-style posted-write model.
 */
class ReadPriorityScheduler : public ChannelScheduler
{
  public:
    const char *kindName() const override { return "read_priority"; }

    SchedulerPick
    pick(const TxRing &reads, const TxRing &writes, bool draining,
         const std::vector<BankState> &, const ControllerConfig &) override
    {
        if (!writes.empty() && (draining || reads.empty()))
            return {true, 0};
        return {false, 0};
    }
};

/**
 * First-ready FCFS: choose the queue like read_priority, then within
 * the queue prefer the oldest transaction targeting an open row. A
 * request bypassed starvationCap times must issue next, so row-hit
 * streams cannot starve an unlucky bank forever.
 */
class FrfcfsScheduler : public ChannelScheduler
{
  public:
    const char *kindName() const override { return "frfcfs"; }

    SchedulerPick
    pick(const TxRing &reads, const TxRing &writes, bool draining,
         const std::vector<BankState> &banks,
         const ControllerConfig &cfg) override
    {
        const bool from_writes =
            !writes.empty() && (draining || reads.empty());
        const TxRing &q = from_writes ? writes : reads;
        if (q[0].bypassed >= cfg.starvationCap)
            return {from_writes, 0};
        // A row key names its bank, so a key equal to the bank's open
        // key is a hit; a closed bank's kClosed matches no key.
        for (std::size_t i = 0; i < q.size(); ++i) {
            if (banks[q.bank(i)].openKey == q.key(i))
                return {from_writes, i};
        }
        return {from_writes, 0};
    }
};

template <class S>
std::unique_ptr<ChannelScheduler>
make(const ControllerConfig &)
{
    return std::make_unique<S>();
}

/** The analytic entry builds no queue engine at all. */
std::unique_ptr<ChannelScheduler>
makeNone(const ControllerConfig &)
{
    return nullptr;
}

} // namespace

const ChannelSchedulerRegistry &
ChannelSchedulerRegistry::instance()
{
    static const ChannelSchedulerRegistry reg(
        "channel scheduler",
        {{"analytic",
          "degenerate pass-through: no queues, the fixed-cost "
          "Table I model (byte-identical to pre-queue behavior)",
          makeNone},
         {"fcfs", "strict arrival order across the read queue and WPQ",
          make<FcfsScheduler>},
         {"read_priority",
          "reads first; WPQ drains in high/low watermark bursts",
          make<ReadPriorityScheduler>},
         {"frfcfs",
          "first-ready FCFS: open-row hits first, with a "
          "starvation cap, over read-priority write drain",
          make<FrfcfsScheduler>}});
    return reg;
}

std::unique_ptr<ChannelScheduler>
ChannelSchedulerRegistry::create(const ControllerConfig &config) const
{
    return at(config.scheduler).factory(config);
}

namespace
{

/** Smallest power of two >= @p n (n >= 1). */
std::size_t
pow2Ceil(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

TxRing::TxRing(unsigned capacity)
    : entries_(pow2Ceil(capacity)),
      keys_(entries_.size()), banks_(entries_.size()),
      mask_(entries_.size() - 1)
{
}

TxRing::Entry &
TxRing::push(std::uint64_t key, std::uint32_t bank)
{
    const std::size_t s = slot(size_++);
    keys_[s] = key;
    banks_[s] = bank;
    entries_[s] = Entry{};
    return entries_[s];
}

void
TxRing::erase(std::size_t i)
{
    for (std::size_t j = i; j > 0; --j) {
        const std::size_t to = slot(j), from = slot(j - 1);
        entries_[to] = entries_[from];
        keys_[to] = keys_[from];
        banks_[to] = banks_[from];
    }
    head_ = (head_ + 1) & mask_;
    --size_;
}

ChannelTxQueue::ChannelTxQueue(const ControllerConfig &config,
                               double busBandwidth,
                               const RefreshConfig &refresh)
    : cfg_(config), busBandwidth_(busBandwidth), refresh_(refresh),
      sched_(ChannelSchedulerRegistry::instance().create(config)),
      reads_(config.readQueueEntries), writes_(config.writeQueueEntries),
      banks_(config.banks)
{
    if (!sched_)
        panic("ChannelTxQueue built for the analytic scheduler");
    if (refresh_.enabled())
        refreshAt_ = refresh_.trefi / cfg_.banks;
}

bool
ChannelTxQueue::willAccept(TransactionKind kind) const
{
    if (kind == TransactionKind::Read)
        return reads_.size() < cfg_.readQueueEntries;
    return writes_.size() < cfg_.writeQueueEntries;
}

void
ChannelTxQueue::setCompletionHandler(CompletionHandler handler)
{
    onComplete_ = std::move(handler);
}

void
ChannelTxQueue::applyRefresh(double t)
{
    if (!refresh_.enabled())
        return;
    // One REF per tREFI, rotated across the banks: each bank gets its
    // window every tREFI, offset by bank index — per-bank refresh
    // instead of the analytic epoch-mean duty stall.
    const double step = refresh_.trefi / cfg_.banks;
    while (refreshAt_ <= t) {
        BankState &b = banks_[refreshBank_];
        b.freeAt = std::max(b.freeAt, refreshAt_) + refresh_.trfc;
        b.openKey = BankState::kClosed;  // refresh closes the row
        refreshBank_ = (refreshBank_ + 1) % cfg_.banks;
        refreshAt_ += step;
    }
}

void
ChannelTxQueue::enqueue(const Transaction &tx)
{
    while (!willAccept(tx.kind))
        serviceOne();  // backpressure: arrival waits as queue latency

    TxRing &dest = tx.kind == TransactionKind::Read ? reads_ : writes_;
    const std::uint64_t key = tx.addr / cfg_.rowBytes;
    const auto depth = static_cast<std::uint32_t>(dest.size());
    TxRing::Entry &q =
        dest.push(key, static_cast<std::uint32_t>(key % cfg_.banks));
    q.tx = tx;
    q.seq = seq_++;
    q.depthAtEnqueue = depth;
    q.drainStalled = draining_;

    stats_.maxReadDepth = std::max(
        stats_.maxReadDepth, static_cast<std::uint32_t>(reads_.size()));
    stats_.maxWriteDepth = std::max(
        stats_.maxWriteDepth,
        static_cast<std::uint32_t>(writes_.size()));

    // Drain-burst hysteresis: enter at the high watermark; serviceOne()
    // exits at the low one. Reads arriving during the burst will wait
    // behind it, which is what drainStalled records.
    if (!draining_ && writes_.size() >= cfg_.drainHighWatermark) {
        draining_ = true;
        ++stats_.writeDrains;
        for (std::size_t i = 0; i < reads_.size(); ++i)
            reads_[i].drainStalled = true;
    }
}

void
ChannelTxQueue::serviceOne()
{
    if (reads_.empty() && writes_.empty())
        return;

    SchedulerPick p =
        sched_->pick(reads_, writes_, draining_, banks_, cfg_);
    TxRing &q = p.fromWrites ? writes_ : reads_;
    // A younger (or same-age, different-bank) request bypassed
    // everything ahead of it: count that against the starvation cap
    // of each passed-over transaction.
    for (std::size_t i = 0; i < p.index; ++i)
        ++q[i].bypassed;
    const TxRing::Entry &e = q[p.index];
    const Transaction tx = e.tx;
    const bool drain_stalled = e.drainStalled;
    const std::uint32_t depth = e.depthAtEnqueue;
    const std::uint64_t key = q.key(p.index);
    BankState &bank = banks_[q.bank(p.index)];
    q.erase(p.index);

    applyRefresh(std::max(clock_, tx.arrival));
    double start = std::max(std::max(clock_, tx.arrival),
                            std::max(busFreeAt_, bank.freeAt));

    const bool row_hit = bank.openKey == key;
    const double penalty = row_hit ? 0.0 : cfg_.bankConflictPenalty;
    const bool conflict = bank.openKey != BankState::kClosed && !row_hit;
    const double complete = start + penalty + tx.service;

    bank.freeAt = complete;
    bank.openKey = key;
    busFreeAt_ = start + static_cast<double>(kLineSize) / busBandwidth_;
    clock_ = start;

    if (tx.kind == TransactionKind::Read) {
        ++stats_.completedReads;
        stats_.readQueueWait += start - tx.arrival;
    } else {
        ++stats_.completedWrites;
        if (draining_ && writes_.size() <= cfg_.drainLowWatermark)
            draining_ = false;
    }
    if (row_hit)
        ++stats_.rowBufferHits;
    if (conflict)
        ++stats_.bankConflicts;

    if (onComplete_) {
        CompletionInfo info;
        info.enqueueTime = tx.arrival;
        info.issueTime = start;
        info.completeTime = complete;
        info.latency.service = tx.service;
        info.latency.queueWait = start - tx.arrival;
        info.latency.bankPenalty = penalty;
        info.rowBufferHit = row_hit;
        info.bankConflict = conflict;
        info.drainStalled = drain_stalled;
        info.queueDepth = depth;
        onComplete_(tx, info);
    }
}

void
ChannelTxQueue::tick(double until)
{
    while (!reads_.empty() || !writes_.empty()) {
        if (clock_ > until)
            break;
        serviceOne();
    }
}

void
ChannelTxQueue::drainAll()
{
    while (!reads_.empty() || !writes_.empty())
        serviceOne();
}

void
ChannelTxQueue::resetEpoch()
{
    if (!reads_.empty() || !writes_.empty())
        panic("ChannelTxQueue::resetEpoch with queued work pending");
    for (BankState &b : banks_)
        b = BankState{};
    clock_ = 0;
    busFreeAt_ = 0;
    refreshBank_ = 0;
    refreshAt_ = refresh_.enabled() ? refresh_.trefi / cfg_.banks : 0;
    seq_ = 0;
    draining_ = false;
}

TxQueueStats
ChannelTxQueue::takeStats()
{
    TxQueueStats out = stats_;
    stats_ = TxQueueStats{};
    return out;
}

} // namespace nvsim
