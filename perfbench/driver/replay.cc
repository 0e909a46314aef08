#include "replay.hh"

#include <cmath>
#include <stdexcept>

#include "probe.hh"

namespace perfbench
{

using namespace nvsim;

/** One demand line as the workload touched it. */
struct LayerReplay::Line
{
    Addr addr = 0;
    std::uint16_t thread = 0;
    CpuOp op = CpuOp::Load;
};

/** One LLC outcome on its way to a channel (kind 0 = LLC hit). */
struct LayerReplay::Request
{
    Addr addr = 0;   //!< virtual line address, then physical
    Addr local = 0;  //!< channel-local line address
    std::uint32_t ch = 0;
    std::uint16_t thread = 0;
    std::uint8_t kind = 0;  //!< 0 = LLC hit, 1 = read, 2 = write
    MemPool pool = MemPool::Nvram;
};

/** One call into a channel's DDO tracker. */
struct LayerReplay::DdoOp
{
    Addr line = 0;
    std::uint32_t ch = 0;
    std::uint8_t kind = 0;  //!< 0 = check, 1 = insert, 2 = evict
    bool resident = false;
};

/** One call into a channel's NVRAM device, over @c lines lines. */
struct LayerReplay::NvramOp
{
    Addr addr = 0;
    std::uint64_t lines = 1;
    std::uint32_t ch = 0;
    std::uint16_t thread = 0;
    bool write = false;
};

/** The per-channel replayed components. */
struct LayerReplay::Channel
{
    std::unique_ptr<CachePolicy> policy;  //!< 2LM only
    std::unique_ptr<DdoPolicy> ddo;       //!< 2LM only
    std::vector<Addr> resident;  //!< per set: line + 1, or 0 (1 way)
    std::unique_ptr<NvramDevice> nvram;
    std::unique_ptr<ChannelTxQueue> queue;  //!< queued controller only
};

ReplayTotals &
ReplayTotals::operator+=(const ReplayTotals &o)
{
    llc += o.llc;
    translate += o.translate;
    policy += o.policy;
    ddo += o.ddo;
    nvram += o.nvram;
    sched += o.sched;
    llcHits += o.llcHits;
    llcMisses += o.llcMisses;
    counters += o.counters;
    ddoMatches += o.ddoMatches;
    return *this;
}

LayerReplay::LayerReplay(const SystemConfig &config)
    : config_(config), params_(config.channelParams()),
      lat_(deviceLatencies(params_)),
      twoLm_(config.mode == MemoryMode::TwoLm),
      queued_(config.controller.queued()),
      llc_(LlcParams{config.scaledLlc(), config.llcWays}),
      translator_(makeSystem(config))
{
    if (config.fault.enabled() || config.maintenance.enabled())
        throw std::runtime_error(
            "layer replay models fault- and maintenance-free systems");
    if (!twoLm_)
        dramPool_ = config.dramTotal();
    channels_.resize(config.totalChannels());
    for (Channel &ch : channels_) {
        if (twoLm_) {
            ch.policy = CachePolicyRegistry::instance().create(
                DramCacheParams{params_.dram.capacity, params_.ddo,
                                params_.cacheWays,
                                params_.insertOnWriteMiss},
                params_.policy);
            if (ch.policy->ways() != 1)
                throw std::runtime_error(
                    "layer replay's DDO stage needs a 1-way DRAM cache");
            ch.ddo = DdoPolicy::create(params_.ddo);
            ch.resident.assign(ch.policy->numSets(), 0);
        }
        ch.nvram = std::make_unique<NvramDevice>(params_.nvram);
        if (queued_) {
            ch.queue = std::make_unique<ChannelTxQueue>(
                params_.controller, params_.busBandwidth,
                params_.maintenance.refresh);
            ch.queue->setCompletionHandler(
                [](const Transaction &, const CompletionInfo &) {});
        }
    }
}

LayerReplay::~LayerReplay() = default;

void
LayerReplay::run(const Stream &stream)
{
    for (const Event &e : stream) {
        switch (e.kind) {
          case Event::Kind::Submit: {
            Addr first = lineBase(e.addr);
            Addr last = lineBase(e.addr + (e.size ? e.size - 1 : 0));
            for (Addr a = first; a <= last; a += kLineSize)
                pushLine(e.thread, e.op, a);
            break;
          }
          case Event::Kind::Touch:
            for (Bytes off = 0; off < e.size; off += kLineSize)
                pushLine(e.thread, e.op, lineBase(e.addr + off));
            break;
          case Event::Kind::Threads:
            if (e.count != activeThreads_) {
                closeEpoch();
                activeThreads_ = e.count;
            }
            break;
          case Event::Kind::Compute:
            break;
          case Event::Kind::Epoch:
            closeEpoch();
            break;
          case Event::Kind::Quiesce: {
            runLayers(/*flush=*/true);
            double t0 = hostNow();
            for (Channel &ch : channels_)
                ch.nvram->flushWpq();
            totals_.nvram.seconds += hostNow() - t0;
            closeEpoch();
            break;
          }
          case Event::Kind::Reset:
            closeEpoch();
            resetCounts();
            break;
        }
    }
}

void
LayerReplay::pushLine(std::uint16_t thread, CpuOp op, Addr line)
{
    lines_.push_back({line, thread, op});
    epochDemand_ += kLineSize;
    if (epochDemand_ >= config_.epochBytes)
        closeEpoch();
}

void
LayerReplay::resetCounts()
{
    totals_.counters = PerfCounters{};
    llc_.resetStats();
    totals_.ddoMatches = 0;
}

void
LayerReplay::closeEpoch()
{
    runLayers(/*flush=*/false);
    if (queued_ && epochHasRequests_)
        drainQueues();
    epochHasRequests_ = false;
    double t0 = hostNow();
    for (Channel &ch : channels_)
        ch.nvram->drainEpoch();
    totals_.nvram.seconds += hostNow() - t0;
    epochDemand_ = 0;
}

void
LayerReplay::runLayers(bool flush)
{
    llcStage(flush);
    if (requests_.empty())
        return;
    epochHasRequests_ = true;
    translateStage();
    policyStage();
    deriveDownstream();
    ddoStage();
    nvramStage();
    schedStage();
    requests_.clear();
}

void
LayerReplay::llcStage(bool flush)
{
    double t0 = hostNow();
    for (const Line &l : lines_) {
        if (l.op == CpuOp::NtStore) {
            llc_.invalidateLine(l.addr);
            requests_.push_back({l.addr, 0, 0, l.thread, 2});
            continue;
        }
        LlcResult r = llc_.access(l.addr, l.op == CpuOp::Store);
        if (r.hit) {
            requests_.push_back({l.addr, 0, 0, l.thread, 0});
            continue;
        }
        requests_.push_back({l.addr, 0, 0, l.thread, 1});
        if (r.evictedDirty)
            requests_.push_back({r.victim, 0, 0, l.thread, 2});
    }
    std::uint64_t flushed = 0;
    if (flush) {
        llc_.flush([&](Addr line) {
            requests_.push_back({line, 0, 0, 0, 2});
            ++flushed;
        });
    }
    totals_.llc.seconds += hostNow() - t0;
    totals_.llc.ops += lines_.size() + flushed;
    lines_.clear();
}

void
LayerReplay::translateStage()
{
    double t0 = hostNow();
    std::uint64_t n = 0;
    for (Request &r : requests_) {
        if (r.kind == 0)
            continue;
        r.addr = translator_->translate(r.addr);
        ++n;
    }
    totals_.translate.seconds += hostNow() - t0;
    totals_.translate.ops += n;

    // Channel interleave, as MemorySystem routes with every channel
    // online: chunk i of the interleave granule goes to channel
    // i mod n at channel-local chunk i div n.
    const Addr gran = config_.interleaveGranularity;
    const Addr n_ch = channels_.size();
    for (Request &r : requests_) {
        if (r.kind == 0)
            continue;
        const Addr chunk = r.addr / gran;
        r.ch = static_cast<std::uint32_t>(chunk % n_ch);
        r.local = (chunk / n_ch) * gran + r.addr % gran;
        r.pool = r.addr < dramPool_ ? MemPool::Dram : MemPool::Nvram;
    }
}

void
LayerReplay::policyStage()
{
    if (!twoLm_)
        return;
    results_.assign(requests_.size(), CacheResult{});
    double t0 = hostNow();
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < requests_.size(); ++i) {
        const Request &r = requests_[i];
        if (r.kind == 0)
            continue;
        CachePolicy &p = *channels_[r.ch].policy;
        results_[i] = r.kind == 1 ? p.read(r.local) : p.write(r.local);
        ++n;
    }
    totals_.policy.seconds += hostNow() - t0;
    totals_.policy.ops += n;
}

void
LayerReplay::deriveDownstream()
{
    // Untimed: turn the policy's outcomes into the calls the channel
    // makes next, and count what the real channel counts.
    ddoOps_.clear();
    nvramOps_.clear();
    txs_.clear();
    txChannel_.clear();
    PerfCounters &c = totals_.counters;
    const double gap =
        static_cast<double>(kLineSize) /
        (config_.controller.offeredGBs > 0
             ? config_.controller.offeredGBs * 1e9
             : activeThreads_ * config_.threadIssueBandwidth);
    double arrival = 0;

    for (std::size_t i = 0; i < requests_.size(); ++i) {
        const Request &r = requests_[i];
        if (r.kind == 0)
            continue;
        const MemRequestKind kind = r.kind == 1 ? MemRequestKind::LlcRead
                                                : MemRequestKind::LlcWrite;
        double service = 0;
        if (twoLm_) {
            const CacheResult &cr = results_[i];
            Channel &ch = channels_[r.ch];
            c.addOutcome(kind, cr.outcome);
            c.addActions(cr.actions);
            c.missBypass += cr.bypassed;
            c.sramTagLookups += cr.tagsInSram;

            // The 1-way tag array, shadowed so the tracker calls carry
            // the residency and victims the policy saw.
            Addr &slot =
                ch.resident[lineIndex(r.local) % ch.resident.size()];
            bool resident = slot == r.local + 1;
            if (kind == MemRequestKind::LlcWrite)
                ddoOps_.push_back({r.local, r.ch, 0, resident});
            if (!resident && cr.filled && !cr.bypassed) {
                if (slot)
                    ddoOps_.push_back({slot - 1, r.ch, 2, false});
                ddoOps_.push_back({r.local, r.ch, 1, false});
                slot = r.local + 1;
            }
            if (cr.filled)
                nvramOps_.push_back({cr.fill, 1, r.ch, r.thread, false});
            if (cr.wroteBack)
                nvramOps_.push_back({cr.victim, 1, r.ch, r.thread, true});
            service = ch.policy->demandLatency(kind, cr, lat_);
        } else {
            c.addOutcome(kind, CacheOutcome::Uncached);
            const bool write = kind == MemRequestKind::LlcWrite;
            if (r.pool == MemPool::Dram) {
                (write ? c.dramWrite : c.dramRead) += 1;
                service = params_.dram.latency;
            } else {
                (write ? c.nvramWrite : c.nvramRead) += 1;
                service = write ? params_.nvram.writeLatency
                                : params_.nvram.readLatency;
                // Coalesce as the batched engine's device runs do.
                NvramOp *prev =
                    nvramOps_.empty() ? nullptr : &nvramOps_.back();
                if (prev && prev->ch == r.ch && prev->write == write &&
                    prev->thread == r.thread &&
                    prev->addr + prev->lines * kLineSize == r.local)
                    ++prev->lines;
                else
                    nvramOps_.push_back({r.local, 1, r.ch, r.thread, write});
            }
        }
        if (queued_) {
            Transaction tx;
            tx.addr = r.local;
            tx.arrival = arrival;
            arrival += gap;
            tx.service = service;
            tx.kind = kind == MemRequestKind::LlcRead
                          ? TransactionKind::Read
                          : TransactionKind::Write;
            tx.thread = r.thread;
            txs_.push_back(tx);
            txChannel_.push_back(r.ch);
        }
    }
}

void
LayerReplay::ddoStage()
{
    if (ddoOps_.empty())
        return;
    double t0 = hostNow();
    std::uint64_t matches = 0;
    for (const DdoOp &op : ddoOps_) {
        DdoPolicy &d = *channels_[op.ch].ddo;
        switch (op.kind) {
          case 0:
            matches += d.check(op.line, op.resident);
            break;
          case 1:
            d.noteInsert(op.line);
            break;
          default:
            d.noteEvict(op.line);
            break;
        }
    }
    totals_.ddo.seconds += hostNow() - t0;
    totals_.ddo.ops += ddoOps_.size();
    totals_.ddoMatches += matches;
}

void
LayerReplay::nvramStage()
{
    if (nvramOps_.empty())
        return;
    double t0 = hostNow();
    std::uint64_t lines = 0;
    for (const NvramOp &op : nvramOps_) {
        NvramDevice &d = *channels_[op.ch].nvram;
        if (op.lines == 1) {
            if (op.write)
                d.write(op.addr, op.thread);
            else
                d.read(op.addr, op.thread);
        } else if (op.write) {
            d.writeRun(op.addr, op.lines, op.thread);
        } else {
            d.readRun(op.addr, op.lines);
        }
        lines += op.lines;
    }
    totals_.nvram.seconds += hostNow() - t0;
    totals_.nvram.ops += lines;
}

void
LayerReplay::schedStage()
{
    if (txs_.empty())
        return;
    double t0 = hostNow();
    for (std::size_t i = 0; i < txs_.size(); ++i)
        channels_[txChannel_[i]].queue->enqueue(txs_[i]);
    totals_.sched.seconds += hostNow() - t0;
    totals_.sched.ops += txs_.size();
}

void
LayerReplay::drainQueues()
{
    double t0 = hostNow();
    PerfCounters &c = totals_.counters;
    for (Channel &ch : channels_) {
        ch.queue->drainAll();
        TxQueueStats s = ch.queue->takeStats();
        if (s.readQueueWait > 0)
            c.queueWaitNs += static_cast<std::uint64_t>(
                std::llround(s.readQueueWait * 1e9));
        c.bankConflicts += s.bankConflicts;
        c.rowBufferHits += s.rowBufferHits;
        c.writeDrains += s.writeDrains;
        ch.queue->resetEpoch();
    }
    totals_.sched.seconds += hostNow() - t0;
}

ReplayTotals
LayerReplay::totals() const
{
    ReplayTotals t = totals_;
    t.llcHits = llc_.hitCount();
    t.llcMisses = llc_.missCount();
    Bytes demand = 0;
    Bytes media = 0;
    for (const Channel &ch : channels_) {
        for (const NvramEpoch *e :
             {&ch.nvram->total(), &ch.nvram->epoch()}) {
            demand += e->demandWrites * kLineSize;
            media += e->mediaWriteBytes();
        }
    }
    t.nvramWriteAmp = demand ? static_cast<double>(media) /
                                   static_cast<double>(demand)
                             : 0;
    return t;
}

double
driveStream(MemorySystem &sys, const Stream &stream)
{
    const Bytes epoch_bytes = sys.config().epochBytes;
    Bytes demand = 0;  // demand bytes of the open epoch
    unsigned active = sys.activeThreads();
    double seconds = 0;
    auto timed = [&](auto &&call) {
        double t0 = hostNow();
        call();
        seconds += hostNow() - t0;
        demand = 0;
    };

    for (const Event &e : stream) {
        switch (e.kind) {
          case Event::Kind::Submit: {
            Addr first = lineBase(e.addr);
            std::uint64_t left =
                (lineBase(e.addr + (e.size ? e.size - 1 : 0)) - first) /
                    kLineSize +
                1;
            while (left) {
                // Lines until (and including) the one closing the epoch.
                std::uint64_t to_close =
                    (epoch_bytes - demand + kLineSize - 1) / kLineSize;
                if (left < to_close) {
                    sys.submit({e.thread, e.op, first, left * kLineSize});
                    demand += left * kLineSize;
                    break;
                }
                if (to_close > 1) {
                    sys.submit({e.thread, e.op, first,
                                (to_close - 1) * kLineSize});
                }
                Addr closing = first + (to_close - 1) * kLineSize;
                timed([&] {
                    sys.submit({e.thread, e.op, closing, kLineSize});
                });
                first += to_close * kLineSize;
                left -= to_close;
            }
            break;
          }
          case Event::Kind::Touch:
            for (Bytes off = 0; off < e.size; off += kLineSize) {
                Addr line = lineBase(e.addr + off);
                if (demand + kLineSize >= epoch_bytes) {
                    timed([&] { sys.touchLine(e.thread, e.op, line); });
                } else {
                    sys.touchLine(e.thread, e.op, line);
                    demand += kLineSize;
                }
            }
            break;
          case Event::Kind::Threads:
            if (e.count != active) {
                timed([&] { sys.setActiveThreads(e.count); });
                active = e.count;
            }
            break;
          case Event::Kind::Compute:
            sys.addComputeTime(e.seconds);
            break;
          case Event::Kind::Epoch:
            timed([&] { sys.advanceEpoch(); });
            break;
          case Event::Kind::Quiesce:
            timed([&] { sys.quiesce(); });
            break;
          case Event::Kind::Reset:
            timed([&] { sys.resetCounters(); });
            break;
        }
    }
    return seconds;
}

} // namespace perfbench
