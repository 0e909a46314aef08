#include "imc/channel.hh"

#include <algorithm>
#include <cmath>

#include "core/logging.hh"
#include "obs/stats.hh"

namespace nvsim
{

const char *
memoryModeName(MemoryMode mode)
{
    return mode == MemoryMode::OneLm ? "1LM" : "2LM";
}

ChannelController::ChannelController(const ChannelParams &params,
                                     MemoryMode mode)
    : params_(params), mode_(mode), dram_(params.dram),
      nvram_(params.nvram),
      cache_(mode == MemoryMode::TwoLm
                 ? makeCachePolicy(
                       DramCacheParams{params.dram.capacity, params.ddo,
                                       params.cacheWays,
                                       params.insertOnWriteMiss},
                       params.policy)
                 : nullptr),
      lat_(deviceLatencies(params)),
      faultPlan_(params.fault, params.index),
      throttle_(params.fault.throttle),
      maint_(params.maintenance, params.dram.capacity, params.index)
{
    if (faultPlan_.enabled())
        nvram_.setFaultPlan(&faultPlan_);
    // A demand access that lands during a REF waits out the residual
    // tRFC; fold the expected stall into the DRAM load-to-use latency
    // once (exactly zero when refresh is off). The queued controller
    // models refresh as per-bank occupancy windows instead, so folding
    // the epoch-mean stall there would bill refresh twice.
    if (maint_.enabled() && !params_.controller.queued())
        lat_.dram += maint_.refreshDemandStall();
    if (params_.controller.queued()) {
        txq_ = std::make_unique<ChannelTxQueue>(
            params_.controller, params_.busBandwidth,
            params_.maintenance.refresh);
    }
}

ChannelController::ChannelController(ChannelController &&o) noexcept
    : params_(std::move(o.params_)), mode_(o.mode_),
      dram_(std::move(o.dram_)), nvram_(std::move(o.nvram_)),
      cache_(std::move(o.cache_)), lat_(o.lat_), counters_(o.counters_),
      epochMisses_(o.epochMisses_), faultPlan_(std::move(o.faultPlan_)),
      throttle_(o.throttle_), maint_(std::move(o.maint_)),
      txq_(std::move(o.txq_))
{
    // The moved NvramDevice still points at o's plan; re-wire it.
    nvram_.setFaultPlan(faultPlan_.enabled() ? &faultPlan_ : nullptr);
}

AccessResult
ChannelController::handle(const MemRequest &req, MemPool pool)
{
    AccessResult result = mode_ == MemoryMode::TwoLm
                              ? handle2lm(req)
                              : handle1lm(req, pool);
    if (maint_.enabled())
        runMaintenance(req, pool, result);
    return result;
}

double
ChannelController::handleFast(MemRequestKind kind, Addr addr,
                              std::uint16_t thread, MemPool pool)
{
    if (mode_ == MemoryMode::TwoLm) {
        CacheResult cr = kind == MemRequestKind::LlcRead
                             ? cache_->read(addr)
                             : cache_->write(addr);
        dram_.read(cr.actions.dramReads);
        dram_.write(cr.actions.dramWrites);
        if (cr.filled) {
            nvram_.read(cr.fill, thread);
            ++epochMisses_;
        }
        if (cr.wroteBack)
            nvram_.write(cr.victim, thread);
        counters_.addOutcome(kind, cr.outcome);
        counters_.addActions(cr.actions);
        counters_.missBypass += cr.bypassed;
        counters_.sramTagLookups += cr.tagsInSram;
        return cache_->demandLatency(kind, cr, lat_);
    }

    // 1LM: one direct device access.
    counters_.addOutcome(kind, CacheOutcome::Uncached);
    if (kind == MemRequestKind::LlcRead) {
        if (pool == MemPool::Dram) {
            dram_.read(1);
            counters_.dramRead += 1;
            return params_.dram.latency;
        }
        nvram_.read(addr, thread);
        counters_.nvramRead += 1;
        return params_.nvram.readLatency;
    }
    if (pool == MemPool::Dram) {
        dram_.write(1);
        counters_.dramWrite += 1;
        return params_.dram.latency;
    }
    nvram_.write(addr, thread);
    counters_.nvramWrite += 1;
    return params_.nvram.writeLatency;
}

double
ChannelController::handleFastRun1lm(MemRequestKind kind, Addr addr,
                                    std::uint64_t lines,
                                    std::uint16_t thread, MemPool pool)
{
    if (kind == MemRequestKind::LlcRead) {
        counters_.llcReads += lines;
        if (pool == MemPool::Dram) {
            dram_.read(lines);
            counters_.dramRead += lines;
            return params_.dram.latency;
        }
        nvram_.readRun(addr, lines);
        counters_.nvramRead += lines;
        return params_.nvram.readLatency;
    }
    counters_.llcWrites += lines;
    if (pool == MemPool::Dram) {
        dram_.write(lines);
        counters_.dramWrite += lines;
        return params_.dram.latency;
    }
    nvram_.writeRun(addr, lines, thread);
    counters_.nvramWrite += lines;
    return params_.nvram.writeLatency;
}

DeviceLatencies
deviceLatencies(const ChannelParams &params)
{
    return DeviceLatencies{params.dram.latency, params.nvram.readLatency,
                           params.nvram.writeLatency};
}

CausalBreakdown
causalBreakdown2lm(MemRequestKind kind, const CacheResult &cr,
                   const ChannelParams &params)
{
    return tagEccBreakdown(kind, cr, deviceLatencies(params));
}

void
ChannelController::noteMediaFault(const MediaFault &f,
                                  AccessResult &result, bool demand_line,
                                  Addr line)
{
    if (!f.any())
        return;
    result.fault.retries += f.retries;
    counters_.retries += f.retries;
    if (f.correctable) {
        result.fault.correctable += 1;
        counters_.correctableErrors += 1;
    }
    if (f.uncorrectable) {
        result.fault.uncorrectable += 1;
        counters_.uncorrectableErrors += 1;
        if (demand_line) {
            result.fault.demandPoisoned = true;
        } else {
            result.fault.victimPoisoned = true;
            result.fault.victimLine = line;
        }
    }
}

void
ChannelController::applyActions(const MemRequest &req,
                                const CacheResult &cr,
                                AccessResult &result)
{
    dram_.read(cr.actions.dramReads);
    dram_.write(cr.actions.dramWrites);
    if (cr.filled) {
        noteMediaFault(nvram_.read(cr.fill, req.thread), result,
                       /*demand_line=*/true, cr.fill);
    }
    if (cr.wroteBack) {
        noteMediaFault(nvram_.write(cr.victim, req.thread), result,
                       /*demand_line=*/false, cr.victim);
    }
}

AccessResult
ChannelController::handle2lm(const MemRequest &req)
{
    AccessResult result;

    if (faultPlan_.enabled()) {
        // DRAM ECC fault on the location this request probes/writes.
        // Uncorrectable faults hit the in-ECC tag bits: the controller
        // cannot trust the tag, drops the line (losing dirty data) and
        // the access below re-runs as a miss — the extra NVRAM fetch
        // that only the tags-in-ECC design pays. Correctable faults
        // cost retry latency only.
        MediaFault df = faultPlan_.dramRead();
        if (df.uncorrectable) {
            TagCorruption tc = cache_->corruptTag(req.addr);
            counters_.tagEccInvalidates += 1;
            counters_.uncorrectableErrors += 1;
            counters_.retries += df.retries;
            result.fault.tagEccInvalidates += 1;
            result.fault.uncorrectable += 1;
            result.fault.retries += df.retries;
            if (tc.dropped && tc.wasDirty) {
                result.fault.victimPoisoned = true;
                result.fault.victimLine = tc.line;
            }
        } else if (df.correctable) {
            counters_.correctableErrors += 1;
            counters_.retries += df.retries;
            result.fault.correctable += 1;
            result.fault.retries += df.retries;
        }
    }

    CacheResult cr = req.kind == MemRequestKind::LlcRead
                         ? cache_->read(req.addr)
                         : cache_->write(req.addr);
    applyActions(req, cr, result);

    counters_.addOutcome(req.kind, cr.outcome);
    counters_.addActions(cr.actions);
    counters_.missBypass += cr.bypassed;
    counters_.sramTagLookups += cr.tagsInSram;
    if (cr.filled)
        ++epochMisses_;

    result.outcome = cr.outcome;
    result.actions = cr.actions;
    if (req.traced)
        result.breakdown = cache_->breakdown(req.kind, cr, lat_);
    result.latency = cache_->demandLatency(req.kind, cr, lat_);
    if (result.fault.retries)
        result.latency += result.fault.retries * params_.fault.retryLatency;
    return result;
}

AccessResult
ChannelController::handle1lm(const MemRequest &req, MemPool pool)
{
    AccessResult result;
    result.outcome = CacheOutcome::Uncached;
    counters_.addOutcome(req.kind, CacheOutcome::Uncached);

    if (req.kind == MemRequestKind::LlcRead) {
        if (pool == MemPool::Dram) {
            dram_.read(1);
            counters_.dramRead += 1;
            result.actions.dramReads = 1;
            result.latency = lat_.dram;
            if (faultPlan_.enabled()) {
                // 1LM has no tags in the ECC bits: an uncorrectable
                // ECC fault poisons the data line only.
                MediaFault df = faultPlan_.dramRead();
                if (df.uncorrectable) {
                    counters_.uncorrectableErrors += 1;
                    counters_.retries += df.retries;
                    result.fault.uncorrectable += 1;
                    result.fault.retries += df.retries;
                    result.fault.demandPoisoned = true;
                    result.fault.dramUncorrectable += 1;
                } else if (df.correctable) {
                    counters_.correctableErrors += 1;
                    counters_.retries += df.retries;
                    result.fault.correctable += 1;
                    result.fault.retries += df.retries;
                }
            }
        } else {
            noteMediaFault(nvram_.read(req.addr, req.thread), result,
                           /*demand_line=*/true, req.addr);
            counters_.nvramRead += 1;
            result.actions.nvramReads = 1;
            result.latency = params_.nvram.readLatency;
        }
    } else {
        if (pool == MemPool::Dram) {
            dram_.write(1);
            counters_.dramWrite += 1;
            result.actions.dramWrites = 1;
            result.latency = lat_.dram;
        } else {
            noteMediaFault(nvram_.write(req.addr, req.thread), result,
                           /*demand_line=*/true, req.addr);
            counters_.nvramWrite += 1;
            result.actions.nvramWrites = 1;
            result.latency = params_.nvram.writeLatency;
        }
    }
    if (req.traced) {
        // 1LM: no cache in the path, one direct device access.
        result.breakdown.add(AccessCause::DirectAccess, pool,
                             result.latency);
    }
    if (result.fault.retries)
        result.latency += result.fault.retries * params_.fault.retryLatency;
    return result;
}

void
ChannelController::runMaintenance(const MemRequest &req, MemPool pool,
                                  AccessResult &result)
{
    (void)pool;
    // Every DRAM transaction of the demand request activates its row:
    // in 2LM the tag probes and fills count too, so hardware cache
    // management generates its own RowHammer pressure. A 1LM NVRAM
    // access never touches a DRAM row.
    unsigned triggers = 0;
    std::uint64_t dram_txns = static_cast<std::uint64_t>(
        result.actions.dramReads + result.actions.dramWrites);
    if (dram_txns > 0)
        triggers += maint_.noteActivation(req.addr, dram_txns);

    // The patrol scrubber steals DRAM demand slots, so its cadence
    // counts requests that contended for the DRAM device: every 2LM
    // request (the tag probe touches DRAM), but only the DRAM-pool
    // fraction of 1LM traffic. An app-direct NVRAM stream shares no
    // device with the scrubber and pays nothing — one reason 1LM
    // amplification stays flat while 2LM's inflates.
    ScrubOutcome sc =
        dram_txns > 0 ? maint_.demandTick() : ScrubOutcome{};
    if (sc.read) {
        // The patrol read steals a demand slot on the DRAM device and
        // activates the scrubbed frame's row like any other read.
        dram_.read(1);
        counters_.dramRead += 1;
        counters_.scrubReads += 1;
        maint_.noteScrubTime(lat_.dram);
        result.latency += lat_.dram;
        if (req.traced)
            result.breakdown.add(AccessCause::PatrolScrub, MemPool::Dram,
                                 lat_.dram);
        triggers += maint_.noteActivation(sc.frame, 1);

        if (sc.uncorrectableError) {
            counters_.uncorrectableErrors += 1;
            result.fault.uncorrectable += 1;
            if (mode_ == MemoryMode::TwoLm) {
                // The UE took the in-ECC tag with it: the frame's line
                // is dropped (dirty data lost -> poison) whether or not
                // spare capacity lets us retire the frame for good.
                TagCorruption tc = sc.retire
                                       ? cache_->retireFrame(sc.frame)
                                       : cache_->corruptTag(sc.frame);
                counters_.tagEccInvalidates += 1;
                result.fault.tagEccInvalidates += 1;
                if (tc.dropped && tc.wasDirty) {
                    result.fault.victimPoisoned = true;
                    result.fault.victimLine = tc.line;
                }
            } else {
                // 1LM: a plain DRAM data UE at the scrubbed frame.
                result.fault.dramUncorrectable += 1;
                result.fault.victimPoisoned = true;
                result.fault.victimLine = sc.frame;
            }
        } else if (sc.correctableError) {
            counters_.correctableErrors += 1;
            counters_.scrubCorrected += 1;
            result.fault.correctable += 1;
            // Scrub in place: write the corrected line back.
            dram_.write(1);
            counters_.dramWrite += 1;
            if (sc.retire && mode_ == MemoryMode::TwoLm) {
                TagCorruption tc = cache_->retireFrame(sc.frame);
                if (tc.dropped && tc.wasDirty) {
                    // No write lost: the repeat-CE data is still
                    // correctable, so the dirty line goes home to
                    // NVRAM before the frame is mapped out.
                    noteMediaFault(nvram_.write(tc.line, req.thread),
                                   result, /*demand_line=*/false,
                                   tc.line);
                    counters_.nvramWrite += 1;
                }
            }
        }
        if (sc.retire) {
            counters_.linesRetired += 1;
            result.fault.linesRetired += 1;
            result.fault.retiredLine = sc.frame;
        }
    }

    if (triggers > 0) {
        counters_.targetedRefreshes += triggers;
        result.fault.targetedRefreshes += triggers;
        double t = static_cast<double>(triggers) *
                   maint_.config().rowhammer.blastRadius *
                   maint_.config().rowhammer.refreshLatency;
        result.latency += t;
        if (req.traced)
            result.breakdown.add(AccessCause::TargetedRefresh,
                                 MemPool::Dram, t);
    }
}

void
ChannelController::drainBuffers()
{
    nvram_.flushWpq();
}

ChannelEpoch
ChannelController::drainEpoch()
{
    ChannelEpoch e;
    e.dram = dram_.drainEpoch();
    e.nvram = nvram_.drainEpoch();
    e.misses = epochMisses_;
    epochMisses_ = 0;
    if (maint_.enabled())
        e.maintTime = maint_.drainTargetedTime();
    return e;
}

bool
ChannelController::willAccept(TransactionKind kind) const
{
    return !txq_ || txq_->willAccept(kind);
}

void
ChannelController::enqueue(const Transaction &tx)
{
    if (!txq_)
        fatal("ChannelController::enqueue without a queued controller "
              "(scheduler 'analytic'); configure controller.scheduler");
    txq_->enqueue(tx);
}

void
ChannelController::tick(double until)
{
    if (txq_)
        txq_->tick(until);
}

void
ChannelController::setCompletionHandler(CompletionHandler handler)
{
    if (txq_)
        txq_->setCompletionHandler(std::move(handler));
}

void
ChannelController::drainQueues()
{
    if (!txq_)
        return;
    txq_->drainAll();
    TxQueueStats s = txq_->takeStats();
    if (s.readQueueWait > 0) {
        counters_.queueWaitNs += static_cast<std::uint64_t>(
            std::llround(s.readQueueWait * 1e9));
    }
    counters_.bankConflicts += s.bankConflicts;
    counters_.rowBufferHits += s.rowBufferHits;
    counters_.writeDrains += s.writeDrains;
    txq_->resetEpoch();
}

double
ChannelController::epochTime(const ChannelEpoch &epoch) const
{
    // Shared DDR4/DDR-T bus: every DRAM CAS and every NVRAM bus
    // transaction crosses it.
    double bus_bytes = static_cast<double>(epoch.dram.bytes()) +
                       static_cast<double>(epoch.nvram.demandBytes());
    double t_bus = bus_bytes / params_.busBandwidth;

    // DRAM device throughput. Maintenance steals bank time twice over:
    // refresh blocks a duty fraction tRFC/tREFI of every second, and
    // targeted-refresh mitigations block the banks outright, so the
    // demand traffic must fit in what is left.
    double t_dram = static_cast<double>(epoch.dram.bytes()) /
                    params_.dram.bandwidth;
    if (maint_.enabled()) {
        double duty = maint_.refreshDuty();
        t_dram = (t_dram + epoch.maintTime) / (1.0 - duty);
    }

    // NVRAM media: reads and writes share the media controller, so
    // their service times add. Write bandwidth degrades with stream
    // count (XPBuffer contention) and with thermal throttling (factor
    // is exactly 1.0 when the throttle is disabled or released).
    double write_bw = params_.nvram.writeBandwidth *
                      nvram_.writeEfficiency(epoch.nvram.writerStreams) *
                      throttle_.factor();
    double t_media =
        static_cast<double>(epoch.nvram.mediaReadBytes()) /
            params_.nvram.readBandwidth +
        static_cast<double>(epoch.nvram.mediaWriteBytes()) / write_bw;

    // 2LM miss handler occupancy: a bounded number of outstanding
    // misses, each holding an entry for the serial tag-check + fetch.
    double t_mshr = 0;
    if (cache_ && params_.missHandlerEntries > 0) {
        t_mshr = static_cast<double>(epoch.misses) *
                 cache_->missServiceTime(lat_) /
                 static_cast<double>(params_.missHandlerEntries);
    }

    return std::max({t_bus, t_dram, t_media, t_mshr});
}

void
ChannelController::noteMaintenanceEpoch(const ChannelEpoch &epoch,
                                        double dt)
{
    if (!maint_.enabled())
        return;
    std::uint64_t slots = maint_.closeEpoch(dt);
    counters_.refreshSlots += slots;
    double stall = epoch.maintTime + maint_.drainScrubTime() +
                   static_cast<double>(slots) *
                       maint_.config().refresh.trfc;
    if (stall > 0) {
        counters_.maintenanceStallNs +=
            static_cast<std::uint64_t>(std::llround(stall * 1e9));
    }
}

ThrottleState::Transition
ChannelController::noteEpochDuration(const ChannelEpoch &epoch, double dt)
{
    if (!params_.fault.throttle.enabled() || dt <= 0)
        return ThrottleState::Transition::None;
    double rate =
        static_cast<double>(epoch.nvram.mediaWriteBytes()) / dt;
    ThrottleState::Transition tr = throttle_.observe(rate);
    if (throttle_.engaged())
        counters_.throttledEpochs += 1;
    return tr;
}

void
ChannelController::regStats(obs::Group &g)
{
    obs::Group &ctr = g.child("counters");
    counters_.forEachField(
        [&](const char *name, const char *desc, std::uint64_t &v) {
            ctr.formula(name, desc,
                        [&v] { return static_cast<double>(v); });
        });
    g.formula("amplification", "device accesses per demand request",
              [this] { return counters_.amplification(); });

    if (cache_) {
        obs::Group &cache = g.child("cache");
        cache.formula("num_sets", "DRAM cache sets on this channel",
                      [this] {
                          return static_cast<double>(cache_->numSets());
                      });
        cache.formula("ways", "DRAM cache associativity", [this] {
            return static_cast<double>(cache_->ways());
        });
    }

    obs::Group &dram = g.child("dram");
    dram.formula("cas_reads", "total 64 B DRAM read transactions",
                 [this] {
                     return static_cast<double>(dram_.total().casReads);
                 });
    dram.formula("cas_writes", "total 64 B DRAM write transactions",
                 [this] {
                     return static_cast<double>(dram_.total().casWrites);
                 });

    obs::Group &nvram = g.child("nvram");
    nvram.formula("demand_reads", "total 64 B NVRAM bus reads", [this] {
        return static_cast<double>(nvram_.total().demandReads);
    });
    nvram.formula("demand_writes", "total 64 B NVRAM bus writes",
                  [this] {
                      return static_cast<double>(
                          nvram_.total().demandWrites);
                  });
    nvram.formula("media_read_blocks", "total 256 B media reads",
                  [this] {
                      return static_cast<double>(
                          nvram_.total().mediaReadBlocks);
                  });
    nvram.formula("media_write_blocks", "total 256 B media writes",
                  [this] {
                      return static_cast<double>(
                          nvram_.total().mediaWriteBlocks);
                  });
    nvram.formula("read_amplification",
                  "media bytes read per demand byte read",
                  [this] { return nvram_.readAmplification(); });
    nvram.formula("write_amplification",
                  "media bytes written per demand byte written",
                  [this] { return nvram_.writeAmplification(); });

    if (maint_.enabled()) {
        obs::Group &maint = g.child("maintenance");
        maint.formula("refresh_duty",
                      "fraction of bank time lost to tREFI/tRFC refresh",
                      [this] { return maint_.refreshDuty(); });
        maint.formula("retired_frames",
                      "DRAM frames mapped out by the retirement ladder",
                      [this] {
                          return static_cast<double>(
                              maint_.retiredFrames());
                      });
        maint.formula("tracked_rows",
                      "rows currently in the RowHammer tracker",
                      [this] {
                          return static_cast<double>(
                              maint_.trackedRows());
                      });
    }

    if (txq_) {
        obs::Group &queue = g.child("queue");
        queue.formula("read_depth", "read-queue occupancy", [this] {
            return static_cast<double>(txq_->readDepth());
        });
        queue.formula("write_depth", "WPQ occupancy", [this] {
            return static_cast<double>(txq_->writeDepth());
        });
        queue.formula("draining",
                      "1 while a WPQ drain burst is active", [this] {
                          return txq_->draining() ? 1.0 : 0.0;
                      });
    }

    obs::Group &throttle = g.child("throttle");
    throttle.formula("engaged", "1 while the thermal throttle is engaged",
                     [this] { return throttle_.engaged() ? 1.0 : 0.0; });
    throttle.formula("factor",
                     "current NVRAM write-bandwidth multiplier",
                     [this] { return throttle_.factor(); });
}

void
ChannelController::reset()
{
    if (cache_)
        cache_->invalidateAll();
    counters_ = PerfCounters{};
    epochMisses_ = 0;
    // Re-seed the fault stream and cool the DIMM so reruns reproduce.
    faultPlan_ = FaultPlan(params_.fault, params_.index);
    throttle_.reset();
    maint_.reset();
    if (txq_) {
        txq_->drainAll();
        txq_->takeStats();
        txq_->resetEpoch();
    }
    drainEpoch();
    drainBuffers();
    drainEpoch();
}

} // namespace nvsim
