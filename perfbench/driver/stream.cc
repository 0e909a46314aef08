#include "stream.hh"

#include <algorithm>

#include "probe.hh"

namespace perfbench
{

using namespace nvsim;

namespace
{

/** runKernel()'s split of a region into per-thread granule slices. */
struct KernelShape
{
    unsigned threads = 1;
    std::uint64_t perThread = 0;
    std::uint64_t turnGranules = 1;
};

KernelShape
shapeOf(const Region &region, const KernelConfig &config)
{
    KernelShape k;
    k.threads = config.threads ? config.threads : 1;
    std::uint64_t total = region.size / config.granularity;
    k.perThread = total / k.threads;
    if (k.perThread == 0) {
        k.threads = static_cast<unsigned>(total);
        k.perThread = 1;
    }
    k.turnGranules =
        std::max<std::uint64_t>(1, 4 * kKiB / config.granularity);
    return k;
}

std::vector<OffsetSequence>
sequencesOf(const KernelShape &k, const KernelConfig &config,
            unsigned iter)
{
    std::vector<OffsetSequence> seqs;
    seqs.reserve(k.threads);
    for (unsigned t = 0; t < k.threads; ++t)
        seqs.emplace_back(config.pattern, k.perThread,
                          config.seed + 977 * t + iter);
    return seqs;
}

Event
submitEvent(unsigned thread, CpuOp op, Addr addr, Bytes size)
{
    Event e;
    e.kind = Event::Kind::Submit;
    e.thread = static_cast<std::uint16_t>(thread);
    e.op = op;
    e.addr = addr;
    e.size = size;
    return e;
}

Event
simpleEvent(Event::Kind kind)
{
    Event e;
    e.kind = kind;
    return e;
}

/** Executor::streamRange(): chunks round-robin across threads. */
void
appendRange(Stream &s, Addr base, Bytes bytes, CpuOp op,
            unsigned threads, Bytes chunk, double share)
{
    Bytes done = 0;
    unsigned thread = 0;
    while (done < bytes) {
        Bytes n = std::min(chunk, bytes - done);
        Event e;
        e.kind = Event::Kind::Touch;
        e.thread = static_cast<std::uint16_t>(thread);
        e.op = op;
        e.addr = base + done;
        e.size = n;
        s.push_back(e);
        if (share > 0) {
            Event c = simpleEvent(Event::Kind::Compute);
            c.seconds = share * static_cast<double>(n);
            s.push_back(c);
        }
        done += n;
        thread = (thread + 1) % threads;
    }
}

} // namespace

void
appendKernel(Stream &s, const Region &region, const KernelConfig &config)
{
    const KernelShape k = shapeOf(region, config);
    Event threads = simpleEvent(Event::Kind::Threads);
    threads.count = k.threads;
    s.push_back(threads);

    const Bytes g = config.granularity;
    const CpuOp store_op =
        config.nontemporal ? CpuOp::NtStore : CpuOp::Store;
    std::vector<std::uint64_t> idx(k.turnGranules);
    for (unsigned iter = 0; iter < config.iterations; ++iter) {
        std::vector<OffsetSequence> seqs = sequencesOf(k, config, iter);
        bool progress = true;
        while (progress) {
            progress = false;
            for (unsigned t = 0; t < k.threads; ++t) {
                std::size_t got =
                    seqs[t].nextBlock(idx.data(), k.turnGranules);
                if (!got)
                    continue;
                progress = true;
                Addr slice = region.base +
                             static_cast<Addr>(t) * k.perThread * g;
                auto emit = [&](Addr base, Bytes len) {
                    switch (config.op) {
                      case KernelOp::ReadOnly:
                        s.push_back(submitEvent(t, CpuOp::Load, base, len));
                        break;
                      case KernelOp::WriteOnly:
                        s.push_back(submitEvent(t, store_op, base, len));
                        break;
                      case KernelOp::ReadModifyWrite:
                        s.push_back(submitEvent(t, CpuOp::Load, base, len));
                        s.push_back(submitEvent(t, store_op, base, len));
                        break;
                    }
                };
                if (config.pattern == AccessPattern::Sequential) {
                    emit(slice + idx[0] * g, got * g);
                    continue;
                }
                for (std::size_t i = 0; i < got; ++i)
                    emit(slice + idx[i] * g, g);
            }
        }
    }
    s.push_back(simpleEvent(Event::Kind::Quiesce));
}

void
appendPrime(Stream &s, const Region &region, bool dirty)
{
    KernelConfig k;
    k.op = dirty ? KernelOp::WriteOnly : KernelOp::ReadOnly;
    k.pattern = AccessPattern::Sequential;
    k.threads = 8;
    k.nontemporal = true;
    appendKernel(s, region, k);
}

void
appendIteration(Stream &s, const dnn::Executor &ex,
                const dnn::ComputeGraph &graph,
                const dnn::ExecutorConfig &config, std::uint64_t scale)
{
    Event threads = simpleEvent(Event::Kind::Threads);
    threads.count = config.threads;
    s.push_back(threads);
    for (const dnn::Op &op : graph.schedule()) {
        double flops = op.flops / static_cast<double>(scale);
        Bytes bytes = 0;
        for (dnn::TensorId t : op.inputs)
            bytes += ex.plan().at(t).bytes;
        for (dnn::TensorId t : op.outputs)
            bytes += ex.plan().at(t).bytes;
        double compute_seconds =
            flops /
            (static_cast<double>(config.threads) * config.flopsPerCore);
        double share =
            bytes ? compute_seconds / static_cast<double>(bytes) : 0;
        for (dnn::TensorId t : op.inputs) {
            appendRange(s, ex.tensorAddr(t), ex.plan().at(t).bytes,
                        CpuOp::Load, config.threads, config.chunkBytes,
                        share);
        }
        for (dnn::TensorId t : op.outputs) {
            appendRange(s, ex.tensorAddr(t), ex.plan().at(t).bytes,
                        CpuOp::Store, config.threads, config.chunkBytes,
                        share);
        }
        if (bytes == 0 && compute_seconds > 0) {
            Event c = simpleEvent(Event::Kind::Compute);
            c.seconds = compute_seconds;
            s.push_back(c);
        }
        s.push_back(simpleEvent(Event::Kind::Epoch));
    }
    s.push_back(simpleEvent(Event::Kind::Quiesce));
}

PatternReplay
replayPattern(const Region &region, const KernelConfig &config)
{
    const KernelShape k = shapeOf(region, config);
    std::vector<std::uint64_t> idx(k.turnGranules);
    PatternReplay r;
    double t0 = hostNow();
    for (unsigned iter = 0; iter < config.iterations; ++iter) {
        std::vector<OffsetSequence> seqs = sequencesOf(k, config, iter);
        bool progress = true;
        while (progress) {
            progress = false;
            for (unsigned t = 0; t < k.threads; ++t) {
                std::size_t got =
                    seqs[t].nextBlock(idx.data(), k.turnGranules);
                r.offsets += got;
                progress |= got != 0;
            }
        }
    }
    r.seconds = hostNow() - t0;
    return r;
}

} // namespace perfbench
