/**
 * @file
 * A workload's stream of calls into MemorySystem, regenerated outside
 * the library so the traced run can replay the layers hidden behind
 * submit() with the workload's own traffic.
 *
 * The generators mirror runKernel() (kernels/kernels.cc) and
 * Executor::runIteration() (dnn/executor.cc) call for call. The traced
 * run drives each regenerated stream through a fresh MemorySystem and
 * reports a mismatch against the real run's counters, so a generator
 * that falls out of step with the library shows.
 */

#ifndef PERFBENCH_STREAM_HH
#define PERFBENCH_STREAM_HH

#include <cstdint>
#include <vector>

#include "dnn/executor.hh"
#include "kernels/kernels.hh"

namespace perfbench
{

/** One call a workload makes into MemorySystem. */
struct Event
{
    enum class Kind : std::uint8_t {
        Submit,   //!< submit({thread, op, addr, size})
        Touch,    //!< touchLine() over each line of [addr, addr + size)
        Threads,  //!< setActiveThreads(count)
        Compute,  //!< addComputeTime(seconds)
        Epoch,    //!< advanceEpoch()
        Quiesce,  //!< quiesce()
        Reset,    //!< resetCounters()
    };
    Kind kind = Kind::Submit;
    nvsim::CpuOp op = nvsim::CpuOp::Load;
    std::uint16_t thread = 0;
    std::uint32_t count = 0;
    nvsim::Addr addr = 0;
    nvsim::Bytes size = 0;
    double seconds = 0;
};

using Stream = std::vector<Event>;

/** The calls runKernel(sys, region, config) makes. */
void appendKernel(Stream &s, const nvsim::Region &region,
                  const nvsim::KernelConfig &config);

/** The calls primeClean() / primeDirty() make. */
void appendPrime(Stream &s, const nvsim::Region &region, bool dirty);

/** The calls Executor::runIteration() makes. */
void appendIteration(Stream &s, const nvsim::dnn::Executor &ex,
                     const nvsim::dnn::ComputeGraph &graph,
                     const nvsim::dnn::ExecutorConfig &config,
                     std::uint64_t scale);

/** Work and host time of a pattern-generation replay. */
struct PatternReplay
{
    std::uint64_t offsets = 0;
    double seconds = 0;
};

/**
 * Regenerate every OffsetSequence::nextBlock() call runKernel() makes
 * for @p config over @p region, timed on its own.
 */
PatternReplay replayPattern(const nvsim::Region &region,
                            const nvsim::KernelConfig &config);

} // namespace perfbench

#endif // PERFBENCH_STREAM_HH
