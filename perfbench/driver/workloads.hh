/**
 * @file
 * The benchmark's four workloads. Each is a list of sweep points (one
 * point is one operation); a repetition runs every point on one
 * freshly built MemorySystem after another, on the calling thread,
 * with the library's defaults (submit() picks the engine, shard width
 * 1). The program sees the seed only as KernelConfig::seed and
 * SystemConfig::pageSeed.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "golden.hh"
#include "outcome.hh"
#include "probe.hh"
#include "stream.hh"
#include "sys/memsys.hh"

namespace perfbench
{

/** The seed at which outputs must byte-equal the goldens. */
inline constexpr std::uint64_t kDefaultSeed = 1;

/** What a point needs besides its index. */
struct RunContext
{
    std::uint64_t seed = kDefaultSeed;
    const Golden *fig2 = nullptr;  //!< tests/golden/fig2_nvram_bw.csv
    const Golden *fig4 = nullptr;  //!< tests/golden/fig4_2lm_microbench.csv
    std::string outDir;            //!< where telemetry export writes
    Spans *spans = nullptr;        //!< set in the traced repetition only
};

/** A point's call stream, regenerated for the layer replays. */
struct ReplayCase
{
    nvsim::SystemConfig config;
    /** A fresh system, allocated like the real run's, before warm-up. */
    std::unique_ptr<nvsim::MemorySystem> sys;
    Stream stream;  //!< warm-up, resetCounters(), measured phase
    /** The measured kernels, for the pattern-generation replay. */
    std::vector<std::pair<nvsim::Region, nvsim::KernelConfig>> kernels;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;
    virtual std::size_t points() const = 0;

    /** Run point @p i; never throws (failures are recorded). */
    PointOutcome runPoint(std::size_t i, const RunContext &ctx) const;

    /** Checks across one repetition's points; may fail points. */
    virtual void checkRepetition(std::vector<PointOutcome> &points,
                                 const RunContext &ctx) const;

    /** The model.* metrics this workload produces from a repetition. */
    virtual std::map<std::string, double>
    model(const std::vector<PointOutcome> &points) const = 0;

    /** Regenerate point @p i's stream; empty when not replayable. */
    virtual std::unique_ptr<ReplayCase>
    replayCase(std::size_t i, std::uint64_t seed) const = 0;

  protected:
    virtual void run(std::size_t i, const RunContext &ctx,
                     PointOutcome &out) const = 0;
};

/** The workload called @p name, or nullptr. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** Names of every workload, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/** Wall and CPU seconds of one measured phase, and its counters. */
struct ShardSample
{
    double wallS = 0;
    double cpuS = 0;
    nvsim::PerfCounters counters;
};

/**
 * ROADMAP's sharding evidence: the kernels_2lm 4a random point's
 * measured phase at intra-run shard width @p width.
 */
ShardSample shardSample(unsigned width, std::uint64_t seed);

/**
 * Error of the model against EXPERIMENTS.md's paper headline values,
 * for each quantity @p model has the inputs of; -1 where it has not.
 */
std::map<std::string, double>
paperErrors(const std::map<std::string, double> &model);

/** One metric of the traced run, as BENCHMARK.json lists it. */
struct LayerMetric
{
    const char *name;
    const char *unit;
    const char *better;
};

/** Every per-layer metric, in BENCHMARK.json order. */
const std::vector<LayerMetric> &layerMetrics();

/** A point value a traced run borrows from the sibling workload. */
struct PaperRef
{
    const char *workload;
    std::size_t point;
    const char *value;  //!< PointOutcome value name
    const char *ref;    //!< key paperErrors() reads it under
};

/** What @p workload's traced run borrows to compute paperErrors(). */
std::vector<PaperRef> paperReferences(const std::string &workload);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
