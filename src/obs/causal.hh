/**
 * @file
 * Causal tracer: seeded, sampling-based per-request blame trees.
 *
 * The aggregate histograms (obs/observer.hh) show *that* 2LM amplifies
 * — up to 5 device accesses per demand request — but not *which*
 * requests, kernels or arenas pay for it. The CausalTracer samples
 * 1-in-N demand requests deterministically; a sampled request carries
 * MemRequest::traced through the channel, which fills
 * AccessResult::breakdown with one CauseSpan per induced device
 * access (the Figure 3 steps: tag probe, dirty writeback, cache fill
 * read, insert write, data write, DDO elision). The tracer aggregates
 * those spans into:
 *
 *  - an attribution table keyed by originating context (kernel / DNN
 *    op / graph kernel, pushed via ContextScope) x request class
 *    (read_miss_dirty, ddo_write, ...) x cause — Table I per-cause
 *    rather than per-total;
 *  - folded-stack lines (`context;class;cause count`) renderable as a
 *    flamegraph (scripts/plot_traces.py);
 *  - Perfetto flow events linking each exemplar demand span to its
 *    induced device spans on the session timeline;
 *  - a seeded reservoir of exemplar blame trees kept verbatim in the
 *    JSON dump.
 *
 * Determinism: sampling is a phase-locked 1-in-N counter and the
 * reservoir uses a seeded xoshiro stream, so the same seed produces a
 * byte-identical trace. Overhead: with no tracer attached every hook
 * is a null test; with one attached, non-sampled requests cost one
 * counter increment.
 */

#ifndef NVSIM_OBS_CAUSAL_HH
#define NVSIM_OBS_CAUSAL_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/rng.hh"
#include "mem/request.hh"

namespace nvsim::obs
{

class PerfettoTracer;

/** Causal-tracing knobs, typically parsed from bench argv. */
struct CausalOptions
{
    /** Sample 1 in N demand requests (N >= 1; 1 = every request). */
    std::uint64_t samplePeriod = 64;
    /** Seed for the sampling phase and the exemplar reservoir. */
    std::uint64_t seed = 1;
    /** Exemplar blame trees kept verbatim in the JSON dump. */
    std::size_t reservoirSize = 32;
    /** Sampled requests emitted as Perfetto flow-linked spans. */
    std::size_t maxFlowRequests = 256;
    /** First flow id to use (kept unique across a session's runs). */
    std::uint64_t flowIdBase = 1;
};

/** Request class: kind x outcome, e.g. "read_miss_dirty". */
const char *requestClassName(MemRequestKind kind, CacheOutcome outcome);

/** Per-run causal tracer; owned by the run's Observer. */
class CausalTracer
{
  public:
    /** @p tracer may be null (no Perfetto output requested). */
    CausalTracer(const CausalOptions &opts, PerfettoTracer *tracer);

    /** @name Context stack (ContextScope in observer.hh) */
    ///@{
    void pushContext(const std::string &frame);
    void popContext();
    ///@}

    /** @name Hot path */
    ///@{
    /**
     * Deterministic 1-in-N decision for the next demand request;
     * advances the request counter. The caller sets
     * MemRequest::traced from the result.
     */
    bool
    shouldSample()
    {
        return (demands_++ % opts_.samplePeriod) == phase_;
    }

    /** An LLC hit absorbed a demand access before the IMC. */
    void
    noteLlcHit()
    {
        ++llcHitsTotal_;
        ++resolve()->llcHits;
    }

    /**
     * Record one sampled request's blame tree.
     * @param t_now    simulated time the request issued (run-local)
     * @param latency  demand latency charged for the request
     * @param channel  servicing channel index
     */
    void record(MemRequestKind kind, CacheOutcome outcome,
                const CausalBreakdown &breakdown, double t_now,
                double latency, unsigned channel);
    ///@}

    /** Warmup reset: drop aggregates, restart the seeded streams. */
    void onCountersReset();

    /** @name Output */
    ///@{
    /**
     * Append folded-stack lines `context;class;cause count` (with
     * `prefix;` prepended when non-empty), deterministically ordered.
     */
    void foldedLines(std::vector<std::string> &out,
                     const std::string &prefix) const;

    /** One run's attribution object (JSON, no trailing newline). */
    void dumpJson(std::ostream &os) const;
    ///@}

    std::uint64_t demands() const { return demands_; }
    std::uint64_t sampled() const { return sampled_; }
    std::uint64_t llcHits() const { return llcHitsTotal_; }
    /** Flow ids consumed; the session offsets the next run by this. */
    std::uint64_t flowsEmitted() const { return flowsEmitted_; }

  private:
    /** Per-class per-cause tallies within one context. */
    struct ClassStats
    {
        std::uint64_t samples = 0;
        std::uint64_t accesses = 0;
        double latency = 0;
        std::array<std::uint64_t, kNumAccessCauses> causeCount{};
        std::array<double, kNumAccessCauses> causeLatency{};
    };

    struct ContextStats
    {
        std::uint64_t llcHits = 0;
        std::map<std::string, ClassStats> classes;
    };

    /** One sampled request kept verbatim. */
    struct Exemplar
    {
        std::string context;
        const char *klass = "";
        double t = 0;
        double latency = 0;
        unsigned channel = 0;
        CausalBreakdown breakdown;
    };

    /** Stats bucket of the current context (cached across calls). */
    ContextStats *
    resolve()
    {
        if (!cur_)
            cur_ = &contexts_[joined_];
        return cur_;
    }

    void offerExemplar(const Exemplar &e);
    void emitFlow(const Exemplar &e);

    CausalOptions opts_;
    PerfettoTracer *tracer_;  //!< not owned; may be null
    std::uint64_t phase_;     //!< seed-derived sampling offset
    Rng rng_;                 //!< reservoir stream

    std::vector<std::string> frames_;
    std::string joined_;
    ContextStats *cur_ = nullptr;

    std::uint64_t demands_ = 0;
    std::uint64_t sampled_ = 0;
    std::uint64_t llcHitsTotal_ = 0;
    std::uint64_t flowsEmitted_ = 0;

    /** std::map: deterministic iteration for folded/JSON output. */
    std::map<std::string, ContextStats> contexts_;
    std::vector<Exemplar> reservoir_;
};

} // namespace nvsim::obs

#endif // NVSIM_OBS_CAUSAL_HH
