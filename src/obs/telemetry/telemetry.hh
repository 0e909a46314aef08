/**
 * @file
 * Epoch-windowed telemetry: per-channel counter time series, derived
 * rates, and streaming latency percentiles.
 *
 * A TelemetryRun attaches to one MemorySystem
 * (MemorySystem::attachTelemetry) and samples two hooks:
 *
 *  - onEpoch(): at every epoch boundary, the delta of all
 *    NVSIM_PERF_COUNTER_FIELDS counters, per channel, is split across
 *    fixed simulated-time windows (default 1 ms, --telemetry-window=).
 *    An epoch straddling a window boundary contributes fractionally,
 *    proportional to its time overlap with each window, so windowed
 *    counters conserve the exact totals and window rates are
 *    duty-correct. Windows live in a core Ring (the same ring type
 *    behind TimeSeries) capped at --telemetry-ring= entries.
 *
 *  - noteLatency(): every demand request's latency feeds a log-linear
 *    percentile sketch (sketch.hh). Latencies are integral counts, so
 *    they are credited whole to the window containing the epoch's end
 *    (the epoch is when the latency work is priced). A run-cumulative
 *    sketch yields whole-run p50/p90/p99/p999 without storing samples.
 *
 * Unlike an Observer, telemetry does NOT force the per-line access
 * engine: the batched engine feeds bulk noteLatency(lat, n) calls that
 * land in exactly the buckets n per-line calls would, so telemetry
 * collection keeps batched/parallel performance. Runs are independent
 * (one per sweep point) and the export sorts by run label, which is
 * what keeps --jobs=N output byte-identical to serial.
 *
 * TelemetrySession owns the runs of one bench invocation and renders
 * the sparse CSV (run,window,t0,t1,channel,metric,value), the
 * nvsim-telemetry-v1 JSON and the per-run SLO report (slo.hh).
 */

#ifndef NVSIM_OBS_TELEMETRY_TELEMETRY_HH
#define NVSIM_OBS_TELEMETRY_TELEMETRY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/timeseries.hh"
#include "imc/counters.hh"
#include "obs/manifest.hh"
#include "obs/telemetry/sketch.hh"
#include "obs/telemetry/slo.hh"

namespace nvsim::obs
{

/** Telemetry output selection, parsed from bench argv. */
struct TelemetryOptions
{
    std::string csvPath;   //!< --telemetry= windowed series CSV
    std::string jsonPath;  //!< --telemetry-json= nvsim-telemetry-v1
    std::string sloSpec;   //!< --slo= objective spec (slo.hh grammar)
    double windowSeconds = 1e-3;    //!< --telemetry-window=
    std::size_t ringWindows = 4096; //!< --telemetry-ring= (0 = all)

    /** Session provenance, embedded in every artifact (manifest.hh). */
    RunManifest manifest;

    std::string anomalyJsonPath;  //!< --anomaly-report= JSON file
    double anomalyZ = 6.0;        //!< --anomaly-z= robust z threshold

    bool
    any() const
    {
        return !csvPath.empty() || !jsonPath.empty() ||
               !sloSpec.empty() || !anomalyJsonPath.empty();
    }
};

/** One telemetry window: fractional counter deltas plus latencies. */
struct TelemetryWindow
{
    std::int64_t index = 0;  //!< window number (t0 = index * window_s)
    double activeS = 0;      //!< seconds of epoch overlap
    double epochs = 0;       //!< fractional epochs contributing
    double demandBytes = 0;
    /** Aggregate counter deltas, PerfField order. */
    std::array<double, PerfCounters::numFields()> all{};
    /** Per-channel counter deltas: channel-major, PerfField order. */
    std::vector<double> perChannel;
    LatencySketch sketch;
};

/** Per-run telemetry collector (one per observed MemorySystem). */
class TelemetryRun
{
  public:
    static constexpr std::size_t kFields = PerfCounters::numFields();

    TelemetryRun(std::string label, const TelemetryOptions &opts);

    const std::string &label() const { return label_; }
    double windowSeconds() const { return window_; }
    unsigned numChannels() const { return nch_; }

    /** @name Per-run provenance (set by MemorySystem at attach). */
    ///@{
    void setProvenance(ConfigDigest d) { provenance_ = std::move(d); }
    const ConfigDigest &provenance() const { return provenance_; }
    ///@}

    /** @name Hot-path hooks (wired by MemorySystem) */
    ///@{
    /** @p count demand requests each took @p latency_s. */
    void
    noteLatency(double latency_s, std::uint64_t count = 1)
    {
        pending_.add(static_cast<std::uint64_t>(
                         latency_s * 1e9 + 0.5),
                     count);
    }

    /**
     * An epoch [t0, t1) closed; @p per_channel are the @p nch channels'
     * cumulative counter blocks (this run diffs against its own
     * snapshots).
     */
    void onEpoch(double t0, double t1, std::uint64_t demand_bytes,
                 const PerfCounters *per_channel, unsigned nch);

    /** Baseline the snapshots at attach time (mid-run attach). */
    void prime(const PerfCounters *per_channel, unsigned nch);

    /** Counters and clock were zeroed: discard warmup windows. */
    void onCountersReset();
    ///@}

    /** Fold any latencies pending past the last epoch. Idempotent. */
    void finish();

    /** @name Results */
    ///@{
    const Ring<TelemetryWindow> &windows() const { return windows_; }
    std::uint64_t windowsDropped() const { return windows_.dropped(); }

    /** Exact cumulative counter totals (uint64, PerfField order). */
    const std::array<std::uint64_t, kFields> &totals() const
    {
        return totals_;
    }

    /** Whole-run latency sketch. */
    const LatencySketch &runSketch() const { return runSketch_; }

    /** Whole-run latency quantile in nanoseconds. */
    std::uint64_t
    quantileNs(double q) const
    {
        return runSketch_.quantile(q);
    }

    /**
     * Derived per-window metric by name (the SLO grammar's metric set:
     * eff_gbs, dram_gbs, nvram_gbs, amplification, maint_duty,
     * latency_count, p50_ns, p90_ns, p99_ns, p999_ns, min_ns, max_ns,
     * mean_ns, active_s, epochs). Returns false when the metric does
     * not apply to @p w (e.g. a percentile of an empty sketch).
     */
    static bool windowMetric(const TelemetryWindow &w,
                             const std::string &metric, double *out);

    /** Is @p metric a name windowMetric() understands? */
    static bool knownMetric(const std::string &metric);
    ///@}

  private:
    TelemetryWindow &windowFor(std::int64_t index);

    std::string label_;
    double window_;
    unsigned nch_ = 0;
    bool finished_ = false;
    ConfigDigest provenance_;

    Ring<TelemetryWindow> windows_;
    std::vector<std::uint64_t> snapshots_;  //!< nch * kFields
    std::array<std::uint64_t, kFields> totals_{};
    LatencySketch pending_;   //!< latencies since the last epoch close
    LatencySketch runSketch_;
};

/** Multi-run telemetry collection + file output for one bench. */
class TelemetrySession
{
  public:
    /** Parses the SLO spec eagerly: a typo dies before any run. */
    explicit TelemetrySession(TelemetryOptions opts);

    bool enabled() const { return opts_.any(); }
    const SloSpec &slo() const { return slo_; }

    /**
     * Create the collector for one run. Thread-safe: sweep workers
     * begin runs concurrently; each returned TelemetryRun is used by
     * its worker only. Returns nullptr when telemetry is off.
     */
    TelemetryRun *beginRun(const std::string &label);

    /** finish() every run (before rendering). */
    void finishAll();

    /**
     * Write the CSV/JSON outputs and print the SLO report. Runs are
     * sorted by label so output is byte-identical for any --jobs=N.
     * I/O failure is fatal unless @p from_destructor.
     */
    void writeFiles(bool from_destructor);

  private:
    TelemetryOptions opts_;
    SloSpec slo_;
    std::mutex mu_;
    std::vector<std::unique_ptr<TelemetryRun>> runs_;
    bool written_ = false;
};

} // namespace nvsim::obs

#endif // NVSIM_OBS_TELEMETRY_TELEMETRY_HH
