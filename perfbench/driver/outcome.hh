/**
 * @file
 * What one sweep point reports, and the line format a repetition's
 * child process uses to hand it to the parent.
 */

#ifndef PERFBENCH_OUTCOME_HH
#define PERFBENCH_OUTCOME_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "imc/counters.hh"

namespace perfbench
{

/** Shortest decimal text that reads back as exactly @p v. */
std::string exactNumber(double v);

/** One sweep point (one operation) of a workload repetition. */
struct PointOutcome
{
    std::string label;
    bool ok = true;
    std::string error;          //!< first reason the point failed
    double setupS = 0;          //!< host seconds before the measured phase
    double measuredS = 0;       //!< host seconds of the measured phase
    std::uint64_t lines = 0;    //!< PerfCounters::demand(), measured phase
    std::vector<std::string> rows;              //!< figure CSV rows
    std::vector<nvsim::PerfCounters> counters;  //!< measured-phase blocks
    /**
     * Named simulated outputs (model.*) and real-run layer numbers
     * (LLC hits, NVRAM write amplification); all deterministic.
     */
    std::vector<std::pair<std::string, double>> values;

    /** Mark failed; the first reason is kept. */
    void
    fail(std::string why)
    {
        if (ok) {
            ok = false;
            error = std::move(why);
        }
    }

    /** The named value, or @p fallback when absent. */
    double value(const std::string &name, double fallback = 0) const;

    /** Digest of everything that must repeat exactly. */
    std::string digest() const;
};

/** Write @p p as a block of tab-separated lines. */
void writeOutcome(std::FILE *out, const PointOutcome &p);

/** Write one named number (a layer metric) as a line. */
void writeMetric(std::FILE *out, const std::string &name, double v);

/** Everything a child process reported. */
struct Messages
{
    std::vector<PointOutcome> points;
    std::vector<std::pair<std::string, double>> metrics;
};

/** Parse the lines written by writeOutcome() and writeMetric(). */
Messages parseMessages(const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_OUTCOME_HH
