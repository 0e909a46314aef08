/**
 * @file
 * Shared console-table and CSV helpers for the paper-reproduction
 * bench binaries. Every binary prints the rows/series its table or
 * figure reports, plus the paper's qualitative expectation, so the
 * output is self-checking by eye (EXPERIMENTS.md records the
 * comparison).
 */

#ifndef NVSIM_BENCH_COMMON_HH
#define NVSIM_BENCH_COMMON_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/logging.hh"
#include "exec/sweep.hh"
#include "obs/session.hh"
#include "sys/memsys.hh"

namespace nvsim::bench
{

namespace detail
{

/** --flag=value matcher; fatal on an empty value. */
inline bool
matchFlag(const char *arg, const char *flag, std::string *out)
{
    std::size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) != 0)
        return false;
    *out = arg + n;
    if (out->empty())
        fatal("%s needs a value", flag);
    return true;
}

inline std::uint64_t
numberArg(const std::string &value, const char *flag)
{
    char *end = nullptr;
    std::uint64_t v = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0')
        fatal("%s wants a number, got '%s'", flag, value.c_str());
    return v;
}

/**
 * Duration argument: a positive number with an optional s/ms/us/ns
 * suffix (plain numbers are seconds). Returns seconds.
 */
inline double
timeArg(const std::string &value, const char *flag)
{
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str())
        fatal("%s wants a duration, got '%s'", flag, value.c_str());
    std::string unit(end);
    if (unit == "" || unit == "s")
        ;  // seconds
    else if (unit == "ms")
        v *= 1e-3;
    else if (unit == "us")
        v *= 1e-6;
    else if (unit == "ns")
        v *= 1e-9;
    else
        fatal("%s: unknown duration unit '%s' (use s/ms/us/ns)", flag,
              unit.c_str());
    if (v <= 0)
        fatal("%s must be positive, got '%s'", flag, value.c_str());
    return v;
}

/** Real-valued argument (e.g. a z-score threshold). */
inline double
realArg(const std::string &value, const char *flag)
{
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        fatal("%s wants a number, got '%s'", flag, value.c_str());
    return v;
}

} // namespace detail

/** Options shared by every bench binary. */
struct BenchOptions
{
    obs::SessionOptions obs;
    /** Sweep worker threads; 0 = hardware concurrency, 1 = serial. */
    unsigned jobs = 0;
    /** Use the reference per-line access engine instead of batching. */
    bool perLine = false;
    /** --config= path; empty = use the bench's built-in defaults. */
    std::string configPath;
};

/**
 * One bench flag. This row alone drives its parsing, whether it is
 * recorded in the provenance manifest, and its entry in benchUsage().
 */
struct BenchFlag
{
    /** "--name=" for a flag that takes a value, "--name" for a switch. */
    const char *name;
    /** Value kind shown in the usage ("FILE", "N", ...); null: switch. */
    const char *metavar;
    /**
     * Cannot change any simulated result (output paths, worker
     * counts, report sizes): kept out of the provenance manifest so
     * the same experiment writes byte-identical artifacts at any
     * --jobs=N or output filename.
     */
    bool neutral;
    /** Usage text; each '\n' starts a continuation line. */
    const char *help;
    /** Store @p value (empty for a switch); @p flag names the row. */
    void (*set)(BenchOptions &opts, const std::string &value,
                const char *flag);
};

/** Every flag the benches share, in usage order. */
inline const BenchFlag kBenchFlags[] = {
    {"--config=", "FILE", false,
     "declarative SystemConfig JSON; the\n"
     "bench's built-in defaults otherwise",
     [](BenchOptions &o, const std::string &v, const char *) {
         o.configPath = v;
     }},
    {"--jobs=", "N", true,
     "run sweep points on N worker threads\n"
     "(default: hardware concurrency;\n"
     "output is byte-identical for any N)",
     [](BenchOptions &o, const std::string &v, const char *f) {
         o.jobs = static_cast<unsigned>(detail::numberArg(v, f));
         if (o.jobs == 0)
             fatal("%s must be >= 1", f);
     }},
    {"--per-line", nullptr, false,
     "reference per-line access engine\n"
     "(diagnostics; identical, slower)",
     [](BenchOptions &o, const std::string &, const char *) {
         o.perLine = true;
     }},
    {"--stats-json=", "FILE", true, "hierarchical stats registry as JSON",
     [](BenchOptions &o, const std::string &v, const char *) {
         o.obs.statsJsonPath = v;
     }},
    {"--stats-prom=", "FILE", true, "same registry, Prometheus text",
     [](BenchOptions &o, const std::string &v, const char *) {
         o.obs.statsPromPath = v;
     }},
    {"--perfetto=", "FILE", true, "Chrome-trace JSON (ui.perfetto.dev)",
     [](BenchOptions &o, const std::string &v, const char *) {
         o.obs.perfettoPath = v;
     }},
    {"--set-heatmap=", "FILE", true, "per-set DRAM cache conflict CSV",
     [](BenchOptions &o, const std::string &v, const char *) {
         o.obs.heatmapPath = v;
     }},
    {"--top-sets=", "N", true, "hottest-set report size (default 16)",
     [](BenchOptions &o, const std::string &v, const char *f) {
         o.obs.topSets = static_cast<std::size_t>(detail::numberArg(v, f));
     }},
    {"--causal-trace=", "FILE", true, "per-request causal attribution JSON",
     [](BenchOptions &o, const std::string &v, const char *) {
         o.obs.causalJsonPath = v;
     }},
    {"--folded-stacks=", "FILE", true, "folded flamegraph lines",
     [](BenchOptions &o, const std::string &v, const char *) {
         o.obs.foldedPath = v;
     }},
    {"--causal-sample=", "N", false, "sample 1-in-N requests (default 64)",
     [](BenchOptions &o, const std::string &v, const char *f) {
         o.obs.causalSamplePeriod = detail::numberArg(v, f);
         if (o.obs.causalSamplePeriod == 0)
             fatal("%s must be >= 1", f);
     }},
    {"--causal-seed=", "S", false, "sampling/reservoir seed (default 1)",
     [](BenchOptions &o, const std::string &v, const char *f) {
         o.obs.causalSeed = detail::numberArg(v, f);
     }},
    {"--telemetry=", "FILE", true,
     "windowed counter/rate time-series CSV\n"
     "(does not force serial execution)",
     [](BenchOptions &o, const std::string &v, const char *) {
         o.obs.telemetry.csvPath = v;
     }},
    {"--telemetry-json=", "FILE", true,
     "nvsim-telemetry-v1 JSON (totals,\n"
     "latency percentiles, windows, SLO)",
     [](BenchOptions &o, const std::string &v, const char *) {
         o.obs.telemetry.jsonPath = v;
     }},
    {"--telemetry-window=", "T", false,
     "window length; s/ms/us/ns suffix\n"
     "(default 1ms)",
     [](BenchOptions &o, const std::string &v, const char *f) {
         o.obs.telemetry.windowSeconds = detail::timeArg(v, f);
     }},
    {"--telemetry-ring=", "N", false,
     "windows kept per run, 0 = unbounded\n"
     "(default 4096; oldest evicted first)",
     [](BenchOptions &o, const std::string &v, const char *f) {
         o.obs.telemetry.ringWindows =
             static_cast<std::size_t>(detail::numberArg(v, f));
     }},
    {"--slo=", "SPEC", false,
     "objectives, e.g.\n"
     "'p99_ns<2000;eff_gbs>10@95%'; the\n"
     "report prints PASS/FAIL per run",
     [](BenchOptions &o, const std::string &v, const char *) {
         o.obs.telemetry.sloSpec = v;
     }},
    {"--anomaly-report=", "FILE", true,
     "per-window anomaly detector\n"
     "firings as nvsim-anomaly-v1 JSON",
     [](BenchOptions &o, const std::string &v, const char *) {
         o.obs.telemetry.anomalyJsonPath = v;
     }},
    {"--anomaly-z=", "Z", false,
     "robust z-score firing threshold\n"
     "(default 6.0)",
     [](BenchOptions &o, const std::string &v, const char *f) {
         o.obs.telemetry.anomalyZ = detail::realArg(v, f);
         if (o.obs.telemetry.anomalyZ <= 0)
             fatal("%s must be positive", f);
     }},
};

/** The flag summary printed when an argument is rejected. */
inline std::string
benchUsage()
{
    std::string out = "flags:";
    for (const BenchFlag &f : kBenchFlags) {
        std::string label =
            std::string(f.name) + (f.metavar ? f.metavar : "");
        // Help text starts in column 22, after at least one space;
        // continuation lines are indented to match.
        out += "\n  " + label;
        out.append(label.size() < 19 ? 20 - label.size() : 1, ' ');
        for (const char *h = f.help; *h; ++h) {
            out += *h;
            if (*h == '\n')
                out.append(22, ' ');
        }
    }
    return out;
}

/**
 * Parse the flags every bench shares — observability collection
 * (opt-in; with no flags the Session is disabled and output is
 * bit-identical to a flagless build), the sweep-engine flags
 * (--jobs=N, --per-line), and --config=FILE for a declarative
 * SystemConfig (see benchConfig()). Unknown arguments are fatal with
 * the full usage text, so typos never silently run with defaults.
 *
 * Also applies the engine selection process-wide so every
 * MemorySystem the bench builds uses the requested engine.
 */
inline BenchOptions
parseBenchArgs(int &argc, char **argv, bool keep_unknown)
{
    BenchOptions opts;
    obs::RunManifest &man = opts.obs.telemetry.manifest;
    if (argc > 0 && argv[0]) {
        const char *slash = std::strrchr(argv[0], '/');
        man.bench = slash ? slash + 1 : argv[0];
    }
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::string value;
        const BenchFlag *flag = nullptr;
        for (const BenchFlag &f : kBenchFlags) {
            if (f.metavar ? detail::matchFlag(arg, f.name, &value)
                          : std::strcmp(arg, f.name) == 0) {
                flag = &f;
                break;
            }
        }
        if (!flag) {
            if (!keep_unknown)
                fatal("unknown argument '%s'\n%s", arg,
                      benchUsage().c_str());
            argv[kept++] = argv[i];
            continue;
        }
        flag->set(opts, value, flag->name);
        // Provenance: record the flags that can change results;
        // neutral ones would break the byte-identical-at-any-jobs
        // guarantee.
        if (!flag->neutral)
            man.flags.push_back(arg);
    }
    if (keep_unknown) {
        argc = kept;
        argv[argc] = nullptr;
    }
    man.causalSeed = opts.obs.causalSeed;
    MemorySystem::setBatchedAccessDefault(!opts.perLine);
    return opts;
}

inline BenchOptions
parseBenchOptions(int argc, char **argv)
{
    return parseBenchArgs(argc, argv, false);
}

/**
 * parseBenchOptions for binaries that share argv with another flag
 * parser (the google-benchmark suite): consumes every nvsim flag,
 * compacts argv in place to the remaining arguments, and updates
 * @p argc — pass the compacted argv on to benchmark::Initialize().
 */
inline BenchOptions
parseBenchOptionsPartial(int &argc, char **argv)
{
    return parseBenchArgs(argc, argv, true);
}

/**
 * The SystemConfig a bench should start from: the file named by
 * --config= when given (unknown keys fatal), else @p defaults. The
 * bench applies its workload-defining fields (mode, scale, sizing) on
 * top of the returned config, so a config file customizes the platform
 * while the bench still measures what its name says.
 */
inline SystemConfig
benchConfig(const BenchOptions &opts, const SystemConfig &defaults = {})
{
    if (opts.configPath.empty())
        return defaults;
    return SystemConfig::fromJsonFile(opts.configPath);
}

/**
 * Worker count a sweep should actually use: the requested --jobs
 * (hardware concurrency when unset), forced to 1 when Observer-based
 * collection is on — the obs Session serializes those runs on one
 * timeline. Telemetry-only sessions keep full parallelism (runs are
 * independent and the export is order-normalized).
 */
inline unsigned
effectiveJobs(const BenchOptions &opts, const obs::Session &session)
{
    unsigned jobs = opts.jobs ? opts.jobs : exec::hardwareJobs();
    if (session.serialRequired() && jobs > 1) {
        inform("observability session enabled: running sweep serially "
               "(--jobs=%u ignored)",
               jobs);
        jobs = 1;
    }
    return jobs;
}

/**
 * Begin observing @p label and attach the observer and/or telemetry
 * collector to @p sys — the begin/attach boilerplate every bench run
 * repeats. Either may be null (its flags off); with no flags at all
 * both are and the run is untouched.
 */
inline obs::Observer *
attachRun(obs::Session &session, MemorySystem &sys,
          const std::string &label)
{
    obs::Observer *o = session.beginRun(label);
    if (o)
        sys.attachObserver(o);
    if (obs::TelemetryRun *tel = session.beginTelemetryRun(label))
        sys.attachTelemetry(tel);
    return o;
}

/** Banner with the experiment id and the paper's expectation. */
inline void
banner(const std::string &title, const std::string &expectation)
{
    std::printf("\n=== %s ===\n", title.c_str());
    if (!expectation.empty())
        std::printf("paper expectation: %s\n", expectation.c_str());
    std::printf("\n");
}

/** Simple aligned console table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {
    }

    void
    row(std::vector<std::string> fields)
    {
        rows_.push_back(std::move(fields));
    }

    void
    print() const
    {
        std::vector<std::size_t> width(headers_.size());
        for (std::size_t c = 0; c < headers_.size(); ++c)
            width[c] = headers_[c].size();
        for (const auto &r : rows_) {
            for (std::size_t c = 0; c < r.size() && c < width.size();
                 ++c)
                width[c] = std::max(width[c], r[c].size());
        }
        auto print_row = [&](const std::vector<std::string> &r) {
            for (std::size_t c = 0; c < headers_.size(); ++c) {
                const std::string &f = c < r.size() ? r[c] : "";
                std::printf("%-*s  ", static_cast<int>(width[c]),
                            f.c_str());
            }
            std::printf("\n");
        };
        print_row(headers_);
        std::size_t total = 0;
        for (std::size_t c = 0; c < headers_.size(); ++c)
            total += width[c] + 2;
        std::printf("%s\n", std::string(total, '-').c_str());
        for (const auto &r : rows_)
            print_row(r);
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** printf into a std::string (bench-local convenience). */
inline std::string
fmt(const char *f, ...)
{
    // Size with a first pass so long fields (graph names, paths) are
    // never silently truncated.
    va_list ap;
    va_start(ap, f);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, f, ap2);
    va_end(ap2);
    if (n < 0) {
        va_end(ap);
        return "<format error>";
    }
    std::string out(static_cast<std::size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, f, ap);
    va_end(ap);
    return out;
}

/** Format bytes as GB with 1 decimal. */
inline std::string
gb(double bytes)
{
    return fmt("%.2f", bytes / 1e9);
}

/** Format a bandwidth in GB/s with 2 decimals. */
inline std::string
gbs(double bytes_per_sec)
{
    return fmt("%.2f", bytes_per_sec / 1e9);
}

} // namespace nvsim::bench

#endif // NVSIM_BENCH_COMMON_HH
