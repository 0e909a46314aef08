/**
 * @file
 * Host-side clocks and the traced run's span log.
 *
 * Spans are recorded by the driver around the public calls it makes
 * into each nvsim layer, kept in memory and summed by name when the
 * run ends. A null log makes every scope a single pointer test, which
 * is how the timed runs stay untraced.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <chrono>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Host seconds on the monotonic clock. */
inline double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Host CPU seconds used by this process, all threads together. */
inline double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** In-memory span log: name, start, end and the enclosing span. */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1;
    };

    int
    open(const char *name)
    {
        int id = static_cast<int>(spans_.size());
        spans_.push_back({name, hostNow(), 0, current_});
        current_ = id;
        return id;
    }

    void
    close(int id)
    {
        spans_[static_cast<std::size_t>(id)].end = hostNow();
        current_ = spans_[static_cast<std::size_t>(id)].parent;
    }

    /** Total seconds per span name. */
    std::map<std::string, double>
    totals() const
    {
        std::map<std::string, double> out;
        for (const Span &s : spans_)
            out[s.name] += s.end - s.start;
        return out;
    }

  private:
    std::vector<Span> spans_;
    int current_ = -1;
};

/** RAII span on @p log; free when @p log is null. */
class Scope
{
  public:
    Scope(Spans *log, const char *name)
        : log_(log), id_(log ? log->open(name) : -1)
    {
    }

    ~Scope()
    {
        if (log_)
            log_->close(id_);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Spans *log_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
