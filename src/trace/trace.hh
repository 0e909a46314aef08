/**
 * @file
 * Memory-access trace capture and replay.
 *
 * Workloads can be recorded once and replayed against differently
 * configured machines (other DDO policies, associativities, modes),
 * which turns any application run into a reusable benchmark input —
 * the same decoupling the paper gets from its performance-counter
 * methodology. The format is a small binary: a header followed by
 * fixed-size records; epoch markers preserve explicit timing
 * boundaries (kernel edges) across replay.
 */

#ifndef NVSIM_TRACE_TRACE_HH
#define NVSIM_TRACE_TRACE_HH

#include <cstdint>
#include <fstream>
#include <string>

#include "sys/memsys.hh"

namespace nvsim::trace
{

/** One recorded event. */
struct TraceRecord
{
    enum class Kind : std::uint8_t {
        Access,       //!< a CPU access
        EpochMarker,  //!< an explicit advanceEpoch()
        ComputeTime,  //!< addComputeTime(seconds via bits)
    };

    Kind kind = Kind::Access;
    CpuOp op = CpuOp::Load;
    std::uint16_t thread = 0;
    Addr addr = 0;
    std::uint32_t size = 0;
    double compute = 0;  //!< seconds, Kind::ComputeTime only
};

/** Streaming binary trace writer. */
class TraceWriter
{
  public:
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    void access(unsigned thread, CpuOp op, Addr addr, Bytes size);
    void epochMarker();
    void computeTime(double seconds);

    std::uint64_t records() const { return count_; }

    /** Flush and finalize the header. */
    void close();

  private:
    void put(const TraceRecord &rec);

    std::ofstream out_;
    std::string path_;
    std::uint64_t count_ = 0;
    bool closed_ = false;
};

/** Streaming binary trace reader. */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path);

    /** Read the next record; false at end of trace. */
    bool next(TraceRecord &rec);

    std::uint64_t records() const { return count_; }

  private:
    std::ifstream in_;
    std::uint64_t count_ = 0;
    std::uint64_t consumed_ = 0;
};

/**
 * A pass-through facade that forwards the MemorySystem workload API
 * while recording every call. Workload code templated/written against
 * the same method names runs unmodified.
 */
class RecordingSystem
{
  public:
    RecordingSystem(MemorySystem &sys, const std::string &path)
        : sys_(sys), writer_(path)
    {
    }

    void
    submit(const AccessBatch &batch)
    {
        writer_.access(batch.thread, batch.op, batch.addr, batch.size);
        sys_.submit(batch);
    }

    void
    touchLine(unsigned thread, CpuOp op, Addr line_addr)
    {
        writer_.access(thread, op, line_addr, kLineSize);
        sys_.touchLine(thread, op, line_addr);
    }

    void
    advanceEpoch()
    {
        writer_.epochMarker();
        sys_.advanceEpoch();
    }

    void
    addComputeTime(double seconds)
    {
        writer_.computeTime(seconds);
        sys_.addComputeTime(seconds);
    }

    MemorySystem &system() { return sys_; }
    TraceWriter &writer() { return writer_; }

  private:
    MemorySystem &sys_;
    TraceWriter writer_;
};

/**
 * Replay a trace against a machine. Returns the number of records
 * replayed. The caller controls setActiveThreads and quiesce().
 */
std::uint64_t replay(MemorySystem &sys, const std::string &path);

} // namespace nvsim::trace

#endif // NVSIM_TRACE_TRACE_HH
