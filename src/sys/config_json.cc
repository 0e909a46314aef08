/**
 * @file
 * Declarative SystemConfig <-> JSON.
 *
 * Each config struct has one field list: its (JSON key, member) pairs
 * in output order. The strict Reader (fromJson) and the Writer (toJson)
 * both walk those lists, so a key is declared once and reading and
 * writing cannot drift apart. fromJson starts from the defaults and
 * applies only the keys present; toJson always emits the complete key
 * set, so a captured config round-trips exactly. Unknown keys — at any
 * nesting level — are fatal: a typo'd knob must never silently run
 * with its default.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <type_traits>

#include "core/json.hh"
#include "core/logging.hh"
#include "obs/json.hh"
#include "sys/config.hh"

namespace nvsim
{

namespace
{

// --- Field lists -----------------------------------------------------------
//
// v(key, member) visits a scalar, enum or nested struct member;
// v.object(key, body) visits a JSON object whose keys body(v) lists.
// The order here is the toJson key order, which feeds the provenance
// config hash.

void
fields(auto &v, DramParams &p)
{
    v("capacity", p.capacity);
    v("bandwidth", p.bandwidth);
    v("latency", p.latency);
}

void
fields(auto &v, NvramParams &p)
{
    v("capacity", p.capacity);
    v("read_bandwidth", p.readBandwidth);
    v("write_bandwidth", p.writeBandwidth);
    v("read_latency", p.readLatency);
    v("write_latency", p.writeLatency);
    v("read_buffer_entries", p.readBufferEntries);
    v("wpq_entries", p.wpqEntries);
    v("write_contention_alpha", p.writeContentionAlpha);
    v("write_contention_knee", p.writeContentionKnee);
}

void
fields(auto &v, ThrottleConfig &p)
{
    v("engage_bandwidth", p.engageBandwidth);
    v("release_bandwidth", p.releaseBandwidth);
    v("engage_epochs", p.engageEpochs);
    v("release_epochs", p.releaseEpochs);
    v("factor", p.factor);
}

void
fields(auto &v, FaultConfig &p)
{
    v("seed", p.seed);
    v("nvram_read_correctable", p.nvramReadCorrectable);
    v("nvram_read_uncorrectable", p.nvramReadUncorrectable);
    v("nvram_write_correctable", p.nvramWriteCorrectable);
    v("nvram_write_uncorrectable", p.nvramWriteUncorrectable);
    v("dram_correctable", p.dramCorrectable);
    v("tag_ecc_uncorrectable", p.tagEccUncorrectable);
    v("max_retries", p.maxRetries);
    v("retry_latency", p.retryLatency);
    v("throttle", p.throttle);
}

void
fields(auto &v, RefreshConfig &p)
{
    v("trefi", p.trefi);
    v("trfc", p.trfc);
}

void
fields(auto &v, ScrubConfig &p)
{
    v("interval", p.interval);
    v("correctable", p.correctable);
    v("uncorrectable", p.uncorrectable);
    v("retire_threshold", p.retireThreshold);
    v("retire_capacity", p.retireCapacity);
}

void
fields(auto &v, RowHammerConfig &p)
{
    v("threshold", p.threshold);
    v("tracker_entries", p.trackerEntries);
    v("row_bytes", p.rowBytes);
    v("blast_radius", p.blastRadius);
    v("refresh_latency", p.refreshLatency);
    v("window", p.window);
}

void
fields(auto &v, MaintenanceConfig &p)
{
    v("seed", p.seed);
    v("refresh", p.refresh);
    v("scrub", p.scrub);
    v("rowhammer", p.rowhammer);
}

void
fields(auto &v, ControllerConfig &p)
{
    v("scheduler", p.scheduler);
    v("read_queue_entries", p.readQueueEntries);
    v("write_queue_entries", p.writeQueueEntries);
    v("banks", p.banks);
    v("row_bytes", p.rowBytes);
    v("drain_high_watermark", p.drainHighWatermark);
    v("drain_low_watermark", p.drainLowWatermark);
    v("starvation_cap", p.starvationCap);
    v("bank_conflict_penalty", p.bankConflictPenalty);
    v("offered_gbs", p.offeredGBs);
}

void
fields(auto &v, CachePolicyConfig &p)
{
    v("kind", p.kind);
    v("replacement", p.replacement);
    v("insert_threshold", p.insertThreshold);
    v("counter_entries", p.counterEntries);
}

void
fields(auto &v, SystemConfig &c)
{
    v("sockets", c.sockets);
    v("channels_per_socket", c.channelsPerSocket);
    v("scale", c.scale);
    v("mode", c.mode);
    v("dram", c.dram);
    v("nvram", c.nvram);
    v("fault", c.fault);
    v("maintenance", c.maintenance);
    v("controller", c.controller);
    v.object("ddo", [&](auto &o) { o("mode", c.ddoMode); });
    v("policy", c.policy);
    v("cache_ways", c.cacheWays);
    v("insert_on_write_miss", c.insertOnWriteMiss);
    v("miss_handler_entries", c.missHandlerEntries);
    v("bus_bandwidth", c.busBandwidth);
    v.object("llc", [&](auto &o) {
        o("capacity", c.llcCapacity);
        o("ways", c.llcWays);
        o("hit_latency", c.llcHitLatency);
    });
    v("mlp", c.mlp);
    v("thread_issue_bandwidth", c.threadIssueBandwidth);
    v("thread_nt_store_bandwidth", c.threadNtStoreBandwidth);
    v("interleave_granularity", c.interleaveGranularity);
    v("dma_engines", c.dmaEngines);
    v("dma_engine_bandwidth", c.dmaEngineBandwidth);
    v("epoch_bytes", c.epochBytes);
    v("scatter_pages", c.scatterPages);
    v("page_bytes", c.pageBytes);
    v("page_seed", c.pageSeed);
}

// --- Enum names ------------------------------------------------------------

const char *enumName(MemoryMode m) { return memoryModeName(m); }
const char *enumName(DdoMode m) { return ddoModeName(m); }

// Every value of each config enum, so a name parses by lookup.
constexpr MemoryMode kModes[] = {MemoryMode::OneLm, MemoryMode::TwoLm};
constexpr DdoMode kDdoModes[] = {DdoMode::None, DdoMode::RecentTracker,
                                 DdoMode::Oracle};
const auto &enumValues(MemoryMode) { return kModes; }
const auto &enumValues(DdoMode) { return kDdoModes; }

// --- Visitors --------------------------------------------------------------

/**
 * Applies the keys present in one JSON object to the members, then
 * rejects any key the field list did not name. Type mismatches are
 * fatal inside JsonValue's typed accessors.
 */
class Reader
{
  public:
    Reader(const JsonValue &value, std::string path)
        : value_(value), path_(std::move(path))
    {
    }

    template <class T>
    void
    operator()(const char *key, T &member)
    {
        if constexpr (std::is_class_v<T> &&
                      !std::is_same_v<T, std::string>) {
            object(key, [&](Reader &o) { fields(o, member); });
        } else {
            const JsonValue *v = claim(key);
            if (!v)
                return;
            if constexpr (std::is_same_v<T, bool>)
                member = v->asBool();
            else if constexpr (std::is_same_v<T, double>)
                member = v->asNumber();
            else if constexpr (std::is_same_v<T, std::string>)
                member = v->asString();
            else if constexpr (std::is_enum_v<T>)
                member = parseEnum<T>(key, v->asString());
            else
                member = integer<T>(key, v->asNumber());
        }
    }

    template <class Body>
    void
    object(const char *key, Body body)
    {
        if (const JsonValue *v = claim(key)) {
            Reader child(*v, where(key));
            body(child);
            child.finish();
        }
    }

    /** After the field list ran: reject the keys it did not claim. */
    void
    finish() const
    {
        for (const auto &m : value_.members()) {
            if (std::find(claimed_.begin(), claimed_.end(), m.first) ==
                claimed_.end())
                fatal("config: unknown key '%s' in %s", m.first.c_str(),
                      path_.empty() ? "the top-level object"
                                    : path_.c_str());
        }
    }

  private:
    /** Mark @p key known; returns its value or nullptr. */
    const JsonValue *
    claim(const char *key)
    {
        claimed_.push_back(key);
        return value_.find(key);
    }

    /** "path.key", the key's dotted location for messages. */
    std::string
    where(const char *key) const
    {
        return path_.empty() ? key : path_ + "." + key;
    }

    /** @p n as a T; fatal unless it is an integer T can hold. */
    template <class T>
    T
    integer(const char *key, double n) const
    {
        // 2^digits is one past T's maximum and exact as a double.
        const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
        if (!(n >= 0 && n < limit) || n != std::floor(n))
            fatal("config: %s must be an integer in [0, %llu], got %g",
                  where(key).c_str(),
                  static_cast<unsigned long long>(
                      std::numeric_limits<T>::max()),
                  n);
        return static_cast<T>(n);
    }

    template <class E>
    E
    parseEnum(const char *key, const std::string &name) const
    {
        std::string list;
        for (E e : enumValues(E{})) {
            if (name == enumName(e))
                return e;
            list += list.empty() ? "" : "|";
            list += enumName(e);
        }
        fatal("config: %s must be one of %s, got \"%s\"",
              where(key).c_str(), list.c_str(), name.c_str());
    }

    const JsonValue &value_;
    std::string path_;  //!< dotted key path; empty at the top level
    std::vector<const char *> claimed_;
};

/** Emits every member in field-list order. */
class Writer
{
  public:
    explicit Writer(std::ostream &out) : w_(out) {}

    template <class T>
    void
    operator()(const char *key, T &member)
    {
        if constexpr (std::is_class_v<T> &&
                      !std::is_same_v<T, std::string>)
            object(key, [&](Writer &o) { fields(o, member); });
        else if constexpr (std::is_enum_v<T>)
            w_.field(key, enumName(member));
        else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>)
            w_.field(key, std::uint64_t(member));
        else
            w_.field(key, member);
    }

    template <class Body>
    void
    object(const char *key, Body body)
    {
        w_.beginObject(key);
        body(*this);
        w_.endObject();
    }

  private:
    obs::JsonWriter w_;
};

SystemConfig
configFromRoot(const JsonValue &root)
{
    SystemConfig c;
    Reader r(root, "");
    fields(r, c);
    r.finish();
    return c;
}

} // namespace

SystemConfig
SystemConfig::fromJson(const std::string &text)
{
    return configFromRoot(parseJson(text, "config"));
}

SystemConfig
SystemConfig::fromJsonFile(const std::string &path)
{
    return configFromRoot(parseJsonFile(path));
}

std::string
SystemConfig::toJson() const
{
    // The field lists take mutable members so the Reader can share
    // them; the Writer only reads, so it walks a copy.
    SystemConfig c = *this;
    std::ostringstream out;
    Writer w(out);
    w.object("", [&](Writer &o) { fields(o, c); });
    return out.str();
}

} // namespace nvsim
