#include "obs/causal.hh"

#include "obs/json.hh"
#include "obs/perfetto.hh"

namespace nvsim::obs
{

namespace
{

const char *
deviceName(MemPool pool)
{
    return pool == MemPool::Dram ? "dram" : "nvram";
}

const char *
displayContext(const std::string &ctx)
{
    return ctx.empty() ? "(root)" : ctx.c_str();
}

} // namespace

const char *
requestClassName(MemRequestKind kind, CacheOutcome outcome)
{
    bool read = kind == MemRequestKind::LlcRead;
    switch (outcome) {
      case CacheOutcome::Hit:
        return read ? "read_hit" : "write_hit";
      case CacheOutcome::MissClean:
        return read ? "read_miss_clean" : "write_miss_clean";
      case CacheOutcome::MissDirty:
        return read ? "read_miss_dirty" : "write_miss_dirty";
      case CacheOutcome::DdoHit:
        return "ddo_write";
      case CacheOutcome::Uncached:
        return read ? "read_direct" : "write_direct";
    }
    return "unknown";
}

CausalTracer::CausalTracer(const CausalOptions &opts,
                           PerfettoTracer *tracer)
    : opts_(opts), tracer_(tracer), rng_(opts.seed)
{
    if (opts_.samplePeriod == 0)
        opts_.samplePeriod = 1;
    phase_ = opts_.seed % opts_.samplePeriod;
    reservoir_.reserve(opts_.reservoirSize);
}

void
CausalTracer::pushContext(const std::string &frame)
{
    frames_.push_back(frame);
    if (joined_.empty())
        joined_ = frame;
    else
        joined_ += ";" + frame;
    cur_ = nullptr;
}

void
CausalTracer::popContext()
{
    if (frames_.empty())
        return;
    frames_.pop_back();
    joined_.clear();
    for (const std::string &f : frames_) {
        if (!joined_.empty())
            joined_ += ';';
        joined_ += f;
    }
    cur_ = nullptr;
}

void
CausalTracer::record(MemRequestKind kind, CacheOutcome outcome,
                     const CausalBreakdown &breakdown, double t_now,
                     double latency, unsigned channel)
{
    ++sampled_;
    ClassStats &cs =
        resolve()->classes[requestClassName(kind, outcome)];
    cs.samples += 1;
    cs.accesses += breakdown.count;
    cs.latency += latency;
    for (std::uint8_t i = 0; i < breakdown.count; ++i) {
        const CauseSpan &s = breakdown.spans[i];
        unsigned c = static_cast<unsigned>(s.cause);
        cs.causeCount[c] += 1;
        cs.causeLatency[c] += s.latency;
    }

    Exemplar e;
    e.context = joined_;
    e.klass = requestClassName(kind, outcome);
    e.t = t_now;
    e.latency = latency;
    e.channel = channel;
    e.breakdown = breakdown;
    if (tracer_ && flowsEmitted_ < opts_.maxFlowRequests)
        emitFlow(e);
    offerExemplar(e);
}

void
CausalTracer::offerExemplar(const Exemplar &e)
{
    if (opts_.reservoirSize == 0)
        return;
    // Vitter's algorithm R on the seeded stream: every sampled
    // request has an equal chance of surviving in the reservoir, and
    // the same seed keeps the exemplar set byte-identical.
    if (reservoir_.size() < opts_.reservoirSize) {
        reservoir_.push_back(e);
        return;
    }
    std::uint64_t j = rng_.below(sampled_);
    if (j < reservoir_.size())
        reservoir_[j] = e;
}

void
CausalTracer::emitFlow(const Exemplar &e)
{
    std::uint64_t id = opts_.flowIdBase + flowsEmitted_;
    ++flowsEmitted_;

    std::string demand_name = std::string(displayContext(e.context)) +
                              ";" + e.klass;
    tracer_->span(Track::CausalDemand, demand_name, e.t,
                  e.t + e.latency,
                  {{"channel", static_cast<double>(e.channel)},
                   {"device_accesses",
                    static_cast<double>(e.breakdown.count)}});
    tracer_->flow('s', Track::CausalDemand, e.klass, e.t, id);

    // The induced device accesses, laid serially after the demand
    // timestamp (the model charges latencies serially too).
    double t = e.t;
    for (std::uint8_t i = 0; i < e.breakdown.count; ++i) {
        const CauseSpan &s = e.breakdown.spans[i];
        std::string name = std::string(accessCauseName(s.cause)) + "@" +
                           deviceName(s.device);
        tracer_->span(Track::CausalDevices, name, t, t + s.latency);
        char phase = i + 1 == e.breakdown.count ? 'f' : 't';
        tracer_->flow(phase, Track::CausalDevices, e.klass, t, id);
        t += s.latency;
    }
}

void
CausalTracer::onCountersReset()
{
    contexts_.clear();
    reservoir_.clear();
    cur_ = nullptr;
    demands_ = 0;
    sampled_ = 0;
    llcHitsTotal_ = 0;
    // Restart the seeded streams so the post-warmup region is
    // reproducible on its own. Flow ids keep advancing: pre-reset
    // exemplar spans stay in the trace.
    rng_ = Rng(opts_.seed);
}

void
CausalTracer::foldedLines(std::vector<std::string> &out,
                          const std::string &prefix) const
{
    for (const auto &[ctx, stats] : contexts_) {
        for (const auto &[klass, cs] : stats.classes) {
            for (unsigned c = 0; c < kNumAccessCauses; ++c) {
                if (cs.causeCount[c] == 0)
                    continue;
                // Appends only: GCC 12's -Wrestrict misfires on
                // `"x" + str` temporaries in Release builds.
                std::string line = prefix;
                if (!prefix.empty())
                    line += ';';
                line += displayContext(ctx);
                line += ';';
                line += klass;
                line += ';';
                line += accessCauseName(static_cast<AccessCause>(c));
                line += ' ';
                line += std::to_string(cs.causeCount[c]);
                out.push_back(std::move(line));
            }
        }
    }
}

void
CausalTracer::dumpJson(std::ostream &os) const
{
    JsonWriter json(os);
    json.beginObject();
    json.field("sample_period", opts_.samplePeriod);
    json.field("seed", opts_.seed);
    json.field("demand_requests", demands_);
    json.field("sampled_requests", sampled_);
    json.field("llc_hits", llcHitsTotal_);

    json.beginArray("contexts");
    for (const auto &[ctx, stats] : contexts_) {
        json.beginObject();
        json.field("context", displayContext(ctx));
        json.field("llc_hits", stats.llcHits);
        json.beginArray("classes");
        for (const auto &[klass, cs] : stats.classes) {
            json.beginObject();
            json.field("class", klass);
            json.field("samples", cs.samples);
            json.field("device_accesses", cs.accesses);
            json.field("accesses_per_request",
                       cs.samples ? static_cast<double>(cs.accesses) /
                                        static_cast<double>(cs.samples)
                                  : 0.0);
            json.field("latency_s", cs.latency);
            json.beginArray("causes");
            for (unsigned c = 0; c < kNumAccessCauses; ++c) {
                if (cs.causeCount[c] == 0)
                    continue;
                json.beginObject();
                json.field("cause", accessCauseName(
                                        static_cast<AccessCause>(c)));
                json.field("count", cs.causeCount[c]);
                json.field("latency_s", cs.causeLatency[c]);
                json.endObject();
            }
            json.endArray();
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();

    json.beginArray("exemplars");
    for (const Exemplar &e : reservoir_) {
        json.beginObject();
        json.field("context", displayContext(e.context));
        json.field("class", e.klass);
        json.field("t_s", e.t);
        json.field("latency_s", e.latency);
        json.field("channel", static_cast<std::uint64_t>(e.channel));
        json.beginArray("spans");
        for (std::uint8_t i = 0; i < e.breakdown.count; ++i) {
            const CauseSpan &s = e.breakdown.spans[i];
            json.beginObject();
            json.field("cause", accessCauseName(s.cause));
            json.field("device", deviceName(s.device));
            json.field("latency_s", s.latency);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

} // namespace nvsim::obs
