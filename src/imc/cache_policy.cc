#include "imc/cache_policy.hh"

#include "core/logging.hh"
#include "imc/bypass_policy.hh"
#include "imc/dram_cache.hh"
#include "imc/sram_tag_policy.hh"

namespace nvsim
{

double
CachePolicy::demandLatency(MemRequestKind kind, const CacheResult &cr,
                           const DeviceLatencies &lat) const
{
    if (kind == MemRequestKind::LlcRead) {
        // Hit: one DRAM round trip. Miss: tag-check read then the NVRAM
        // fetch are serial; the insert write is posted off the critical
        // path.
        return cr.outcome == CacheOutcome::Hit ? lat.dram
                                               : lat.dram + lat.nvramRead;
    }
    // Writes are posted; the tag-check read still occupies the request
    // slot before the write can be accepted.
    return cr.outcome == CacheOutcome::DdoHit ? lat.nvramWrite : lat.dram;
}

double
CachePolicy::missServiceTime(const DeviceLatencies &lat) const
{
    // Tag-check DRAM read followed by the NVRAM line fetch; the DRAM
    // insert overlaps with returning data to the LLC.
    return lat.dram + lat.nvramRead;
}

CausalBreakdown
CachePolicy::breakdown(MemRequestKind kind, const CacheResult &cr,
                       const DeviceLatencies &lat) const
{
    return tagEccBreakdown(kind, cr, lat);
}

CausalBreakdown
tagEccBreakdown(MemRequestKind kind, const CacheResult &cr,
                const DeviceLatencies &lat)
{
    CausalBreakdown b;
    if (cr.outcome == CacheOutcome::DdoHit) {
        // DDO forwards the store straight to the resident DRAM line.
        b.add(AccessCause::DdoElideWrite, MemPool::Dram, lat.dram);
        return b;
    }
    b.add(AccessCause::TagProbe, MemPool::Dram, lat.dram);
    if (cr.filled) {
        // Figure 3 order: the victim is evicted before the fetch.
        if (cr.wroteBack) {
            b.add(AccessCause::DirtyWriteback, MemPool::Nvram,
                  lat.nvramWrite);
        }
        if (cr.bypassed) {
            // Selective-insert bypass: the fetch serves the demand
            // directly and nothing is installed in DRAM.
            b.add(AccessCause::BypassRead, MemPool::Nvram, lat.nvramRead);
        } else {
            b.add(AccessCause::CacheFillRead, MemPool::Nvram,
                  lat.nvramRead);
            b.add(AccessCause::CacheInsertWrite, MemPool::Dram, lat.dram);
        }
    }
    if (kind == MemRequestKind::LlcWrite) {
        if (!cr.filled && cr.wroteBack) {
            // Write-no-allocate / write bypass: the demand data itself
            // is the NVRAM write that rode in the writeback fields.
            b.add(AccessCause::DataWrite, MemPool::Nvram, lat.nvramWrite);
        } else {
            b.add(AccessCause::DataWrite, MemPool::Dram, lat.dram);
        }
    }
    return b;
}

void
CachePolicyConfig::validate() const
{
    CachePolicyRegistry::instance().at(kind);  // fatal when unknown
    if (replacement != "lru" && replacement != "fifo")
        fatal("cache policy replacement must be 'lru' or 'fifo', got '%s'",
              replacement.c_str());
    if (insertThreshold == 0)
        fatal("cache policy insertThreshold must be at least 1");
    if (counterEntries == 0)
        fatal("cache policy counterEntries must be nonzero");
}

const CachePolicyRegistry &
CachePolicyRegistry::instance()
{
    static const CachePolicyRegistry reg(
        "cache policy",
        {{"direct_mapped_tag_ecc",
          "the reverse-engineered 2LM controller: direct mapped "
          "(ways knob for ablation), tags in DRAM ECC bits, insert "
          "on every miss, DDO",
          [](const DramCacheParams &p, const CachePolicyConfig &) {
              return std::unique_ptr<CachePolicy>(
                  new DirectMappedTagEccPolicy(p));
          }},
         {"sram_tag_set_assoc",
          "set-associative cache with tags held in controller SRAM: "
          "no tag-check device reads, configurable ways and "
          "lru/fifo replacement",
          [](const DramCacheParams &p, const CachePolicyConfig &c) {
              return std::unique_ptr<CachePolicy>(
                  new SramTagSetAssocPolicy(p, c));
          }},
         {"bypass_selective_insert",
          "Banshee/TicToc-style frequency-gated insertion: misses "
          "bypass to NVRAM until a line earns insertThreshold "
          "misses; DDO interaction preserved",
          [](const DramCacheParams &p, const CachePolicyConfig &c) {
              return std::unique_ptr<CachePolicy>(
                  new BypassSelectiveInsertPolicy(p, c));
          }}});
    return reg;
}

std::unique_ptr<CachePolicy>
CachePolicyRegistry::create(const DramCacheParams &params,
                            const CachePolicyConfig &config) const
{
    config.validate();
    return at(config.kind).factory(params, config);
}

std::unique_ptr<CachePolicy>
makeCachePolicy(const DramCacheParams &params,
                const CachePolicyConfig &config)
{
    return CachePolicyRegistry::instance().create(params, config);
}

} // namespace nvsim
