/**
 * @file
 * Tests for the pluggable cache-policy framework: the registry
 * resolves names (and refuses typos loudly), the stock controller
 * behaves identically when driven through the CachePolicy interface,
 * the SRAM-tag policy really does eliminate tag-check device reads,
 * the bypass policy honors its insertion threshold, and SystemConfig
 * survives a JSON round trip with its serialized bytes pinned.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/json.hh"
#include "imc/bypass_policy.hh"
#include "imc/cache_policy.hh"
#include "imc/dram_cache.hh"
#include "imc/sram_tag_policy.hh"
#include "sys/config.hh"

using namespace nvsim;

namespace
{

/** A tiny cache: 64 sets x 1 way, DDO disabled unless stated. */
DramCacheParams
tinyParams(DdoMode mode = DdoMode::None)
{
    DramCacheParams p;
    p.capacity = 64 * kLineSize;
    p.ddo.mode = mode;
    p.ddo.trackerEntries = 64;
    p.ways = 1;
    return p;
}

CachePolicyConfig
configFor(const std::string &kind)
{
    CachePolicyConfig c;
    c.kind = kind;
    return c;
}

/** Address that maps to the same set as @p addr but a different tag. */
Addr
aliasOf(const CachePolicy &cache, Addr addr)
{
    return addr + cache.numSets() * kLineSize;
}

} // namespace

// --- Registry ------------------------------------------------------------

TEST(PolicyRegistry, KnowsTheBuiltIns)
{
    const CachePolicyRegistry &reg = CachePolicyRegistry::instance();
    EXPECT_TRUE(reg.known("direct_mapped_tag_ecc"));
    EXPECT_TRUE(reg.known("sram_tag_set_assoc"));
    EXPECT_TRUE(reg.known("bypass_selective_insert"));
    EXPECT_FALSE(reg.known("no_such_policy"));

    std::vector<std::string> names = reg.names();
    ASSERT_GE(names.size(), 3u);
    // The stock policy registers first so it is the natural default.
    EXPECT_EQ(names[0], "direct_mapped_tag_ecc");
    for (const std::string &n : names)
        EXPECT_FALSE(reg.description(n).empty()) << n;
}

TEST(PolicyRegistry, CreateResolvesKindName)
{
    for (const std::string &name :
         CachePolicyRegistry::instance().names()) {
        auto policy = makeCachePolicy(tinyParams(), configFor(name));
        ASSERT_NE(policy, nullptr) << name;
        EXPECT_EQ(policy->kindName(), name);
    }
}

TEST(PolicyRegistryDeath, UnknownKindIsFatal)
{
    EXPECT_EXIT(makeCachePolicy(tinyParams(), configFor("bansheee")),
                ::testing::ExitedWithCode(1), "bansheee");
}

TEST(PolicyRegistryDeath, ValidateRejectsUnknownKind)
{
    CachePolicyConfig c = configFor("typo_policy");
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "typo_policy");
}

TEST(PolicyRegistryDeath, ValidateRejectsUnknownReplacement)
{
    CachePolicyConfig c = configFor("sram_tag_set_assoc");
    c.replacement = "plru";
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1), "plru");
}

// --- Stock policy through the interface ----------------------------------

/**
 * The refactor's core guarantee: a registry-created
 * "direct_mapped_tag_ecc" policy is the DramCache. Drive both with the
 * same mixed access sequence and demand identical results per access.
 */
TEST(PolicyEquivalence, DirectMappedMatchesDramCache)
{
    DramCacheParams params = tinyParams(DdoMode::RecentTracker);
    DramCache direct(params);
    auto viaRegistry =
        makeCachePolicy(params, configFor("direct_mapped_tag_ecc"));

    // Reads/writes over aliasing lines: hits, clean misses, dirty
    // misses, DDO writes.
    for (int pass = 0; pass < 3; ++pass) {
        for (Addr line = 0; line < 96; ++line) {
            Addr addr = line * kLineSize;
            CacheResult a = (line % 3 == 0) ? direct.write(addr)
                                            : direct.read(addr);
            CacheResult b = (line % 3 == 0) ? viaRegistry->write(addr)
                                            : viaRegistry->read(addr);
            EXPECT_EQ(a.outcome, b.outcome) << "line " << line;
            EXPECT_EQ(a.actions.dramReads, b.actions.dramReads);
            EXPECT_EQ(a.actions.dramWrites, b.actions.dramWrites);
            EXPECT_EQ(a.actions.nvramReads, b.actions.nvramReads);
            EXPECT_EQ(a.actions.nvramWrites, b.actions.nvramWrites);
            EXPECT_EQ(a.wroteBack, b.wroteBack);
            EXPECT_EQ(a.victim, b.victim);
            EXPECT_EQ(a.filled, b.filled);
            EXPECT_EQ(a.fill, b.fill);
            EXPECT_EQ(a.bypassed, b.bypassed);
        }
    }
    for (Addr line = 0; line < 96; ++line) {
        Addr addr = line * kLineSize;
        EXPECT_EQ(direct.resident(addr), viaRegistry->resident(addr));
        EXPECT_EQ(direct.residentDirty(addr),
                  viaRegistry->residentDirty(addr));
    }
}

// --- SRAM-tag set-associative policy -------------------------------------

TEST(SramTagPolicy, HitCostsOneDeviceAccess)
{
    auto policy =
        makeCachePolicy(tinyParams(), configFor("sram_tag_set_assoc"));
    policy->read(0);  // fill
    CacheResult r = policy->read(0);
    EXPECT_EQ(r.outcome, CacheOutcome::Hit);
    EXPECT_TRUE(r.tagsInSram);
    EXPECT_EQ(r.actions.dramReads, 1u);  // the data itself
    EXPECT_EQ(r.actions.total(), 1u);

    CacheResult w = policy->write(0);
    EXPECT_EQ(w.outcome, CacheOutcome::Hit);
    EXPECT_TRUE(w.tagsInSram);
    EXPECT_EQ(w.actions.dramWrites, 1u);  // no tag-check read first
    EXPECT_EQ(w.actions.total(), 1u);
}

TEST(SramTagPolicy, MissSpendsNoTagProbeRead)
{
    DramCacheParams params = tinyParams();
    auto policy = makeCachePolicy(params, configFor("sram_tag_set_assoc"));
    DramCache stock(params);

    // Clean read miss: stock pays DRAM tag probe + NVRAM fetch + DRAM
    // insert (amplification 3); SRAM tags shed the probe (2).
    CacheResult s = stock.read(0);
    CacheResult r = policy->read(0);
    EXPECT_EQ(s.actions.total(), 3u);
    EXPECT_EQ(r.actions.total(), 2u);
    EXPECT_EQ(r.actions.dramReads, 0u);
    EXPECT_EQ(r.actions.nvramReads, 1u);
    EXPECT_EQ(r.actions.dramWrites, 1u);
    EXPECT_TRUE(r.filled);
}

TEST(SramTagPolicy, AssociativityAbsorbsAliases)
{
    DramCacheParams params = tinyParams();
    params.ways = 2;
    params.capacity = 128 * kLineSize;  // 64 sets x 2 ways
    auto policy = makeCachePolicy(params, configFor("sram_tag_set_assoc"));
    Addr a = 0;
    Addr b = aliasOf(*policy, a);
    policy->read(a);
    policy->read(b);
    // Both aliases coexist; the direct-mapped cache would have evicted.
    EXPECT_TRUE(policy->resident(a));
    EXPECT_TRUE(policy->resident(b));
    EXPECT_EQ(policy->read(a).outcome, CacheOutcome::Hit);
    EXPECT_EQ(policy->read(b).outcome, CacheOutcome::Hit);
}

TEST(SramTagPolicy, FifoSkipsLruTouch)
{
    DramCacheParams params = tinyParams();
    params.ways = 2;
    params.capacity = 128 * kLineSize;
    CachePolicyConfig lru = configFor("sram_tag_set_assoc");
    CachePolicyConfig fifo = lru;
    fifo.replacement = "fifo";

    // Fill both ways, re-touch the oldest, then force an eviction. LRU
    // keeps the re-touched line; FIFO evicts it anyway.
    for (const auto &[cfg, survives] :
         {std::pair<const CachePolicyConfig &, bool>{lru, true},
          {fifo, false}}) {
        auto policy = makeCachePolicy(params, cfg);
        Addr a = 0;
        Addr b = aliasOf(*policy, a);
        Addr c = b + policy->numSets() * kLineSize;
        policy->read(a);
        policy->read(b);
        policy->read(a);  // touch: protects a under LRU only
        policy->read(c);  // evicts
        EXPECT_EQ(policy->resident(a), survives)
            << cfg.replacement;
    }
}

TEST(SramTagPolicy, CorruptionOnlyDropsResidentData)
{
    auto policy =
        makeCachePolicy(tinyParams(), configFor("sram_tag_set_assoc"));
    // Non-resident probe: the SRAM tags are fine, nothing is lost.
    TagCorruption none = policy->corruptTag(0);
    EXPECT_FALSE(none.dropped);

    policy->write(0);
    ASSERT_TRUE(policy->residentDirty(0));
    TagCorruption hit = policy->corruptTag(0);
    EXPECT_TRUE(hit.dropped);
    EXPECT_TRUE(hit.wasDirty);
    EXPECT_EQ(hit.line, 0u);
    EXPECT_FALSE(policy->resident(0));
}

// --- Bypass / selective-insert policy ------------------------------------

TEST(BypassPolicy, InsertsOnlyAtThreshold)
{
    CachePolicyConfig cfg = configFor("bypass_selective_insert");
    cfg.insertThreshold = 3;
    auto base = makeCachePolicy(tinyParams(), cfg);
    auto *policy = static_cast<BypassSelectiveInsertPolicy *>(base.get());
    ASSERT_EQ(policy->insertThreshold(), 3u);

    // Misses 1 and 2 bypass: tag probe + NVRAM demand read, no insert.
    for (int i = 0; i < 2; ++i) {
        CacheResult r = policy->read(0);
        EXPECT_EQ(r.outcome, CacheOutcome::MissClean) << i;
        EXPECT_TRUE(r.bypassed) << i;
        EXPECT_EQ(r.actions.dramWrites, 0u) << i;
        EXPECT_EQ(r.actions.nvramReads, 1u) << i;
        EXPECT_FALSE(policy->resident(0)) << i;
    }
    EXPECT_EQ(policy->missCount(0), 2u);

    // Miss 3 earns the insert; the line is resident afterwards.
    CacheResult r = policy->read(0);
    EXPECT_FALSE(r.bypassed);
    EXPECT_EQ(r.actions.dramWrites, 1u);
    EXPECT_TRUE(policy->resident(0));
    EXPECT_EQ(policy->read(0).outcome, CacheOutcome::Hit);
}

TEST(BypassPolicy, BypassedWriteGoesStraightToNvram)
{
    CachePolicyConfig cfg = configFor("bypass_selective_insert");
    cfg.insertThreshold = 2;
    auto policy = makeCachePolicy(tinyParams(), cfg);
    CacheResult r = policy->write(0);
    EXPECT_TRUE(r.bypassed);
    EXPECT_TRUE(r.wroteBack);  // demand store landed in NVRAM
    EXPECT_EQ(r.actions.nvramWrites, 1u);
    EXPECT_EQ(r.actions.dramReads, 1u);  // tags-in-ECC probe remains
    EXPECT_EQ(r.actions.total(), 2u);
    EXPECT_FALSE(policy->resident(0));
}

/** threshold 1 = insert on every miss = the stock policy, exactly. */
TEST(BypassPolicy, ThresholdOneMatchesStock)
{
    DramCacheParams params = tinyParams();
    CachePolicyConfig cfg = configFor("bypass_selective_insert");
    cfg.insertThreshold = 1;
    auto policy = makeCachePolicy(params, cfg);
    DramCache stock(params);
    for (Addr line = 0; line < 96; ++line) {
        Addr addr = line * kLineSize;
        CacheResult a = (line % 3 == 0) ? stock.write(addr)
                                        : stock.read(addr);
        CacheResult b = (line % 3 == 0) ? policy->write(addr)
                                        : policy->read(addr);
        EXPECT_EQ(a.outcome, b.outcome) << "line " << line;
        EXPECT_EQ(a.actions.total(), b.actions.total());
        EXPECT_EQ(a.filled, b.filled);
        EXPECT_FALSE(b.bypassed);
    }
}

TEST(BypassPolicy, InvalidateAllForgetsFrequencies)
{
    CachePolicyConfig cfg = configFor("bypass_selective_insert");
    cfg.insertThreshold = 2;
    auto base = makeCachePolicy(tinyParams(), cfg);
    auto *policy = static_cast<BypassSelectiveInsertPolicy *>(base.get());
    policy->read(0);
    EXPECT_EQ(policy->missCount(0), 1u);
    policy->invalidateAll();
    EXPECT_EQ(policy->missCount(0), 0u);
}

// --- SystemConfig JSON round trip ----------------------------------------

TEST(ConfigJson, RoundTripPreservesEveryField)
{
    SystemConfig cfg;
    cfg.mode = MemoryMode::TwoLm;
    cfg.sockets = 2;
    cfg.scale = 4096;
    cfg.cacheWays = 2;
    cfg.insertOnWriteMiss = false;
    cfg.policy.kind = "bypass_selective_insert";
    cfg.policy.insertThreshold = 5;
    cfg.policy.replacement = "fifo";
    cfg.ddoMode = DdoMode::Oracle;

    SystemConfig back = SystemConfig::fromJson(cfg.toJson());
    EXPECT_EQ(back.mode, cfg.mode);
    EXPECT_EQ(back.sockets, cfg.sockets);
    EXPECT_EQ(back.scale, cfg.scale);
    EXPECT_EQ(back.cacheWays, cfg.cacheWays);
    EXPECT_EQ(back.insertOnWriteMiss, cfg.insertOnWriteMiss);
    EXPECT_EQ(back.policy.kind, cfg.policy.kind);
    EXPECT_EQ(back.policy.insertThreshold, cfg.policy.insertThreshold);
    EXPECT_EQ(back.policy.replacement, cfg.policy.replacement);
    EXPECT_EQ(back.policy.counterEntries, cfg.policy.counterEntries);
    EXPECT_EQ(back.ddoMode, cfg.ddoMode);
    EXPECT_EQ(back.dram.capacity, cfg.dram.capacity);
    EXPECT_EQ(back.nvram.readBandwidth, cfg.nvram.readBandwidth);
    EXPECT_EQ(back.llcCapacity, cfg.llcCapacity);
    EXPECT_EQ(back.mlp, cfg.mlp);

    // The round trip is a fixed point: serializing again is identical.
    EXPECT_EQ(back.toJson(), cfg.toJson());
}

TEST(ConfigJson, DefaultsSurviveRoundTrip)
{
    SystemConfig def;
    SystemConfig back = SystemConfig::fromJson(def.toJson());
    EXPECT_EQ(back.toJson(), def.toJson());
    EXPECT_EQ(back.policy.kind, "direct_mapped_tag_ecc");
}

namespace
{

/** A golden file's text, without the trailing newline. */
std::string
readGolden(const std::string &name)
{
    std::ifstream in(std::string(NVSIM_GOLDEN_DIR) + "/" + name);
    EXPECT_TRUE(in) << name;
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    if (!text.empty() && text.back() == '\n')
        text.pop_back();
    return text;
}

/** Every SystemConfig field set to a value distinct from its default
 *  and from every other field's, so a key bound to the wrong member, or
 *  two keys swapped, changes the serialized text. */
SystemConfig
everyFieldConfig()
{
    SystemConfig c;
    c.sockets = 3;
    c.channelsPerSocket = 5;
    c.scale = 2048;
    c.mode = MemoryMode::OneLm;
    c.dram.capacity = 17 * kGiB;
    c.dram.bandwidth = 11.5e9;
    c.dram.latency = 71e-9;
    c.nvram.capacity = 257 * kGiB;
    c.nvram.readBandwidth = 6.25e9;
    c.nvram.writeBandwidth = 2.125e9;
    c.nvram.readLatency = 301e-9;
    c.nvram.writeLatency = 97e-9;
    c.nvram.readBufferEntries = 11;
    c.nvram.wpqEntries = 13;
    c.nvram.writeContentionAlpha = 0.375;
    c.nvram.writeContentionKnee = 9;
    c.fault.seed = 101;
    c.fault.nvramReadCorrectable = 1.5e-3;
    c.fault.nvramReadUncorrectable = 2.5e-5;
    c.fault.nvramWriteCorrectable = 3.5e-3;
    c.fault.nvramWriteUncorrectable = 4.5e-5;
    c.fault.dramCorrectable = 5.5e-4;
    c.fault.tagEccUncorrectable = 6.5e-6;
    c.fault.maxRetries = 7;
    c.fault.retryLatency = 3e-6;
    c.fault.throttle.engageBandwidth = 1.75e9;
    c.fault.throttle.releaseBandwidth = 1.25e9;
    c.fault.throttle.engageEpochs = 19;
    c.fault.throttle.releaseEpochs = 23;
    c.fault.throttle.factor = 0.625;
    c.maintenance.seed = 103;
    c.maintenance.refresh.trefi = 7.8e-6;
    c.maintenance.refresh.trfc = 410e-9;
    c.maintenance.scrub.interval = 1500;
    c.maintenance.scrub.correctable = 0.0125;
    c.maintenance.scrub.uncorrectable = 0.0025;
    c.maintenance.scrub.retireThreshold = 29;
    c.maintenance.scrub.retireCapacity = 31;
    c.maintenance.rowhammer.threshold = 4099;
    c.maintenance.rowhammer.trackerEntries = 37;
    c.maintenance.rowhammer.rowBytes = 16384;
    c.maintenance.rowhammer.blastRadius = 41;
    c.maintenance.rowhammer.refreshLatency = 55e-9;
    c.maintenance.rowhammer.window = 32e-3;
    c.controller.scheduler = "read_priority";
    c.controller.readQueueEntries = 43;
    c.controller.writeQueueEntries = 47;
    c.controller.banks = 53;
    c.controller.rowBytes = 4096;
    c.controller.drainHighWatermark = 59;
    c.controller.drainLowWatermark = 61;
    c.controller.starvationCap = 67;
    c.controller.bankConflictPenalty = 45e-9;
    c.controller.offeredGBs = 12.5;
    c.ddoMode = DdoMode::Oracle;
    c.policy.kind = "sram_tag_set_assoc";
    c.policy.replacement = "fifo";
    c.policy.insertThreshold = 71;
    c.policy.counterEntries = 73;
    c.cacheWays = 79;
    c.insertOnWriteMiss = false;
    c.missHandlerEntries = 83;
    c.busBandwidth = 17.5e9;
    c.llcCapacity = 45 * kMiB;
    c.llcWays = 89;
    c.llcHitLatency = 23e-9;
    c.mlp = 97;
    c.threadIssueBandwidth = 9.5e9;
    c.threadNtStoreBandwidth = 3.25e9;
    c.interleaveGranularity = 8 * kKiB;
    c.dmaEngines = 107;
    c.dmaEngineBandwidth = 6.75e9;
    c.epochBytes = 3 * kMiB;
    c.scatterPages = true;
    c.pageBytes = 1 * kMiB;
    c.pageSeed = 109;
    return c;
}

/** Every leaf of @p a differs from the same leaf of @p b. */
void
expectEveryLeafDiffers(const JsonValue &a, const JsonValue &b,
                       const std::string &path)
{
    if (a.isObject()) {
        ASSERT_TRUE(b.isObject()) << path;
        ASSERT_EQ(a.members().size(), b.members().size()) << path;
        for (const auto &m : a.members()) {
            const JsonValue *other = b.find(m.first);
            ASSERT_NE(other, nullptr) << path << "." << m.first;
            expectEveryLeafDiffers(m.second, *other, path + "." + m.first);
        }
    } else if (a.isString()) {
        EXPECT_NE(a.asString(), b.asString()) << path;
    } else if (a.isBool()) {
        EXPECT_NE(a.asBool(), b.asBool()) << path;
    } else {
        EXPECT_NE(a.asNumber(), b.asNumber()) << path;
    }
}

} // namespace

// toJson() feeds the provenance config hash, so its bytes are pinned:
// every key, in order, with its number formatting.
TEST(ConfigJson, EveryFieldMatchesGolden)
{
    const std::string golden = readGolden("config_every_field.json");
    EXPECT_EQ(everyFieldConfig().toJson(), golden);
    EXPECT_EQ(SystemConfig::fromJson(golden).toJson(), golden);
}

TEST(ConfigJson, DefaultsMatchGolden)
{
    const std::string golden = readGolden("config_defaults.json");
    EXPECT_EQ(SystemConfig{}.toJson(), golden);
    EXPECT_EQ(SystemConfig::fromJson(golden).toJson(), golden);
}

TEST(ConfigJson, EveryFieldGoldenChangesEveryKey)
{
    expectEveryLeafDiffers(
        parseJson(readGolden("config_every_field.json")),
        parseJson(readGolden("config_defaults.json")), "config");
}

TEST(ConfigJsonDeath, UnknownTopLevelKeyIsFatal)
{
    EXPECT_EXIT(SystemConfig::fromJson("{\"sokets\": 2}"),
                ::testing::ExitedWithCode(1), "sokets");
}

TEST(ConfigJsonDeath, UnknownNestedKeyIsFatal)
{
    EXPECT_EXIT(
        SystemConfig::fromJson("{\"policy\": {\"knd\": \"x\"}}"),
        ::testing::ExitedWithCode(1), "knd");
}

TEST(ConfigJsonDeath, MalformedJsonIsFatalWithPosition)
{
    EXPECT_EXIT(SystemConfig::fromJson("{\"sockets\": }"),
                ::testing::ExitedWithCode(1), "config");
}

TEST(ConfigJsonDeath, RemovedKeysAreUnknown)
{
    // Neither knob changed a run: the core count had no reader, and
    // channelParams() sizes the DDO tracker from the LLC.
    EXPECT_EXIT(SystemConfig::fromJson("{\"cores_per_socket\": 24}"),
                ::testing::ExitedWithCode(1),
                "unknown key 'cores_per_socket' in the top-level object");
    EXPECT_EXIT(
        SystemConfig::fromJson("{\"ddo\": {\"tracker_entries\": 7}}"),
        ::testing::ExitedWithCode(1), "unknown key 'tracker_entries' in ddo");
}

TEST(ConfigJsonDeath, IntegerPastMemberWidthIsFatal)
{
    // 2^32 + 1 and 2^32 + 11 would wrap to 1 and 11 in the 32-bit
    // members.
    EXPECT_EXIT(SystemConfig::fromJson(
                    "{\"cache_ways\": 4294967297, "
                    "\"llc\": {\"ways\": 4294967307}}"),
                ::testing::ExitedWithCode(1),
                "cache_ways must be an integer in .0, 4294967295.");
    EXPECT_EXIT(SystemConfig::fromJson("{\"llc\": {\"ways\": 4294967307}}"),
                ::testing::ExitedWithCode(1),
                "llc.ways must be an integer in .0, 4294967295.");
}

TEST(ConfigJsonDeath, IntegerPast64BitsIsFatal)
{
    EXPECT_EXIT(SystemConfig::fromJson("{\"cache_ways\": 1e30}"),
                ::testing::ExitedWithCode(1),
                "cache_ways must be an integer in .0, 4294967295., got 1e.30");
    EXPECT_EXIT(parseJson("1e30").asUint(), ::testing::ExitedWithCode(1),
                "expected a non-negative 64-bit integer, got 1e.30");
}

TEST(ConfigJsonDeath, BadEnumNameIsFatal)
{
    EXPECT_EXIT(SystemConfig::fromJson("{\"mode\": \"3LM\"}"),
                ::testing::ExitedWithCode(1), "mode must be one of 1LM.2LM");
    EXPECT_EXIT(
        SystemConfig::fromJson("{\"ddo\": {\"mode\": \"always\"}}"),
        ::testing::ExitedWithCode(1), "ddo.mode must be one of none");
}
