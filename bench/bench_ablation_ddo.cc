/**
 * @file
 * Ablation: how much does the Dirty Data Optimization matter, and how
 * close is our RecentTracker model to an oracle? The paper observes
 * DDO on real hardware but cannot identify the mechanism (Section
 * IV-C); this bench quantifies the design space the observation
 * brackets.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/csv.hh"
#include "exec/sweep.hh"
#include "kernels/kernels.hh"

using namespace nvsim;
using namespace nvsim::bench;

namespace
{

constexpr std::uint64_t kScale = 4096;

KernelResult
runScenario(obs::Session &session, const char *scenario, DdoMode ddo,
            KernelOp op, bool nontemporal, bool oversized,
            unsigned threads)
{
    SystemConfig cfg;
    cfg.mode = MemoryMode::TwoLm;
    cfg.scale = kScale;
    cfg.ddoMode = ddo;
    auto sys_sys = makeSystem(cfg);
    MemorySystem &sys = *sys_sys;
    Bytes size = oversized ? cfg.dramTotal() * 22 / 10
                           : cfg.dramTotal() / 4;
    Region arr = sys.allocate(size, "array");
    primeDirty(sys, arr, 8);
    sys.resetCounters();
    attachRun(session, sys, fmt("%s/%s", scenario, ddoModeName(ddo)));

    KernelConfig k;
    k.op = op;
    k.threads = threads;
    k.nontemporal = nontemporal;
    KernelResult r = runKernel(sys, arr, k);
    session.endRun();
    return r;
}

struct Case
{
    const char *name;
    KernelOp op;
    bool nontemporal;
    bool oversized;
    unsigned threads;
};

const Case kCases[] = {
    {"rmw standard, oversized", KernelOp::ReadModifyWrite, false, true,
     4},
    {"nt write stream, cache-fitting", KernelOp::WriteOnly, true, false,
     8},
    {"nt write stream, oversized", KernelOp::WriteOnly, true, true, 24},
};

const DdoMode kModes[] = {DdoMode::None, DdoMode::RecentTracker,
                          DdoMode::Oracle};
constexpr std::size_t kNModes = std::size(kModes);

/** One (case, policy) point's rows, buffered for in-order output. */
struct PointResult
{
    std::vector<std::string> tableRow;
    CsvRows csv;
};

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv);
    obs::Session session(opts.obs);
    banner("Ablation: Dirty Data Optimization policies",
           "the tracker should match the paper's observation: DDO on "
           "RMW writebacks, none on pure NT store streams; an oracle "
           "bounds the gain; 'none' shows the cost of tag checks");

    CsvWriter csv("ablation_ddo.csv");
    csv.row(std::vector<std::string>{"scenario", "policy", "effective",
                                     "ddo_frac", "amplification"});

    // One task per (scenario, policy) point; the collection loop
    // replays them in declaration order so output is byte-identical
    // for any --jobs=N.
    exec::SweepRunner runner(effectiveJobs(opts, session));
    std::vector<PointResult> results = runner.map<PointResult>(
        std::size(kCases) * kNModes, [&](std::size_t i) {
            const Case &c = kCases[i / kNModes];
            DdoMode mode = kModes[i % kNModes];
            KernelResult r =
                runScenario(session, c.name, mode, c.op, c.nontemporal,
                            c.oversized, c.threads);
            double ddo_frac =
                r.counters.llcWrites
                    ? static_cast<double>(r.counters.ddoHit) /
                          static_cast<double>(r.counters.llcWrites)
                    : 0;
            PointResult res;
            res.tableRow = {ddoModeName(mode),
                            gbs(r.effectiveBandwidth),
                            gbs(r.dramReadBandwidth()),
                            gbs(r.dramWriteBandwidth()),
                            fmt("%.2f", ddo_frac),
                            fmt("%.2f", r.counters.amplification())};
            res.csv.row(std::vector<std::string>{
                c.name, ddoModeName(mode),
                fmt("%f", r.effectiveBandwidth / 1e9),
                fmt("%f", ddo_frac),
                fmt("%f", r.counters.amplification())});
            return res;
        });

    for (std::size_t ci = 0; ci < std::size(kCases); ++ci) {
        std::printf("--- %s ---\n", kCases[ci].name);
        Table t({"policy", "effective", "DRAM rd", "DRAM wr",
                 "ddo/writes", "amplification"});
        for (std::size_t mi = 0; mi < kNModes; ++mi) {
            const PointResult &res = results[ci * kNModes + mi];
            t.row(res.tableRow);
            res.csv.flushTo(csv);
        }
        t.print();
        std::printf("\n");
    }
    csv.close();
    session.write();
    std::printf("rows written to ablation_ddo.csv\n");
    return 0;
}
