/**
 * @file
 * nvsim command-line driver: run the paper's experiments with custom
 * parameters without writing C++. Subcommands:
 *
 *   nvsim_cli kernel  [--mode 2lm|1lm] [--op read|write|rmw]
 *                     [--pattern seq|rand] [--threads N] [--gran B]
 *                     [--array-x100 PCT] [--scale N] [--ddo MODE]
 *                     [--ways N] [--prime clean|dirty|none]
 *   nvsim_cli profile [--scale N]
 *   nvsim_cli graph   [--kernel bfs|cc|kcore|pr|sssp]
 *                     [--placement 2lm|numa|sage] [--threads N]
 *                     [--nodes N] [--degree D] [--scale N]
 *
 * Everything prints the uncore counters and bandwidths the paper's
 * methodology reports.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "core/units.hh"
#include "graphs/generators.hh"
#include "graphs/runner.hh"
#include "kernels/kernels.hh"
#include "profile/characterize.hh"

using namespace nvsim;

namespace
{

/** Minimal --flag value parser. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i + 1 < argc; i += 2) {
            if (std::strncmp(argv[i], "--", 2) != 0) {
                std::fprintf(stderr, "expected --flag, got '%s'\n",
                             argv[i]);
                std::exit(2);
            }
            values_[argv[i] + 2] = argv[i + 1];
        }
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    std::uint64_t
    getInt(const std::string &key, std::uint64_t fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end()
                   ? fallback
                   : std::strtoull(it->second.c_str(), nullptr, 10);
    }

  private:
    std::map<std::string, std::string> values_;
};

void
printCounters(const PerfCounters &c, double seconds)
{
    auto bw = [&](std::uint64_t lines) {
        return formatBandwidth(
            seconds > 0
                ? static_cast<double>(lines) * kLineSize / seconds
                : 0);
    };
    std::printf("  time %s | DRAM rd %s wr %s | NVRAM rd %s wr %s\n",
                formatSeconds(seconds).c_str(),
                bw(c.dramRead).c_str(), bw(c.dramWrite).c_str(),
                bw(c.nvramRead).c_str(), bw(c.nvramWrite).c_str());
    double demand = static_cast<double>(
        std::max<std::uint64_t>(c.demand(), 1));
    std::printf("  amplification %.2f | tag hit %.3f clean %.3f dirty "
                "%.3f ddo %.3f\n",
                c.amplification(), c.tagHit / demand,
                c.tagMissClean / demand, c.tagMissDirty / demand,
                c.ddoHit / demand);
}

int
cmdKernel(const Args &args)
{
    SystemConfig cfg;
    cfg.scale = args.getInt("scale", 4096);
    bool two_lm = args.get("mode", "2lm") == "2lm";
    cfg.mode = two_lm ? MemoryMode::TwoLm : MemoryMode::OneLm;
    std::string ddo = args.get("ddo", "tracker");
    cfg.ddoMode = ddo == "none" ? DdoMode::None
                  : ddo == "oracle" ? DdoMode::Oracle
                                    : DdoMode::RecentTracker;
    cfg.cacheWays = static_cast<unsigned>(args.getInt("ways", 1));

    MemorySystem sys(cfg);
    Bytes size =
        cfg.dramTotal() * args.getInt("array-x100", 220) / 100;
    Region arr = two_lm
                     ? sys.allocate(size, "array")
                     : sys.allocateIn(MemPool::Nvram, size, "array");

    std::string prime = args.get("prime", two_lm ? "clean" : "none");
    if (prime == "clean")
        primeClean(sys, arr);
    else if (prime == "dirty")
        primeDirty(sys, arr);
    sys.resetCounters();

    KernelConfig k;
    std::string op = args.get("op", "read");
    k.op = op == "write"  ? KernelOp::WriteOnly
           : op == "rmw"  ? KernelOp::ReadModifyWrite
                          : KernelOp::ReadOnly;
    k.pattern = args.get("pattern", "seq") == "rand"
                    ? AccessPattern::Random
                    : AccessPattern::Sequential;
    k.threads = static_cast<unsigned>(args.getInt("threads", 24));
    k.granularity = args.getInt("gran", 64);
    k.nontemporal = args.get("stores", "nt") == "nt";

    std::printf("%s %s %s, %u threads, %s array, %s mode\n",
                kernelOpName(k.op), accessPatternName(k.pattern),
                formatBytes(k.granularity).c_str(), k.threads,
                formatBytes(arr.size).c_str(),
                memoryModeName(cfg.mode));
    KernelResult r = runKernel(sys, arr, k);
    std::printf("  effective %s\n",
                formatBandwidth(r.effectiveBandwidth).c_str());
    printCounters(r.counters, r.seconds);
    return 0;
}

int
cmdProfile(const Args &args)
{
    SystemConfig cfg;
    cfg.scale = args.getInt("scale", 8192);
    profile::SystemProfile p = profile::characterize(cfg);
    std::printf("%s", profile::report(p).c_str());
    return 0;
}

int
cmdGraph(const Args &args)
{
    using namespace nvsim::graphs;
    std::string placement_s = args.get("placement", "2lm");
    Placement placement = placement_s == "numa"
                              ? Placement::NumaPreferred
                          : placement_s == "sage" ? Placement::Sage
                                                  : Placement::TwoLm;
    SystemConfig cfg;
    cfg.sockets = 2;
    cfg.scale = args.getInt("scale", 8192);
    cfg.mode = placement == Placement::TwoLm ? MemoryMode::TwoLm
                                             : MemoryMode::OneLm;
    MemorySystem sys(cfg);

    WebGraphParams wp;
    wp.numNodes =
        static_cast<Node>(args.getInt("nodes", 200 * 1024));
    wp.avgDegree = static_cast<double>(args.getInt("degree", 24));
    CsrGraph g = webGraph(wp);
    std::printf("graph: %u nodes, %llu edges, %s (DRAM %s)\n",
                g.numNodes(),
                static_cast<unsigned long long>(g.numEdges()),
                formatBytes(g.bytes()).c_str(),
                formatBytes(cfg.dramTotal()).c_str());

    GraphRunConfig rc;
    rc.placement = placement;
    rc.threads = static_cast<unsigned>(args.getInt("threads", 96));
    rc.prRounds = static_cast<unsigned>(args.getInt("rounds", 5));
    GraphWorkload w(sys, g, rc);
    sys.resetCounters();

    std::string kernel_s = args.get("kernel", "pr");
    GraphKernel kernel = kernel_s == "bfs"     ? GraphKernel::Bfs
                         : kernel_s == "cc"    ? GraphKernel::Cc
                         : kernel_s == "kcore" ? GraphKernel::KCore
                         : kernel_s == "sssp"  ? GraphKernel::Sssp
                                               : GraphKernel::PageRank;
    GraphRunResult r = w.run(kernel);
    std::printf("%s on %s: %llu rounds, answer %llu\n",
                graphKernelName(kernel), placementName(placement),
                static_cast<unsigned long long>(r.rounds),
                static_cast<unsigned long long>(r.answer));
    printCounters(r.counters, r.seconds);
    return 0;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: nvsim_cli <kernel|profile|graph> [--flag value ...]\n"
        "see the file header of examples/nvsim_cli.cpp for flags\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    Args args(argc, argv, 2);
    std::string cmd = argv[1];
    if (cmd == "kernel")
        return cmdKernel(args);
    if (cmd == "profile")
        return cmdProfile(args);
    if (cmd == "graph")
        return cmdGraph(args);
    usage();
    return 2;
}
