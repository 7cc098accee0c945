/**
 * @file
 * Table 1 — "System configuration parameters": prints the simulated
 * system's actual configuration, read back from the live objects so
 * the table cannot drift from the implementation.
 */

#include <cstdio>
#include <iostream>
#include <sstream>

#include "bench_common.hh"
#include "cpu/ooo_core.hh"
#include "mem/hierarchy.hh"
#include "util/str.hh"

using namespace drisim;

namespace
{

std::string
cacheDesc(const CacheParams &p)
{
    std::ostringstream os;
    os << bytesToString(p.sizeBytes) << ", ";
    if (p.assoc == 1)
        os << "direct-mapped";
    else
        os << p.assoc << "-way (LRU)";
    os << ", " << p.hitLatency << " cycle latency";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    // Table 1 runs no simulations, but accepts the common flags so
    // every bench binary has a uniform command line.
    bench::BenchContext ctx = bench::defaultContext();
    if (const int rc = bench::startBench(argc, argv, kTableBench, ctx);
        rc >= 0)
        return rc;

    bench::printHeader("Table 1: system configuration parameters",
                       "Section 4, Table 1");

    const HierarchyParams h;
    const OooParams core;

    Table t({"parameter", "simulated value", "paper value"});
    t.addRow({"instruction issue & decode bandwidth",
              std::to_string(core.issueWidth) + " issues per cycle",
              "8 issues per cycle"});
    t.addRow({"L1 i-cache / L1 DRI i-cache", cacheDesc(h.l1i),
              "64K, direct-mapped, 1 cycle latency"});
    t.addRow({"L1 d-cache", cacheDesc(h.l1d),
              "64K, 2-way (LRU), 1 cycle latency"});
    t.addRow({"L2 cache",
              cacheDesc(h.l2) + " (unified)",
              "1M, 4-way, unified, 12 cycle latency"});
    t.addRow({"memory access latency",
              std::to_string(MainMemory::kBaseLatency) +
                  " cycles + " +
                  std::to_string(MainMemory::kPerChunk) +
                  " cycles per " +
                  std::to_string(MainMemory::kChunkBytes) + " bytes",
              "80 cycles + 4 cycles per 8 bytes"});
    t.addRow({"reorder buffer size", std::to_string(core.robSize),
              "128"});
    t.addRow({"LSQ size", std::to_string(core.lsqSize), "128"});
    t.addRow({"branch predictor", "2-level hybrid (bimodal + gshare "
                                  "+ chooser), BTB, RAS",
              "2-level hybrid"});
    t.print(std::cout);
    reportFastSim(ctx);
    return 0;
}
