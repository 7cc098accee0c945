/**
 * @file
 * Banked, queued DRAM model — the load-dependent replacement for the
 * flat Table 1 constant (mem/memory.hh).
 *
 * The flat MainMemory charges every fill 80 + 4 cycles per 8 bytes,
 * independent of traffic: DRI's extra-miss penalty is a fixed adder
 * and CMP bank pressure is invisible. This model keeps the Table 1
 * transfer term (4 cycles per 8-byte chunk) but replaces the flat
 * 80-cycle base with per-bank state:
 *
 *  - **Block-interleaved banks.** Consecutive transfer blocks map to
 *    consecutive banks, so streaming fills spread across the chip
 *    while same-block traffic serializes on one bank.
 *  - **Row buffer.** Each bank remembers its open row (rowBytes
 *    wide). A fill to the open row pays rowHitLatency; any other row
 *    pays rowMissLatency (precharge + activate; the Table 1 base of
 *    80 is the closed/worst-case default).
 *  - **Bank queues.** A bank services one request at a time: a fill
 *    arriving while the bank is busy starts after the last queued
 *    completion. queueDepth bounds outstanding entries per bank;
 *    arrivals that find the queue full are counted (the upstream
 *    MSHR file is what turns this pressure into core stalls).
 *
 * Writeback probes (AccessType::Store) are drained in the
 * background: they are counted, but they do not occupy a bank, do
 * not disturb the open row, and return zero latency — so writeback
 * traffic can never perturb demand-fill timing (the flat model's
 * write-buffer assumption, kept here by construction and locked by
 * tests/dram_test.cc).
 *
 * Default-off: hierarchies build this model only when
 * DramParams::banked is set (`dram.banked=1`); every pre-existing
 * configuration keeps the flat MainMemory bit-for-bit.
 */

#ifndef DRISIM_MEM_DRAM_HH
#define DRISIM_MEM_DRAM_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/memory.hh"
#include "stats/stats.hh"
#include "util/types.hh"

namespace drisim::sim
{
class StateIO;
} // namespace drisim::sim

namespace drisim
{

/** Knobs of the banked DRAM model (see file comment for timing
 *  provenance; docs/DESIGN.md, Memory-system substitutions). */
struct DramParams
{
    /** Build the banked model instead of the flat Table 1 constant. */
    bool banked = false;
    /** Independent banks (block-interleaved). */
    unsigned banks = 8;
    /** Fill latency when the bank's row buffer holds the row. */
    Cycles rowHitLatency = 40;
    /** Fill latency on a row-buffer miss (the Table 1 base). */
    Cycles rowMissLatency = 80;
    /** Outstanding entries per bank before arrivals back up. */
    unsigned queueDepth = 8;
    /** Row-buffer width in bytes. */
    unsigned rowBytes = 8192;
};

/** The banked, queued DRAM terminal level. Always hits. */
class Dram : public MemoryLevel
{
  public:
    /**
     * @param params        bank/row/queue knobs (banked is assumed)
     * @param transferBytes bytes moved per fill (the requester's
     *                      block size; also the bank interleave
     *                      granule)
     * @param parent        stats parent
     */
    Dram(const DramParams &params, unsigned transferBytes,
         stats::StatGroup *parent);

    /** Untimed access (now = 0); exists for MemoryLevel callers
     *  that carry no clock. */
    AccessResult access(Addr addr, AccessType type) override
    {
        return accessAt(addr, type, 0);
    }

    AccessResult accessAt(Addr addr, AccessType type,
                          Cycles now) override;

    const DramParams &params() const { return params_; }

    /** Bank a fill to @p addr is serviced by. */
    unsigned bankOf(Addr addr) const
    {
        return static_cast<unsigned>((addr / transferBytes_) %
                                     params_.banks);
    }

    /** All accesses, demand fills and writeback probes alike
     *  (mirrors MainMemory::accesses() for the energy model). */
    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t reads() const { return reads_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }

    std::uint64_t rowHits() const { return rowHits_.value(); }
    std::uint64_t rowMisses() const { return rowMisses_.value(); }
    std::uint64_t queueFullEvents() const
    {
        return queueFullEvents_.value();
    }

    /** Cycles some bank spent servicing fills (sum over banks; the
     *  energy model's busy/idle split). */
    std::uint64_t busyCycles() const { return busyCycles_; }

    std::uint64_t rowHitsForBank(unsigned bank) const
    {
        return bankRowHits_[bank];
    }
    std::uint64_t rowMissesForBank(unsigned bank) const
    {
        return bankRowMisses_[bank];
    }

    /** Serialize bank/queue state + stats (sim/checkpoint.hh). */
    void checkpoint(sim::StateIO io);

  private:
    struct Bank
    {
        /** Row currently latched in the row buffer. */
        Addr openRow = kInvalidAddr;
        /** Completion times of queued fills, nondecreasing. */
        std::deque<Cycles> inflight;
    };

    DramParams params_;
    unsigned transferBytes_;
    std::vector<Bank> banks_;
    std::vector<std::uint64_t> bankRowHits_;
    std::vector<std::uint64_t> bankRowMisses_;
    std::uint64_t busyCycles_ = 0;

    stats::StatGroup group_;
    stats::Scalar accesses_;
    stats::Scalar reads_;
    stats::Scalar writebacks_;
    stats::Scalar rowHits_;
    stats::Scalar rowMisses_;
    stats::Scalar queueFullEvents_;
};

} // namespace drisim

#endif // DRISIM_MEM_DRAM_HH
