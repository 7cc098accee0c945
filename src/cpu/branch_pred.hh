/**
 * @file
 * The Table 1 branch predictor: a 2-level hybrid (bimodal + gshare
 * with a chooser), a set-associative BTB, and a return-address stack.
 */

#ifndef DRISIM_CPU_BRANCH_PRED_HH
#define DRISIM_CPU_BRANCH_PRED_HH

#include <cstdint>
#include <span>
#include <vector>

#include "stats/stats.hh"
#include "util/types.hh"
#include "cpu/isa.hh"

namespace drisim::sim
{
class StateIO;
} // namespace drisim::sim

namespace drisim
{

/** Hybrid predictor configuration. */
struct BranchPredParams
{
    unsigned bimodalEntries = 4096;
    unsigned gshareEntries = 4096;
    unsigned chooserEntries = 4096;
    unsigned historyBits = 12;
    unsigned btbSets = 512;
    unsigned btbAssoc = 4;
    unsigned rasDepth = 32;
};

/** A fetch-time branch prediction. */
struct BranchPrediction
{
    bool taken = false;
    /** Predicted target; kInvalidAddr when the BTB misses. */
    Addr target = kInvalidAddr;
};

/** 2-level hybrid predictor + BTB + RAS. */
class BranchPredictor
{
  public:
    BranchPredictor(const BranchPredParams &params,
                    stats::StatGroup *parent);

    /**
     * Predict the control instruction at @p pc. Speculatively
     * updates the RAS (calls push, returns pop) the way a fetch
     * engine would.
     *
     * @param pc fetch address of the control instruction
     * @param op which control class it is
     */
    BranchPrediction predict(Addr pc, OpClass op);

    /**
     * Train on the resolved outcome.
     *
     * @param pc     branch address
     * @param op     control class
     * @param taken  actual direction
     * @param target actual target (installed in the BTB if taken)
     */
    void update(Addr pc, OpClass op, bool taken, Addr target);

    /**
     * Was this (prediction, outcome) pair a misprediction needing a
     * pipeline redirect? Direction or target mismatch counts.
     */
    static bool mispredicted(const BranchPrediction &pred, bool taken,
                             Addr target);

    std::uint64_t lookups() const { return lookups_.value(); }

    /** Record outcome-vs-prediction stats (called by the core). */
    void noteResolved(const BranchPrediction &pred, bool taken,
                      Addr target);

    /** Serialize tables + history + BTB + RAS + stats
     *  (sim/checkpoint.hh). Restore requires identical params, and
     *  rejects a BTB set that is not in recency order: a valid entry
     *  after an invalid one, or one tag twice. */
    void checkpoint(sim::StateIO io);

    /** A BTB entry: a taken control instruction and its target
     *  (tag kInvalidAddr: free). */
    struct BtbEntry
    {
        Addr tag = kInvalidAddr;
        Addr target = 0;
    };

    /** The BTB set @p pc maps to, most recently used first (tests). */
    std::span<const BtbEntry> btbSet(Addr pc) const;

  private:
    unsigned bimodalIndex(Addr pc) const;
    unsigned gshareIndex(Addr pc) const;
    unsigned chooserIndex(Addr pc) const;

    static bool counterTaken(std::uint8_t c) { return c >= 2; }
    static void bump(std::uint8_t &c, bool up);

    BranchPredParams params_;
    std::vector<std::uint8_t> bimodal_;
    std::vector<std::uint8_t> gshare_;
    std::vector<std::uint8_t> chooser_;
    std::uint64_t history_ = 0;

    /** BTB: btbSets x btbAssoc entries, each set's ways in recency
     *  order (way 0 most recent, the free ways last), so LRU needs no
     *  timestamps and an entry is 16 bytes. */
    std::vector<BtbEntry> btb_;

    std::vector<Addr> ras_;
    unsigned rasTop_ = 0;

    stats::StatGroup group_;
    stats::Scalar lookups_;
    stats::Scalar dirMispredicts_;
    stats::Scalar targetMispredicts_;
    stats::Scalar btbHits_;
    stats::Scalar rasPredictions_;

    /** Index of way 0 of the BTB set @p pc maps to. */
    std::size_t btbBase(Addr pc) const;
    /** The entry for @p pc, moved to way 0; nullptr on a miss. */
    BtbEntry *btbLookup(Addr pc);
    /** Write (@p pc, @p target) to way 0: over @p pc's entry, else
     *  the first free way, else the least recently used. */
    void btbInstall(Addr pc, Addr target);
};

} // namespace drisim

#endif // DRISIM_CPU_BRANCH_PRED_HH
