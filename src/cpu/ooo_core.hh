/**
 * @file
 * A compact cycle-stepped out-of-order core with the Table 1
 * configuration: 8-wide fetch/issue/commit, 128-entry reorder
 * buffer, 128-entry load/store queue, hybrid 2-level branch
 * predictor, 1 GHz.
 *
 * Trace-driven timing model. The instruction stream carries the
 * executed path; on a mispredicted control instruction, fetch stalls
 * until the branch resolves plus a redirect penalty (wrong-path
 * fetch is modeled as lost fetch bandwidth, not as cache pollution —
 * the standard trace-driven approximation). I-cache misses stall
 * fetch for the full fill latency; loads access the d-cache at
 * issue; stores write at commit.
 */

#ifndef DRISIM_CPU_OOO_CORE_HH
#define DRISIM_CPU_OOO_CORE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "mem/memory.hh"
#include "stats/stats.hh"
#include "cpu/branch_pred.hh"
#include "cpu/core.hh"
#include "cpu/isa.hh"

namespace drisim
{

/** Pipeline configuration (Table 1 defaults). */
struct OooParams
{
    unsigned fetchWidth = 8;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;
    unsigned robSize = 128;
    unsigned lsqSize = 128;
    unsigned fetchQueueSize = 32;
    /** Cycles to restart fetch after a branch resolves wrong. */
    Cycles redirectPenalty = 3;
    /** Fetch-group block granularity (i-cache line size). */
    unsigned fetchBlockBytes = 32;
    /** Per-class issue ports. */
    unsigned memPorts = 2;
    unsigned fpPorts = 4;
    unsigned mulPorts = 2;
    BranchPredParams bpred{};

    /** Execution latencies per op class (cycles). */
    static Cycles execLatency(OpClass op);
};

/** The out-of-order core. */
class OooCore : public Core
{
  public:
    /**
     * @param params pipeline shape
     * @param icache L1 instruction cache (conventional or DRI)
     * @param dcache L1 data cache
     * @param parent stats parent
     */
    OooCore(const OooParams &params, MemoryLevel *icache,
            MemoryLevel *dcache, stats::StatGroup *parent);

    /**
     * Run until @p stream ends or @p maxInstrs commit. Resumable
     * (Core contract): state persists across calls.
     * @return cumulative cycles and instructions executed
     */
    CoreStats run(InstrStream &stream, InstCount maxInstrs) override;

    /** Cumulative cycles/instructions (Core contract). */
    CoreStats stats() const override
    {
        CoreStats s;
        s.cycles = now_;
        s.instructions = committedInstrs_.value();
        return s;
    }

    /** Stream ended and pipeline empty (Core contract). */
    bool drained() const override
    {
        return streamDone_ && !instrPending_ &&
               fetchQueueCount_ == 0 && seqHead_ == seqTail_;
    }

    BranchPredictor &predictor() { return bpred_; }

    /** Core contract: serialize/restore the full pipeline state.
     *  Split-and-continue is bit-identical at any split point. A
     *  restored instruction must name a real op class and registers
     *  below kRegs (cpu/isa.hh), and the LSQ must hold exactly the
     *  ROB's loads and stores. */
    void checkpoint(sim::StateIO io) override;

    Cycles cycles() const { return now_; }
    InstCount committed() const { return committedInstrs_.value(); }
    std::uint64_t icacheStallCycles() const
    {
        return icacheStallCycles_.value();
    }
    std::uint64_t branchStallCycles() const
    {
        return branchStallCycles_.value();
    }
    std::uint64_t mispredicts() const { return mispredicts_.value(); }
    std::uint64_t loadForwards() const { return loadForwards_.value(); }
    std::uint64_t robFullStalls() const
    {
        return robFullStalls_.value();
    }

  private:
    /** Source operands a ROB entry can wait on: prod1, prod2 and a
     *  load's depStore. A waiter-list node is slot * 4 + operand. */
    static constexpr unsigned kOperands = 3;
    static constexpr std::uint32_t kNoWaiter = ~std::uint32_t{0};
    /** End of a completion-event list. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
    static constexpr Cycles kNoEvent = ~Cycles{0};
    /** Timing-wheel buckets: one per cycle of the next 256. */
    static constexpr unsigned kWheelSlots = 256;

    /** An in-flight instruction (ROB entry). */
    struct RobEntry
    {
        Instr instr;
        BranchPrediction pred;
        bool predMade = false;
        bool mispredict = false;
        /** -1 when free of that dependency. */
        std::int64_t prod1 = -1;
        std::int64_t prod2 = -1;
        /** Older store this load must wait for / forward from. */
        std::int64_t depStore = -1;
        bool issued = false;
        Cycles completeAt = 0;

        // Scheduler state, derived from the fields above: never
        // serialized, rebuilt by rebuildScheduler() on restore.
        /** Producers (prod1, prod2, depStore) not yet complete. */
        unsigned pending = 0;
        /** Head of the list of consumers waiting on this entry. */
        std::uint32_t waiters = kNoWaiter;
        /** This entry's link in each producer's waiter list. */
        std::uint32_t nextWaiter[kOperands] = {};
        /** Next entry in this one's completion-event list. */
        std::uint32_t nextEvent = kNoSlot;
    };

    /** A fetched, not yet dispatched instruction. */
    struct FetchedInstr
    {
        Instr instr;
        BranchPrediction pred;
        bool predMade = false;
        bool mispredict = false;
    };

    std::uint32_t slotOf(std::int64_t seq) const
    {
        return static_cast<std::uint32_t>(seq) & robMask_;
    }

    RobEntry &rob(std::int64_t seq) { return robBuf_[slotOf(seq)]; }

    bool producerDone(std::int64_t seq) const;
    void linkProducers(std::uint32_t slot);
    void wakeWaiters(RobEntry &producer);
    void scheduleEvent(std::uint32_t slot);
    void drainEvents();
    Cycles firstWheelCycle() const;
    void rebuildScheduler();
    void markReady(std::uint32_t slot)
    {
        readyBits_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    }

    void doCommit();
    void doIssue();
    void doDispatch();
    void doFetch(InstrStream &stream);
    Cycles nextEventCycle() const;

    OooParams params_;
    MemoryLevel *icache_;
    MemoryLevel *dcache_;
    BranchPredictor bpred_;

    Cycles now_ = 0;

    /** ROB ring buffer of bit_ceil(robSize) slots, indexed by
     *  mask: valid seqs are [seqHead_, seqTail_), at most robSize. */
    std::vector<RobEntry> robBuf_;
    std::uint32_t robMask_ = 0;
    std::int64_t seqHead_ = 0;
    std::int64_t seqTail_ = 0;

    /**
     * Wakeup/select scheduler (derived state, see RobEntry). Each
     * issued entry whose waiters have not been woken yet has one
     * completion event, linked through RobEntry::nextEvent:
     * - on a timing wheel when it falls due in the
     *   kWheelSlots cycles from wheelBase_ on, in bucket
     *   completeAt % kWheelSlots, with wheelBits_ marking the
     *   occupied buckets;
     * - otherwise on the overflow list, whose earliest completeAt
     *   is overflowNext_.
     * The ready set, one bit per ROB slot, holds the unissued
     * entries whose producers have all completed, selected
     * oldest-first from the head's slot.
     */
    std::array<std::uint32_t, kWheelSlots> wheelHeads_;
    std::array<std::uint64_t, kWheelSlots / 64> wheelBits_{};
    Cycles wheelBase_ = 1;
    std::uint32_t overflowHead_ = kNoSlot;
    Cycles overflowNext_ = kNoEvent;
    std::vector<std::uint64_t> readyBits_;

    /** Fetch queue: a ring of fetchQueueSize entries, the live
     *  ones [fetchQueueHead_, fetchQueueHead_ + fetchQueueCount_). */
    std::vector<FetchedInstr> fetchQueue_;
    size_t fetchQueueHead_ = 0;
    size_t fetchQueueCount_ = 0;

    /** Rename table: last in-flight writer per register. */
    std::int64_t lastWriter_[kRegs];

    unsigned lsqOccupancy_ = 0;

    /** In-flight store seqs (store-to-load forwarding search). */
    std::deque<std::int64_t> storeSeqs_;

    /** Fetch state. */
    bool streamDone_ = false;
    Cycles fetchResumeAt_ = 0;
    bool haltedForBranch_ = false;
    std::int64_t stallBranchSeq_ = -1; ///< unresolved mispredict
    Cycles branchStallFrom_ = 0;
    Addr lastFetchBlock_ = kInvalidAddr;
    bool fetchStallIsIcache_ = false;
    unsigned fetchBlockBytes_ = 32;

    bool instrPending_ = false;
    Instr pendingInstr_{};

    /** Remaining instructions this run may commit (exact stop). */
    InstCount commitBudget_ = 0;

    /**
     * Cycle of the most recent doCommit(). When a run() call stops
     * mid-cycle on its commit budget, the next call re-enters
     * doCommit() at the same local cycle; the pair lets it deduct
     * the commits already performed so the boundary cycle never
     * exceeds commitWidth (split runs stay bit-identical to
     * uninterrupted ones; see tests/checkpoint_test.cc).
     */
    Cycles lastCommitCycle_ = ~Cycles{0};

    /** Per-cycle work counters (idle-skip detection). */
    unsigned commitsThisCycle_ = 0;
    unsigned issuesThisCycle_ = 0;
    unsigned dispatchesThisCycle_ = 0;
    unsigned fetchesThisCycle_ = 0;

    stats::StatGroup group_;
    stats::Scalar committedInstrs_;
    stats::Scalar simCycles_;
    stats::Scalar icacheStallCycles_;
    stats::Scalar branchStallCycles_;
    stats::Scalar robFullStalls_;
    stats::Scalar loadForwards_;
    stats::Scalar mispredicts_;
};

} // namespace drisim

#endif // DRISIM_CPU_OOO_CORE_HH
