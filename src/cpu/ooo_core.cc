/**
 * @file
 * Cycle-stepped out-of-order core: fetch/issue/commit pipeline with
 * ROB/LSQ occupancy and misprediction timing. Issue is wakeup/select
 * over completion events (docs/ARCHITECTURE.md, Performance notes).
 */

#include "cpu/ooo_core.hh"

#include <algorithm>
#include <bit>
#include <span>

#include "util/logging.hh"

namespace drisim
{

namespace
{

/** Word granularity for store-to-load forwarding. */
constexpr unsigned kForwardShift = 3; // 8-byte words

/**
 * Call @p fn(i) for each set bit i of @p bits in [from, to), lowest
 * first, while it returns true; false when @p fn stopped the walk.
 */
template <typename Fn>
bool
forEachSetBit(std::span<const std::uint64_t> bits, std::uint32_t from,
              std::uint32_t to, Fn &&fn)
{
    for (std::uint32_t w = from / 64; w * 64 < to; ++w) {
        std::uint64_t word = bits[w];
        if (w == from / 64)
            word &= ~std::uint64_t{0} << (from % 64);
        if ((w + 1) * 64 > to)
            word &= (std::uint64_t{1} << (to % 64)) - 1;
        for (; word != 0; word &= word - 1) {
            if (!fn(w * 64 +
                    static_cast<std::uint32_t>(std::countr_zero(word))))
                return false;
        }
    }
    return true;
}

} // namespace

Cycles
OooParams::execLatency(OpClass op)
{
    switch (op) {
      case OpClass::IntAlu:  return 1;
      case OpClass::IntMul:  return 3;
      case OpClass::FpAlu:   return 4;
      case OpClass::Load:    return 1; // + d-cache
      case OpClass::Store:   return 1;
      case OpClass::Branch:  return 1;
      case OpClass::Jump:    return 1;
      case OpClass::Call:    return 1;
      case OpClass::Return:  return 1;
    }
    return 1;
}

OooCore::OooCore(const OooParams &params, MemoryLevel *icache,
                 MemoryLevel *dcache, stats::StatGroup *parent)
    : params_(params),
      icache_(icache),
      dcache_(dcache),
      bpred_(params.bpred, parent),
      fetchQueue_(params.fetchQueueSize),
      group_(parent, "core"),
      committedInstrs_(&group_, "committed", "instructions committed"),
      simCycles_(&group_, "cycles", "cycles simulated"),
      icacheStallCycles_(&group_, "icache_stall_cycles",
                         "fetch-stall cycles charged to i-cache misses"),
      branchStallCycles_(&group_, "branch_stall_cycles",
                         "fetch-stall cycles charged to mispredicts"),
      robFullStalls_(&group_, "rob_full_stalls",
                     "dispatch stalls with a full ROB"),
      loadForwards_(&group_, "load_forwards",
                    "loads forwarded from in-flight stores"),
      mispredicts_(&group_, "mispredicts",
                   "control instructions needing a redirect")
{
    drisim_assert(params.robSize > 0 && params.fetchWidth > 0 &&
                  params.issueWidth > 0 && params.commitWidth > 0 &&
                  params.fetchQueueSize > 0,
                  "core widths must be positive");
    drisim_assert(params.robSize <= kNoWaiter / 4,
                  "robSize too large for waiter-list nodes");
    robBuf_.resize(std::bit_ceil(params.robSize));
    robMask_ = static_cast<std::uint32_t>(robBuf_.size() - 1);
    readyBits_.resize((robBuf_.size() + 63) / 64);
    wheelHeads_.fill(kNoSlot);
    fetchBlockBytes_ = params.fetchBlockBytes;
    for (auto &w : lastWriter_)
        w = -1;
}

bool
OooCore::producerDone(std::int64_t seq) const
{
    if (seq < 0 || seq < seqHead_)
        return true;
    const RobEntry &e = robBuf_[slotOf(seq)];
    return e.issued && e.completeAt <= now_;
}

void
OooCore::linkProducers(std::uint32_t slot)
{
    // Called at dispatch (after this cycle's completions drained)
    // and by the rebuild, so producerDone() agrees with the events.
    RobEntry &e = robBuf_[slot];
    const std::int64_t producers[kOperands] = {e.prod1, e.prod2,
                                               e.depStore};
    e.pending = 0;
    for (unsigned k = 0; k < kOperands; ++k) {
        if (producerDone(producers[k]))
            continue;
        RobEntry &p = rob(producers[k]);
        e.nextWaiter[k] = p.waiters;
        p.waiters = slot * 4 + k;
        ++e.pending;
    }
    if (e.pending == 0)
        markReady(slot);
}

void
OooCore::wakeWaiters(RobEntry &producer)
{
    for (std::uint32_t node = producer.waiters; node != kNoWaiter;) {
        const std::uint32_t slot = node / 4;
        RobEntry &c = robBuf_[slot];
        node = c.nextWaiter[node % 4];
        if (--c.pending == 0)
            markReady(slot);
    }
    producer.waiters = kNoWaiter;
}

void
OooCore::scheduleEvent(std::uint32_t slot)
{
    // Every event falls due at or after wheelBase_: issue and the
    // rebuild schedule only completions after now_.
    RobEntry &e = robBuf_[slot];
    if (e.completeAt - wheelBase_ < kWheelSlots) {
        const unsigned bucket = e.completeAt % kWheelSlots;
        e.nextEvent = wheelHeads_[bucket];
        wheelHeads_[bucket] = slot;
        wheelBits_[bucket / 64] |= std::uint64_t{1} << (bucket % 64);
    } else {
        e.nextEvent = overflowHead_;
        overflowHead_ = slot;
        overflowNext_ = std::min(overflowNext_, e.completeAt);
    }
}

Cycles
OooCore::firstWheelCycle() const
{
    // Bucket b holds the events due at the one cycle in
    // [wheelBase_, wheelBase_ + kWheelSlots) congruent to b, so the
    // earliest is the first occupied bucket from wheelBase_'s on,
    // wrapping round.
    const auto from = static_cast<std::uint32_t>(wheelBase_ % kWheelSlots);
    Cycles first = kNoEvent;
    const auto found = [&](std::uint32_t bucket) {
        first = wheelBase_ + (bucket - from) % kWheelSlots;
        return false;
    };
    if (forEachSetBit(wheelBits_, from, kWheelSlots, found))
        forEachSetBit(wheelBits_, 0, from, found);
    return first;
}

void
OooCore::drainEvents()
{
    // The due buckets are those of [wheelBase_, now_], the whole
    // wheel at most: from wheelBase_'s bucket on, in cycle order,
    // wrapping round once.
    const auto drain = [&](std::uint32_t bucket) {
        for (std::uint32_t slot = wheelHeads_[bucket]; slot != kNoSlot;) {
            RobEntry &e = robBuf_[slot];
            slot = e.nextEvent;
            wakeWaiters(e);
        }
        wheelHeads_[bucket] = kNoSlot;
        wheelBits_[bucket / 64] &= ~(std::uint64_t{1} << (bucket % 64));
        return true;
    };
    const auto from = static_cast<std::uint32_t>(wheelBase_ % kWheelSlots);
    const auto to = from + static_cast<std::uint32_t>(std::min<Cycles>(
                               now_ + 1 - wheelBase_, kWheelSlots));
    forEachSetBit(wheelBits_, from, std::min(to, kWheelSlots), drain);
    if (to > kWheelSlots)
        forEachSetBit(wheelBits_, 0, to - kWheelSlots, drain);
    wheelBase_ = now_ + 1;

    if (overflowNext_ > now_)
        return;
    // Wake the overflow events now due; keep the rest in order.
    overflowNext_ = kNoEvent;
    for (std::uint32_t *link = &overflowHead_; *link != kNoSlot;) {
        RobEntry &e = robBuf_[*link];
        if (e.completeAt <= now_) {
            *link = e.nextEvent;
            wakeWaiters(e);
        } else {
            overflowNext_ = std::min(overflowNext_, e.completeAt);
            link = &e.nextEvent;
        }
    }
}

void
OooCore::rebuildScheduler()
{
    // An entry that completed by now_ counts as done even if the
    // run stopped before draining its event: the next doIssue()
    // would drain it before selecting, to the same ready set.
    wheelHeads_.fill(kNoSlot);
    wheelBits_.fill(0);
    wheelBase_ = now_ + 1;
    overflowHead_ = kNoSlot;
    overflowNext_ = kNoEvent;
    std::fill(readyBits_.begin(), readyBits_.end(), 0);
    for (RobEntry &e : robBuf_)
        e.waiters = kNoWaiter;
    for (std::int64_t seq = seqHead_; seq < seqTail_; ++seq) {
        const std::uint32_t slot = slotOf(seq);
        const RobEntry &e = robBuf_[slot];
        if (!e.issued)
            linkProducers(slot);
        else if (e.completeAt > now_)
            scheduleEvent(slot);
    }
}

void
OooCore::doCommit()
{
    unsigned n = 0;
    // Commits already performed at this cycle by a previous run()
    // call that stopped here on its budget: the boundary cycle's
    // total must not exceed commitWidth.
    const unsigned already =
        lastCommitCycle_ == now_ ? commitsThisCycle_ : 0;
    lastCommitCycle_ = now_;
    unsigned width =
        params_.commitWidth > already ? params_.commitWidth - already
                                      : 0;
    // Stop at exactly the run's instruction budget so paired runs
    // compare cycle counts at identical instruction counts.
    if (commitBudget_ < width)
        width = static_cast<unsigned>(commitBudget_);
    while (n < width && seqHead_ < seqTail_) {
        RobEntry &e = rob(seqHead_);
        if (!e.issued || e.completeAt > now_)
            break;
        if (e.instr.op == OpClass::Store && dcache_)
            dcache_->accessAt(e.instr.memAddr, AccessType::Store,
                              now_);
        if (isMem(e.instr.op)) {
            drisim_assert(lsqOccupancy_ > 0, "LSQ underflow");
            --lsqOccupancy_;
        }
        if (e.instr.dest != 0 &&
            lastWriter_[e.instr.dest] == seqHead_)
            lastWriter_[e.instr.dest] = -1;
        ++seqHead_;
        ++n;
    }
    if (n > 0) {
        committedInstrs_ += n;
        commitBudget_ -= n;
        broadcastRetire(n);
    }
    commitsThisCycle_ = already + n;
}

void
OooCore::doIssue()
{
    // Wake the consumers of everything completing by now.
    drainEvents();

    unsigned issued = 0;
    unsigned mem_used = 0;
    unsigned fp_used = 0;
    unsigned mul_used = 0;

    const auto issue = [&](std::uint32_t slot) {
        RobEntry &e = robBuf_[slot];
        const OpClass op = e.instr.op;
        if (isMem(op) && mem_used >= params_.memPorts)
            return true;
        if (op == OpClass::FpAlu && fp_used >= params_.fpPorts)
            return true;
        if (op == OpClass::IntMul && mul_used >= params_.mulPorts)
            return true;

        Cycles lat = OooParams::execLatency(op);
        if (op == OpClass::Load) {
            if (e.depStore >= seqHead_) {
                // The matching store is still in flight and has
                // completed: forward its data (no d-cache access).
                lat += 1;
                ++loadForwards_;
            } else if (dcache_) {
                lat += dcache_->accessAt(e.instr.memAddr,
                                         AccessType::Load, now_)
                           .latency;
            }
            ++mem_used;
        } else if (op == OpClass::Store) {
            ++mem_used;
        } else if (op == OpClass::FpAlu) {
            ++fp_used;
        } else if (op == OpClass::IntMul) {
            ++mul_used;
        }

        e.issued = true;
        e.completeAt = now_ + lat;
        readyBits_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
        scheduleEvent(slot);
        return ++issued < params_.issueWidth;
    };

    // Oldest first: the ROB ring from the head's slot to its end,
    // then from slot 0 up to the head's.
    const std::uint32_t head = slotOf(seqHead_);
    const auto size = static_cast<std::uint32_t>(robBuf_.size());
    if (forEachSetBit(readyBits_, head, size, issue))
        forEachSetBit(readyBits_, 0, head, issue);
    issuesThisCycle_ = issued;
}

void
OooCore::doDispatch()
{
    unsigned n = 0;
    while (n < params_.fetchWidth && fetchQueueCount_ > 0) {
        if (seqTail_ - seqHead_ >=
            static_cast<std::int64_t>(params_.robSize)) {
            ++robFullStalls_;
            break;
        }
        FetchedInstr &f = fetchQueue_[fetchQueueHead_];
        if (isMem(f.instr.op) && lsqOccupancy_ >= params_.lsqSize)
            break;

        const std::uint32_t slot = slotOf(seqTail_);
        RobEntry &e = robBuf_[slot];
        e.instr = f.instr;
        e.pred = f.pred;
        e.predMade = f.predMade;
        e.mispredict = f.mispredict;
        e.issued = false;
        e.completeAt = 0;
        e.prod1 = f.instr.src1 ? lastWriter_[f.instr.src1] : -1;
        e.prod2 = f.instr.src2 ? lastWriter_[f.instr.src2] : -1;
        e.depStore = -1;

        if (f.instr.op == OpClass::Load) {
            const Addr word = f.instr.memAddr >> kForwardShift;
            for (auto it = storeSeqs_.rbegin();
                 it != storeSeqs_.rend(); ++it) {
                if (*it < seqHead_)
                    break;
                const RobEntry &s = rob(*it);
                if ((s.instr.memAddr >> kForwardShift) == word) {
                    e.depStore = *it;
                    break;
                }
            }
        } else if (f.instr.op == OpClass::Store) {
            storeSeqs_.push_back(seqTail_);
        }
        linkProducers(slot);

        if (isMem(f.instr.op))
            ++lsqOccupancy_;
        if (f.instr.dest != 0)
            lastWriter_[f.instr.dest] = seqTail_;
        if (f.mispredict)
            stallBranchSeq_ = seqTail_;

        ++seqTail_;
        if (++fetchQueueHead_ == fetchQueue_.size())
            fetchQueueHead_ = 0;
        --fetchQueueCount_;
        ++n;
    }
    // Garbage-collect committed stores from the forwarding list.
    while (!storeSeqs_.empty() && storeSeqs_.front() < seqHead_)
        storeSeqs_.pop_front();
    dispatchesThisCycle_ = n;
}

void
OooCore::doFetch(InstrStream &stream)
{
    fetchesThisCycle_ = 0;

    // Branch-redirect bookkeeping: once the offending control
    // instruction resolves, fetch restarts after the penalty.
    if (haltedForBranch_) {
        if (stallBranchSeq_ >= 0) {
            const RobEntry &e = rob(stallBranchSeq_);
            const bool resolved =
                stallBranchSeq_ < seqHead_ ||
                (e.issued && e.completeAt <= now_);
            if (resolved) {
                const Cycles resolve_at =
                    stallBranchSeq_ < seqHead_ ? now_ : e.completeAt;
                const Cycles resume =
                    resolve_at + params_.redirectPenalty;
                if (resume > fetchResumeAt_) {
                    fetchResumeAt_ = resume;
                    fetchStallIsIcache_ = false;
                }
                branchStallCycles_ +=
                    resume > branchStallFrom_
                        ? resume - branchStallFrom_
                        : 0;
                haltedForBranch_ = false;
                stallBranchSeq_ = -1;
            } else {
                return;
            }
        } else {
            return; // mispredicted instr still awaiting dispatch
        }
    }

    if (now_ < fetchResumeAt_)
        return;

    if (streamDone_ && !instrPending_)
        return;

    while (fetchesThisCycle_ < params_.fetchWidth) {
        if (fetchQueueCount_ == fetchQueue_.size())
            break;

        Instr instr;
        if (instrPending_) {
            instr = pendingInstr_;
            instrPending_ = false;
        } else if (!stream.next(instr)) {
            streamDone_ = true;
            break;
        }

        // One i-cache access per block the fetch group touches.
        const Addr block = instr.pc / fetchBlockBytes_;
        if (block != lastFetchBlock_) {
            AccessResult r = icache_->accessAt(
                instr.pc, AccessType::InstFetch, now_);
            lastFetchBlock_ = block;
            if (!r.hit) {
                // Fill in progress: stall, keep the instruction.
                pendingInstr_ = instr;
                instrPending_ = true;
                fetchResumeAt_ = now_ + r.latency;
                fetchStallIsIcache_ = true;
                icacheStallCycles_ += r.latency - 1;
                break;
            }
            if (r.latency > 1) {
                // Slow hit: the line is present but not readable
                // yet (a drowsy line's rail recharging). Stall the
                // extra cycles; the kept instruction re-enters
                // without re-accessing the cache, so the wake is
                // charged exactly once.
                pendingInstr_ = instr;
                instrPending_ = true;
                fetchResumeAt_ = now_ + (r.latency - 1);
                fetchStallIsIcache_ = true;
                icacheStallCycles_ += r.latency - 1;
                break;
            }
        }

        FetchedInstr f;
        f.instr = instr;
        if (isControl(instr.op)) {
            f.pred = bpred_.predict(instr.pc, instr.op);
            f.predMade = true;
            const Addr actual_target = instr.nextPc;
            bpred_.noteResolved(f.pred, instr.taken, actual_target);
            f.mispredict = BranchPredictor::mispredicted(
                f.pred, instr.taken, actual_target);
            bpred_.update(instr.pc, instr.op, instr.taken,
                          actual_target);
        }
        size_t tail = fetchQueueHead_ + fetchQueueCount_;
        if (tail >= fetchQueue_.size())
            tail -= fetchQueue_.size();
        fetchQueue_[tail] = f;
        ++fetchQueueCount_;
        ++fetchesThisCycle_;

        if (isControl(instr.op)) {
            if (f.mispredict) {
                ++mispredicts_;
                haltedForBranch_ = true;
                stallBranchSeq_ = -1; // set at dispatch
                branchStallFrom_ = now_;
                lastFetchBlock_ = kInvalidAddr;
                break;
            }
            if (instr.taken) {
                // Taken-branch fetch break; resume at the target
                // next cycle.
                lastFetchBlock_ = kInvalidAddr;
                break;
            }
        }
    }
}

Cycles
OooCore::nextEventCycle() const
{
    // Called after doIssue(), which leaves only events after now_.
    Cycles next = std::min(firstWheelCycle(), overflowNext_);
    if (fetchResumeAt_ > now_)
        next = std::min(next, fetchResumeAt_);
    return next;
}

CoreStats
OooCore::run(InstrStream &stream, InstCount maxInstrs)
{
    const InstCount target = committedInstrs_.value() + maxInstrs;
    commitBudget_ = maxInstrs;

    while (true) {
        doCommit();
        if (committedInstrs_.value() >= target)
            break;
        doIssue();
        doDispatch();
        doFetch(stream);

        if (drained())
            break;

        Cycles delta = 1;
        const bool idle = commitsThisCycle_ == 0 &&
                          issuesThisCycle_ == 0 &&
                          dispatchesThisCycle_ == 0 &&
                          fetchesThisCycle_ == 0;
        if (idle) {
            const Cycles next = nextEventCycle();
            drisim_assert(next != kNoEvent,
                          "core deadlocked at cycle %llu",
                          static_cast<unsigned long long>(now_));
            if (next > now_)
                delta = next - now_;
        }
        now_ += delta;
        broadcastCycles(delta);
    }

    simCycles_.set(now_);
    return stats();
}

} // namespace drisim
