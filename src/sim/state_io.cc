/**
 * @file
 * checkpoint(StateIO) walks of every serializable component, collected
 * in the sim layer: the components declare the walk in their headers
 * (against a forward-declared StateIO), and this translation unit
 * supplies it, so the serialization format lives in one place next to
 * its primitives (sim/checkpoint.hh). Each walk names every field
 * once, for both directions; Dram and MshrFile keep theirs beside
 * their code.
 *
 * Conventions: geometry/config is NOT serialized — snapshots restore
 * into an identically-configured twin, and the store key plus the
 * typed tags catch mismatches. Sizes that the config implies (table
 * lengths, set counts) are written anyway and verified on restore
 * (StateIO::expect), and every length read from the stream is bounded
 * before anything is allocated (StateIO::length).
 */

#include <algorithm>
#include <functional>
#include <utility>

#include "cpu/branch_pred.hh"
#include "cpu/ooo_core.hh"
#include "cpu/simple_core.hh"
#include "mem/cache.hh"
#include "mem/directory.hh"
#include "mem/hierarchy.hh"
#include "mem/memory.hh"
#include "mem/resizable_cache.hh"
#include "mem/tag_store.hh"
#include "policy/decay_policy.hh"
#include "policy/drowsy_policy.hh"
#include "policy/policy_cache.hh"
#include "sim/checkpoint.hh"
#include "stats/stats.hh"
#include "util/bitops.hh"
#include "util/random.hh"
#include "workload/fetch_replay.hh"
#include "workload/generator.hh"

namespace drisim
{

namespace
{

using sim::CheckpointError;
using sim::StateIO;

/** An instruction in flight; a restored one names a real op class and
 *  registers the rename table holds. */
void
checkpointInstr(StateIO io, Instr &i)
{
    io(i.pc, i.op, i.dest, i.src1, i.src2, i.taken, i.nextPc, i.memAddr);
    if (io.restoring() &&
        (i.op > OpClass::Return || i.dest >= kRegs || i.src1 >= kRegs ||
         i.src2 >= kRegs))
        throw CheckpointError("instruction field out of range");
}

/** A generator frame names a function of @p img, a block of it and
 *  an instruction of that block, and keeps one loop latch per block
 *  of the function. */
bool
frameInImage(const ProgramImage &img, int func, int block,
             unsigned instr, std::size_t latches)
{
    if (func < 0 || std::cmp_greater_equal(func, img.functions.size()))
        return false;
    const std::vector<BasicBlock> &blocks =
        img.functions[static_cast<std::size_t>(func)].blocks;
    return block >= 0 && std::cmp_less(block, blocks.size()) &&
           instr < blocks[static_cast<std::size_t>(block)].numInstrs &&
           latches == blocks.size();
}

} // namespace

// ---------------------------------------------------------------
// util/random
// ---------------------------------------------------------------

void
Rng::checkpoint(StateIO io)
{
    io(s_);
}

// ---------------------------------------------------------------
// workload/generator
// ---------------------------------------------------------------

void
TraceGenerator::checkpoint(StateIO io)
{
    io.begin("gen");
    rng_.checkpoint(io);
    io(phaseIdx_, emittedInPhase_, produced_);
    io.length(stack_, "call stack", img_.functions.size());
    // Restored state must be state the image can produce: next()
    // indexes the image by the phase and by each frame's function,
    // block and latch, and the core's rename table by each register.
    if (io.restoring() &&
        (phaseIdx_ >= img_.phases.size() || stack_.empty()))
        throw CheckpointError("generator phase or call stack outside "
                              "the image");
    for (Frame &f : stack_) {
        io(f.func, f.block, f.instr);
        io.length(f.latchRemaining, "loop latches");
        if (io.restoring() &&
            !frameInImage(img_, f.func, f.block, f.instr,
                          f.latchRemaining.size()))
            throw CheckpointError("generator frame outside the image");
        for (std::uint64_t &rem : f.latchRemaining)
            io(rem);
    }
    io(destCounter_, fpDestCounter_, recentDest_, recentIdx_);
    const auto isReg = [](unsigned r) { return r < kRegs; };
    if (io.restoring() && !std::ranges::all_of(recentDest_, isReg))
        throw CheckpointError("generator register out of range");
    io(seqLoadOff_, seqStoreOff_, seqSharedOff_);
    io.end();
}

// ---------------------------------------------------------------
// workload/fetch_replay
// ---------------------------------------------------------------

void
FetchReplay::checkpoint(StateIO io)
{
    io.begin("replay");
    InstCount position = produced_;
    io(position);
    if (io.restoring() && !seek(position))
        throw CheckpointError(
            "replay position " + std::to_string(position) +
            " is past the recording's " +
            std::to_string(rec_.instructions()) + " instructions");
    io.end();
}

} // namespace drisim

// ---------------------------------------------------------------
// stats
// ---------------------------------------------------------------

namespace drisim::stats
{

void
Scalar::checkpoint(sim::StateIO io)
{
    io(value_);
}

void
StatGroup::checkpoint(sim::StateIO io)
{
    io.begin(name_);
    for (Scalar *s : stats_)
        s->checkpoint(io);
    for (StatGroup *c : children_)
        c->checkpoint(io);
    io.end();
}

} // namespace drisim::stats

namespace drisim
{

// ---------------------------------------------------------------
// mem/tag_store
// ---------------------------------------------------------------

namespace
{

/**
 * Layout magic leading every v3 tag-store stream. v1/v2 streams
 * started with numSets_ (a small power of two), so a v3 reader that
 * opens an old stream sees a wild mismatch here and reports a
 * version error instead of silently mis-restoring per-block
 * coherence state.
 */
constexpr std::uint64_t kTagStoreLayoutV3 = 0x6472'6973'2d76'3303ULL;

} // namespace

void
TagStore::checkpoint(StateIO io)
{
    io.begin("tags");
    io.expect(kTagStoreLayoutV3, "tag-store layout version");
    io.expect(numSets_, "tag-store sets");
    io.expect(assoc_, "tag-store assoc");
    io(tick_);
    if (io.restoring() && tick_ > CacheBlk::kMaxTouch)
        throw CheckpointError("tag-store clock past its frames' "
                              "timestamp width");
    // A bit-field cannot bind to the walk's references, so each field
    // goes through a local of its declared type, which fixes its
    // encoding: U64, Bool, Bool, U64, U64. A set of an unfilled chunk
    // reads as default frames, and a restore fills a chunk only for a
    // frame that differs from one.
    for (std::uint64_t s = 0; s < numSets_; ++s) {
        for (unsigned w = 0; w < assoc_; ++w) {
            const CacheBlk &b = set(s)[w];
            Addr blockAddr = b.blockAddr;
            bool valid = b.valid;
            bool dirty = b.dirty;
            std::uint64_t lastTouch = b.lastTouch;
            CoherenceState cstate = b.cstate;
            io(blockAddr, valid, dirty, lastTouch, cstate);
            if (!io.restoring())
                continue;
            // A touch past the clock would tie with a later one.
            if (lastTouch > tick_)
                throw CheckpointError("tag-store frame touched after "
                                      "the store's clock");
            if (cstate > CoherenceState::Modified)
                throw CheckpointError("tag-store frame in no MSI state");
            if (!chunkFilled(s) && blockAddr == kInvalidAddr &&
                !valid && !dirty && lastTouch == 0 &&
                cstate == CoherenceState::Invalid)
                continue;
            CacheBlk &f = filledSet(s)[w];
            f.blockAddr = blockAddr;
            f.valid = valid;
            f.dirty = dirty;
            f.lastTouch = lastTouch;
            f.cstate = cstate;
        }
    }
    io.end();
}

// ---------------------------------------------------------------
// mem/directory
// ---------------------------------------------------------------

void
SparseDirectory::checkpoint(StateIO io)
{
    io.begin("dir");
    io.expect(maxEntries_, "directory capacity");
    io(tick_, allocations_, capacityEvictions_);
    if (io.restoring())
        index_.clear();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        Entry &e = slots_[i];
        io(e.block, e.sharers, e.owner, e.lastTouch, e.valid);
        if (!io.restoring())
            continue;
        // A touch past the clock would tie with a later one and
        // break the allocation order.
        if (e.lastTouch > tick_)
            throw CheckpointError("directory entry touched after the "
                                  "directory clock");
        if (e.valid && !index_.emplace(e.block, i).second)
            throw CheckpointError("directory block in two slots");
    }
    io.end();
    if (io.restoring())
        rebuildOrder();
}

void
CoherenceController::checkpoint(StateIO io)
{
    io.begin("coherence");
    dir_.checkpoint(io);
    for (CoreStats &s : stats_)
        io(s.invalidationsReceived, s.invalidationsCaused,
           s.downgradesReceived, s.coherenceWritebacks, s.messageCycles);
    io.end();
}

// ---------------------------------------------------------------
// mem/cache + mem/memory
// ---------------------------------------------------------------

void
Cache::checkpoint(StateIO io)
{
    io.begin("cache");
    store_.checkpoint(io);
    mshr_.checkpoint(io);
    io.bytes(coherenceLost_, "coherence-lost bits");
    group_.checkpoint(io);
    io.end();
}

void
MainMemory::checkpoint(StateIO io)
{
    io.begin("mem");
    group_.checkpoint(io);
    io.end();
}

// ---------------------------------------------------------------
// core/resize_controller + mem/resizable_cache
// ---------------------------------------------------------------

void
ResizeController::checkpoint(StateIO io)
{
    io.begin("controller");
    io(missCount_, instrsIntoInterval_, intervals_, throttleCounter_,
       freezeRemaining_, throttleEvents_, lastApplied_);
    io.end();
}

void
ResizableCache::checkpoint(StateIO io)
{
    io.begin("rcache");
    std::uint64_t sets = mask_.numSets();
    io(sets);
    if (io.restoring()) {
        if (!isPowerOf2(sets) || sets < mask_.minSets() ||
            sets > mask_.maxSets())
            throw CheckpointError("rcache set count " +
                                  std::to_string(sets) +
                                  " is not a size the mask can take");
        setSets(sets);
    }
    controller_.checkpoint(io);
    io(activeSetCycles_, integratedCycles_);
    Cache::checkpoint(io);
    io.end();
}

// ---------------------------------------------------------------
// mem/hierarchy
// ---------------------------------------------------------------

void
SharedLevels::checkpoint(StateIO io)
{
    io.expect(dram_ != nullptr, "memory flavour");
    if (dram_)
        dram_->checkpoint(io);
    else
        mem_->checkpoint(io);
    io.expect(driL2_ != nullptr, "L2 flavour");
    l2_->checkpoint(io);
}

void
Hierarchy::checkpoint(StateIO io)
{
    io.begin("hier");
    SharedLevels::checkpoint(io);
    l1d_->checkpoint(io);
    io.expect(convL1i_ != nullptr, "L1I flavour");
    if (convL1i_)
        convL1i_->checkpoint(io);
    io.end();
}

// ---------------------------------------------------------------
// cpu/branch_pred
// ---------------------------------------------------------------

void
BranchPredictor::checkpoint(StateIO io)
{
    io.begin("bpred");
    io.bytes(bimodal_, "bimodal");
    io.bytes(gshare_, "gshare");
    io.bytes(chooser_, "chooser");
    io(history_);
    io.expect(btb_.size(), "btb size");
    for (BtbEntry &e : btb_)
        io(e.tag, e.target);
    // Each set's ways are in recency order: the valid entries first,
    // each tag once.
    for (std::size_t s = 0; s < btb_.size() && io.restoring();
         s += params_.btbAssoc) {
        const BtbEntry *ways = &btb_[s];
        for (unsigned w = 1; w < params_.btbAssoc; ++w) {
            if (ways[w].tag == kInvalidAddr)
                continue;
            if (ways[w - 1].tag == kInvalidAddr)
                throw CheckpointError("btb entry after a free way");
            for (unsigned v = 0; v < w; ++v)
                if (ways[v].tag == ways[w].tag)
                    throw CheckpointError("btb tag in two ways");
        }
    }
    io.expect(ras_.size(), "ras size");
    for (Addr &a : ras_)
        io(a);
    io(rasTop_);
    group_.checkpoint(io);
    io.end();
}

// ---------------------------------------------------------------
// cpu/simple_core
// ---------------------------------------------------------------

void
SimpleCore::checkpoint(StateIO io)
{
    io.begin("simple_core");
    io(missStall_, instrs_, lastBlock_, retireBatch_, streamDone_);
    io.end();
}

// ---------------------------------------------------------------
// cpu/ooo_core
// ---------------------------------------------------------------

void
OooCore::checkpoint(StateIO io)
{
    const auto fetched = [&io](Instr &instr, BranchPrediction &pred,
                               bool &predMade, bool &mispredict) {
        checkpointInstr(io, instr);
        io(pred.taken, pred.target, predMade, mispredict);
    };

    io.begin("ooo_core");
    io(now_);
    io.expect(robBuf_.size(), "rob size");
    for (RobEntry &e : robBuf_) {
        fetched(e.instr, e.pred, e.predMade, e.mispredict);
        io(e.prod1, e.prod2, e.depStore, e.issued, e.completeAt);
    }
    io(seqHead_, seqTail_);
    if (io.restoring() &&
        (seqHead_ < 0 || seqTail_ < seqHead_ ||
         seqTail_ - seqHead_ > static_cast<std::int64_t>(params_.robSize)))
        throw CheckpointError("rob occupancy out of range");

    // The format lists entries [0, listed) of the fetch queue, then
    // the index of the first live one. A snapshot lists the live
    // entries, oldest first, and head 0; older snapshots carry a
    // dead, dispatched prefix. Reading entry i into ring slot
    // i % size keeps exactly the live ones.
    if (io.restoring())
        fetchQueueHead_ = 0;
    std::uint64_t listed = fetchQueueCount_;
    io(listed);
    for (std::uint64_t i = 0; i < listed; ++i) {
        FetchedInstr &f =
            fetchQueue_[(fetchQueueHead_ + i) % fetchQueue_.size()];
        fetched(f.instr, f.pred, f.predMade, f.mispredict);
    }
    std::uint64_t head = 0;
    io(head);
    if (io.restoring()) {
        if (head > listed || listed - head > fetchQueue_.size())
            throw CheckpointError("fetch queue overflows its ring");
        fetchQueueHead_ = head % fetchQueue_.size();
        fetchQueueCount_ = listed - head;
    }

    io(lastWriter_, lsqOccupancy_);
    if (io.restoring()) {
        // Commit frees one LSQ entry per load or store it retires.
        unsigned memOps = 0;
        for (std::int64_t seq = seqHead_; seq < seqTail_; ++seq)
            memOps += isMem(rob(seq).instr.op);
        if (lsqOccupancy_ != memOps)
            throw CheckpointError("lsq occupancy differs from the rob's "
                                  "loads and stores");
    }
    io.length(storeSeqs_, "store list", params_.lsqSize);
    for (std::int64_t &s : storeSeqs_)
        io(s);
    if (io.restoring()) {
        // Dispatch forwards from the store list, searching it from
        // the back down to the first seq below seqHead_: the list is
        // strictly increasing and below seqTail_, and from seqHead_
        // on it is the ROB's stores, each once, in order. Stores
        // committed since the last dispatch may still lead it.
        if (std::ranges::adjacent_find(storeSeqs_,
                                       std::greater_equal<>()) !=
                storeSeqs_.end() ||
            (!storeSeqs_.empty() && storeSeqs_.back() >= seqTail_))
            throw CheckpointError("store list out of order or past the "
                                  "rob's tail");
        auto next = std::ranges::lower_bound(storeSeqs_, seqHead_);
        bool matches = true;
        for (std::int64_t seq = seqHead_; seq < seqTail_ && matches; ++seq)
            if (rob(seq).instr.op == OpClass::Store)
                matches = next != storeSeqs_.end() && *next++ == seq;
        if (!matches || next != storeSeqs_.end())
            throw CheckpointError("store list differs from the rob's "
                                  "stores");
    }
    io(streamDone_, fetchResumeAt_, haltedForBranch_, stallBranchSeq_,
       branchStallFrom_, lastFetchBlock_, fetchStallIsIcache_,
       instrPending_);
    checkpointInstr(io, pendingInstr_);
    io(lastCommitCycle_, commitsThisCycle_);
    bpred_.checkpoint(io);
    group_.checkpoint(io);
    io.end();
    if (io.restoring())
        rebuildScheduler();
}

// ---------------------------------------------------------------
// policy caches
// ---------------------------------------------------------------

void
PolicyCacheBase::checkpoint(StateIO io)
{
    io.begin("policy_cache");
    Cache::checkpoint(io);
    io(instrsIntoInterval_, integratedCycles_, activeLineCycles_,
       drowsyLineCycles_, wakeTransitions_, wakeStallCycles_,
       coherenceWakes_);
    checkpointExtra(io);
    io.end();
}

void
PolicyCacheBase::checkpointExtra(StateIO)
{
}

void
DecayCache::checkpointExtra(StateIO io)
{
    io.expect(counters_.size(), "decay counters");
    for (unsigned &c : counters_)
        io(c);
    io.bytes(lit_, "decay lit bits");
    io(powered_, generations_, blocksLost_);
}

void
DrowsyCache::checkpointExtra(StateIO io)
{
    io.bytes(drowsy_, "drowsy bits");
    io(drowsyCount_, episodes_);
}

} // namespace drisim
