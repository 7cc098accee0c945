/**
 * @file
 * Banked, queued DRAM: per-bank row buffers and service queues
 * behind the MemoryLevel seam.
 */

#include "mem/dram.hh"

#include "sim/checkpoint.hh"
#include "util/logging.hh"

namespace drisim
{

Dram::Dram(const DramParams &params, unsigned transferBytes,
           stats::StatGroup *parent)
    : params_(params),
      transferBytes_(transferBytes),
      banks_(params.banks),
      bankRowHits_(params.banks, 0),
      bankRowMisses_(params.banks, 0),
      group_(parent, "dram"),
      accesses_(&group_, "accesses", "DRAM accesses (all types)"),
      reads_(&group_, "reads", "demand fills serviced"),
      writebacks_(&group_, "writebacks",
                  "writeback probes drained in background"),
      rowHits_(&group_, "row_hits", "fills hitting the open row"),
      rowMisses_(&group_, "row_misses",
                 "fills opening a new row"),
      queueFullEvents_(&group_, "queue_full",
                       "fills arriving at a full bank queue")
{
    drisim_assert(params.banks >= 1, "DRAM needs at least one bank");
    drisim_assert(params.queueDepth >= 1,
                  "bank queue depth must be positive");
    drisim_assert(params.rowBytes > 0, "row size must be positive");
    drisim_assert(transferBytes % MainMemory::kChunkBytes == 0,
                  "transfer size must be a multiple of %u bytes",
                  MainMemory::kChunkBytes);
}

AccessResult
Dram::accessAt(Addr addr, AccessType type, Cycles now)
{
    ++accesses_;
    if (type == AccessType::Store) {
        // A writeback probe: drained through the write buffer in
        // the background. Counted, but it occupies no bank, leaves
        // the row buffer alone and costs the requester nothing —
        // demand-fill timing is writeback-invariant by construction.
        ++writebacks_;
        return {true, 0};
    }
    ++reads_;

    Bank &bank = banks_[bankOf(addr)];
    while (!bank.inflight.empty() && bank.inflight.front() <= now)
        bank.inflight.pop_front();
    if (bank.inflight.size() >= params_.queueDepth)
        ++queueFullEvents_;

    // One fill in service at a time per bank: start after whatever
    // is already queued (completion times are nondecreasing, so the
    // back is the bank-free time).
    Cycles start = now;
    if (!bank.inflight.empty() && bank.inflight.back() > start)
        start = bank.inflight.back();

    const Addr row = addr / params_.rowBytes;
    const bool row_hit = bank.openRow == row;
    const unsigned b = bankOf(addr);
    if (row_hit) {
        ++rowHits_;
        ++bankRowHits_[b];
    } else {
        ++rowMisses_;
        ++bankRowMisses_[b];
    }
    bank.openRow = row;

    // Table 1 keeps the transfer term; the row buffer replaces the
    // flat 80-cycle base (rowMissLatency defaults to exactly it).
    const Cycles service =
        (row_hit ? params_.rowHitLatency : params_.rowMissLatency) +
        MainMemory::kPerChunk *
            (transferBytes_ / MainMemory::kChunkBytes);
    const Cycles done = start + service;
    busyCycles_ += service;

    // Entries completing before our service began have drained by
    // the time this fill occupies the bank.
    while (!bank.inflight.empty() && bank.inflight.front() <= start)
        bank.inflight.pop_front();
    bank.inflight.push_back(done);

    return {true, done - now};
}

void
Dram::checkpoint(sim::StateIO io)
{
    io.begin("dram");
    io.expect(banks_.size(), "DRAM bank count");
    for (Bank &b : banks_) {
        io(b.openRow);
        io.length(b.inflight, "DRAM bank queue");
        for (Cycles &c : b.inflight)
            io(c);
    }
    for (std::uint64_t &h : bankRowHits_)
        io(h);
    for (std::uint64_t &m : bankRowMisses_)
        io(m);
    io(busyCycles_);
    group_.checkpoint(io);
    io.end();
}

} // namespace drisim
