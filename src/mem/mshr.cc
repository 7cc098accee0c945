/**
 * @file
 * MSHR file: live-entry bookkeeping for non-blocking cache levels.
 */

#include "mem/mshr.hh"

#include "sim/checkpoint.hh"
#include "util/logging.hh"

namespace drisim
{

void
MshrFile::prune(Cycles now)
{
    // The file is tiny (a handful of registers); a linear
    // erase-compact beats any ordered structure here.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < live_.size(); ++i) {
        if (live_[i].fillAt > now)
            live_[kept++] = live_[i];
    }
    live_.resize(kept);
}

bool
MshrFile::find(Addr blockAddr, Cycles &fillAt) const
{
    for (const Entry &e : live_) {
        if (e.blockAddr == blockAddr) {
            fillAt = e.fillAt;
            return true;
        }
    }
    return false;
}

Cycles
MshrFile::earliestFillAt() const
{
    drisim_assert(!live_.empty(),
                  "earliestFillAt on an empty MSHR file");
    Cycles earliest = live_[0].fillAt;
    for (const Entry &e : live_)
        if (e.fillAt < earliest)
            earliest = e.fillAt;
    return earliest;
}

void
MshrFile::allocate(Addr blockAddr, Cycles fillAt)
{
    drisim_assert(!full(), "MSHR allocate with every register busy");
    live_.push_back({blockAddr, fillAt});
}

void
MshrFile::checkpoint(sim::StateIO io)
{
    io.begin("mshr");
    io.length(live_, "MSHR occupancy", entries_);
    for (Entry &e : live_)
        io(e.blockAddr, e.fillAt);
    io.end();
}

} // namespace drisim
