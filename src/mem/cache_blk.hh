/**
 * @file
 * One cache block frame: 16 bytes.
 *
 * A frame is two words: the block address, and one packed word with
 * the replacement timestamp (the low 59 bits), the valid and dirty
 * bits and the 2-bit MSI state. Every cache level allocates one frame
 * per block of its capacity, so the frame array is most of a cache's
 * heap, and separate fields would take 32 bytes a frame.
 *
 * The timestamp is the owning TagStore's replacement clock, which
 * ticks once per touch or fill. 59 bits hold 2^59 - 1 ticks, about
 * 5.8e17 accesses to one cache, so no run reaches the limit; the
 * store asserts it where the clock ticks, and a restore rejects a
 * clock or a timestamp past it, so a timestamp is never silently
 * truncated.
 */

#ifndef DRISIM_MEM_CACHE_BLK_HH
#define DRISIM_MEM_CACHE_BLK_HH

#include "util/types.hh"

namespace drisim
{

/**
 * MSI coherence state of a private-cache line (system/cmp.hh's
 * directory protocol; see mem/directory.hh). Invalid for every line
 * of a cache that is not attached to a coherence fabric — the field
 * is inert outside coherent CMP runs, so single-core behaviour is
 * untouched.
 */
enum class CoherenceState : std::uint8_t
{
    Invalid = 0,
    Shared = 1,
    Modified = 2,
};

/**
 * A block frame. The simulator stores the full block address as the
 * tag; this is behaviourally identical to storing the architectural
 * tag bits (the set index supplies the remaining bits) and lets the
 * DRI i-cache keep "resizing tag bits" for every possible size
 * without per-size tag arithmetic (paper Section 2.1).
 */
struct CacheBlk
{
    /** Width of lastTouch, and the largest value it holds. */
    static constexpr unsigned kTouchBits = 59;
    static constexpr std::uint64_t kMaxTouch =
        (std::uint64_t{1} << kTouchBits) - 1;

    /** Block address (addr >> offsetBits); kInvalidAddr if invalid. */
    Addr blockAddr = kInvalidAddr;

    /** Replacement timestamp (LRU) or insertion order. */
    std::uint64_t lastTouch : kTouchBits = 0;

    /** Valid bit. */
    bool valid : 1 = false;

    /** Dirty bit (d-cache / L2 writeback support). */
    bool dirty : 1 = false;

    /** MSI state (coherent CMP runs only; Invalid otherwise). */
    CoherenceState cstate : 2 = CoherenceState::Invalid;

    void
    invalidate()
    {
        *this = CacheBlk{};
    }
};

static_assert(sizeof(CacheBlk) == 16,
              "a frame is the block address plus one packed word");

} // namespace drisim

#endif // DRISIM_MEM_CACHE_BLK_HH
