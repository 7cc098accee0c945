/**
 * @file
 * Splicing values into real checkpoint streams: valueOffsets lists
 * where each value of a snapshot starts, and withValue overwrites
 * one 64-bit value in place. Shared by the restore tests that check
 * a reader rejects a value its component cannot hold.
 */

#ifndef DRISIM_TESTS_SNAPSHOT_SPLICE_HH
#define DRISIM_TESTS_SNAPSHOT_SPLICE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"

namespace drisim
{

/** Offsets of the value tags in a checkpoint stream, in order: every
 *  tag but a section's open and close. */
inline std::vector<std::size_t>
valueOffsets(const std::string &snap)
{
    const auto u64At = [&snap](std::size_t at) {
        sim::CheckpointReader r(std::string(1, 'U') + snap.substr(at, 8));
        return r.getU64();
    };
    std::vector<std::size_t> values;
    for (std::size_t i = 0; i < snap.size();) {
        switch (snap[i]) {
          case '(':
            i += 9 + u64At(i + 1);
            break;
          case ')':
            ++i;
            break;
          case 'B':
            values.push_back(i);
            i += 2;
            break;
          case 'S':
            values.push_back(i);
            i += 9 + u64At(i + 1);
            break;
          default: // U, I, D
            values.push_back(i);
            i += 9;
        }
    }
    return values;
}

/** @p snap with the 64-bit value whose tag is at @p at set to @p v. */
inline std::string
withValue(std::string snap, std::size_t at, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        snap[at + 1 + i] = static_cast<char>(v >> (8 * i));
    return snap;
}

/** The unsigned value whose tag is at @p at in @p snap. */
inline std::uint64_t
u64Value(const std::string &snap, std::size_t at)
{
    return sim::CheckpointReader(snap.substr(at, 9)).getU64();
}

} // namespace drisim

#endif // DRISIM_TESTS_SNAPSHOT_SPLICE_HH
