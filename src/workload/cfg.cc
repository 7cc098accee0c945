/**
 * @file
 * CFG construction and address-layout helpers.
 */

#include "workload/cfg.hh"

namespace drisim
{

std::uint64_t
Function::sizeBytes() const
{
    std::uint64_t n = 0;
    for (const auto &b : blocks)
        n += b.numInstrs;
    return n * kInstrBytes;
}

std::uint64_t
ProgramImage::phaseCodeBytes(size_t p) const
{
    std::uint64_t n = 0;
    for (int f : phases.at(p).functions)
        n += functions[static_cast<size_t>(f)].sizeBytes();
    return n;
}

} // namespace drisim
