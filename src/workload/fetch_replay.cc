/**
 * @file
 * Fetch-stream recording and replay for the fast model.
 */

#include "workload/fetch_replay.hh"

#include <algorithm>

#include "workload/generator.hh"

namespace drisim
{

namespace
{

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
getVarint(const std::uint8_t *data, std::size_t &pos)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
        const std::uint8_t b = data[pos++];
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (b < 0x80)
            return v;
    }
}

} // namespace

FetchRecording::FetchRecording(const ProgramImage &image,
                               InstCount instrs)
    : image_(&image)
{
    TraceGenerator gen(image);
    Addr fallthrough = 0; // where the previous run would continue
    Addr start = 0;
    std::uint64_t length = 0;
    const auto close = [&](bool taken) {
        // The byte offset, zigzagged so short backward branches
        // pack as small as short forward ones.
        const auto offset =
            static_cast<std::int64_t>(start - fallthrough);
        putVarint(packed_, (static_cast<std::uint64_t>(offset) << 1) ^
                               static_cast<std::uint64_t>(offset >> 63));
        putVarint(packed_, length << 1 | (taken ? 1 : 0));
        fallthrough = start + length * kInstrBytes;
        length = 0;
        ++runs_;
    };

    Instr in;
    while (instrs_ < instrs && gen.next(in)) {
        ++instrs_;
        if (length > 0 && in.pc != start + length * kInstrBytes)
            close(false);
        if (length == 0)
            start = in.pc;
        ++length;
        if (isControl(in.op) && in.taken)
            close(true);
    }
    if (length > 0)
        close(false);
    packed_.shrink_to_fit();
}

bool
FetchReplay::startRun()
{
    const std::vector<std::uint8_t> &p = rec_.packed_;
    if (pos_ == p.size())
        return false;
    const std::uint64_t zig = getVarint(p.data(), pos_);
    pc_ += (zig >> 1) ^ (~(zig & 1) + 1);
    const std::uint64_t word = getVarint(p.data(), pos_);
    left_ = word >> 1;
    endsTaken_ = (word & 1) != 0;
    return true;
}

bool
FetchReplay::seek(InstCount position)
{
    if (position > rec_.instrs_)
        return false;
    pos_ = 0;
    pc_ = 0;
    left_ = 0;
    endsTaken_ = false;
    produced_ = 0;
    // Skip whole runs, then step into the one holding the position.
    while (produced_ < position) {
        if (left_ == 0)
            startRun();
        const std::uint64_t step =
            std::min<std::uint64_t>(left_, position - produced_);
        left_ -= step;
        pc_ += step * kInstrBytes;
        produced_ += step;
    }
    return true;
}

} // namespace drisim
