/**
 * @file
 * Type-tagged checkpoint serialization and the on-disk blob store.
 */

#include "sim/checkpoint.hh"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/file.hh"

namespace drisim::sim
{

namespace
{

// One tag byte per value so reader/writer drift is caught at the
// first out-of-order access.
constexpr char kTagU64 = 'U';
constexpr char kTagI64 = 'I';
constexpr char kTagF64 = 'D';
constexpr char kTagBool = 'B';
constexpr char kTagString = 'S';
constexpr char kTagOpen = '(';
constexpr char kTagClose = ')';

constexpr char kStoreMagic[] = "DRCK2\n";
constexpr std::size_t kStoreMagicLen = sizeof(kStoreMagic) - 1;

std::atomic<std::uint64_t> g_saves{0};
std::atomic<std::uint64_t> g_restores{0};

} // namespace

// ---------------------------------------------------------------
// CheckpointWriter
// ---------------------------------------------------------------

void
CheckpointWriter::raw64(std::uint64_t v)
{
    // Fixed little-endian, independent of host order.
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
CheckpointWriter::putU64(std::uint64_t v)
{
    buf_.push_back(kTagU64);
    raw64(v);
}

void
CheckpointWriter::putI64(std::int64_t v)
{
    buf_.push_back(kTagI64);
    raw64(static_cast<std::uint64_t>(v));
}

void
CheckpointWriter::putF64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    buf_.push_back(kTagF64);
    raw64(bits);
}

void
CheckpointWriter::putBool(bool v)
{
    buf_.push_back(kTagBool);
    buf_.push_back(v ? '\1' : '\0');
}

void
CheckpointWriter::putString(std::string_view s)
{
    buf_.push_back(kTagString);
    raw64(s.size());
    buf_.append(s.data(), s.size());
}

void
CheckpointWriter::beginSection(std::string_view name)
{
    buf_.push_back(kTagOpen);
    raw64(name.size());
    buf_.append(name.data(), name.size());
    ++depth_;
}

void
CheckpointWriter::endSection()
{
    if (depth_ == 0)
        throw CheckpointError("endSection with no open section");
    buf_.push_back(kTagClose);
    --depth_;
}

const std::string &
CheckpointWriter::bytes() const
{
    if (depth_ != 0)
        throw CheckpointError("bytes() with unclosed section");
    return buf_;
}

// ---------------------------------------------------------------
// CheckpointReader
// ---------------------------------------------------------------

CheckpointReader::CheckpointReader(std::string bytes)
    : buf_(std::move(bytes))
{}

char
CheckpointReader::takeTag()
{
    if (pos_ >= buf_.size())
        throw CheckpointError("unexpected end of stream");
    return buf_[pos_++];
}

void
CheckpointReader::expectTag(char want)
{
    const char got = takeTag();
    if (got != want)
        throw CheckpointError(std::string("expected tag '") + want +
                              "', found '" + got + "'");
}

std::uint64_t
CheckpointReader::raw64()
{
    if (buf_.size() - pos_ < 8)
        throw CheckpointError("truncated 64-bit value");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(buf_[pos_ + i]))
             << (8 * i);
    pos_ += 8;
    return v;
}

std::string
CheckpointReader::takeBytes(std::uint64_t n)
{
    if (buf_.size() - pos_ < n)
        throw CheckpointError("truncated byte string");
    std::string s = buf_.substr(pos_, n);
    pos_ += n;
    return s;
}

std::uint64_t
CheckpointReader::getU64()
{
    expectTag(kTagU64);
    return raw64();
}

std::int64_t
CheckpointReader::getI64()
{
    expectTag(kTagI64);
    return static_cast<std::int64_t>(raw64());
}

double
CheckpointReader::getF64()
{
    expectTag(kTagF64);
    const std::uint64_t bits = raw64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

bool
CheckpointReader::getBool()
{
    expectTag(kTagBool);
    if (pos_ >= buf_.size())
        throw CheckpointError("truncated bool");
    return buf_[pos_++] != '\0';
}

std::string
CheckpointReader::getString()
{
    expectTag(kTagString);
    return takeBytes(raw64());
}

void
CheckpointReader::beginSection(std::string_view name)
{
    expectTag(kTagOpen);
    const std::string found = takeBytes(raw64());
    if (found != name)
        throw CheckpointError("expected section '" +
                              std::string(name) + "', found '" +
                              found + "'");
}

void
CheckpointReader::endSection()
{
    expectTag(kTagClose);
}

// ---------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------

CheckpointCounters
checkpointCounters()
{
    CheckpointCounters c;
    c.saves = g_saves.load(std::memory_order_relaxed);
    c.restores = g_restores.load(std::memory_order_relaxed);
    return c;
}

void
countRestore()
{
    g_restores.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
fnv1a64(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
toHex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
fromHex64(std::string_view s)
{
    if (s.empty() || s.size() > 16)
        return 0;
    std::uint64_t v = 0;
    for (char c : s) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return 0;
    }
    return v;
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        throw CheckpointError("cannot create directory '" + dir_ +
                              "': " + ec.message());
}

std::string
CheckpointStore::pathFor(const std::string &key) const
{
    return dir_ + "/ck_" + toHex64(fnv1a64(key)) + ".bin";
}

bool
CheckpointStore::load(const std::string &key,
                      std::string &blobOut) const
{
    std::string contents;
    if (!readFile(pathFor(key), contents))
        return false;
    // Layout: magic, u64 key length, key bytes, u64 blob length,
    // u64 FNV-1a of blob, blob. Any mismatch — magic, key, length
    // (truncation), checksum (bit rot) — is a miss, never an answer.
    const auto readU64 = [&contents](std::size_t off) {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(contents[off + i]))
                 << (8 * i);
        return v;
    };
    if (contents.size() < kStoreMagicLen + 8)
        return false;
    if (contents.compare(0, kStoreMagicLen, kStoreMagic) != 0)
        return false;
    const std::uint64_t klen = readU64(kStoreMagicLen);
    const std::size_t keyOff = kStoreMagicLen + 8;
    if (klen != key.size() || contents.size() < keyOff + klen + 16)
        return false;
    if (contents.compare(keyOff, klen, key) != 0)
        return false; // hash collision or stale file: miss, not error
    const std::uint64_t blen = readU64(keyOff + klen);
    const std::uint64_t bsum = readU64(keyOff + klen + 8);
    const std::size_t blobOff = keyOff + klen + 16;
    if (contents.size() != blobOff + blen)
        return false; // truncated or padded: miss
    const std::string_view blob(contents.data() + blobOff, blen);
    if (fnv1a64(blob) != bsum)
        return false; // corrupted payload: miss
    blobOut.assign(blob);
    return true;
}

void
CheckpointStore::save(const std::string &key,
                      const std::string &blob) const
{
    std::string doc(kStoreMagic, kStoreMagicLen);
    const auto appendU64 = [&doc](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            doc += static_cast<char>((v >> (8 * i)) & 0xff);
    };
    appendU64(key.size());
    doc += key;
    appendU64(blob.size());
    appendU64(fnv1a64(blob));
    doc += blob;

    const std::string path = pathFor(key);
    const std::string tmp = path + ".tmp";
    std::string reason;
    switch (writeFileAtomic(path, doc, reason)) {
      case WriteStep::None:
        break;
      case WriteStep::Open:
        throw CheckpointError("cannot write '" + tmp + "'");
      case WriteStep::Write:
        throw CheckpointError("write failed for '" + tmp + "'");
      case WriteStep::Rename:
        throw CheckpointError("rename to '" + path +
                              "' failed: " + reason);
    }
    g_saves.fetch_add(1, std::memory_order_relaxed);
}

} // namespace drisim::sim
