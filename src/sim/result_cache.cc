/**
 * @file
 * Canonical config hashing and the append-only newline-delimited
 * result sidecar.
 */

#include "sim/result_cache.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "sim/checkpoint.hh"
#include "util/json.hh"

namespace drisim::sim
{

// ---------------------------------------------------------------
// ConfigKey
// ---------------------------------------------------------------

ConfigKey &
ConfigKey::add(std::string_view key, std::string_view value)
{
    pairs_.emplace_back(std::string(key), std::string(value));
    return *this;
}

ConfigKey &
ConfigKey::add(std::string_view key, const char *value)
{
    return add(key, std::string_view(value));
}

ConfigKey &
ConfigKey::add(std::string_view key, std::uint64_t value)
{
    return add(key, std::string_view(std::to_string(value)));
}

ConfigKey &
ConfigKey::add(std::string_view key, bool value)
{
    return add(key, std::string_view(value ? "1" : "0"));
}

ConfigKey &
ConfigKey::addDouble(std::string_view key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return add(key, std::string_view(buf));
}

std::string
ConfigKey::canonical() const
{
    auto sorted = pairs_;
    std::sort(sorted.begin(), sorted.end());
    std::string out;
    for (const auto &[k, v] : sorted) {
        out += k;
        out += '=';
        out += v;
        out += ';';
    }
    return out;
}

std::uint64_t
ConfigKey::hash() const
{
    return fnv1a64(canonical());
}

std::string
ConfigKey::hashHex() const
{
    return toHex64(hash());
}

// ---------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------

ResultCache::ResultCache(std::string path) : path_(std::move(path)) {}

ResultCache::~ResultCache()
{
    try {
        flush();
    } catch (...) {
        // A failed final flush only loses memoization, not results.
    }
}

void
ResultCache::ensureLoadedLocked()
{
    if (loaded_)
        return;
    loaded_ = true;
    loadSidecarLocked();
}

void
ResultCache::loadSidecarLocked()
{
    std::ifstream in(path_, std::ios::binary);
    if (!in)
        return; // no sidecar yet: start empty
    const std::string contents((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());

    // One {"hash":h,"config":c,"fields":{...}} record per line. A
    // line that fails to parse — torn tail of a killed writer,
    // hand-edited junk — is skipped on its own; every other record
    // survives. A trailing chunk without '\n' is by definition an
    // incomplete append and is never parsed.
    std::size_t start = 0;
    while (start < contents.size()) {
        const std::size_t nl = contents.find('\n', start);
        if (nl == std::string::npos)
            break; // torn final append
        const std::string line = contents.substr(start, nl - start);
        start = nl + 1;
        if (line.empty())
            continue;

        JsonParser p{line};
        if (!p.consume('{') || !p.expectKey("hash"))
            continue;
        std::string hash = p.parseString();
        if (!p.ok || !p.consume(',') || !p.expectKey("config"))
            continue;
        Entry e;
        e.config = p.parseString();
        if (!p.ok || !p.consume(',') || !p.expectKey("fields"))
            continue;
        e.fields = p.parseStringMap();
        if (!p.ok || !p.consume('}') || !p.ok)
            continue;
        p.skipWs();
        if (p.pos != line.size())
            continue; // trailing junk: treat the line as torn
        entries_[std::move(hash)] = std::move(e);
    }
}

bool
ResultCache::lookup(const ConfigKey &key, Fields &out)
{
    const std::string canon = key.canonical();
    const std::string hash = toHex64(fnv1a64(canon));

    std::lock_guard<std::mutex> lock(mu_);
    ensureLoadedLocked();
    const auto it = entries_.find(hash);
    if (it == entries_.end() || it->second.config != canon) {
        ++counters_.misses;
        return false;
    }
    out = it->second.fields;
    ++counters_.hits;
    return true;
}

void
ResultCache::store(const ConfigKey &key, const Fields &fields)
{
    const std::string canon = key.canonical();
    const std::string hash = toHex64(fnv1a64(canon));

    std::lock_guard<std::mutex> lock(mu_);
    ensureLoadedLocked();
    Entry &e = entries_[hash];
    e.config = canon;
    e.fields = fields;
    pending_.push_back(hash);
    ++counters_.stores;
}

std::string
ResultCache::renderRecord(const std::string &hash,
                          const Entry &e) const
{
    std::string out = "{\"hash\":\"";
    out += jsonEscape(hash);
    out += "\",\"config\":\"";
    out += jsonEscape(e.config);
    out += "\",\"fields\":{";
    bool first = true;
    for (const auto &[k, v] : e.fields) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += jsonEscape(k);
        out += "\":\"";
        out += jsonEscape(v);
        out += '"';
    }
    out += "}}\n";
    return out;
}

void
ResultCache::flush()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty())
        return;

    std::string out;
    for (const std::string &hash : pending_) {
        const auto it = entries_.find(hash);
        if (it != entries_.end())
            out += renderRecord(hash, it->second);
    }

    // One O_APPEND write of whole lines: POSIX appends land wholly
    // at EOF, so concurrent flushing processes (sharded farm runs
    // on one sidecar) interleave records, never bytes of a record.
    const int fd = ::open(path_.c_str(),
                          O_RDWR | O_CREAT | O_APPEND, 0644);
    if (fd < 0)
        return; // persist failure loses memoization only
    // A tail without '\n' (torn write of a killed process, hand
    // edits) would glue our first record onto the junk line and
    // lose it too; a leading newline quarantines the junk to its
    // own (skipped) line. Cooperating writers always end in '\n',
    // so a race here at worst adds a blank line the loader skips.
    struct stat st{};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
        char last = '\n';
        if (::pread(fd, &last, 1, st.st_size - 1) == 1 &&
            last != '\n')
            out.insert(out.begin(), '\n');
    }
    std::size_t done = 0;
    bool failed = false;
    while (done < out.size()) {
        const ssize_t n =
            ::write(fd, out.data() + done, out.size() - done);
        if (n <= 0) {
            failed = true;
            break;
        }
        done += static_cast<std::size_t>(n);
    }
    ::close(fd);
    if (!failed)
        pending_.clear();
}

void
ResultCache::reload()
{
    flush();
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    loaded_ = true;
    loadSidecarLocked();
}

std::size_t
ResultCache::size()
{
    std::lock_guard<std::mutex> lock(mu_);
    ensureLoadedLocked();
    return entries_.size();
}

ResultCache::Counters
ResultCache::counters() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
}

} // namespace drisim::sim
