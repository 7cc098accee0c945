/**
 * @file
 * Content-addressed result memoization.
 *
 * A run's full semantic configuration is collected into a ConfigKey
 * (unordered k=v pairs), canonicalized by sorting, and hashed; cell
 * results are stored under the hash in a sidecar shared across
 * bench binaries, runs and *processes* — the same dedup idea as
 * programImageFor(), applied to results instead of images.
 *
 * The sidecar is newline-delimited JSON: one self-contained record
 * per line, appended with a single O_APPEND write per flush so any
 * number of concurrent writer processes (a sharded sweep farm,
 * tools/farm_runner) interleave whole records, never bytes. A torn
 * or corrupt line — a writer killed mid-append, a hand-edited file
 * — invalidates only itself: the loader skips it and keeps every
 * other record (two-process hammer locked by
 * tests/result_cache_test.cc). Later records win, which is
 * harmless: results are deterministic functions of the config.
 *
 * Values are stored as strings and compared/parsed exactly, so a
 * cached result is byte-identical to a recomputed one. The stored
 * record keeps the full canonical config string and lookup compares
 * it, so a hash collision (or hand-edited sidecar) is a miss, never
 * a wrong answer.
 */

#ifndef DRISIM_SIM_RESULT_CACHE_HH
#define DRISIM_SIM_RESULT_CACHE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace drisim::sim
{

/**
 * Builder for a run's canonical configuration identity. Insertion
 * order is irrelevant: canonical() sorts by key, so semantically
 * identical configs hash equal however they were assembled.
 */
class ConfigKey
{
  public:
    ConfigKey &add(std::string_view key, std::string_view value);
    ConfigKey &add(std::string_view key, const char *value);
    ConfigKey &add(std::string_view key, std::uint64_t value);
    ConfigKey &add(std::string_view key, bool value);
    /** Doubles rendered with %.17g: exact round-trip. */
    ConfigKey &addDouble(std::string_view key, double value);

    /** Drop every column named exactly @p key. */
    ConfigKey &erase(std::string_view key);

    /** Sorted "k=v;" concatenation — the hashed identity. */
    std::string canonical() const;

    /** FNV-1a of canonical() — the sweep-farm shard key. */
    std::uint64_t hash() const;

    /** 16-hex-digit rendering of hash(). */
    std::string hashHex() const;

  private:
    std::vector<std::pair<std::string, std::string>> pairs_;
};

/**
 * Persistent result memoization keyed by ConfigKey. Thread-safe
 * within a process; safe against concurrent writer processes on one
 * sidecar (append-only records, see file comment). Loaded lazily,
 * written back by flush() (also on destruction).
 */
class ResultCache
{
  public:
    /** Result payload: field name -> exact string value. */
    using Fields = std::map<std::string, std::string>;

    struct Counters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
    };

    /** @param path sidecar file (created on first flush). */
    explicit ResultCache(std::string path);
    ~ResultCache();

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** @return true and fill @p out on a verified hit. */
    bool lookup(const ConfigKey &key, Fields &out);

    void store(const ConfigKey &key, const Fields &fields);

    /** Append records stored since the last flush to the sidecar
     *  (one O_APPEND write: concurrent flushing processes never
     *  tear each other's records). */
    void flush();

    /**
     * Re-read the sidecar, merging records appended by other
     * processes since this instance loaded (sweep_merge's
     * re-read-on-merge). Unflushed local stores are flushed first,
     * so nothing pending is lost.
     */
    void reload();

    /** Number of loaded + stored records currently visible. */
    std::size_t size();

    Counters counters() const;

    const std::string &path() const { return path_; }

  private:
    struct Entry
    {
        std::string config; ///< full canonical string, verified
        Fields fields;
    };

    void ensureLoadedLocked();
    void loadSidecarLocked();
    std::string renderRecord(const std::string &hash,
                             const Entry &e) const;

    std::string path_;
    bool loaded_ = false;
    std::map<std::string, Entry> entries_; ///< by hash hex
    std::vector<std::string> pending_;     ///< hashes not yet flushed
    Counters counters_;
    mutable std::mutex mu_;
};

} // namespace drisim::sim

#endif // DRISIM_SIM_RESULT_CACHE_HH
